"""Potential parameterizer, Chebyshev nets, stable update, losses."""
import numpy as np
import numpy.testing as npt
import pytest

import be_spectral.autodiff as ad
from be_spectral import barbell_graph, build_be, build_graph, ring_graph
from be_spectral.chebyshev import LAMBDA_MAX_SLACK
from be_spectral.errors import IsolatedNodeUnderMu
from be_spectral.fileio import load_checkpoint, save_checkpoint
from be_spectral.graphs import laplacian
from be_spectral.models import (ModelConfig, MuChebNet, MuConfig, accuracy,
                                context_for, cross_entropy_loss, log10_mse,
                                mse_loss)
from be_spectral.verify import gradcheck_error, numeric_gradient, random_graph

RNG = np.random.default_rng(2024)


def small_model(operator="sym", mu=True, **kw):
    cfg = ModelConfig(layers=2, K=3, hidden=4, out_dim=1, operator=operator,
                      mu=MuConfig() if mu else None, **kw)
    return MuChebNet(2, cfg, seed=11)


class TestMuParameterizer:
    def test_zero_initialized_head_gives_softplus_floor(self):
        g = ring_graph(8)
        model = small_model()
        x = RNG.standard_normal((8, 2))
        _, mu = model.forward(ad.Tape(), context_for(g), x)
        expected = np.log1p(np.exp(0.0)) + 1e-4
        npt.assert_allclose(mu.data, np.full(8, expected), atol=1e-12)

    def test_strictly_positive_everywhere(self):
        g = random_graph(np.random.default_rng(1), connected=True)
        model = MuChebNet(2, ModelConfig(mu=MuConfig()), seed=0)
        # scramble the head so mu is nonconstant
        model.params["mu.Whead"] = np.random.default_rng(2).standard_normal(
            model.params["mu.Whead"].shape)
        x = np.random.default_rng(3).standard_normal((g.n, 2))
        _, mu = model.forward(ad.Tape(), context_for(g), x)
        assert (mu.data >= 1e-4).all()
        assert mu.data.std() > 0  # actually varies once the head is nonzero

    def test_deterministic_given_seed(self):
        m1 = small_model()
        m2 = small_model()
        for k in m1.params:
            npt.assert_array_equal(m1.params[k], m2.params[k])


class TestMuChebNetForward:
    def test_constant_mu_head_matches_plain_chebnet(self):
        # untrained head emits a constant potential; with the normalized
        # operator the scale cancels and the network equals the mu-free one
        g = ring_graph(8)
        x = RNG.standard_normal((8, 2))
        with_mu = small_model(mu=True)
        plain = small_model(mu=False)
        shared = {k: v for k, v in with_mu.params.items()
                  if not k.startswith("mu.")}
        plain.load_params(shared)
        p1, _ = with_mu.forward(ad.Tape(), context_for(g), x)
        p2, _ = plain.forward(ad.Tape(), context_for(g), x)
        npt.assert_allclose(p1.data, p2.data, atol=1e-9)

    def test_k_zero_is_nodewise_mlp(self):
        # no propagation: predictions ignore the topology entirely
        x = RNG.standard_normal((7, 2))
        cfg = ModelConfig(layers=2, K=0, hidden=4, out_dim=1, mu=MuConfig())
        model = MuChebNet(2, cfg, seed=4)
        g1 = ring_graph(7)
        g2 = build_graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        p1, _ = model.forward(ad.Tape(), context_for(g1), x)
        p2, _ = model.forward(ad.Tape(), context_for(g2), x)
        npt.assert_allclose(p1.data, p2.data, atol=1e-12)
        # and node i's output only depends on x_i
        x_mod = x.copy()
        x_mod[3] += 1.0
        p3, _ = model.forward(ad.Tape(), context_for(g1), x_mod)
        npt.assert_allclose(p3.data[:3], p1.data[:3], atol=1e-12)
        assert np.abs(p3.data[3] - p1.data[3]).max() > 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n_min=8, n_max=12, connected=True)
        perm = rng.permutation(g.n)
        g_perm = build_graph(g.n, [(perm[i], perm[j]) for i, j in g.edges])
        x = rng.standard_normal((g.n, 2))
        x_perm = np.empty_like(x)
        x_perm[perm] = x

        model = small_model()
        model.params["mu.Whead"] = rng.standard_normal(
            model.params["mu.Whead"].shape)  # nonconstant mu
        pred, mu = model.forward(ad.Tape(), context_for(g), x)
        pred_p, mu_p = model.forward(ad.Tape(), context_for(g_perm), x_perm)
        npt.assert_allclose(pred_p.data[perm], pred.data, atol=1e-9)
        npt.assert_allclose(mu_p.data[perm], mu.data, atol=1e-9)

    def test_graph_level_readout_invariant_under_permutation(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n_min=6, n_max=10, connected=True)
        perm = rng.permutation(g.n)
        g_perm = build_graph(g.n, [(perm[i], perm[j]) for i, j in g.edges])
        x = rng.standard_normal((g.n, 2))
        x_perm = np.empty_like(x)
        x_perm[perm] = x
        cfg = ModelConfig(layers=1, K=2, hidden=4, out_dim=3, readout="graph",
                          mu=MuConfig())
        model = MuChebNet(2, cfg, seed=7)
        p1, _ = model.forward(ad.Tape(), context_for(g), x)
        p2, _ = model.forward(ad.Tape(), context_for(g_perm), x_perm)
        npt.assert_allclose(p1.data, p2.data, atol=1e-9)

    def test_batched_equals_loop(self):
        g = ring_graph(6)
        xs = RNG.standard_normal((3, 6, 2))
        model = small_model()
        batch_pred, _ = model.forward(ad.Tape(), context_for(g), xs)
        for b in range(3):
            single, _ = model.forward(ad.Tape(), context_for(g), xs[b])
            npt.assert_allclose(batch_pred.data[b], single.data, atol=1e-12)

    def test_gradients_reach_potential_parameters(self):
        g = ring_graph(8)
        x = RNG.standard_normal((8, 2))
        y = RNG.standard_normal((8, 1))
        model = small_model()
        state = ad.AdamState(model.params)
        for step in range(2):
            tape = ad.Tape()
            pred, _ = model.forward(tape, context_for(g), x)
            grads = {t.name: v for t, v in
                     ad.backward(tape, mse_loss(pred, y, np.ones(8, bool))).items()}
            if step == 0:
                assert np.abs(grads["mu.Whead"]).max() > 0
            ad.adam_step(model.params, grads, state, lr=1e-2)
        # once the head moved off zero, the whole parameterizer gets signal
        assert all(np.abs(grads[k]).max() > 0
                   for k in grads if k.startswith("mu."))

    @pytest.mark.parametrize("stable", [False, True])
    def test_each_layer_is_one_tape_node(self, stable):
        b, n = 3, 8
        model = small_model(stable=stable)
        tape = ad.Tape()
        model.forward(tape, context_for(ring_graph(n)), RNG.standard_normal((b, n, 2)))
        kinds = [node.vjp.__qualname__.split(".")[0] for node in tape._nodes]
        assert kinds.count("cheb_layer") == 2
        matmul_operands = [p.shape for node, kind in zip(tape._nodes, kinds)
                           if kind == "matmul" for p in node.parents]
        assert matmul_operands and (b, n, n) not in matmul_operands

    def test_bind_rejects_a_tape_with_other_leaves(self):
        tape = ad.Tape()
        tape.leaf(np.ones(3), name="x")
        with pytest.raises(ValueError, match="not this model's parameters"):
            small_model().bind(tape)

    def test_shape_validation(self):
        model = small_model()
        with pytest.raises(ValueError, match="incompatible"):
            model.forward(ad.Tape(), context_for(ring_graph(8)), np.zeros((8, 3)))


class TestLambdaMaxHandling:
    def test_recomputed_value_equals_frozen_constant(self):
        # the eigenvalue solve runs outside the tape; passing the same number
        # as an explicit constant reproduces gradients bit for bit
        g = ring_graph(8)
        x = RNG.standard_normal((8, 2))
        y = RNG.standard_normal((8, 1))
        model = small_model(operator="unnorm")

        tape1 = ad.Tape()
        pred1, mu1 = model.forward(tape1, context_for(g), x)
        g1 = {t.name: v for t, v in
              ad.backward(tape1, mse_loss(pred1, y, np.ones(8, bool))).items()}

        # reproduce the internal value for the induced operator
        l_mu = build_be(g, mu1.data).operator().dense()
        lam = LAMBDA_MAX_SLACK * np.linalg.eigvalsh(l_mu)[-1]
        tape2 = ad.Tape()
        pred2, _ = model.forward(tape2, context_for(g), x, lambda_max=lam)
        g2 = {t.name: v for t, v in
              ad.backward(tape2, mse_loss(pred2, y, np.ones(8, bool))).items()}
        npt.assert_array_equal(pred1.data, pred2.data)
        for k in g1:
            npt.assert_array_equal(g1[k], g2[k])

    def test_unnorm_scaling_stays_inside_unit_interval(self):
        # criterion-8 barbell with a spread potential: an underestimated
        # lambda_max would put the top scaled eigenvalue above 1, where T_K grows
        g = barbell_graph(23, 4)
        mu = np.random.default_rng(7).uniform(0.1, 2.0, g.n)
        model = small_model(operator="unnorm")
        op = model._mu_operator(context_for(g), ad.constant(mu.reshape(1, g.n, 1)), None)
        assert np.linalg.eigvalsh(op.data)[..., -1].max() <= 1.0

    @pytest.mark.parametrize("mu", [MuConfig(), None])
    def test_unnorm_edgeless_graph_stays_finite(self, mu):
        # L = 0 has lambda_max = 0; the scaled operator must not divide by it
        model = MuChebNet(2, ModelConfig(K=3, hidden=4, operator="unnorm", mu=mu), seed=3)
        pred, _ = model.forward(ad.Tape(), context_for(build_graph(3, [])), np.ones((3, 2)))
        assert np.isfinite(pred.data).all()

    def test_no_leaf_for_lambda_max(self):
        g = ring_graph(8)
        model = small_model(operator="unnorm")
        tape = ad.Tape()
        model.forward(tape, context_for(g), RNG.standard_normal((8, 2)))
        assert {t.name for t in tape.leaves()} == set(model.params)


class TestEndToEndGradcheck:
    @pytest.mark.parametrize("operator", ["sym", "unnorm"])
    def test_all_parameter_gradients(self, operator):
        rng = np.random.default_rng(8)
        g = ring_graph(8)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((8, 1))
        mask = np.ones(8, bool)
        model = small_model(operator=operator)
        lam = None if operator == "sym" else 9.0

        tape = ad.Tape()
        pred, _ = model.forward(tape, context_for(g), x, lambda_max=lam)
        grads = {t.name: v for t, v in
                 ad.backward(tape, mse_loss(pred, y, mask)).items()}

        def lossfn(p):
            t = ad.Tape()
            pr, _ = model.forward(t, context_for(g), x, lambda_max=lam)
            return float(mse_loss(pr, y, mask).data)

        coords = []
        for name in sorted(model.params):
            size = model.params[name].size
            coords.append((name, int(rng.integers(size))))
        fd = numeric_gradient(lossfn, model.params, coords)
        worst = max(gradcheck_error(float(grads[n].reshape(-1)[i]), v)
                    for (n, i), v in fd.items())
        assert worst <= 1e-4, worst


class TestStableVariant:
    def test_zero_step_freezes_hidden_state(self):
        g = ring_graph(6)
        x = RNG.standard_normal((6, 3))
        cfg = ModelConfig(layers=5, K=2, hidden=4, out_dim=1, stable=True,
                          eps=0.0, gamma=0.1, mu=MuConfig())
        model = MuChebNet(3, cfg, seed=9)
        pred, _ = model.forward(ad.Tape(), context_for(g), x)
        manual = (x @ model.params["enc.W"] + model.params["enc.b"]) \
            @ model.params["readout.W"] + model.params["readout.b"]
        npt.assert_allclose(pred.data, manual, atol=1e-12)

    def test_antisymmetric_part_purely_imaginary(self):
        cfg = ModelConfig(layers=1, K=4, hidden=16, out_dim=1, stable=True,
                          mu=None)
        model = MuChebNet(3, cfg, seed=10)
        for k in range(5):
            w = model.params[f"layer0.W{k}"]
            ev = np.linalg.eigvals(w - w.T)
            assert np.abs(ev.real).max() <= 1e-10
            ev_damped = np.linalg.eigvals(w - w.T - cfg.gamma * np.eye(16))
            npt.assert_allclose(ev_damped.real, -cfg.gamma, atol=1e-10)


class TestLosses:
    def test_mse_zero_when_equal(self):
        tape = ad.Tape()
        pred = tape.leaf(np.ones((4, 1)))
        assert float(mse_loss(pred, np.ones((4, 1)), None).data) == 0.0

    def test_mse_one_when_off_by_one(self):
        tape = ad.Tape()
        pred = tape.leaf(np.zeros((2, 5, 1)))
        target = np.ones((2, 5, 1))
        val = float(mse_loss(pred, target, np.ones(5, bool)).data)
        assert abs(val - 1.0) < 1e-15

    def test_masked_mse_counts_only_selected(self):
        tape = ad.Tape()
        pred = tape.leaf(np.zeros((4, 1)))
        target = np.array([[1.0], [10.0], [1.0], [10.0]])
        mask = np.array([True, False, True, False])
        assert abs(float(mse_loss(pred, target, mask).data) - 1.0) < 1e-15

    def test_empty_mask_rejected(self):
        tape = ad.Tape()
        pred = tape.leaf(np.zeros((4, 1)))
        with pytest.raises(ValueError, match="mask"):
            mse_loss(pred, np.zeros((4, 1)), np.zeros(4, bool))

    def test_uniform_logits_cross_entropy(self):
        tape = ad.Tape()
        logits = tape.leaf(np.zeros((6, 10)))
        val = float(cross_entropy_loss(logits, np.arange(6)).data)
        assert abs(val - np.log(10.0)) < 1e-12

    def test_log10_reporting_transform(self):
        assert abs(log10_mse(0.01) + 2.0) < 1e-12

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = ModelConfig(layers=3, K=7, hidden=32, operator="unnorm",
                          stable=True, gamma=0.2, eps=0.05,
                          mu=MuConfig(layers=1, hidden=8, eps_floor=1e-3))
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_plain_chebnet_config(self):
        cfg = ModelConfig.from_dict({"layers": 1, "K": 5, "hidden": 8,
                                     "out_dim": 1, "mu": None})
        assert cfg.mu is None

    def test_validation(self):
        with pytest.raises(ValueError, match="operator"):
            ModelConfig(operator="bogus")
        with pytest.raises(ValueError, match="readout"):
            ModelConfig(readout="bogus")
        with pytest.raises(ValueError, match="layer"):
            ModelConfig(layers=0)
        with pytest.raises(ValueError, match="model out_dim 0 must be an integer >= 1"):
            ModelConfig(out_dim=0)
        with pytest.raises(ValueError, match="model gamma nan must be a finite number"):
            ModelConfig(gamma=float("nan"))
        with pytest.raises(ValueError, match="model.mu eps_floor 0.0 must be a finite number > 0"):
            MuConfig(eps_floor=0.0)
        MuConfig(layers=0)  # the potential head reads the input features directly


class TestLoadParams:
    def test_checkpoint_roundtrip(self, tmp_path):
        source = small_model()
        source.params["readout.W"] = RNG.standard_normal(source.params["readout.W"].shape)
        save_checkpoint(tmp_path / "ckpt", source.params)
        target = small_model()
        target.load_params(load_checkpoint(tmp_path / "ckpt")[0])
        for k, v in source.params.items():
            npt.assert_array_equal(target.params[k], v)
        assert target.parameterizer.params is target.params

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("readout.b"), r"missing \['readout.b'\], extra \[\]"),
        (lambda p: p.update(bogus=np.zeros(2)), r"missing \[\], extra \['bogus'\]"),
        (lambda p: p.update({"readout.W": np.zeros((7, 7))}),
         r"'readout.W' has shape \(7, 7\), the model needs \(4, 1\)"),
    ])
    def test_mismatch_rejected_before_any_assignment(self, edit, message):
        model = small_model()
        before = model.snapshot()
        values = {k: v + 1.0 for k, v in before.items()}
        edit(values)
        with pytest.raises(ValueError, match=message):
            model.load_params(values)
        assert set(model.params) == set(before)
        for k, v in before.items():
            npt.assert_array_equal(model.params[k], v)


def _plain_operator_reference(g, operator):
    """The mu-free scaled operator as a separate numpy formula: L_sym - I or 2 L / lambda_max - I."""
    lap = laplacian(g).dense()
    if operator == "sym":
        deg = np.diag(lap)
        r = 1.0 / np.sqrt(deg)
        return -(r[:, None] * (np.diag(deg) - lap) * r[None, :])
    lam = LAMBDA_MAX_SLACK * max(np.linalg.eigvalsh(lap)[-1], 1e-12)
    return 2.0 / float(lam) * lap - np.eye(g.n)


def _forward_operator(monkeypatch, model, g):
    """The operator ``model.forward`` hands to its first Chebyshev layer."""
    seen = []
    layer = ad.cheb_layer
    monkeypatch.setattr(ad, "cheb_layer", lambda op, h, w: seen.append(op) or layer(op, h, w))
    model.forward(ad.Tape(), context_for(g), RNG.standard_normal((3, g.n, 2)))
    return seen[0]


PLAIN_GRAPHS = [barbell_graph(23, 4), ring_graph(16)] + [
    random_graph(np.random.default_rng(500 + i), connected=True) for i in range(20)]


class TestPlainModelOperator:
    @pytest.mark.parametrize("g", PLAIN_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
    @pytest.mark.parametrize("operator", ["sym", "unnorm"])
    def test_matches_combinatorial_laplacian_formula(self, monkeypatch, g, operator):
        op = _forward_operator(monkeypatch, small_model(operator, mu=False), g)
        assert not op.requires_grad and op.shape == (1, g.n, g.n)
        ref = _plain_operator_reference(g, operator)
        if operator == "unnorm":
            npt.assert_array_equal(op.data[0], ref)
        else:
            npt.assert_allclose(op.data[0], ref, rtol=1e-14, atol=0)

    def test_gcn_propagation_is_normalized_adjacency_plus_identity(self):
        for g in PLAIN_GRAPHS:
            r = 1.0 / np.sqrt(g.degrees + 1.0)
            adj = np.zeros((g.n, g.n))
            adj[g.edges[:, 0], g.edges[:, 1]] = adj[g.edges[:, 1], g.edges[:, 0]] = 1.0
            ref = r[:, None] * (adj + np.eye(g.n)) * r[None, :]
            npt.assert_array_equal(context_for(g).gcn_prop, ref)

    @pytest.mark.parametrize("mu", [False, True])
    def test_sym_model_rejects_isolated_node(self, mu):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3)])  # node 4 has no edge
        with pytest.raises(IsolatedNodeUnderMu, match="isolated"):
            small_model("sym", mu=mu).forward(ad.Tape(), context_for(g),
                                              RNG.standard_normal((5, 2)))


class TestSymOperatorFromEdgeWeights:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_numpy_normalization_and_is_bit_symmetric(self, seed):
        rng = np.random.default_rng(700 + seed)
        g = random_graph(rng, connected=True)
        b = 3
        mu = rng.uniform(0.1, 3.0, (b, g.n, 1))
        op = small_model("sym")._mu_operator(context_for(g), ad.constant(mu), None).data
        ei, ej = g.edges[:, 0], g.edges[:, 1]
        a_mu = np.zeros((b, g.n, g.n))
        a_mu[:, ei, ej] = a_mu[:, ej, ei] = 0.5 * (mu[:, ei, 0] + mu[:, ej, 0])
        r = a_mu.sum(axis=-1) ** -0.5
        npt.assert_allclose(op, -(r[:, :, None] * a_mu * r[:, None, :]), rtol=1e-14, atol=0)
        npt.assert_array_equal(op, np.swapaxes(op, -1, -2))

    def test_no_dense_elementwise_nodes(self):
        b, n = 3, 8
        tape = ad.Tape()
        small_model("sym").forward(tape, context_for(ring_graph(n)),
                                   RNG.standard_normal((b, n, 2)))
        dense = [node.vjp.__qualname__.split(".")[0] for node in tape._nodes
                 if node.shape == (b, n, n)]
        assert dense and not {"mul", "neg"} & set(dense)


class TestMaskedMseChannels:
    @pytest.mark.parametrize("batched_mask", [False, True])
    def test_value_and_gradient_against_numpy(self, batched_mask):
        b, n, c = 4, 7, 3
        rng = np.random.default_rng(31)
        p, y = rng.standard_normal((b, n, c)), rng.standard_normal((b, n, c))
        mask = rng.random((b, n) if batched_mask else n) < 0.5
        mask[..., 0] = True
        w = np.broadcast_to(mask[..., None], (b, n, c))
        tape = ad.Tape()
        pred = tape.leaf(p)
        loss = mse_loss(pred, y, mask)
        npt.assert_allclose(float(loss.data), ((p - y) ** 2)[w].mean(), rtol=1e-14)
        grad = ad.backward(tape, loss)[pred]
        npt.assert_allclose(grad, 2.0 * (p - y) * w / w.sum(), rtol=1e-14, atol=1e-17)
