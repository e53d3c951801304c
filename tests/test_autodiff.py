"""Reverse-mode engine: primitive VJPs vs finite differences, tape semantics, Adam."""
from functools import reduce

import numpy as np
import numpy.testing as npt
import pytest

import be_spectral.autodiff as ad
from be_spectral.chebyshev import cheb_basis
from be_spectral.errors import NaNLoss
from be_spectral.be import advection_decomposition, build_be
from be_spectral.graphs import build_graph, ring_graph
from be_spectral.spectral import variation_profile
from be_spectral.verify import gradcheck_error, numeric_gradient

RNG = np.random.default_rng(123)


def check_op(build, shapes, coords_per_input=6, tol=1e-6, positive=False):
    """Gradcheck a scalar-valued composite against central differences."""
    params = {}
    for name, shape in shapes.items():
        arr = RNG.standard_normal(shape)
        if positive:
            arr = np.abs(arr) + 0.5
        params[name] = arr

    def lossfn(p):
        tape = ad.Tape()
        leaves = {k: tape.leaf(v, name=k) for k, v in p.items()}
        return float(build(leaves).data)

    tape = ad.Tape()
    leaves = {k: tape.leaf(v, name=k) for k, v in params.items()}
    out = build(leaves)
    grads = {t.name: g for t, g in ad.backward(tape, out).items()}
    coords = []
    for name in shapes:
        size = params[name].size
        for idx in RNG.choice(size, size=min(coords_per_input, size), replace=False):
            coords.append((name, int(idx)))
    fd = numeric_gradient(lossfn, params, coords)
    worst = max(gradcheck_error(float(grads[n].reshape(-1)[i]), v)
                for (n, i), v in fd.items())
    assert worst <= tol, f"worst rel err {worst:.2e}"


class TestPrimitiveGradients:
    def test_add_mul_broadcast(self):
        check_op(lambda p: ad.tsum((p["a"] + p["b"]) * p["c"] * p["a"]),
                 {"a": (3, 4), "b": (4,), "c": (3, 1)})

    def test_sub_div_neg(self):
        check_op(lambda p: ad.tsum(-p["a"] - (p["a"] - p["b"])),
                 {"a": (2, 5), "b": (2, 5)})

    def test_matmul_batched(self):
        check_op(lambda p: ad.tsum((p["a"] @ p["w"]) * (p["a"] @ p["w"])),
                 {"a": (2, 3, 4), "w": (4, 2)})

    def test_matmul_plain(self):
        check_op(lambda p: ad.tsum(p["a"] @ p["b"] @ p["c"]),
                 {"a": (3, 4), "b": (4, 5), "c": (5, 2)})

    def test_transpose_reshape_concat(self):
        def build(p):
            t = ad.transpose2(p["a"])            # (4, 3)
            r = ad.reshape(t, (2, 6))
            return ad.tsum(r * r)
        check_op(build, {"a": (3, 4)})

    def test_reductions(self):
        def build(p):
            s1 = ad.tsum(p["a"], axis=-1)
            s2 = ad.tmean(p["a"], axis=0, keepdims=True)
            return ad.tsum(s1 * s1) + ad.tsum(s2 * s2) + ad.tmean(p["a"])
        check_op(build, {"a": (3, 5)})

    def test_elementwise_chain(self):
        def build(p):
            return ad.tsum(ad.texp(0.3 * p["a"])
                           + ad.softplus(p["a"]) + ad.relu(p["a"] - 0.2))
        check_op(build, {"a": (4, 4)})

    def test_log_pow_positive_domain(self):
        check_op(lambda p: ad.tsum(ad.tlog(p["a"]) + ad.powc(p["a"], -0.5)),
                 {"a": (3, 3)}, positive=True)

    def test_matmul_skips_constant_operands(self):
        tape = ad.Tape()
        a = tape.leaf(RNG.standard_normal((3, 4, 4)))
        b = RNG.standard_normal((3, 4, 2))
        out = a @ ad.constant(b)
        g = RNG.standard_normal(out.shape)
        ga, gb = out.vjp(g)
        assert gb is None
        npt.assert_array_equal(ga, g @ np.swapaxes(b, -1, -2))
        assert (ad.constant(a.data[0]) @ tape.leaf(b[1])).vjp(g[0])[0] is None

    def test_take_nodes(self):
        idx = np.array([0, 2, 2, 5])  # duplicate row: adjoint must accumulate
        check_op(lambda p: ad.tsum(ad.take_nodes(p["x"], idx)
                                   * ad.take_nodes(p["x"], idx)),
                 {"x": (2, 6, 3)})

    def test_graph_primitives(self):
        g = ring_graph(7)
        ei, ej = g.edges[:, 0], g.edges[:, 1]

        def build(p):
            w = ad.edge_weights(p["mu"], ei, ej)
            d = ad.node_sums(w, ei, ej, 7)
            a = ad.scatter_sym_dense(w, ei, ej, 7)
            de = ad.diag_embed(d)
            return ad.tsum((a + de) @ p["x"]) + ad.tsum(d * d)

        check_op(build, {"mu": (2, 7), "x": (2, 7, 3)})


class TestGraphPrimitiveSemantics:
    def test_edge_weight_single_edge(self):
        tape = ad.Tape()
        mu = tape.leaf(np.array([3.0, 5.0]), name="mu")
        w = ad.edge_weights(mu, np.array([0]), np.array([1]))
        npt.assert_array_equal(w.data, [4.0])
        loss = ad.tsum(w)
        grads = ad.backward(tape, loss)
        npt.assert_array_equal(grads[mu], [0.5, 0.5])

    def test_loss_through_operator_norm(self):
        # d/dmu ||L_mu x||^2 against finite differences, with L_mu assembled
        # from the primitives the models use
        g = ring_graph(6)
        ei, ej = g.edges[:, 0], g.edges[:, 1]
        rng = np.random.default_rng(6)
        x = rng.standard_normal((6, 2))

        def norm_sq(mu):
            w = ad.edge_weights(mu, ei, ej)
            l_mu = ad.diag_embed(ad.node_sums(w, ei, ej, 6)) - ad.scatter_sym_dense(w, ei, ej, 6)
            y = l_mu @ ad.constant(x)
            return ad.tsum(y * y)

        def lossfn(p):
            return float(norm_sq(ad.constant(p["mu"])).data)

        params = {"mu": rng.uniform(0.5, 1.5, 6)}
        tape = ad.Tape()
        mu = tape.leaf(params["mu"], name="mu")
        grads = ad.backward(tape, norm_sq(mu))
        fd = numeric_gradient(lossfn, params, [("mu", i) for i in range(6)])
        for (name, i), v in fd.items():
            assert gradcheck_error(float(grads[mu][i]), v) <= 1e-5


class TestScatterMatchesAddAt:
    """The bincount scatters are bit-equal to the np.add.at form they replace."""

    @staticmethod
    def edges(seed):
        # n = 9 nodes, endpoints drawn from 0..5: repeated endpoints and
        # duplicate edges, and nodes 6..8 isolated
        rng = np.random.default_rng(seed)
        ei = rng.integers(0, 6, size=40)
        ej = rng.integers(0, 6, size=40)
        return rng, ei, ej, 9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edge_weights_vjp(self, seed):
        rng, ei, ej, n = self.edges(seed)
        tape = ad.Tape()
        w = ad.edge_weights(tape.leaf(rng.uniform(0.5, 2.0, (4, n))), ei, ej)
        g = rng.standard_normal((4, ei.size))
        ref = np.zeros((n, 4))
        np.add.at(ref, ei, 0.5 * g.T)
        np.add.at(ref, ej, 0.5 * g.T)
        npt.assert_array_equal(w.vjp(g)[0], ref.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_sums_forward(self, seed):
        rng, ei, ej, n = self.edges(seed)
        w = rng.standard_normal((2, 3, ei.size))
        ref = np.zeros((n, 2, 3))
        np.add.at(ref, ei, np.moveaxis(w, -1, 0))
        np.add.at(ref, ej, np.moveaxis(w, -1, 0))
        npt.assert_array_equal(ad.node_sums(w, ei, ej, n).data, np.moveaxis(ref, 0, -1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_take_nodes_vjp(self, seed):
        rng, ei, _, n = self.edges(seed)
        tape = ad.Tape()
        x = tape.leaf(rng.standard_normal((3, n, 2)))
        out = ad.take_nodes(x, ei)
        g = rng.standard_normal(out.shape)
        ref = np.zeros((n, 3, 2))
        np.add.at(ref, ei, np.moveaxis(g, -2, 0))
        npt.assert_array_equal(out.vjp(g)[0], np.moveaxis(ref, 0, -2))

    @classmethod
    def graph(cls, seed):
        rng, ei, ej, n = cls.edges(seed)
        keep = ei != ej
        g = build_graph(n, np.stack([ei[keep], ej[keep]], axis=1))
        return rng, g, g.edges[:, 0], g.edges[:, 1]

    @staticmethod
    def add_at(n, ei, vi, ej, vj):
        ref = np.zeros((n,) + vi.shape[1:])
        np.add.at(ref, ei, vi)
        np.add.at(ref, ej, vj)
        return ref

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_build_be_degrees(self, seed):
        rng, g, ei, ej = self.graph(seed)
        mu = rng.uniform(0.05, 3.0, g.n)
        w = 0.5 * (mu[ei] + mu[ej])
        npt.assert_array_equal(build_be(g, mu).degrees, self.add_at(g.n, ei, w, ej, w))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_advection(self, seed):
        rng, g, ei, ej = self.graph(seed)
        mu = rng.uniform(0.05, 3.0, g.n)
        f = rng.standard_normal(g.n)
        c = 0.5 * (mu[ej] - mu[ei]) * (f[ej] - f[ei])
        npt.assert_array_equal(advection_decomposition(build_be(g, mu), f)[1],
                               self.add_at(g.n, ei, c, ej, c))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_variation_profile(self, seed):
        rng, g, ei, ej = self.graph(seed)
        f = rng.standard_normal(g.n)
        d2 = (f[ej] - f[ei]) ** 2
        ref = self.add_at(g.n, ei, d2, ej, d2)
        ref /= float(f @ f)
        npt.assert_array_equal(variation_profile(g, f).N_f, ref)

    def test_edgeless_graph_sums_are_float(self):
        be = build_be(build_graph(3, []), np.ones(3))
        assert be.degrees.dtype == np.float64
        npt.assert_array_equal(be.degrees, np.zeros(3))

    def test_without_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        npt.assert_array_equal(ad.node_sums(np.zeros((2, 0)), empty, empty, 4).data,
                               np.zeros((2, 4)))


def cheb_layer_on_tape(op, h, weights):
    """The per-term reference: every recurrence step recorded on the tape."""
    terms = zip(cheb_basis(lambda z: op @ z, h, len(weights) - 1), weights)
    return reduce(ad.add, (z @ w for z, w in terms))


class TestChebLayer:
    @staticmethod
    def inputs(K, seed=0, b=3, n=7, c_in=4, c_out=5, symmetric=True):
        rng = np.random.default_rng(seed)
        op = rng.standard_normal((b, n, n))
        if symmetric:
            op = op + np.swapaxes(op, -1, -2)
        op /= np.linalg.norm(op, ord=2, axis=(-2, -1))[:, None, None]  # spectrum in the unit disk
        return (op, rng.standard_normal((b, n, c_in)),
                [rng.standard_normal((c_in, c_out)) for _ in range(K + 1)])

    @pytest.mark.parametrize("K", [0, 1, 2, 9])
    @pytest.mark.parametrize("op_leaf", [True, False])
    @pytest.mark.parametrize("h_leaf", [True, False])
    @pytest.mark.parametrize("stable", [False, True])
    def test_matches_tape_recurrence(self, K, op_leaf, h_leaf, stable):
        for symmetric in (True, False):  # the layer may not assume op = op^T
            op0, h0, w0 = self.inputs(K, seed=K, c_out=4, symmetric=symmetric)
            results = []
            for layer in (cheb_layer_on_tape, ad.cheb_layer):
                tape = ad.Tape()
                op = tape.leaf(op0) if op_leaf else ad.constant(op0)
                h = tape.leaf(h0) if h_leaf else ad.constant(h0)
                mats = [tape.leaf(w) for w in w0]
                if stable:  # the stable variant's W_k - W_k^T - gamma I
                    eye = ad.constant(0.05 * np.eye(4))
                    weights = [m - ad.transpose2(m) - eye for m in mats]
                else:
                    weights = mats
                out = layer(op, h, weights)
                loss = ad.tsum(out * ad.constant(np.sin(out.data)))
                grads = ad.backward(tape, loss)
                results.append([out.data] + [grads[leaf] for leaf in tape.leaves()])
            assert len(results[0]) == 1 + op_leaf + h_leaf + K + 1
            assert not op_leaf or results[1][1].flags.c_contiguous  # the operator gradient
            for ref, got in zip(*results):
                assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_gradcheck(self):
        def build(p):
            out = ad.cheb_layer(p["op"], p["h"], [p[f"w{k}"] for k in range(4)])
            return ad.tsum(out * out)
        check_op(build, {"op": (2, 5, 5), "h": (2, 5, 3),
                         **{f"w{k}": (3, 2) for k in range(4)}})

    def test_shared_operator_gradient_sums_over_batch(self):
        op0, h0, w0 = self.inputs(3)
        shared = op0[0]
        results = []
        for layer in (cheb_layer_on_tape, ad.cheb_layer):
            tape = ad.Tape()
            op = tape.leaf(shared)
            out = layer(op, ad.constant(h0), [ad.constant(w) for w in w0])
            results.append(ad.backward(tape, ad.tsum(out * out))[op])
        assert results[1].shape == shared.shape
        npt.assert_allclose(results[1], results[0], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("K", [0, 1, 2, 9])
    def test_vjp_twice_is_bit_equal(self, K):
        # the backward overwrites its adjoint buffer block by block; each call
        # starts from a fresh one and leaves the forward's buffer and g as given
        op0, h0, w0 = self.inputs(K)
        tape = ad.Tape()
        out = ad.cheb_layer(tape.leaf(op0), tape.leaf(h0), [tape.leaf(w) for w in w0])
        g = np.random.default_rng(1).standard_normal(out.shape)
        g0 = g.copy()
        first, second = out.vjp(g), out.vjp(g)
        npt.assert_array_equal(g, g0)
        assert len(first) == len(second) == K + 3
        for a, b in zip(first, second):
            npt.assert_array_equal(a, b)

    def test_constant_operands_get_no_gradient(self):
        op0, h0, w0 = self.inputs(2)
        tape = ad.Tape()
        out = ad.cheb_layer(ad.constant(op0), ad.constant(h0), [tape.leaf(w) for w in w0])
        grads = out.vjp(np.ones(out.shape))
        assert grads[0] is None and grads[1] is None
        assert all(g.shape == w.shape for g, w in zip(grads[2:], w0))


class TestExports:
    def test_every_exported_name_resolves(self):
        missing = [name for name in ad.__all__ if not hasattr(ad, name)]
        assert not missing


class TestTapeSemantics:
    def test_sum_loss_gives_ones(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3), name="x")
        grads = ad.backward(tape, ad.tsum(x))
        npt.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_quadratic_form(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        a = a + a.T
        x0 = rng.standard_normal((5, 1))
        tape = ad.Tape()
        x = tape.leaf(x0, name="x")
        loss = ad.tsum(ad.transpose2(x) @ ad.constant(a) @ x)
        grads = ad.backward(tape, loss)
        npt.assert_allclose(grads[x], 2 * a @ x0, atol=1e-12)

    def test_untouched_leaf_gets_zero(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3), name="x")
        unused = tape.leaf(np.ones(4), name="unused")
        grads = ad.backward(tape, ad.tsum(x * x))
        npt.assert_array_equal(grads[unused], np.zeros(4))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, x * x)

    def test_detached_loss_rejected(self):
        tape = ad.Tape()
        tape.leaf(np.ones(3))
        other = ad.Tape()
        y = other.leaf(np.ones(1))
        with pytest.raises(ValueError, match="tape"):
            ad.backward(tape, ad.tsum(y))
        with pytest.raises(ValueError, match="tape"):
            ad.backward(tape, ad.constant(1.0))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ValueError, match="different tapes"):
            _ = a + b

    def test_values_outlive_their_tape(self):
        # tensors hold their tape weakly; once it is freed they still compute
        # values, as constants, since no backward pass can reach them
        tape = ad.Tape()
        x = tape.leaf(np.array([1.0, 2.0]), name="x")
        y = x * 3.0
        del tape, x
        assert y.tape is None
        z = ad.tsum(y * y)
        assert z.tape is None and float(z.data) == 45.0

    def test_constants_are_not_recorded(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3), name="x")
        c = ad.constant(np.ones(3)) * 2.0 + 1.0  # pure-constant arithmetic
        loss = ad.tsum(x * c)
        n_nodes = len(tape._nodes)
        grads = ad.backward(tape, loss)
        npt.assert_array_equal(grads[x], np.full(3, 3.0))
        assert n_nodes == 2  # mul and sum only

    def test_reused_subexpression_accumulates(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([2.0]), name="x")
        y = x * 3.0
        loss = ad.tsum(y * y + y)
        grads = ad.backward(tape, loss)
        # d/dx (9x^2 + 3x) = 18x + 3
        npt.assert_allclose(grads[x], [39.0], atol=1e-12)


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = ad.AdamState(params)
        ad.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        npt.assert_array_equal(params["w"], [1.0, -2.0])

    def test_descent_on_square(self):
        params = {"x": np.array([1.0])}
        state = ad.AdamState(params)
        ad.adam_step(params, {"x": np.array([2.0])}, state, lr=0.1)
        assert params["x"][0] < 1.0

    def test_converges_on_convex_quadratic(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4))
        a = a @ a.T + 0.5 * np.eye(4)
        b = rng.standard_normal(4)
        x_star = np.linalg.solve(a, b)
        params = {"x": np.zeros(4)}
        state = ad.AdamState(params)
        for _ in range(800):
            g = a @ params["x"] - b
            ad.adam_step(params, {"x": g}, state, lr=0.05)
        assert np.linalg.norm(params["x"] - x_star) < 1e-3

    def test_weight_decay_pulls_to_zero(self):
        params = {"w": np.array([5.0])}
        state = ad.AdamState(params)
        for _ in range(400):
            ad.adam_step(params, {"w": np.zeros(1)}, state, lr=0.05,
                         weight_decay=0.1)
        assert abs(params["w"][0]) < 0.1

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(9)
            params = {"w": rng.standard_normal(5)}
            state = ad.AdamState(params)
            for t in range(50):
                g = np.sin(params["w"] + t)
                ad.adam_step(params, {"w": g}, state, lr=0.01,
                             weight_decay=1e-4)
            return params["w"]
        npt.assert_array_equal(run(), run())

    def test_nan_guard(self):
        with pytest.raises(NaNLoss, match="non-finite"):
            ad.check_finite({"w": np.array([np.nan])})
