"""Numerical verification suites behind ``be-spectral verify``.

Each suite returns a JSON-ready report with one entry per check:
``algebra`` exercises the exact operator identities, ``factorization``
the Rayleigh-quotient factorization, ``star-bounds`` the star-graph
spectral-control inequalities, ``gradcheck`` end-to-end derivatives
against central finite differences, and ``stability`` the antisymmetric
stable update versus an unstabilized deep network.

Acceptance criteria 1-4, 6 and 7 assert on these reports, so each suite
fixes the criterion's seed, samples and cases; only the star sizes
(``ns``, set by ``verify --n``) can be chosen.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .be import advection_decomposition, build_be
from .graphs import Graph, barbell_graph, endpoint_sums, grad, laplacian, ring_graph
from .models import ModelConfig, MuChebNet, context_for, mse_loss
from .spectral import eig_sym, four_ring_showcase, rayleigh_factorization_check, \
    star_spectral_check
from .tasks import erdos_renyi, is_connected


def random_graph(rng, n_min: int = 4, n_max: int = 30, connected: bool = False) -> Graph:
    """Small ER graph for randomized identity checks."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        g = erdos_renyi(n, p=min(1.0, 2.5 / np.sqrt(n)), rng=rng)
        if g.m and (not connected or is_connected(g)):
            return g


def numeric_gradient(loss_fn, params: dict, coords, h: float = 1e-5) -> dict:
    """Central finite differences of ``loss_fn(params)`` at chosen coordinates.

    ``coords`` is a list of (param name, flat index); parameters are
    restored after probing.
    """
    out = {}
    for name, idx in coords:
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn(params)
        flat[idx] = orig - h
        down = loss_fn(params)
        flat[idx] = orig
        out[(name, idx)] = (up - down) / (2.0 * h)
    return out


def gradcheck_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def _check(name: str, passed: bool, **detail) -> dict:
    return {"name": name, "passed": bool(passed),
            **{k: float(v) if isinstance(v, (np.floating, float, int)) else v
               for k, v in detail.items()}}


def _finish(suite: str, checks: list, soft: set = frozenset()) -> dict:
    hard_failed = [c["name"] for c in checks if not c["passed"] and c["name"] not in soft]
    return {"suite": suite, "passed": not hard_failed,
            "hard_failures": hard_failed, "checks": checks}


# --- suites ---

def suite_algebra() -> dict:
    rng = np.random.default_rng(71)
    max_dirichlet = max_psd_violation = max_rowsum = max_reconstruct = 0.0
    reduction_exact = True
    for _ in range(100):
        g = random_graph(rng)
        mu = rng.uniform(0.05, 3.0, g.n)
        be = build_be(g, mu)
        l_mu = be.matrix()
        reduction_exact &= np.array_equal(build_be(g, np.ones(g.n)).matrix(),
                                          laplacian(g).dense())

        f, h = rng.standard_normal((2, g.n))
        lhs = float(f @ l_mu @ h)
        per_node = endpoint_sums(grad(g, f) * grad(g, h), g.edges[:, 0], g.edges[:, 1], g.n)
        rhs = 0.5 * float(mu @ per_node)
        max_dirichlet = max(max_dirichlet,
                            abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))

        scale = max(np.abs(l_mu).max(), 1e-300)
        lam_min = float(eig_sym(be.operator()).eigenvalues[0])
        max_psd_violation = max(max_psd_violation, -lam_min / scale)
        max_rowsum = max(max_rowsum, np.abs(l_mu.sum(axis=1)).max() / scale)

        diffusion, advection = advection_decomposition(be, f)  # self-checks at 1e-12
        ref = l_mu @ f
        max_reconstruct = max(max_reconstruct, np.abs(diffusion - advection - ref).max()
                              / max(np.abs(ref).max(), 1e-300))

    ring = four_ring_showcase()
    spec_err = max(np.abs(np.array(ring["spectrum"]) - ring["expected"]).max(),
                   np.abs(np.array(ring["spectrum_mu"]) - ring["expected_mu"]).max())
    nonzero = np.array(ring["spectrum_mu"])[1:]
    simple = float(np.diff(nonzero).min())

    return _finish("algebra", [
        _check("mu-one-reduction-exact", reduction_exact),
        _check("dirichlet-identity", max_dirichlet <= 1e-10, max_rel_err=max_dirichlet),
        _check("psd", max_psd_violation <= 1e-10, worst=max_psd_violation),
        _check("row-sums-zero", max_rowsum <= 1e-12, worst=max_rowsum),
        _check("advection-reconstruction", max_reconstruct <= 1e-12,
               worst=max_reconstruct),
        _check("four-ring-spectra", spec_err <= 1e-9, max_abs_err=spec_err),
        _check("four-ring-simple-eigenvalues", simple > 1e-6, min_gap=simple),
    ])


def suite_factorization() -> dict:
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(200):
        g = random_graph(rng)
        mu = rng.uniform(0.05, 4.0, g.n)
        f = rng.standard_normal(g.n)
        lhs, rhs = rayleigh_factorization_check(g, mu, f)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    return _finish("factorization", [_check("rayleigh-factorization", worst <= 1e-10,
                                            samples=200, max_rel_err=worst)])


def suite_star_bounds(ns=(5, 6, 10, 50)) -> dict:
    checks = []
    soft = set()
    for n in ns:
        gap = star_spectral_check(n, "gap")
        checks.append(_check(f"gap-bound-n{n}", gap["gap_ok"],
                             measured=gap["lambda_1_mu"], bound=gap["gap_bound"],
                             slack=gap["gap_slack"]))
        if n == 6:
            eq_err = abs(gap["lambda_1_mu"] - 0.125)
            checks.append(_check("gap-equality-n6", eq_err <= 1e-9, error=eq_err))
        both = star_spectral_check(n, "gap-radius")
        checks.append(_check(f"gap-half-n{n}", both["gap_ok"],
                             measured=both["lambda_1_mu"], bound=both["gap_bound"]))
        checks.append(_check(f"radius-recomputed-lower-n{n}",
                             both["radius_recomputed_ok"],
                             measured=both["lambda_top_mu"],
                             bound=both["radius_lower_recomputed"]))
        name = f"radius-nominal-lower-n{n}"
        soft.add(name)  # reported, not asserted: the nominal factor overshoots
        checks.append(_check(name, both["radius_nominal_ok"],
                             measured=both["lambda_top_mu"],
                             bound=both["radius_lower_nominal"]))
    return _finish("star-bounds", checks, soft=soft)


def suite_gradcheck() -> dict:
    rng = np.random.default_rng(76)
    checks = []
    # (graph, operator, lambda_max frozen during differencing; sym needs none)
    cases = [(ring_graph(8), "sym", None),
             (random_graph(np.random.default_rng(7), n_min=12, n_max=16, connected=True),
              "unnorm", 30.0)]
    for g, operator, lam in cases:
        x = rng.standard_normal((g.n, 2))
        y = rng.standard_normal((g.n, 1))
        mask = np.ones(g.n, dtype=bool)
        cfg = ModelConfig(layers=2, K=4, hidden=4, out_dim=1, operator=operator)
        model = MuChebNet(2, cfg, seed=int(rng.integers(1 << 30)))
        # off its zero init, the mu head lets gradients reach mu's interior
        model.params["mu.Whead"] = 0.3 * rng.standard_normal(
            model.params["mu.Whead"].shape)

        def loss_on(tape):
            pred, _ = model.forward(tape, context_for(g), x, lambda_max=lam)
            return mse_loss(pred, y, mask)

        tape = ad.Tape()
        grads = {t.name: v for t, v in ad.backward(tape, loss_on(tape)).items()}

        names = sorted(model.params)
        coords = []
        for _ in range(20):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(model.params[name].size))))
        # then one coordinate of every mu.* parameter
        mu_coords = [(n, int(rng.integers(model.params[n].size)))
                     for n in names if n.startswith("mu.")]
        numeric = numeric_gradient(lambda p: float(loss_on(ad.Tape()).data),
                                   model.params, coords + mu_coords)
        worst = max(gradcheck_error(float(grads[n].reshape(-1)[i]), fd)
                    for (n, i), fd in numeric.items())
        mu_grad = max(abs(float(grads[n].reshape(-1)[i]))
                      for n, i in mu_coords if not n.endswith("head"))
        checks.append(_check(f"end-to-end-{operator}", worst <= 1e-4,
                             max_rel_err=worst, coords=len(numeric),
                             mu_interior_max_grad=mu_grad))
    return _finish("gradcheck", checks)


def suite_stability() -> dict:
    rng = np.random.default_rng(5)
    g = barbell_graph(23, 4)
    x = rng.standard_normal((g.n, 4))

    stable_cfg = ModelConfig(layers=64, K=10, hidden=16, out_dim=1,
                             operator="sym", stable=True, gamma=0.05, eps=0.1,
                             mu=None)
    stable = MuChebNet(4, stable_cfg, seed=1)
    trace_stable: list[float] = []
    stable.forward(ad.Tape(), context_for(g), x, norm_trace=trace_stable)
    finite = all(np.isfinite(trace_stable))
    weights = [[stable.params[f"layer{l}.W{k}"] for k in range(stable_cfg.K + 1)]
               for l in range(stable_cfg.layers)]
    # each layer's worst-case gain: 1 + eps * sum_k ||W_k - W_k^T - gamma I||_2
    damp = stable_cfg.gamma * np.eye(stable_cfg.hidden)
    gains = np.array([1.0 + stable_cfg.eps * sum(np.linalg.norm(w - w.T - damp, 2)
                                                 for w in layer) for layer in weights])
    ratios = np.array(trace_stable[1:]) / np.maximum(np.array(trace_stable[:-1]), 1e-300)
    bound_ok = bool((ratios <= gains * (1.0 + 1e-9)).all())

    # eigenvalues of the antisymmetric parts are purely imaginary
    worst_real = max(float(np.abs(np.linalg.eigvals(w - w.T).real).max())
                     for w in weights[0])

    deep_cfg = ModelConfig(layers=64, K=20, hidden=16, out_dim=1,
                           operator="sym", stable=False, mu=None)
    deep = MuChebNet(4, deep_cfg, seed=1)
    trace_deep: list[float] = []
    try:
        deep.forward(ad.Tape(), context_for(g), x, norm_trace=trace_deep)
    except FloatingPointError:
        pass
    base = max(trace_deep[0], 1e-300)
    growth = max((t / base) for t in trace_deep if np.isfinite(t))
    exploded = (not all(np.isfinite(trace_deep))) or growth >= 10.0

    return _finish("stability", [
        _check("antisymmetric-purely-imaginary", worst_real <= 1e-10,
               max_real_part=worst_real),
        _check("stable-norms-finite", finite, final_norm=trace_stable[-1]),
        _check("stable-per-layer-bound", bound_ok, max_ratio=float(ratios.max())),
        _check("unstabilized-deep-growth", exploded, growth=float(growth)),
    ])


SUITES = {
    "algebra": suite_algebra,
    "factorization": suite_factorization,
    "star-bounds": suite_star_bounds,
    "gradcheck": suite_gradcheck,
    "stability": suite_stability,
}
