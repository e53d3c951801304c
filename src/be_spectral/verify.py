"""Numerical verification suites behind ``be-spectral verify``.

This module is the one home of the paper's identities. Each suite returns
a JSON-ready report with one entry per check: ``algebra`` exercises the
exact operator identities and the 4-ring spectra, ``factorization`` the
Rayleigh-quotient factorization, ``star-bounds`` the star-graph
spectral-control inequalities, ``chebyshev`` the Chebyshev recurrence
against the eigenbasis oracle, ``gradcheck`` end-to-end derivatives
against central finite differences, and ``stability`` the antisymmetric
stable update versus an unstabilized deep network.

Acceptance criteria 1-7 assert on these reports, so each suite fixes the
criterion's seed, samples and cases and takes no argument.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .be import advection_decomposition, build_be
from .chebyshev import ChebFilter, cheb_apply, cheb_spectral_oracle
from .errors import ZeroSignal
from .graphs import (Graph, barbell_graph, endpoint_sums, grad, laplacian, ring_graph,
                     star_graph)
from .models import ModelConfig, MuChebNet, context_for, mse_loss
from .spectral import eig_sym, rayleigh, variation_profile
from .tasks import erdos_renyi, is_connected


def random_graph(rng, n_min: int = 4, n_max: int = 30, connected: bool = False) -> Graph:
    """Small ER graph for randomized identity checks."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        g = erdos_renyi(n, p=min(1.0, 2.5 / np.sqrt(n)), rng=rng)
        if g.m and (not connected or is_connected(g)):
            return g


#: central-difference step of ``numeric_gradient``
FD_STEP = 1e-5


def numeric_gradient(loss_fn, params: dict, coords) -> dict:
    """Central finite differences of ``loss_fn(params)`` at chosen coordinates.

    ``coords`` is a list of (param name, flat index); parameters are
    restored after probing.
    """
    out = {}
    for name, idx in coords:
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + FD_STEP
        up = loss_fn(params)
        flat[idx] = orig - FD_STEP
        down = loss_fn(params)
        flat[idx] = orig
        out[(name, idx)] = (up - down) / (2.0 * FD_STEP)
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
        l_mu = be.operator().dense()
        reduction_exact &= np.array_equal(build_be(g, np.ones(g.n)).operator().dense(),
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

    # weighting one node of the 4-ring by 3 splits its repeated eigenvalue 2
    ring = ring_graph(4)
    spectrum = eig_sym(laplacian(ring)).eigenvalues
    spectrum_mu = eig_sym(build_be(ring, np.array([1.0, 1.0, 3.0, 1.0])).operator()).eigenvalues
    spec_err = max(np.abs(spectrum - [0.0, 2.0, 2.0, 4.0]).max(),
                   np.abs(spectrum_mu - [0.0, (9 - np.sqrt(17)) / 2, 3.0,
                                         (9 + np.sqrt(17)) / 2]).max())
    simple = float(np.diff(spectrum_mu[1:]).min())

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


def rayleigh_factorization_check(g: Graph, mu: np.ndarray, f: np.ndarray):
    """Evaluate both sides of R_mu(f) = ||mu||_1 * (mu_hat . p_f) * R(f).

    The left side uses the potential-weighted operator directly, the right
    side only the variation profile and the unweighted Rayleigh quotient.
    Returns (lhs, rhs); they agree to ~1e-10 relative for any nonconstant f.
    """
    mu = np.asarray(mu, dtype=np.float64)
    prof = variation_profile(g, f)
    if prof.zero_variation:
        raise ZeroSignal("factorization check needs a nonconstant signal")
    lhs = rayleigh(build_be(g, mu).operator(), f)
    mu_total = float(np.abs(mu).sum())
    mu_hat = mu / mu_total
    rhs = mu_total * float(mu_hat @ prof.p_f) * rayleigh(laplacian(g), f)
    return lhs, rhs


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


def suite_star_bounds() -> dict:
    """How two prescribed potentials move the spectrum of the n-node star,
    n = 5, 6, 10, 50.

    A unit-mass potential that zeroes leaves 1 and 2 must keep
    lambda_1^mu <= ||mu||_1 lambda_1 / (2(n-2)), with equality at n = 6. A
    mass-2 potential (center 1/2, leaves 1 and 2 zero, the rest lifted) must
    halve the gap, lambda_1^mu <= lambda_1 / 2, and lift the radius to at
    least ||mu||_1 lambda_{n-1} E_muhat[p_g], g the top eigenvector of L.
    The nominal factor-3/2 radius bound is reported, not asserted: it
    contradicts the Gershgorin row bound at small n.
    """
    checks = []
    soft = set()
    for n in (5, 6, 10, 50):
        g = star_graph(n)
        lam = eig_sym(laplacian(g)).eigenvalues
        lambda_1, lambda_top = float(lam[1]), float(lam[-1])

        mu = np.full(n, 1.0 / (n - 2))
        mu[1] = mu[2] = 0.0
        measured = float(eig_sym(build_be(g, mu).operator()).eigenvalues[1])
        bound = lambda_1 / (2.0 * (n - 2))
        checks.append(_check(f"gap-bound-n{n}", measured <= bound + 1e-12,
                             measured=measured, bound=bound, slack=bound - measured))
        if n == 6:
            eq_err = abs(measured - 0.125)
            checks.append(_check("gap-equality-n6", eq_err <= 1e-9, error=eq_err))

        mu_hat = np.full(n, 0.5 / (n - 1) + 1.0 / ((n - 1) * (n - 3)))
        mu_hat[0] = 0.5
        mu_hat[1] = mu_hat[2] = 0.0
        lam_mu = eig_sym(build_be(g, 2.0 * mu_hat).operator()).eigenvalues
        lambda_1_mu, lambda_top_mu = float(lam_mu[1]), float(lam_mu[-1])
        gap_bound = 0.5 * lambda_1
        checks.append(_check(f"gap-half-n{n}", lambda_1_mu <= gap_bound + 1e-12,
                             measured=lambda_1_mu, bound=gap_bound))
        top = np.full(n, -1.0 / np.sqrt(n * (n - 1)))
        top[0] = np.sqrt((n - 1) / n)
        recomputed = 2.0 * lambda_top * float(mu_hat @ variation_profile(g, top).p_f)
        checks.append(_check(f"radius-recomputed-lower-n{n}",
                             lambda_top_mu + 1e-12 >= recomputed,
                             measured=lambda_top_mu, bound=recomputed))
        nominal = 1.5 * lambda_top
        name = f"radius-nominal-lower-n{n}"
        soft.add(name)
        checks.append(_check(name, lambda_top_mu + 1e-12 >= nominal,
                             measured=lambda_top_mu, bound=nominal))
    return _finish("star-bounds", checks, soft=soft)


def suite_chebyshev() -> dict:
    """The Chebyshev recurrence against the eigenbasis oracle, n <= 64, K <= 12.

    Relative error is scaled by max(|oracle|, 1) over 3 channels, on both
    L and L_mu of random graphs, with lambda_max 1% above the top eigenvalue.
    """
    rng = np.random.default_rng(75)
    worst = 0.0
    for n in (8, 21, 33, 48, 64):
        g = random_graph(rng, n_min=n, n_max=n)
        mu = rng.uniform(0.1, 2.0, g.n)
        for op in (laplacian(g), build_be(g, mu).operator()):
            lam = 1.01 * eig_sym(op).eigenvalues[-1]
            for K in (0, 1, 5, 12):
                filt = ChebFilter(list(rng.standard_normal(K + 1)), lambda_max=lam)
                x = rng.standard_normal((g.n, 3))
                y = cheb_apply(filt, op, x)
                ref = cheb_spectral_oracle(filt, op, x)
                worst = max(worst, np.abs(y - ref).max() / max(np.abs(ref).max(), 1.0))
    return _finish("chebyshev", [_check("recurrence-vs-oracle", worst <= 1e-9,
                                        max_rel_err=worst)])


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
    "chebyshev": suite_chebyshev,
    "gradcheck": suite_gradcheck,
    "stability": suite_stability,
}
