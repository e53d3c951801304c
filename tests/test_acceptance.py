"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4, 6 and 7 run the ``be-spectral verify`` suites, which fix
the seeds and cases, and assert on their reports. Training-based
criteria share module-scoped fixtures so the determinism criterion can
re-run a seed and compare bit for bit; criteria 8-11 carry the ``slow``
marker. Run with ``pytest tests/test_acceptance.py -v -s`` to watch the
lines stream.
"""
import time

import numpy as np
import pytest

from be_spectral import (ChebFilter, build_be, cheb_apply, cheb_spectral_oracle,
                         eig_sym, laplacian)
from be_spectral.runner import RunConfig, train_multi, train_run
from be_spectral.verify import (random_graph, suite_algebra, suite_factorization,
                                suite_gradcheck, suite_stability, suite_star_bounds)

BARBELL_MU_CONFIG = {
    "task": {"name": "barbell", "n": 50, "k_path": 4, "counts": [96, 24, 32],
             "data_seed": 7},
    "model": {"layers": 2, "K": 9, "hidden": 16},
    "optim": {"lr": 0.01, "weight_decay": 1e-5},
    "epochs": 1000, "seeds": [0, 1, 2, 3], "patience": 300,
}
BARBELL_PLAIN_CONFIG = {
    "task": {"name": "barbell", "n": 70, "k_path": 4, "counts": [96, 24, 32],
             "data_seed": 7},
    "model": {"layers": 2, "K": 9, "hidden": 16, "mu": None},
    "optim": {"lr": 0.01, "weight_decay": 1e-5},
    "epochs": 1000, "seeds": [0, 1, 2, 3], "patience": 300,
}
RING_CONFIG = {
    "task": {"name": "ring", "n": 16, "counts": [1024, 128, 128],
             "data_seed": 11},
    "model": {"layers": 1, "K": 10, "hidden": 16},
    "optim": {"lr": 0.01, "weight_decay": 1e-4},
    "epochs": 250, "seeds": [0, 1, 2], "patience": 120,
}
SSSP_CONFIG = {
    "task": {"name": "graph-property", "property": "sssp", "n_range": [15, 25],
             "counts": [128, 32, 64], "data_seed": 13},
    "model": {"layers": 2, "K": 6, "hidden": 16},
    "optim": {"lr": 0.01, "weight_decay": 1e-5},
    "epochs": 100, "seeds": [0], "patience": 60, "batch_size": 32,
}


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {num:2d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def _checks(report):
    """A ``verify`` suite report's checks by name."""
    return {c["name"]: c for c in report["checks"]}


@pytest.fixture(scope="module")
def barbell_results():
    t0 = time.time()
    mu = train_multi(RunConfig.from_dict(BARBELL_MU_CONFIG))
    plain = train_multi(RunConfig.from_dict(BARBELL_PLAIN_CONFIG))
    return {"mu": mu, "plain": plain, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def ring_results():
    t0 = time.time()
    summary = train_multi(RunConfig.from_dict(RING_CONFIG))
    return {"summary": summary, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def sssp_results():
    t0 = time.time()
    trained = train_multi(RunConfig.from_dict(SSSP_CONFIG))
    ablation = dict(SSSP_CONFIG)
    ablation["model"] = {"layers": 2, "K": 0, "hidden": 16}
    k0 = train_multi(RunConfig.from_dict(ablation))
    untrained_cfg = dict(SSSP_CONFIG)
    untrained_cfg["epochs"] = 0
    untrained = train_multi(RunConfig.from_dict(untrained_cfg))
    return {"trained": trained, "k0": k0, "untrained": untrained,
            "seconds": time.time() - t0}


def test_criterion_01_exact_algebra():
    t0 = time.time()
    report = suite_algebra()
    checks = _checks(report)
    elapsed = time.time() - t0
    ok = report["passed"] and elapsed < 10.0
    _report(1, "exact algebra over 100 random graphs", ok,
            f"dirichlet {checks['dirichlet-identity']['max_rel_err']:.1e}, "
            f"psd {checks['psd']['worst']:.1e}, "
            f"rowsum {checks['row-sums-zero']['worst']:.1e}, "
            f"reconstruct {checks['advection-reconstruction']['worst']:.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_02_four_ring_showcase():
    t0 = time.time()
    report = suite_algebra()
    checks = _checks(report)
    elapsed = time.time() - t0
    ok = report["passed"] and elapsed < 1.0
    _report(2, "4-ring spectra and symmetry breaking", ok,
            f"max abs err {checks['four-ring-spectra']['max_abs_err']:.1e}, "
            f"min nonzero gap {checks['four-ring-simple-eigenvalues']['min_gap']:.3f}, "
            f"{elapsed:.2f}s")


def test_criterion_03_factorization_identity():
    t0 = time.time()
    report = suite_factorization()
    check = report["checks"][0]
    elapsed = time.time() - t0
    ok = report["passed"] and check["samples"] == 200 and elapsed < 5.0
    _report(3, "Rayleigh factorization identity, 200 samples", ok,
            f"max rel err {check['max_rel_err']:.1e}, {elapsed:.1f}s")


def test_criterion_04_star_bounds():
    t0 = time.time()
    report = suite_star_bounds()
    checks = _checks(report)
    nominal6 = checks["radius-nominal-lower-n6"]
    elapsed = time.time() - t0
    ok = report["passed"] and elapsed < 10.0
    _report(4, "star-graph spectral control", ok,
            f"n=6 gap equality err {checks['gap-equality-n6']['error']:.1e}; "
            f"nominal radius claim at n=6: measured {nominal6['measured']:.3f} vs "
            f"claimed >= {nominal6['bound']:.3f} (reported only), recomputed bound "
            f"{checks['radius-recomputed-lower-n6']['bound']:.3f} holds; {elapsed:.1f}s"
            + "".join(f"; {name} failed" for name in report["hard_failures"]))


def test_criterion_05_chebyshev_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(75)
    worst = 0.0
    for n in (8, 21, 33, 48, 64):
        g = random_graph(rng, n_min=n, n_max=n)
        mu = rng.uniform(0.1, 2.0, g.n)
        for op in (laplacian(g), build_be(g, mu).operator()):
            lam = 1.01 * eig_sym(op).eigenvalues[-1]
            for K in (0, 1, 5, 12):
                filt = ChebFilter(list(rng.standard_normal(K + 1)),
                                  lambda_max=lam)
                x = rng.standard_normal((g.n, 3))
                y = cheb_apply(filt, op, x)
                ref = cheb_spectral_oracle(filt, op, x)
                worst = max(worst,
                            np.abs(y - ref).max() / max(np.abs(ref).max(), 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(5, "Chebyshev recurrence vs spectral oracle (n<=64, K<=12)", ok,
            f"max rel err {worst:.1e}, {elapsed:.1f}s")


def test_criterion_06_end_to_end_gradcheck():
    t0 = time.time()
    report = suite_gradcheck()
    worst = max(c["max_rel_err"] for c in report["checks"])
    checked = sum(int(c["coords"]) for c in report["checks"])
    elapsed = time.time() - t0
    ok = report["passed"] and elapsed < 60.0
    _report(6, "end-to-end gradcheck vs central differences", ok,
            f"max rel err {worst:.1e} over {checked} coordinates, {elapsed:.1f}s")


def test_criterion_07_stable_variant():
    t0 = time.time()
    report = suite_stability()
    checks = _checks(report)
    elapsed = time.time() - t0
    ok = report["passed"] and elapsed < 120.0
    _report(7, "stable update: imaginary spectra, bounded depth", ok,
            f"max |Re eig| {checks['antisymmetric-purely-imaginary']['max_real_part']:.1e}, "
            f"stable final norm {checks['stable-norms-finite']['final_norm']:.3g}, "
            f"unstabilized growth x{checks['unstabilized-deep-growth']['growth']:.3g}, "
            f"{elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_08_barbell_desk_scale(barbell_results):
    mu_nmse = barbell_results["mu"]["aggregate"]["nmse"]
    plain_nmse = barbell_results["plain"]["aggregate"]["nmse"]
    elapsed = barbell_results["seconds"]
    ok = (mu_nmse["mean"] <= 0.1 and plain_nmse["mean"] >= 0.5
          and elapsed < 900.0)
    _report(8, "barbell: learned potential beats oversquashing", ok,
            f"mu-ChebNet N=50 nmse {mu_nmse['mean']:.4f} +- {mu_nmse['std']:.4f} "
            f"(<= 0.1); ChebNet N=70 nmse {plain_nmse['mean']:.3f} +- "
            f"{plain_nmse['std']:.3f} (>= 0.5, oversquashing band); "
            f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_09_ring_routing(ring_results):
    summary = ring_results["summary"]
    accs = [r["test"]["accuracy"] for r in summary["per_seed"]]
    contrasts = [r["test"]["mu_contrast"] for r in summary["per_seed"]]
    positive = sum(1 for c in contrasts if c > 0)
    elapsed = ring_results["seconds"]
    ok = (np.mean(accs) > 0.9 and positive >= 2 and elapsed < 600.0)
    _report(9, "ring routing: accuracy and clean-path preference", ok,
            f"accuracies {[round(a, 3) for a in accs]} (mean > 0.9); "
            f"mu(clean)>mu(noisy) in {positive}/3 seeds "
            f"(contrasts {[round(c, 4) for c in contrasts]}); {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_10_graph_property_sssp(sssp_results):
    trained = sssp_results["trained"]["aggregate"]["log10_mse"]["mean"]
    untrained = sssp_results["untrained"]["aggregate"]["log10_mse"]["mean"]
    k0 = sssp_results["k0"]["aggregate"]["log10_mse"]["mean"]
    elapsed = sssp_results["seconds"]
    ok = (trained <= untrained - 1.0 and trained < k0 and elapsed < 900.0)
    _report(10, "sssp: training gain and propagation ablation", ok,
            f"trained log10(mse) {trained:.3f} vs untrained {untrained:.3f} "
            f"(gain {untrained - trained:.2f} >= 1.0) and vs K=0 ablation "
            f"{k0:.3f}; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_11_determinism(barbell_results, ring_results, sssp_results):
    t0 = time.time()
    mismatches = []

    rerun = train_run(RunConfig.from_dict(BARBELL_MU_CONFIG), seed=0)
    if rerun["test"] != barbell_results["mu"]["per_seed"][0]["test"]:
        mismatches.append("barbell mu seed 0")
    rerun = train_run(RunConfig.from_dict(BARBELL_PLAIN_CONFIG), seed=0)
    if rerun["test"] != barbell_results["plain"]["per_seed"][0]["test"]:
        mismatches.append("barbell plain seed 0")
    rerun = train_run(RunConfig.from_dict(RING_CONFIG), seed=0)
    if rerun["test"] != ring_results["summary"]["per_seed"][0]["test"]:
        mismatches.append("ring seed 0")
    rerun = train_run(RunConfig.from_dict(SSSP_CONFIG), seed=0)
    if rerun["test"] != sssp_results["trained"]["per_seed"][0]["test"]:
        mismatches.append("sssp seed 0")

    elapsed = time.time() - t0
    ok = not mismatches
    _report(11, "bit-identical retraining with fixed seeds", ok,
            ("re-ran one seed of each training criterion; all test metrics "
             f"bit-identical; {elapsed:.0f}s") if ok else
            f"mismatches: {mismatches}")
