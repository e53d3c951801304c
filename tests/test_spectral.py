"""Eigensolver, Rayleigh machinery, variation profiles, star-graph bounds.

``eig_sym`` wraps LAPACK, so the oracle tests below check its contract
(ascending order, sign convention, orthonormality, residuals) against
numpy.linalg.eigvalsh rather than an independent algorithm. The Lanczos
spectral radius is checked against eigvalsh of the densified operator.
"""
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import (SymOperator, build_be, build_graph, eig_sym, lambda_max_power,
                         laplacian, rayleigh, ring_graph, star_graph, variation_profile)
from be_spectral.errors import ZeroSignal
from be_spectral.operators import DENSE_LIMIT
from be_spectral.verify import (random_graph, rayleigh_factorization_check, suite_algebra,
                                suite_star_bounds)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


class TestEigSym:
    def test_diagonal(self):
        dec = eig_sym(np.diag([3.0, 1.0, 2.0]))
        npt.assert_allclose(dec.eigenvalues, [1, 2, 3], atol=0)

    def test_four_ring(self):
        vals = eig_sym(laplacian(ring_graph(4))).eigenvalues
        npt.assert_allclose(vals, [0, 2, 2, 4], atol=1e-12)

    def test_four_ring_weighted(self):
        g = ring_graph(4)
        vals = eig_sym(build_be(g, [1.0, 1.0, 3.0, 1.0]).operator()).eigenvalues
        expected = [0.0, (9 - np.sqrt(17)) / 2, 3.0, (9 + np.sqrt(17)) / 2]
        npt.assert_allclose(vals, expected, atol=1e-9)

    def test_against_lapack_oracle(self):
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(1, 50))
            a = random_symmetric(rng, n)
            if trial % 5 == 0:
                # engineered repeated eigenvalues
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                a = q @ np.diag(rng.integers(-2, 3, n).astype(float)) @ q.T
                a = 0.5 * (a + a.T)
            dec = eig_sym(SymOperator.from_dense(a, sym_tol=1e-8), vectors=True)
            scale = max(np.abs(a).max(), 1e-300)
            npt.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(a),
                                atol=1e-10 * max(scale, 1))
            u = dec.eigenvectors
            assert np.abs(u.T @ u - np.eye(n)).max() <= 1e-10
            resid = np.abs(a @ u - u * dec.eigenvalues).max()
            assert resid <= 1e-8 * max(scale, 1)
            assert (np.diff(dec.eigenvalues) >= -1e-12 * max(scale, 1)).all()

    def test_eigenvalues_only(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, n_min=20, n_max=40)
        ops = [random_symmetric(rng, n) for n in (1, 7, 40)]
        ops += [build_be(g, rng.uniform(0.05, 3.0, g.n)).operator()]
        for op in ops:
            dense = op.dense() if isinstance(op, SymOperator) else op
            want = np.linalg.eigh(dense)[0]
            dec = eig_sym(op)
            assert dec.eigenvectors is None
            assert not dec.eigenvalues.flags.writeable
            assert np.abs(dec.eigenvalues - want).max() <= 1e-12 * np.abs(want).max()

    def test_deterministic_and_sign_convention(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 20)
        d1, d2 = eig_sym(a, vectors=True), eig_sym(a.copy(), vectors=True)
        npt.assert_array_equal(d1.eigenvalues, d2.eigenvalues)
        npt.assert_array_equal(d1.eigenvectors, d2.eigenvectors)
        for k in range(20):
            col = d1.eigenvectors[:, k]
            lead = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0][0]
            assert col[lead] > 0

    @pytest.mark.parametrize("vectors", [False, True])
    def test_zero_and_tiny(self, vectors):
        dec = eig_sym(np.zeros((3, 3)), vectors=vectors)
        npt.assert_array_equal(dec.eigenvalues, np.zeros(3))
        dec1 = eig_sym(np.array([[2.5]]), vectors=vectors)
        npt.assert_array_equal(dec1.eigenvalues, [2.5])

    def test_rejects_asymmetric_and_oversize(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.9, 0.0]]))
        big = SymOperator(n=5000, edges=np.array([[0, 1]]),
                          offdiag=np.array([1.0]), diag=np.zeros(5000))
        with pytest.raises(ValueError, match="matvec-only"):
            eig_sym(big)


@pytest.fixture(scope="module")
def large_edge_operator():
    """Edge-list L_mu above DENSE_LIMIT (a ring plus 2n random pairs, mu
    uniform in [0.1, 2]) and the top eigenvalue of its densified matrix."""
    n = DENSE_LIMIT + 4
    rng = np.random.default_rng(3)
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    extra = rng.integers(0, n, size=(2 * n, 2))
    pairs = np.concatenate([ring, extra[extra[:, 0] != extra[:, 1]]])
    edges = np.unique(np.sort(pairs, axis=1), axis=0)
    mu = rng.uniform(0.1, 2.0, n)
    w = 0.5 * (mu[edges[:, 0]] + mu[edges[:, 1]])
    m = np.zeros((n, n))
    m[edges[:, 0], edges[:, 1]] = m[edges[:, 1], edges[:, 0]] = -w
    d = -m.sum(axis=1)
    m[np.arange(n), np.arange(n)] = d
    return SymOperator.from_edges(n, edges, -w, d), float(np.linalg.eigvalsh(m)[-1])


def path_laplacian(n):
    """Edge-list Laplacian of the n-node path."""
    i = np.arange(n - 1)
    deg = np.full(n, 2.0)
    deg[[0, -1]] = 1.0
    return SymOperator.from_edges(n, np.stack([i, i + 1], axis=1), -np.ones(n - 1), deg)


def count_matvecs(monkeypatch):
    calls = []
    orig = SymOperator.matvec

    def matvec(self, x):
        calls.append(1)
        return orig(self, x)

    monkeypatch.setattr(SymOperator, "matvec", matvec)
    return calls


class TestLambdaMaxPower:
    def test_identity(self, monkeypatch):
        calls = count_matvecs(monkeypatch)
        assert abs(lambda_max_power(SymOperator.from_dense(np.eye(7))) - 1.0) < 1e-12
        assert len(calls) == 1

    def test_four_ring(self):
        assert abs(lambda_max_power(laplacian(ring_graph(4)), tol=1e-10) - 4.0) < 1e-6

    def test_random_psd_matches_eig(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((100, 40))
        op = SymOperator.from_dense(b @ b.T, sym_tol=1e-8)
        lam = lambda_max_power(op, iters=20000, tol=1e-9)
        assert abs(lam - eig_sym(op).eigenvalues[-1]) <= 1e-6 * lam

    def test_fallback_on_no_convergence(self, caplog):
        # two identical top eigenvalues with orthogonal start: converges anyway;
        # force the pathological case with 0 iterations allowed
        op = SymOperator.from_dense(np.diag([1.0, 1.0, 0.5]))
        with caplog.at_level("WARNING"):
            lam = lambda_max_power(op, iters=1, tol=1e-16)
        assert abs(lam - 1.0) < 1e-12  # dense fallback kicked in
        assert any("did not converge" in r.message for r in caplog.records)

    def test_edge_list_fallback_on_no_convergence(self, caplog):
        rng = np.random.default_rng(13)
        g = random_graph(rng, n_min=20, n_max=30, connected=True)
        op = build_be(g, rng.uniform(0.1, 2.0, g.n)).operator()
        assert not op.is_dense
        with caplog.at_level("WARNING", logger="be_spectral.spectral"):
            lam = lambda_max_power(op, iters=1)
        assert any("did not converge" in r.message for r in caplog.records)
        assert abs(lam - np.linalg.eigvalsh(op.dense())[-1]) <= 1e-12

    @pytest.mark.slow  # builds the module's large_edge_operator (about 4 s)
    def test_edge_list_operator_matches_lapack(self, large_edge_operator, monkeypatch):
        op, lam_true = large_edge_operator
        assert not op.is_dense
        calls = count_matvecs(monkeypatch)
        lam = lambda_max_power(op, iters=5000, tol=1e-12)
        assert abs(lam - lam_true) <= 1e-9 * lam_true
        # power iteration needed 383 matvecs on this operator
        assert len(calls) <= 80

    def test_memory_bounded_without_convergence(self, caplog):
        # the path graph's top eigenvalues are packed (relative gap ~1e-7), so
        # the run exhausts its matvec cap; the basis must stay at the restart cap
        n, iters = DENSE_LIMIT + 4, 2000
        op = path_laplacian(n)
        tracemalloc.start()
        try:
            with caplog.at_level("WARNING", logger="be_spectral.spectral"):
                lam = lambda_max_power(op, iters=iters, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any("did not converge" in r.message for r in caplog.records)
        assert peak < 0.15 * iters * n * 8
        lam_true = 2.0 - 2.0 * np.cos(np.pi * (n - 1) / n)
        assert 0.999 * lam_true <= lam <= lam_true * (1 + 1e-12)

    def test_tol_bounds_relative_error(self):
        # every third graph is the disjoint union of two, so some operators
        # are block diagonal; mu alternates uniform and heavy-tailed
        rng = np.random.default_rng(31)
        for i in range(240):
            g = random_graph(rng, n_min=2, n_max=300)
            if i % 3 == 2:
                h = random_graph(rng, n_min=2, n_max=150)
                g = build_graph(g.n + h.n, np.concatenate([g.edges, h.edges + g.n]))
            mu = rng.uniform(0.1, 2.0, g.n) if i % 2 else rng.lognormal(0.0, 2.0, g.n)
            op = build_be(g, mu).operator()
            lam_true = np.linalg.eigvalsh(op.dense())[-1]
            for tol in (1e-10, 1e-12):
                err = abs(lambda_max_power(op, tol=tol) - lam_true)
                assert err <= tol * lam_true, (i, g.n, tol, err / lam_true)

    def test_loose_tol_rejected(self):
        # at tol 1e-6 the Ritz value can converge to the second eigenvalue
        with pytest.raises(ValueError, match="above 1e-8"):
            lambda_max_power(laplacian(ring_graph(4)), tol=1e-6)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_no_matvec_budget_rejected(self, monkeypatch, iters):
        # iters=0 once logged a warning and returned 0.0 on a 600-node ring
        calls = count_matvecs(monkeypatch)
        with pytest.raises(ValueError, match="at least 1"):
            lambda_max_power(laplacian(ring_graph(600)), iters=iters)
        assert not calls

    def test_tol_holds_after_a_restart(self, caplog):
        # the path graph's top eigenvalues are packed, so the run restarts;
        # the Ritz gap of the small space after a restart once stopped it at
        # 3.1e-10 relative error after 1,502 matvecs
        op = path_laplacian(600)
        with caplog.at_level("WARNING", logger="be_spectral.spectral"):
            lam = lambda_max_power(op, iters=20000, tol=1e-12)
        assert not caplog.records  # converged; n >= 512 has no dense fallback
        lam_true = np.linalg.eigvalsh(op.dense())[-1]
        assert abs(lam - lam_true) <= 1e-12 * lam_true

    @pytest.mark.slow  # builds the module's large_edge_operator (about 4 s)
    def test_stops_once_the_ritz_value_converges(self, large_edge_operator, monkeypatch):
        # stopping on the residual |beta_k s_k| alone took 48 matvecs here
        op, _ = large_edge_operator
        calls = count_matvecs(monkeypatch)
        lambda_max_power(op, iters=5000, tol=1e-12)
        assert len(calls) <= 36


class TestVariationProfile:
    def test_star_leaf_difference_eigenvector(self):
        n = 6
        f = np.zeros(n)
        f[1], f[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        prof = variation_profile(star_graph(n), f)
        npt.assert_allclose(prof.p_f, [0.5, 0.25, 0.25, 0, 0, 0], atol=1e-12)

    def test_constant_flagged(self):
        prof = variation_profile(ring_graph(5), np.full(5, 2.0))
        assert prof.zero_variation and prof.p_f is None
        npt.assert_array_equal(prof.N_f, np.zeros(5))

    def test_star_top_eigenvector_profile(self):
        for n in (5, 8, 13):
            g = np.full(n, -1.0 / np.sqrt(n * (n - 1)))
            g[0] = np.sqrt((n - 1) / n)
            prof = variation_profile(star_graph(n), g)
            expected = np.full(n, 1.0 / (2 * (n - 1)))
            expected[0] = 0.5
            npt.assert_allclose(prof.p_f, expected, atol=1e-12)

    def test_node_sum_is_twice_rayleigh(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(rng)
            f = rng.standard_normal(g.n)
            prof = variation_profile(g, f)
            r = rayleigh(laplacian(g), f)
            assert abs(prof.N_f.sum() - 2 * r) <= 1e-10 * max(1, abs(r))

    def test_zero_signal_raises(self):
        with pytest.raises(ZeroSignal):
            variation_profile(ring_graph(4), np.zeros(4))


class TestRayleigh:
    def test_eigenvector_gives_eigenvalue(self):
        g = ring_graph(6)
        dec = eig_sym(laplacian(g), vectors=True)
        for k in (1, 3, 5):
            r = rayleigh(laplacian(g), dec.eigenvectors[:, k])
            assert abs(r - dec.eigenvalues[k]) < 1e-10

    def test_constant_on_connected_graph(self):
        assert abs(rayleigh(laplacian(star_graph(5)), np.ones(5))) < 1e-15

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            g = random_graph(rng)
            vals = eig_sym(laplacian(g)).eigenvalues
            f = rng.standard_normal(g.n)
            r = rayleigh(laplacian(g), f)
            assert vals[0] - 1e-10 <= r <= vals[-1] + 1e-10

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            rayleigh(laplacian(ring_graph(4)), np.zeros(4))


class TestFactorizationIdentity:
    def test_uniform_potential_collapses(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng)
        f = rng.standard_normal(g.n)
        lhs, rhs = rayleigh_factorization_check(g, np.ones(g.n), f)
        r = rayleigh(laplacian(g), f)
        assert abs(lhs - r) <= 1e-10 * max(1, abs(r))
        assert abs(rhs - r) <= 1e-10 * max(1, abs(r))

    def test_four_ring_example(self):
        rng = np.random.default_rng(16)
        g = ring_graph(4)
        for _ in range(5):
            lhs, rhs = rayleigh_factorization_check(
                g, np.array([1.0, 1.0, 3.0, 1.0]), rng.standard_normal(4))
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_star_downweighted_leaves(self):
        n = 6
        f = np.zeros(n)
        f[1], f[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        mu = np.full(n, 1.0 / (n - 2))
        mu[1] = mu[2] = 0.0
        lhs, rhs = rayleigh_factorization_check(star_graph(n), mu, f)
        # ||mu||_1 = 1, lambda_1 = 1, E[p] = 1/8
        assert abs(lhs - 0.125) < 1e-12
        assert abs(rhs - 0.125) < 1e-12

    def test_identity_holds_on_200_samples(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(200):
            g = random_graph(rng)
            mu = rng.uniform(0.05, 4.0, g.n)
            f = rng.standard_normal(g.n)
            lhs, rhs = rayleigh_factorization_check(g, mu, f)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
        assert worst <= 1e-10


class TestSpectralControlOnStars:
    @pytest.fixture(scope="class")
    def checks(self):
        report = suite_star_bounds()
        assert report["passed"], report["hard_failures"]
        return {c["name"]: c for c in report["checks"]}

    def test_gap_bound_and_equality(self, checks):
        for n in (5, 6, 10, 50):
            assert checks[f"gap-bound-n{n}"]["passed"], checks[f"gap-bound-n{n}"]
            assert checks[f"gap-bound-n{n}"]["slack"] >= -1e-12
        assert abs(checks["gap-bound-n6"]["measured"] - 0.125) <= 1e-9

    def test_gap_radius_pair(self, checks):
        for n in (5, 6, 10, 50):
            assert checks[f"gap-half-n{n}"]["passed"], checks[f"gap-half-n{n}"]
            assert checks[f"radius-recomputed-lower-n{n}"]["passed"]
            # the nominal 3/2 factor contradicts the Gershgorin row bound
            # at small n; it is reported, not asserted
            assert f"radius-nominal-lower-n{n}" in checks


class TestSpectrumScalingLaws:
    def test_edge_weight_range_brackets_every_eigenvalue(self):
        # L_mu = sum_e w_e L_e and L = sum_e L_e, so min_e w_e L <= L_mu <=
        # max_e w_e L in the Loewner order, and by Courant-Fischer
        # min_e w_e lambda_k(L) <= lambda_k(L_mu) <= max_e w_e lambda_k(L)
        rng = np.random.default_rng(32)
        for i in range(60):
            g = random_graph(rng, n_min=2, n_max=60)
            mu = rng.uniform(0.0, 3.0, g.n) if i % 2 else rng.lognormal(0.0, 2.0, g.n)
            be = build_be(g, mu)
            lam = eig_sym(laplacian(g)).eigenvalues
            lam_mu = eig_sym(be.operator()).eigenvalues
            w_min, w_max = be.edge_weights.min(), be.edge_weights.max()
            tol = 1e-12 * w_max * lam[-1]
            assert (w_min * lam - tol <= lam_mu).all(), i
            assert (lam_mu <= w_max * lam + tol).all(), i

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            g = random_graph(rng)
            mu = rng.uniform(0.1, 2.0, g.n)
            c = 2.0  # power of two: exact float scaling
            m1 = build_be(g, mu).operator().dense()
            m2 = build_be(g, c * mu).operator().dense()
            npt.assert_array_equal(c * m1, m2)
            v1 = eig_sym(SymOperator.from_dense(m1)).eigenvalues
            v2 = eig_sym(SymOperator.from_dense(m2)).eigenvalues
            npt.assert_allclose(v2, c * v1, rtol=1e-12, atol=1e-12)

    def test_subspace_sandwich(self):
        # two-sided eigenvalue control: by min-max, lambda_k^mu is bounded
        # above by the largest eigenvalue of the weighted operator projected
        # onto the leading k+1 eigenvectors of L, and below by the smallest
        # eigenvalue of its projection onto the trailing n-k eigenvectors.
        # (Exact subspace extrema; random unit samples only shrink the
        # interval and are reported, not asserted.)
        rng = np.random.default_rng(19)
        for _ in range(8):
            g = random_graph(rng, n_min=6, n_max=14, connected=True)
            mu = rng.uniform(0.2, 2.0, g.n)
            base = eig_sym(laplacian(g), vectors=True)
            l_mu = build_be(g, mu).operator().dense()
            weighted = eig_sym(SymOperator.from_dense(l_mu))
            k = int(rng.integers(1, g.n))
            lam_k_mu = weighted.eigenvalues[k]

            lead = base.eigenvectors[:, :k + 1]
            trail = base.eigenvectors[:, k:]
            upper = eig_sym(SymOperator.from_dense(
                lead.T @ l_mu @ lead, sym_tol=1e-8)).eigenvalues[-1]
            lower = eig_sym(SymOperator.from_dense(
                trail.T @ l_mu @ trail, sym_tol=1e-8)).eigenvalues[0]
            tol = 1e-9 * max(1.0, np.abs(l_mu).max())
            assert lower - tol <= lam_k_mu <= upper + tol, (lam_k_mu, lower, upper)

            # sampled expectations stay consistent with the exact extrema
            mu_total = mu.sum()
            mu_hat = mu / mu_total
            lam_k = base.eigenvalues[k]
            for _ in range(20):
                coef = rng.standard_normal(k + 1)
                f = lead @ (coef / np.linalg.norm(coef))
                prof = variation_profile(g, f)
                if prof.p_f is None:
                    continue
                value = mu_total * float(mu_hat @ prof.p_f) * rayleigh(laplacian(g), f)
                assert value <= upper + tol

    def test_four_ring_symmetry_breaking(self):
        checks = {c["name"]: c for c in suite_algebra()["checks"]}
        # all nonzero eigenvalues simple
        assert checks["four-ring-simple-eigenvalues"]["min_gap"] > 0.5
