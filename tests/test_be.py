"""Potential-weighted Laplacian: assembly, decomposition, normalization, heat flow."""
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import (advection_decomposition, build_be, eig_sym, heat_flow,
                         laplacian, normalized_be, ring_graph, star_graph, SymOperator)
from be_spectral import be as be_mod
from be_spectral.be import HEAT_COEFF_TOL, MAX_HEAT_TERMS, heat_term_budget, scaled_bessel_i
from be_spectral.errors import HeatSeriesTooLong, IsolatedNodeUnderMu
from be_spectral.graphs import barbell_graph, build_graph
from be_spectral.operators import DENSE_LIMIT
from be_spectral.verify import random_graph


def large_ring_be(seed):
    """L_mu on a ring plus up to n random chords, above DENSE_LIMIT."""
    n = DENSE_LIMIT + 4
    rng = np.random.default_rng(seed)
    chords = rng.integers(0, n, size=(n, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    edges = np.concatenate([np.stack([np.arange(n), (np.arange(n) + 1) % n], 1), chords])
    return build_be(build_graph(n, edges), rng.uniform(0.1, 2.0, n)), rng


class TestBuildBE:
    def test_four_ring_spectrum(self):
        be = build_be(ring_graph(4), [1.0, 1.0, 3.0, 1.0])
        vals = eig_sym(be.operator()).eigenvalues
        npt.assert_allclose(
            vals, [0.0, (9 - np.sqrt(17)) / 2, 3.0, (9 + np.sqrt(17)) / 2],
            atol=1e-9)

    def test_uniform_potential_recovers_laplacian_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng)
            npt.assert_array_equal(build_be(g, np.ones(g.n)).operator().dense(),
                                   laplacian(g).dense())

    def test_star_downweighted_gap(self):
        n = 6
        mu = np.full(n, 0.25)
        mu[1] = mu[2] = 0.0  # ||mu||_1 = 1
        be = build_be(star_graph(n), mu)
        # spoke weights in canonical edge order (0,1),(0,2),(0,3),(0,4),(0,5)
        npt.assert_allclose(be.edge_weights, [1 / 8, 1 / 8, 1 / 4, 1 / 4, 1 / 4],
                            atol=0)
        vals = eig_sym(be.operator()).eigenvalues
        assert abs(vals[1] - 1 / 8) <= 1e-12

    def test_validation(self):
        g = ring_graph(4)
        with pytest.raises(ValueError, match="nonnegative"):
            build_be(g, [1.0, -0.1, 1.0, 1.0])
        with pytest.raises(ValueError, match="shape"):
            build_be(g, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="mass"):
            build_be(g, np.zeros(4))
        with pytest.raises(ValueError, match="non-finite"):
            build_be(g, [1.0, np.inf, 1.0, 1.0])

    def test_dirichlet_identity_and_psd_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_graph(rng)
            mu = rng.uniform(0.05, 3.0, g.n)
            be = build_be(g, mu)
            l_mu = be.operator().dense()
            f, h = rng.standard_normal((2, g.n))
            lhs = f @ l_mu @ h
            ei, ej = g.edges[:, 0], g.edges[:, 1]
            contrib = (f[ei] - f[ej]) * (h[ei] - h[ej])
            per_node = np.zeros(g.n)
            np.add.at(per_node, ei, contrib)
            np.add.at(per_node, ej, contrib)
            rhs = 0.5 * mu @ per_node
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-12)
            lam_min = eig_sym(be.operator()).eigenvalues[0]
            assert lam_min >= -1e-10 * max(np.abs(l_mu).max(), 1e-12)

    def test_topology_preservation(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng)
        mu = rng.uniform(0.5, 2.0, g.n)
        be = build_be(g, mu)
        a_mu = np.diag(be.degrees) - be.operator().dense()
        pattern = np.zeros((g.n, g.n), dtype=bool)
        pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
        assert ((a_mu != 0) == pattern).all()  # mu > 0 everywhere: equality

    def test_zero_potential_pair_drops_edge_but_pattern_subset(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        be = build_be(g, [0.0, 0.0, 1.0])
        a_mu = np.diag(be.degrees) - be.operator().dense()
        assert a_mu[0, 1] == 0.0 and a_mu[1, 2] == 0.5
        pattern = np.zeros((3, 3), dtype=bool)
        pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
        assert ((a_mu != 0) <= pattern).all()

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        mu = rng.uniform(0.1, 2.0, g.n)
        npt.assert_array_equal(build_be(g, 4.0 * mu).operator().dense(),
                               4.0 * build_be(g, mu).operator().dense())


class TestAdvectionDecomposition:
    def test_constant_potential_kills_advection(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng)
        be = build_be(g, np.full(g.n, 2.0))
        f = rng.standard_normal(g.n)
        diffusion, advection = advection_decomposition(be, f)
        npt.assert_allclose(advection, np.zeros(g.n), atol=1e-14)
        npt.assert_allclose(diffusion, 2.0 * laplacian(g).matvec(f), atol=1e-12)

    def test_constant_signal_kills_both(self):
        g = ring_graph(5)
        be = build_be(g, [1.0, 2.0, 3.0, 1.0, 0.5])
        diffusion, advection = advection_decomposition(be, np.full(5, 7.0))
        npt.assert_allclose(diffusion, np.zeros(5), atol=1e-12)
        npt.assert_allclose(advection, np.zeros(5), atol=1e-12)

    def test_reconstructs_weighted_laplacian_column(self):
        g = ring_graph(4)
        be = build_be(g, [1.0, 1.0, 3.0, 1.0])
        e0 = np.zeros(4)
        e0[0] = 1.0
        diffusion, advection = advection_decomposition(be, e0)
        npt.assert_allclose(diffusion - advection, be.operator().dense()[:, 0], atol=1e-12)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(rng)
            mu = rng.uniform(0.0, 3.0, g.n)
            if mu.sum() == 0:
                continue
            be = build_be(g, mu)
            f = rng.standard_normal(g.n)
            diffusion, advection = advection_decomposition(be, f)
            ref = be.operator().matvec(f)
            scale = max(np.abs(ref).max(), 1e-12)
            assert np.abs(diffusion - advection - ref).max() <= 1e-12 * scale


class TestNormalized:
    def test_uniform_ring_is_standard_normalized(self):
        be = build_be(ring_graph(4), np.ones(4))
        vals = eig_sym(normalized_be(be)).eigenvalues
        npt.assert_allclose(vals, [0, 1, 1, 2], atol=1e-9)

    def test_regular_graph_scale_cancels(self):
        g = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        v1 = eig_sym(normalized_be(build_be(g, np.ones(5)))).eigenvalues
        v2 = eig_sym(normalized_be(build_be(g, np.full(5, 3.7)))).eigenvalues
        npt.assert_allclose(v1, v2, atol=1e-10)

    def test_spectrum_in_zero_two(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = random_graph(rng, connected=True)
            mu = rng.uniform(0.05, 3.0, g.n)
            vals = eig_sym(normalized_be(build_be(g, mu))).eigenvalues
            assert vals[0] >= -1e-10 and vals[-1] <= 2.0 + 1e-10

    def test_isolated_node_under_mu(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        be = build_be(g, [0.0, 0.0, 1.0])  # node 0's only edge gets weight 0
        with pytest.raises(IsolatedNodeUnderMu, match="node 0 is zero"):
            normalized_be(be)
        normalized_be(build_be(g, [1e-4, 1e-4, 1.0]))  # no raise

    def test_symmetric_above_dense_limit(self):
        be, rng = large_ring_be(14)
        op = normalized_be(be)
        assert not op.is_dense
        r = 1.0 / np.sqrt(be.degrees)
        x = rng.standard_normal((be.graph.n, 2))
        want = r[:, None] * be.operator().matvec(r[:, None] * x)
        npt.assert_allclose(op.matvec(x), want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestHeatFlow:
    def test_t_zero_identity(self):
        g = ring_graph(6)
        be = build_be(g, np.ones(6))
        f0 = np.arange(6.0)
        npt.assert_array_equal(heat_flow(be, f0, 0.0), f0)

    def test_long_time_connected_graph_reaches_mean(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, connected=True)
        be = build_be(g, rng.uniform(0.5, 2.0, g.n))
        f0 = rng.standard_normal(g.n)
        f_inf = heat_flow(be, f0, 1e4)
        npt.assert_allclose(f_inf, np.full(g.n, f0.mean()), atol=1e-8)

    def test_mass_conservation(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, connected=True)
        be = build_be(g, rng.uniform(0.5, 2.0, g.n))
        f0 = rng.standard_normal(g.n) + 1.0
        for t in (0.1, 1.0, 10.0):
            f = heat_flow(be, f0, t)
            assert abs(f.sum() - f0.sum()) <= 1e-9 * max(abs(f0.sum()), 1.0)

    def test_anisotropic_spread(self):
        # the pulse's two neighbors sit across edges of different weight:
        # flow toward the heavier side leads
        g = ring_graph(8)
        mu = np.array([1.0, 1.0, 5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        be = build_be(g, mu)
        f0 = np.zeros(8)
        f0[1] = 1.0  # neighbors: node 2 (heavy side), node 0 (light side)
        f = heat_flow(be, f0, 0.05)
        assert f[2] > f[0]

    def test_negative_time_rejected(self):
        be = build_be(ring_graph(4), np.ones(4))
        for t in (-1.0, np.inf, np.nan):  # the series needs a finite time
            with pytest.raises(ValueError, match="finite and nonnegative"):
                heat_flow(be, np.ones(4), t)


def only_path(monkeypatch, path):
    """Make ``heat_flow`` take ``path`` and fail on the other."""
    other = {"series": "_heat_eig", "eig": "_heat_series"}[path]
    monkeypatch.setattr(be_mod, other, lambda *a: pytest.fail(f"{other} ran"))
    monkeypatch.setattr(be_mod, "heat_term_budget",
                        lambda n: MAX_HEAT_TERMS if path == "series" else 0.0)


class TestHeatSeries:
    """``heat_flow``: a Chebyshev series, or past its term budget one dense
    eigendecomposition; ``eigh`` is the oracle of both."""

    @staticmethod
    def eigh_reference(be, f0, t):
        lam, u = np.linalg.eigh(be.operator().dense())
        decay = np.exp(-t * np.maximum(lam, 0.0))
        return u @ (decay.reshape(-1, *[1] * (f0.ndim - 1)) * (u.T @ f0))

    @pytest.mark.parametrize("path", ["series", "eig"])
    @pytest.mark.parametrize("t", [1e-3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("cols", [1, 3])
    def test_matches_eigh_and_conserves_mass(self, monkeypatch, path, t, cols):
        only_path(monkeypatch, path)
        rng = np.random.default_rng(int(1000 * t) + cols)
        graphs = [random_graph(rng) for _ in range(6)]
        graphs += [barbell_graph(5, 2), barbell_graph(20, 8)]
        for g in graphs:
            be = build_be(g, rng.uniform(0.05, 3.0, g.n))
            f0 = rng.standard_normal(g.n if cols == 1 else (g.n, cols))
            want = self.eigh_reference(be, f0, t)
            got = heat_flow(be, f0, t)
            assert got.shape == f0.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            drift = np.abs(got.sum(axis=0) - f0.sum(axis=0)).max()
            assert drift <= 1e-10 * np.abs(f0).sum(axis=0).max()

    def test_no_edge_weight_returns_f0(self):
        f0 = np.arange(5.0)
        for g, mu in [(build_graph(5, []), np.ones(5)),
                      # every edge joins two zero-potential nodes: L_mu = 0
                      (build_graph(5, [(0, 1), (1, 2)]), [0.0, 0.0, 0.0, 1.0, 1.0])]:
            f = heat_flow(build_be(g, mu), f0, 2.0)
            npt.assert_array_equal(f, f0)
            assert f is not f0

    def test_runs_far_above_dense_limit_in_linear_memory(self):
        n = 20_000
        rng = np.random.default_rng(21)
        chords = rng.integers(0, n, size=(2 * n, 2))
        chords = chords[chords[:, 0] != chords[:, 1]]
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], 1)
        be = build_be(build_graph(n, np.concatenate([ring, chords])),
                      rng.uniform(0.1, 2.0, n))
        f0 = np.zeros(n)
        f0[0] = 1.0
        tracemalloc.start()
        try:
            f = heat_flow(be, f0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak  # a dense n x n matrix would take 3.2 GB
        assert abs(f.sum() - 1.0) <= 1e-10
        assert f[0] < 1.0 and f.min() >= -1e-12

    def test_path_follows_the_term_budget(self, monkeypatch):
        rng = np.random.default_rng(22)
        be = build_be(ring_graph(100), rng.uniform(0.1, 2.0, 100))
        f0 = rng.standard_normal(100)
        lam = 2.0 * be.degrees.max()
        # the largest t whose series starts within the budget, and a bit past it
        t_edge = 2.0 * ((heat_term_budget(100) - 40.0) / 10.0) ** 2 / lam
        for t, path in [(1.0, "series"), (0.99 * t_edge, "series"),
                        (1.01 * t_edge, "eig"), (1e4, "eig")]:
            with monkeypatch.context() as m:
                other = {"series": "_heat_eig", "eig": "_heat_series"}[path]
                m.setattr(be_mod, other, lambda *a: pytest.fail(f"t={t}: {other} ran"))
                heat_flow(be, f0, t)

    def test_budget_grows_with_n_up_to_dense_limit(self):
        assert heat_term_budget(100) < heat_term_budget(1000) < MAX_HEAT_TERMS
        assert heat_term_budget(DENSE_LIMIT) == heat_term_budget(10 * DENSE_LIMIT) \
            == MAX_HEAT_TERMS

    @pytest.mark.parametrize("t", [1e8, 1e300, 1.7e308])
    def test_any_finite_time_reaches_the_mean(self, t):
        # past the budget the eigendecomposition runs; eigenvalues at rounding
        # level count as zero, so the constant mode keeps its weight
        rng = np.random.default_rng(23)
        for _ in range(5):
            g = random_graph(rng, connected=True)
            be = build_be(g, rng.uniform(0.1, 2.0, g.n))
            f0 = rng.standard_normal((g.n, 2))
            f = heat_flow(be, f0, t)
            npt.assert_allclose(f, np.broadcast_to(f0.mean(axis=0), f0.shape),
                                rtol=0, atol=1e-12 * np.abs(f0).max())

    @pytest.mark.parametrize("t", [1e9, 1e300])
    def test_long_time_refused_above_dense_limit(self, t):
        be, rng = large_ring_be(24)
        f0 = rng.standard_normal(be.graph.n)
        with pytest.raises(HeatSeriesTooLong, match=re.escape(f"t = {t:g} needs about ")):
            heat_flow(be, f0, t)
        # a time within the budget still runs at this size
        assert abs(heat_flow(be, f0, 1e3).sum() - f0.sum()) <= 1e-9 * np.abs(f0).sum()


class TestScaledBessel:
    @pytest.mark.parametrize("a", [0.0, 1e-300, 1e-6, 0.3, 1.0, 7.5, 60.0, 700.0, 1e5])
    def test_sum_identity_and_cut(self, a):
        terms = scaled_bessel_i(a)
        assert terms[0] + 2.0 * terms[1:].sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        assert (terms[1:] >= HEAT_COEFF_TOL).all()
        assert (np.diff(terms) <= 0.0).all()
        assert len(terms) <= 10.0 * np.sqrt(a) + 40

    @pytest.mark.parametrize("a", [1e-8, 1e-3, 0.5, 2.0, 20.0, 200.0])
    def test_order_zero_matches_numpy(self, a):
        assert scaled_bessel_i(a)[0] == pytest.approx(np.exp(-a) * np.i0(a), rel=1e-14)

    def test_zero_argument_is_the_identity(self):
        npt.assert_array_equal(scaled_bessel_i(0.0), [1.0])
        for a in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                scaled_bessel_i(a)

    @pytest.mark.parametrize("a", [1.3e8, 1e300])
    def test_argument_past_the_term_limit_refused_before_any_work(self, a):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(f"Bessel argument {a:g} needs ")):
                scaled_bessel_i(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
