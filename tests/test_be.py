"""Potential-weighted Laplacian: assembly, decomposition, normalization, heat flow."""
import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import (advection_decomposition, build_be, eig_sym,
                         floor_potential, heat_flow, laplacian, normalized_be,
                         ring_graph, star_graph, SymOperator)
from be_spectral.errors import IsolatedNodeUnderMu, UnstableStep
from be_spectral.graphs import build_graph, complete_graph
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
            npt.assert_array_equal(build_be(g, np.ones(g.n)).matrix(),
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
            l_mu = be.matrix()
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
        a_mu = np.diag(be.degrees) - be.matrix()
        pattern = np.zeros((g.n, g.n), dtype=bool)
        pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
        assert ((a_mu != 0) == pattern).all()  # mu > 0 everywhere: equality

    def test_zero_potential_pair_drops_edge_but_pattern_subset(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        be = build_be(g, [0.0, 0.0, 1.0])
        a_mu = np.diag(be.degrees) - be.matrix()
        assert a_mu[0, 1] == 0.0 and a_mu[1, 2] == 0.5
        pattern = np.zeros((3, 3), dtype=bool)
        pattern[g.edges[:, 0], g.edges[:, 1]] = pattern[g.edges[:, 1], g.edges[:, 0]] = True
        assert ((a_mu != 0) <= pattern).all()

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng)
        mu = rng.uniform(0.1, 2.0, g.n)
        npt.assert_array_equal(build_be(g, 4.0 * mu).matrix(),
                               4.0 * build_be(g, mu).matrix())

    def test_floor_potential(self):
        npt.assert_allclose(floor_potential([0.0, 0.5], 1e-4), [1e-4, 0.5])


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
        npt.assert_allclose(diffusion - advection, be.matrix()[:, 0], atol=1e-12)

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
            ref = be.matvec(f)
            scale = max(np.abs(ref).max(), 1e-12)
            assert np.abs(diffusion - advection - ref).max() <= 1e-12 * scale


class TestNormalized:
    def test_uniform_ring_is_standard_normalized(self):
        be = build_be(ring_graph(4), np.ones(4))
        vals = eig_sym(normalized_be(be)).eigenvalues
        npt.assert_allclose(vals, [0, 1, 1, 2], atol=1e-9)

    def test_regular_graph_scale_cancels(self):
        g = complete_graph(5)
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
        with pytest.raises(IsolatedNodeUnderMu, match="floor_potential"):
            normalized_be(be)
        floored = build_be(g, floor_potential([0.0, 0.0, 1.0]))
        normalized_be(floored)  # no raise

    def test_symmetric_above_dense_limit(self):
        be, rng = large_ring_be(14)
        op = normalized_be(be)
        assert not op.is_dense
        r = 1.0 / np.sqrt(be.degrees)
        x = rng.standard_normal((be.graph.n, 2))
        want = r[:, None] * be.matvec(r[:, None] * x)
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
        fe = heat_flow(be, f0, 0.5, scheme="euler", dt=1e-3)
        assert abs(fe.sum() - f0.sum()) <= 1e-9 * max(abs(f0.sum()), 1.0)

    def test_euler_mass_conservation_above_dense_limit(self):
        be, rng = large_ring_be(15)
        f0 = rng.standard_normal(be.graph.n) + 1.0
        f = heat_flow(be, f0, 0.5, scheme="euler", dt=0.05)
        assert abs(f.sum() - f0.sum()) <= 1e-9 * abs(f0.sum())
        assert np.abs(f - f0).max() > 0.1
        with pytest.raises(UnstableStep, match="lambda_max"):
            heat_flow(be, f0, 0.5, scheme="euler", dt=0.5)

    def test_euler_cross_validates_spectral(self):
        # asymmetric potential on a ring, localized pulse: anisotropic spread
        g = ring_graph(8)
        mu = np.array([1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        be = build_be(g, mu)
        f0 = np.zeros(8)
        f0[0] = 1.0
        exact = heat_flow(be, f0, 1.0, scheme="spectral")
        lam_max = eig_sym(be.operator()).eigenvalues[-1]
        # forward-Euler error per mode ~ t * lam^2 * dt / 2 * e^{-lam t};
        # derive the dt that brings the worst mode under 1e-6
        lams = eig_sym(be.operator()).eigenvalues[1:]
        worst = max(l * l * np.exp(-l) / 2 for l in lams)
        dt_for_1e6 = 1e-6 / worst
        assert dt_for_1e6 < 2 / lam_max
        approx = heat_flow(be, f0, 1.0, scheme="euler", dt=dt_for_1e6)
        assert np.abs(approx - exact).max() <= 1e-6
        # the coarse step agrees at its own accuracy level
        coarse = heat_flow(be, f0, 1.0, scheme="euler", dt=1e-3)
        assert np.abs(coarse - exact).max() <= 1e-3

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

    def test_unstable_step_rejected(self):
        g = ring_graph(4)
        be = build_be(g, np.ones(4))
        with pytest.raises(UnstableStep, match="lambda_max"):
            heat_flow(be, np.ones(4), 1.0, scheme="euler", dt=0.6)

    def test_negative_time_rejected(self):
        be = build_be(ring_graph(4), np.ones(4))
        with pytest.raises(ValueError, match="nonnegative"):
            heat_flow(be, np.ones(4), -1.0)
