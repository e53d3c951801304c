"""Chebyshev filtering: scaling, recurrence vs eigenbasis oracle, algebra."""
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import be_spectral.autodiff as ad
from be_spectral import (ChebFilter, SymOperator, build_be, cheb_apply,
                         cheb_apply_be, cheb_spectral_oracle, eig_sym,
                         laplacian, ring_graph, scale_operator)
from be_spectral.chebyshev import cheb_basis
from be_spectral.graphs import build_graph
from be_spectral.verify import random_graph


class TestScaleOperator:
    def test_scaled_identity(self):
        op = SymOperator.from_dense(3.0 * np.eye(4))
        npt.assert_array_equal(scale_operator(op, 3.0).dense(), np.eye(4))

    def test_four_ring_endpoints(self):
        vals = eig_sym(scale_operator(laplacian(ring_graph(4)), 4.0)).eigenvalues
        npt.assert_allclose(vals, [-1, 0, 0, 1], atol=1e-12)

    def test_weighted_ring_top_maps_to_one(self):
        be = build_be(ring_graph(4), [1.0, 1.0, 3.0, 1.0])
        lam = (9 + np.sqrt(17)) / 2
        vals = eig_sym(scale_operator(be.operator(), lam)).eigenvalues
        assert abs(vals[-1] - 1.0) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            scale_operator(SymOperator.from_dense(np.eye(2)), 0.0)


class TestChebFilterType:
    def test_mixed_shapes_rejected(self):
        # scalar filters only: matrix weights are autodiff.cheb_layer's
        with pytest.raises(ValueError):
            ChebFilter([np.zeros(()), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="scalars"):
            ChebFilter([np.zeros((2, 2)), np.zeros((2, 2))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="order-0"):
            ChebFilter([])

    def test_k_property(self):
        assert ChebFilter([1.0, 0.5, 0.25], lambda_max=2.0).K == 2


class TestChebBasis:
    def test_array_and_tensor_terms_bit_equal(self):
        # the numeric filters and the learned layers run one recurrence
        rng = np.random.default_rng(3)
        g = random_graph(rng, n_min=8, n_max=12, connected=True)
        ls = scale_operator(laplacian(g), 1.01 * eig_sym(laplacian(g)).eigenvalues[-1])
        m = ls.dense()
        x = rng.standard_normal((2, g.n, 3))
        tape = ad.Tape()
        arrays = list(cheb_basis(lambda z: m @ z, x, 6))
        tensors = list(cheb_basis(lambda z: ad.constant(m) @ z, tape.leaf(x), 6))
        assert len(arrays) == len(tensors) == 7
        assert all(t.requires_grad for t in tensors)
        for a, t in zip(arrays, tensors):
            npt.assert_array_equal(a, t.data)


class TestChebApply:
    def test_identity_filter(self):
        g = ring_graph(6)
        x = np.random.default_rng(0).standard_normal((6, 3))
        y = cheb_apply(ChebFilter([1.0], lambda_max=4.0), laplacian(g), x)
        npt.assert_array_equal(y, x)

    def test_order_one_is_scaled_operator(self):
        g = ring_graph(6)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        op = laplacian(g)
        y = cheb_apply(ChebFilter([0.0, 1.0], lambda_max=4.0), op, x)
        npt.assert_allclose(y, scale_operator(op, 4.0).matvec(x), atol=1e-14)

    def test_matches_spectral_oracle_scalar(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, n_min=20, n_max=30)
        op = laplacian(g)
        lam = 1.01 * eig_sym(op).eigenvalues[-1]
        filt = ChebFilter(list(rng.standard_normal(6)), lambda_max=lam)
        x = rng.standard_normal((g.n, 2))
        y = cheb_apply(filt, op, x)
        y_ref = cheb_spectral_oracle(filt, op, x)
        scale = max(np.abs(y_ref).max(), 1.0)
        assert np.abs(y - y_ref).max() <= 1e-9 * scale

    def test_oracle_equivalence_sweep(self):
        # recurrence == eigenbasis evaluation across sizes and orders,
        # on both the plain and the potential-weighted operator
        rng = np.random.default_rng(4)
        for n in (8, 33, 64):
            g = random_graph(rng, n_min=n, n_max=n)
            mu = rng.uniform(0.1, 2.0, g.n)
            for op in (laplacian(g), build_be(g, mu).operator()):
                lam = 1.01 * eig_sym(op).eigenvalues[-1]
                for K in (0, 5, 12):
                    filt = ChebFilter(list(rng.standard_normal(K + 1)),
                                      lambda_max=lam)
                    x = rng.standard_normal((g.n, 2))
                    y = cheb_apply(filt, op, x)
                    y_ref = cheb_spectral_oracle(filt, op, x)
                    assert np.abs(y - y_ref).max() <= 1e-9 * max(
                        np.abs(y_ref).max(), 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng)
        op = laplacian(g)
        filt = ChebFilter(list(rng.standard_normal(5)),
                          lambda_max=1.01 * eig_sym(op).eigenvalues[-1])
        x, z = rng.standard_normal((2, g.n, 3))
        a, b = 1.7, -0.4
        lhs = cheb_apply(filt, op, a * x + b * z)
        rhs = a * cheb_apply(filt, op, x) + b * cheb_apply(filt, op, z)
        npt.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))

    def test_rotation_equivariance_on_ring(self):
        g = ring_graph(4)
        rng = np.random.default_rng(6)
        filt = ChebFilter(list(rng.standard_normal(4)), lambda_max=4.0)
        x = rng.standard_normal((4, 2))
        y = cheb_apply(filt, laplacian(g), x)
        y_rot = cheb_apply(filt, laplacian(g), np.roll(x, 1, axis=0))
        npt.assert_allclose(y_rot, np.roll(y, 1, axis=0), atol=1e-12)

    def test_shape_errors(self):
        g = ring_graph(4)
        with pytest.raises(ValueError, match="rows"):
            cheb_apply(ChebFilter([1.0], lambda_max=4.0), laplacian(g),
                       np.zeros((5, 2)))
        with pytest.raises(ValueError, match="lambda_max"):
            cheb_apply(ChebFilter([1.0]), laplacian(g), np.zeros(4))


class TestChebApplyBE:
    def test_uniform_mu_equals_plain_bitwise(self):
        g = ring_graph(6)
        rng = np.random.default_rng(7)
        filt = ChebFilter(list(rng.standard_normal(5)), lambda_max=4.5)
        x = rng.standard_normal((6, 2))
        be = build_be(g, np.ones(6))
        npt.assert_array_equal(cheb_apply_be(filt, be, x),
                               cheb_apply(filt, laplacian(g), x))

    def test_bandpass_rejects_constants(self):
        # filter with zero response at the bottom of the spectrum:
        # project out T_0 so constants (eigenvalue 0) are annihilated
        g = ring_graph(4)
        be = build_be(g, [1.0, 1.0, 3.0, 1.0])
        lam = 1.01 * eig_sym(be.operator()).eigenvalues[-1]
        # g(l) = T_1(ls) - T_1(-1) has a root exactly at l = 0
        shift = 2.0 / lam * 0.0 - 1.0  # scaled image of eigenvalue 0
        filt = ChebFilter([-shift, 1.0], lambda_max=lam)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 1))
        y = cheb_apply_be(filt, be, x)
        # output must be orthogonal to the constant kernel vector
        assert abs(y.sum()) <= 1e-9 * max(np.abs(y).max(), 1.0)

    def test_estimated_lambda_max_matches_oracle(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, n_min=15, n_max=25)
        mu = rng.uniform(0.2, 2.0, g.n)
        be = build_be(g, mu)
        filt = ChebFilter(list(rng.standard_normal(6)))
        x = rng.standard_normal((g.n, 2))
        y = cheb_apply_be(filt, be, x)
        lam_true = eig_sym(be.operator()).eigenvalues[-1]
        from be_spectral.spectral import lambda_max_power
        lam_est = 1.01 * lambda_max_power(be.operator(), iters=5000, tol=1e-12)
        assert lam_true <= lam_est <= 1.02 * lam_true
        ref = cheb_spectral_oracle(ChebFilter(filt.coefficients, lam_est),
                                  be.operator(), x)
        assert np.abs(y - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)

    def test_edgeless_graph(self):
        # L_mu = 0 scales to -I for any positive lambda_max, so T_k(Ls) = (-1)^k I
        coeffs = [1.0, 0.5, -0.25, 2.0]
        x = np.random.default_rng(17).standard_normal((5, 2))
        y = cheb_apply_be(ChebFilter(coeffs), build_be(build_graph(5, []), np.ones(5)), x)
        npt.assert_allclose(y, sum(c * (-1) ** k for k, c in enumerate(coeffs)) * x,
                            rtol=0, atol=1e-14)

    def test_normalized_kind(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, connected=True)
        be = build_be(g, rng.uniform(0.5, 2.0, g.n))
        filt = ChebFilter(list(rng.standard_normal(4)), lambda_max=2.0)
        from be_spectral import normalized_be
        x = rng.standard_normal(g.n)
        y = cheb_apply_be(filt, be, x, kind="symmetric")
        ref = cheb_apply(filt, normalized_be(be), x)
        npt.assert_array_equal(y, ref)

    def test_memory_stays_sparse(self):
        # ring plus 2n random pairs at n = 4000: a dense L_mu would take n^2 8 B
        n = 4000
        rng = np.random.default_rng(16)
        extra = rng.integers(0, n, size=(2 * n, 2))
        edges = np.concatenate([np.stack([np.arange(n), (np.arange(n) + 1) % n], 1),
                                extra[extra[:, 0] != extra[:, 1]]])
        be = build_be(build_graph(n, edges), rng.uniform(0.1, 2.0, n))
        filt = ChebFilter(list(rng.standard_normal(10)))
        x = rng.standard_normal((n, 4))
        tracemalloc.start()
        try:
            y = cheb_apply_be(filt, be, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(y).all()
        assert peak < 0.1 * n * n * 8
