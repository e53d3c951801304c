"""SymOperator storage, validation, matvec paths."""
import numpy as np
import numpy.testing as npt
import pytest

from be_spectral import SymOperator, star_graph
from be_spectral.operators import DENSE_LIMIT


def test_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        SymOperator.from_dense(m)


def test_symmetrizes_roundoff():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    a = a @ a.T
    a[0, 1] += 1e-15
    op = SymOperator.from_dense(a)
    npt.assert_array_equal(op.dense(), op.dense().T)


def test_from_edges_matches_dense_construction():
    edges = np.array([[0, 1], [1, 2], [0, 3]])
    off = np.array([-1.5, 2.0, 0.25])
    diag = np.array([1.0, 2.0, 3.0, 4.0])
    op = SymOperator.from_edges(4, edges, off, diag)
    m = op.dense()
    assert m[0, 1] == -1.5 and m[1, 0] == -1.5 and m[2, 1] == 2.0
    npt.assert_array_equal(np.diag(m), diag)


def test_sparse_matvec_agrees_with_dense():
    rng = np.random.default_rng(1)
    n, m_edges = 30, 60
    pairs = set()
    while len(pairs) < m_edges:
        i, j = rng.integers(n, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = np.array(sorted(pairs))
    off = rng.standard_normal(len(edges))
    diag = rng.standard_normal(n)
    dense_op = SymOperator.from_edges(n, edges, off, diag)
    sparse_op = SymOperator(n=n, edges=edges, offdiag=off, diag=diag)
    assert not sparse_op.is_dense
    x = rng.standard_normal(n)
    npt.assert_allclose(sparse_op.matvec(x), dense_op.matvec(x), atol=1e-12)
    xc = rng.standard_normal((n, 3))
    npt.assert_allclose(sparse_op.matvec(xc), dense_op.matvec(xc), atol=1e-12)
    npt.assert_allclose(sparse_op.matvec(x), sparse_op.dense() @ x, atol=1e-12)
    npt.assert_allclose(sparse_op.matvec(xc), sparse_op.dense() @ xc, atol=1e-12)


def test_from_edges_keeps_edge_storage_and_densifies_on_demand():
    edges = np.array([[0, 1], [1, 2]])
    op = SymOperator.from_edges(4, edges, np.array([-1.0, 2.0]), np.arange(4.0))
    assert not op.is_dense
    m = op.dense()
    assert not m.flags.writeable
    assert op.dense() is not m  # scattered per call, not cached
    npt.assert_array_equal(op.dense(), m)
    n = DENSE_LIMIT + 1
    big = SymOperator.from_edges(n, edges, np.array([-1.0, 2.0]), np.ones(n))
    with pytest.raises(ValueError, match="matvec-only"):
        big.dense()


def test_matvec_isolated_nodes():
    # nodes 3 and 4 have no edges: their rows are the diagonal alone
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    diag = np.array([2.0, -1.0, 0.5, 3.0, -4.0])
    op = SymOperator.from_edges(5, edges, np.array([1.0, -2.0, 0.25]), diag)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(5)
    npt.assert_allclose(op.matvec(x), op.dense() @ x, atol=1e-14)
    npt.assert_array_equal(op.matvec(x)[3:], diag[3:] * x[3:])
    xc = rng.standard_normal((5, 3))
    assert op.matvec(xc).shape == (5, 3)
    npt.assert_allclose(op.matvec(xc), op.dense() @ xc, atol=1e-14)
    npt.assert_array_equal(op.matvec(xc)[3:], diag[3:, None] * xc[3:])


def test_matvec_without_edges():
    g = star_graph(6)
    op = SymOperator.from_edges(g.n, np.empty((0, 2), dtype=np.int64), np.empty(0),
                                g.degrees.astype(np.float64))
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    npt.assert_array_equal(op.matvec(x), g.degrees * x)
    xc = rng.standard_normal((6, 2))
    npt.assert_array_equal(op.matvec(xc), g.degrees[:, None] * xc)


def test_scaled_both_storages():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    op = SymOperator.from_dense(a)
    npt.assert_allclose(op.scaled(2.0, -1.0).dense(), 2 * a - np.eye(6), atol=0)
    edges = np.array([[0, 1]])
    sp = SymOperator(n=6, edges=edges, offdiag=np.array([3.0]),
                     diag=np.arange(6.0))
    scaled = sp.scaled(0.5, 1.0)
    x = rng.standard_normal(6)
    npt.assert_allclose(scaled.matvec(x),
                        0.5 * sp.matvec(x) + x, atol=1e-14)


def test_matvec_shape_check():
    op = SymOperator.from_dense(np.eye(3))
    with pytest.raises(ValueError, match="rows"):
        op.matvec(np.zeros(4))
