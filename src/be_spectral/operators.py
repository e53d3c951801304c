"""Symmetric linear operators with dense or edge-list storage.

Operators built from edges keep the symmetric edge-list form at every
size, so a matvec costs O(n + |E|) and no n x n matrix is allocated.
:meth:`SymOperator.dense` scatters the matrix on demand for the callers
that need one (the dense eigensolver), up to ``DENSE_LIMIT`` nodes;
larger edge-list operators are matvec-only.
"""
from __future__ import annotations

import numpy as np

DENSE_LIMIT = 4096

_SYM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class SymOperator:
    """Immutable wrapper around a symmetric real matrix.

    Construct via :meth:`from_dense` or :meth:`from_edges`; the latter
    describes the matrix by its diagonal plus one value per unordered
    off-diagonal pair (i, j).
    """

    def __init__(self, *, dense=None, n=None, edges=None, offdiag=None, diag=None):
        if dense is not None:
            self._dense = _readonly(dense)
            self._n = self._dense.shape[0]
            self._edges = None
            self._offdiag = None
            self._diag = None
        else:
            self._dense = None
            self._n = int(n)
            self._edges = np.ascontiguousarray(edges, dtype=np.int64)
            self._edges.setflags(write=False)
            self._ei = np.ascontiguousarray(self._edges[:, 0])
            self._ej = np.ascontiguousarray(self._edges[:, 1])
            self._offdiag = _readonly(offdiag)
            self._diag = _readonly(diag)

    @classmethod
    def from_dense(cls, mat, sym_tol: float = _SYM_TOL) -> "SymOperator":
        mat = np.asarray(mat, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        scale = np.abs(mat).max() if mat.size else 0.0
        asym = np.abs(mat - mat.T).max() if mat.size else 0.0
        if asym > sym_tol * max(scale, 1e-300):
            raise ValueError(
                f"matrix is not symmetric: max|M - M^T| = {asym:.3e} "
                f"exceeds {sym_tol:.1e} * max|M| = {sym_tol * scale:.3e}"
            )
        return cls(dense=0.5 * (mat + mat.T))

    @classmethod
    def from_edges(cls, n, edges, offdiag, diag) -> "SymOperator":
        """Symmetric matrix with M[i,j] = M[j,i] = offdiag_e on each pair and given diagonal."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        offdiag = np.asarray(offdiag, dtype=np.float64)
        diag = np.asarray(diag, dtype=np.float64)
        if offdiag.shape != (edges.shape[0],):
            raise ValueError("one off-diagonal value per edge required")
        if diag.shape != (n,):
            raise ValueError(f"diagonal must have length {n}")
        return cls(n=n, edges=edges, offdiag=offdiag, diag=diag)

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_dense(self) -> bool:
        return self._dense is not None

    def dense(self) -> np.ndarray:
        """The matrix, read-only; edge-list storage is scattered anew on each call."""
        if self._dense is not None:
            return self._dense
        n = self._n
        if n > DENSE_LIMIT:
            raise ValueError(f"operator with n={n} > {DENSE_LIMIT} is matvec-only")
        m = np.zeros((n, n))
        m[self._ei, self._ej] = self._offdiag
        m[self._ej, self._ei] = self._offdiag
        m[np.arange(n), np.arange(n)] = self._diag
        m.setflags(write=False)
        return m

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply to a vector (n,) or a stack of columns (n, c)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self._n:
            raise ValueError(f"operand has {x.shape[0]} rows, operator has n={self._n}")
        if self._dense is not None:
            return self._dense @ x
        n, ei, ej, w = self._n, self._ei, self._ej, self._offdiag
        cols = x[:, None] if x.ndim == 1 else x
        y = self._diag[:, None] * cols
        for k in range(cols.shape[1]):  # bincount sums in edge order: bit-stable
            col = cols[:, k]
            y[:, k] += np.bincount(ei, w * col[ej], minlength=n)
            y[:, k] += np.bincount(ej, w * col[ei], minlength=n)
        return y.reshape(x.shape)

    def scaled(self, alpha: float, shift: float = 0.0) -> "SymOperator":
        """Return alpha * M + shift * I as a new operator."""
        if self._dense is not None:
            m = alpha * self._dense
            m[np.arange(self._n), np.arange(self._n)] += shift
            return SymOperator(dense=m)
        return SymOperator(
            n=self._n,
            edges=self._edges,
            offdiag=alpha * self._offdiag,
            diag=alpha * self._diag + shift,
        )

    def __repr__(self):
        kind = "dense" if self.is_dense else "edges"
        return f"SymOperator(n={self._n}, {kind})"
