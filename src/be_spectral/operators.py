"""Symmetric linear operators in edge-list storage.

An operator is its diagonal plus one value per unordered off-diagonal
pair, at every size, so a matvec costs O(n + |E|) and no n x n matrix is
allocated. :meth:`SymOperator.dense` scatters the matrix on demand for the
callers that need one (the dense eigensolver), up to ``DENSE_LIMIT``
nodes; larger operators are matvec-only.
"""
from __future__ import annotations

import numpy as np

DENSE_LIMIT = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


class SymOperator:
    """Immutable symmetric real matrix: a diagonal plus one value per pair (i, j).

    Construct via :meth:`from_edges`. ``__init__``'s ``dense`` keyword and
    the class constant ``is_dense`` = False exist only for the benchmark
    harness, which wraps ``__init__`` and reads ``is_dense``; ``dense``
    must be None.
    """

    is_dense = False

    def __init__(self, *, dense=None, n=None, edges=None, offdiag=None, diag=None):
        if dense is not None:
            raise ValueError("SymOperator has edge-list storage only; use from_edges")
        self._n = int(n)
        self._edges = np.ascontiguousarray(edges, dtype=np.int64)
        self._edges.setflags(write=False)
        self._ei = np.ascontiguousarray(self._edges[:, 0])
        self._ej = np.ascontiguousarray(self._edges[:, 1])
        self._offdiag = _readonly(offdiag)
        self._diag = _readonly(diag)

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

    def dense(self) -> np.ndarray:
        """The matrix, read-only, scattered anew on each call."""
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
        return SymOperator(
            n=self._n,
            edges=self._edges,
            offdiag=alpha * self._offdiag,
            diag=alpha * self._diag + shift,
        )

    def __repr__(self):
        return f"SymOperator(n={self._n})"
