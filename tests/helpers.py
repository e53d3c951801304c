"""Test-side constructors shared by several test modules."""
import numpy as np

from be_spectral import SymOperator


def sym_op(a) -> SymOperator:
    """Edge-list operator of the symmetric matrix ``a``: its diagonal and one
    value per upper-triangle pair (i < j), zeros included."""
    a = np.asarray(a, dtype=np.float64)
    i, j = np.triu_indices(a.shape[0], k=1)
    return SymOperator.from_edges(a.shape[0], np.stack([i, j], axis=1), a[i, j], np.diag(a))
