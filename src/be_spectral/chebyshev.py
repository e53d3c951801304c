"""Scalar Chebyshev polynomial filtering on symmetric operators.

A filter of order K applies y = sum_k theta_k T_k(Ls) x, the spectral
filter of ChebNet (Defferrard et al., NeurIPS 2016), where
Ls = 2 M / lambda_max - I is the operator rescaled so its spectrum lies
in [-1, 1]. The polynomials are evaluated by the three-term recurrence
T_0 = I, T_1 = Ls, T_k = 2 Ls T_{k-1} - T_{k-2}, applied directly to x;
the matrices T_k(Ls) are never materialized, so one application costs
K matvecs. :func:`cheb_basis` is that recurrence, written once;
:func:`cheb_apply` sums its terms. The coefficients are scalars only:
the learned layers of ``models``, with (c_in, c_out) weight matrices
per order, are ``autodiff.cheb_layer``, which runs the same recurrence.

Every :class:`ChebFilter` carries its lambda_max. It only maps the
spectrum into [-1, 1], so :func:`cheb_apply_be`, given a bare operator,
pads an estimate: the Lanczos value of ``spectral.lambda_max_power``
(relative error at most 1e-12; the run stops once the top Ritz value,
not its residual, has converged) times :data:`LAMBDA_MAX_SLACK`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .operators import SymOperator
from .spectral import eig_sym, lambda_max_power

#: multiplicative slack applied to estimated spectral radii before scaling,
#: so estimation error never pushes the scaled spectrum outside [-1, 1]
LAMBDA_MAX_SLACK = 1.01


@dataclass
class ChebFilter:
    """Order-K scalar Chebyshev filter: K + 1 coefficients plus the scaling constant.

    ``coefficients[k]`` multiplies T_k; they are stored as one 1-D float64
    array, and anything else (a scalar, matrices) is rejected. Matrix
    weights belong to ``autodiff.cheb_layer``. ``lambda_max`` > 0 is the
    scale of ``scale_operator``.
    """

    coefficients: np.ndarray
    lambda_max: float

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        if self.coefficients.ndim != 1:
            raise ValueError("coefficients must be a list of scalars, got shape "
                             f"{self.coefficients.shape}")
        if not self.coefficients.size:
            raise ValueError("a filter needs at least the order-0 coefficient")
        if not self.lambda_max > 0.0:
            raise ValueError(f"lambda_max must be positive, got {self.lambda_max}")

    @property
    def K(self) -> int:
        return len(self.coefficients) - 1


def scale_operator(op: SymOperator, lambda_max: float) -> SymOperator:
    """Affine rescale 2 M / lambda_max - I mapping [0, lambda_max] onto [-1, 1]."""
    if lambda_max <= 0.0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    return op.scaled(2.0 / lambda_max, -1.0)


def cheb_basis(apply, x, K: int):
    """Yield T_0(Ls) x, ..., T_K(Ls) x, where ``apply(z)`` computes Ls z.

    ``x`` may be a numpy array or an autodiff tensor; the terms are made
    lazily, one ``apply`` each from T_1 on.
    """
    yield x
    if K >= 1:
        z_prev, z = x, apply(x)
        yield z
        for _ in range(2, K + 1):
            z_prev, z = z, apply(z) * 2.0 - z_prev
            yield z


def cheb_apply(filt: ChebFilter, op: SymOperator, x: np.ndarray) -> np.ndarray:
    """Filter node signals: y = sum_k theta_k T_k(2 op / lambda_max - I) x.

    ``x`` has shape (n,) or (n, c); each column is filtered alike.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != op.n:
        raise ValueError(f"signal has {x.shape[0]} rows, operator has n={op.n}")
    ls = scale_operator(op, filt.lambda_max)
    terms = zip(cheb_basis(ls.matvec, x, filt.K), filt.coefficients)
    return reduce(add, (theta * z for z, theta in terms))


def cheb_apply_be(coefficients, op: SymOperator, x: np.ndarray) -> np.ndarray:
    """Filter ``x`` with ``coefficients`` on ``op``, scaled by its estimated spectral radius.

    ``op`` is L_mu or its symmetric normalization. The radius comes from
    Lanczos iteration, floored at 1e-12 (an edgeless graph has L_mu = 0,
    which scales to -I for any positive value) and padded by
    :data:`LAMBDA_MAX_SLACK`.
    """
    lam = LAMBDA_MAX_SLACK * max(lambda_max_power(op, iters=5000, tol=1e-12), 1e-12)
    return cheb_apply(ChebFilter(coefficients, lam), op, x)


def cheb_spectral_oracle(filt: ChebFilter, op: SymOperator, x: np.ndarray) -> np.ndarray:
    """Reference implementation in the eigenbasis (O(n^3); for validation).

    Diagonalizes the operator, evaluates each T_k on the rescaled
    eigenvalues and assembles y = sum_k theta_k U diag(T_k) U^T x.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = x.reshape(x.shape[0], -1)
    dec = eig_sym(op, vectors=True)
    lam_s = 2.0 * dec.eigenvalues / filt.lambda_max - 1.0
    u = dec.eigenvectors
    ut_x = u.T @ cols
    t_prev = np.ones_like(lam_s)
    t_cur = lam_s.copy()
    y = np.zeros(cols.shape)
    for k, theta in enumerate(filt.coefficients):
        if k == 0:
            tk = t_prev
        elif k == 1:
            tk = t_cur
        else:
            t_prev, t_cur = t_cur, 2.0 * lam_s * t_cur - t_prev
            tk = t_cur
        y += theta * (u @ (tk[:, None] * ut_x))
    return y.reshape(x.shape)
