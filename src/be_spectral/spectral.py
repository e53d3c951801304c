"""Dense symmetric eigendecomposition and Rayleigh-quotient machinery.

Operators are edge-list :class:`~be_spectral.operators.SymOperator` objects
only. The eigensolver densifies one (n <= ``DENSE_LIMIT``) and calls LAPACK's
symmetric routine (``numpy.linalg.eigh``) with a fixed sign convention on
the eigenvectors, or its eigenvalues-only routine
(``numpy.linalg.eigvalsh``) where no eigenvector is needed.
Results are bit-stable across runs for a given platform, LAPACK build and
BLAS thread count; they may differ in the last bits between machines or
thread counts. The spectral radius of operators too large to densify
comes from a short Lanczos run (:func:`lambda_max_power`).

On top of it sit the Rayleigh quotient and the per-node variation
profile (squared local variation normalized to a probability
distribution). The paper's identities built from them are checked in
:mod:`be_spectral.verify`.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ZeroSignal
from .graphs import Graph, _check_node_signal, endpoint_sums, grad
from .operators import SymOperator

log = logging.getLogger(__name__)

#: Lanczos keeps at most this many basis vectors, then restarts from the
#: top Ritz vector, so its memory is bounded whatever the iteration cap
LANCZOS_RESTART = 100


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column positive."""
    mag = np.abs(u)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=0, initial=0.0), axis=0)
    u *= np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    return u


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with a paired orthonormal eigenvector matrix.

    ``eigenvectors`` is None when only the eigenvalues were asked for.
    """

    eigenvalues: np.ndarray          # (n,) ascending
    eigenvectors: np.ndarray | None  # (n, n), column k pairs with eigenvalue k


def eig_sym(op: SymOperator, vectors: bool = False) -> SpectralDecomposition:
    """Eigenvalues, and with ``vectors=True`` eigenvectors, of a :class:`SymOperator`.

    Dense LAPACK on ``op.dense()``, so n <= ``DENSE_LIMIT`` (a larger
    operator raises there, as matvec-only). By default it calls the
    eigenvalues-only routine (``eigvalsh``) and returns no eigenvectors;
    ``vectors=True`` calls ``eigh``, whose eigenvalues may differ at
    rounding level. Deterministic for fixed input bits, platform and BLAS
    thread count; eigenvector signs are normalized so the first
    non-negligible component is positive.
    """
    mat = op.dense()
    n = mat.shape[0]
    if not vectors:
        vals = np.linalg.eigvalsh(mat)
        vals.setflags(write=False)
        return SpectralDecomposition(eigenvalues=vals, eigenvectors=None)
    vals, vecs = np.linalg.eigh(mat)
    vecs = _fix_signs(vecs) if n else vecs
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def lambda_max_power(op: SymOperator, iters: int = 2000, tol: float = 1e-10) -> float:
    """Largest eigenvalue of a symmetric operator by Lanczos iteration.

    Starts from a fixed seeded vector. Each step subtracts the three-term
    recurrence (``alpha_k v_k`` and ``beta_{k-1} v_{k-1}``) from the new
    vector, then makes one full reorthogonalization pass against the
    whole basis (Golub & Van Loan, *Matrix Computations*, 10.3). ``tol``
    bounds the relative error of the returned value: the run stops when
    min(r, r^2 / gap) <= tol * theta, where r = |beta_k s_k| is the top
    Ritz pair's residual and gap the distance from the top Ritz value
    theta to the next one (a Ritz value errs by at most r^2 over its gap,
    Kato-Temple). The Ritz gap stands in for the unknown eigenvalue gap,
    and both assume the Krylov space already holds the top eigenvector;
    at loose tolerances (1e-6 and above) a run can stop on the second
    eigenvalue, so ``tol`` above 1e-8 (the loosest at which the bound held
    on 3,000 random operators) raises ``ValueError``. ``iters`` caps the
    matvecs and must be at least 1. After :data:`LANCZOS_RESTART` steps
    the basis restarts from the top Ritz vector; the small Krylov space
    that follows overstates the gap, so from then on the run stops on
    r <= tol * theta alone. On non-convergence a warning is logged and,
    below n = 512, the dense eigensolver supplies the value instead.
    """
    if tol > 1e-8:
        raise ValueError(f"tol {tol:g} is above 1e-8, the loosest at which the "
                         "relative-error bound was seen to hold")
    if iters < 1:
        raise ValueError(f"iters {iters} must be at least 1")
    n = op.n
    if n == 0:
        return 0.0
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(n)
    basis = np.empty((0, n))
    # the Lanczos tridiagonal; step k reads its leading (k+1, k+1) block
    tri = np.zeros((LANCZOS_RESTART, LANCZOS_RESTART))
    k = 0
    theta = 0.0
    restarted = False
    for _ in range(iters):
        if k == 0:
            v /= np.linalg.norm(v)
        if k == basis.shape[0]:  # grow with the steps taken, up to the cap
            grown = np.empty((min(max(2 * k, 8), LANCZOS_RESTART), n))
            grown[:k] = basis
            basis = grown
        basis[k] = v
        w = op.matvec(v)
        tri[k, k] = v @ w
        w -= tri[k, k] * v
        if k:
            w -= tri[k, k - 1] * basis[k - 1]
        q = basis[:k + 1]
        w -= q.T @ (q @ w)  # one full reorthogonalization pass
        beta = float(np.linalg.norm(w))
        ritz, s = np.linalg.eigh(tri[:k + 1, :k + 1])
        theta = float(ritz[-1])
        err = abs(beta * s[-1, -1])
        gap = theta - float(ritz[-2]) if k else 0.0
        if gap > err and not restarted:  # then r^2 / gap < r
            err *= err / gap
        if err <= tol * max(abs(theta), 1e-300):
            return theta
        if k + 1 == LANCZOS_RESTART:
            v = q.T @ s[:, -1]
            k = 0
            restarted = True
        else:
            v = w / beta
            tri[k + 1, k] = tri[k, k + 1] = beta
            k += 1
    log.warning("Lanczos iteration did not converge in %d matvecs (n=%d)", iters, n)
    if n < 512:
        return float(eig_sym(op).eigenvalues[-1])
    return theta


def rayleigh(op: SymOperator, f: np.ndarray) -> float:
    """f^T M f / f^T f."""
    f = np.asarray(f, dtype=np.float64)
    denom = float(f @ f)
    if denom == 0.0:
        raise ZeroSignal("Rayleigh quotient of the zero signal is undefined")
    return float(f @ op.matvec(f)) / denom


@dataclass(frozen=True)
class VariationProfile:
    """Per-node squared local variation N_f (normalized by f^T f) and its
    probability normalization p_f.

    ``p_f`` is None when the signal has no variation at all (constant per
    component); ``zero_variation`` flags that case instead of inventing a
    fallback distribution.
    """

    N_f: np.ndarray
    p_f: np.ndarray | None
    zero_variation: bool


def variation_profile(g: Graph, f: np.ndarray) -> VariationProfile:
    """N(f)_u = sum_{v ~ u} (f_u - f_v)^2 / (f^T f), and p_f = N(f) / sum N(f).

    The node sum of N(f) equals twice the Rayleigh quotient of the
    combinatorial Laplacian (each edge is counted from both endpoints).
    """
    f = _check_node_signal(g, f)
    if f.ndim != 1:
        raise ValueError("variation profile expects a single-channel signal")
    denom = float(f @ f)
    if denom == 0.0:
        raise ZeroSignal("variation profile of the zero signal is undefined")
    d = grad(g, f)
    n_f = endpoint_sums(d * d, g.edges[:, 0], g.edges[:, 1], g.n)
    n_f /= denom
    total = float(n_f.sum())
    if total == 0.0:
        return VariationProfile(N_f=n_f, p_f=None, zero_variation=True)
    return VariationProfile(N_f=n_f, p_f=n_f / total, zero_variation=False)
