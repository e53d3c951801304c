"""Potential-weighted graph Laplacians.

A nonnegative node potential mu reweights each edge by the endpoint
average w_ij = (mu_i + mu_j) / 2, giving a weighted adjacency with the
same sparsity pattern as the original graph, a weighted degree matrix,
and the Laplacian L_mu = D_mu - A_mu. Setting mu = 1 everywhere recovers
the combinatorial Laplacian exactly. The quadratic form satisfies

    f^T L_mu g = 0.5 * sum_i mu_i * sum_{j ~ i} (f_i - f_j) (g_i - g_j),

and L_mu f splits per node into an isotropic part mu_i (L f)_i minus a
drift part 0.5 * sum_{j ~ i} (mu_j - mu_i)(f_j - f_i) that biases flow
along the discrete gradient of mu.

Heat flow is integrated with the decaying convention df/dt = -L_mu f
(the PSD sign), so mass is conserved and signals smooth toward the mean.
The exact flow exp(-t L_mu) f0 is one Chebyshev filter on the edge-list
operator: on the certified interval [0, lam] with lam = 2 max_i d_i
(Gershgorin), a = t lam / 2 and x = 2 lambda / lam - 1,

    exp(-t lambda) = e^{-a} I_0(a) + 2 sum_{k>=1} (-1)^k e^{-a} I_k(a) T_k(x),

with I_k the modified Bessel functions (the Jacobi-Anger expansion, as
for the graph wavelet kernels of Hammond, Vandergheynst & Gribonval,
ACHA 2011). The terms above 1e-17 number about 9 sqrt(a), so the cost
grows like sqrt(t lam) matvecs of O(n + |E|) each, at any graph size. Past
``heat_term_budget(n)`` terms one dense eigendecomposition is cheaper and
is used instead; above ``DENSE_LIMIT`` nodes, where there is none, such a
time is refused (``HeatSeriesTooLong``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HeatSeriesTooLong, IsolatedNodeUnderMu
from .graphs import Graph, _check_node_signal, endpoint_sums, grad, laplacian
from .operators import DENSE_LIMIT, SymOperator

DEFAULT_MU_FLOOR = 1e-4


def validate_potential(g: Graph, mu) -> np.ndarray:
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (g.n,):
        raise ValueError(f"potential has shape {mu.shape}, expected ({g.n},)")
    if not np.isfinite(mu).all():
        raise ValueError("potential contains non-finite entries")
    if (mu < 0.0).any():
        i = int(np.nonzero(mu < 0.0)[0][0])
        raise ValueError(f"potential must be nonnegative, mu[{i}] = {mu[i]}")
    if mu.sum() == 0.0:
        raise ValueError("potential must have positive total mass")
    return mu


@dataclass(frozen=True, eq=False)
class BEOperator:
    """Graph + potential + the induced weighted Laplacian pieces.

    ``edge_weights[e] = (mu_i + mu_j) / 2`` per canonical edge and
    ``degrees`` is the weighted degree (row sum of the weighted adjacency).
    Immutable; safe for concurrent reads.
    """

    graph: Graph
    mu: np.ndarray            # (n,)
    edge_weights: np.ndarray  # (m,)
    degrees: np.ndarray       # (n,)

    def operator(self) -> SymOperator:
        """L_mu = D_mu - A_mu as a symmetric operator."""
        return SymOperator.from_edges(
            self.graph.n, self.graph.edges, -self.edge_weights, self.degrees
        )


def build_be(g: Graph, mu) -> BEOperator:
    """Assemble the potential-weighted Laplacian data for graph ``g``."""
    mu = validate_potential(g, mu)
    ei, ej = g.edges[:, 0], g.edges[:, 1]
    w = 0.5 * (mu[ei] + mu[ej])
    deg = endpoint_sums(w, ei, ej, g.n)
    mu = mu.copy()
    for a in (mu, w, deg):
        a.setflags(write=False)
    return BEOperator(graph=g, mu=mu, edge_weights=w, degrees=deg)


def advection_decomposition(be: BEOperator, f: np.ndarray):
    """Split L_mu f into isotropic diffusion and gradient-coupling drift.

    Returns ``(diffusion, advection)`` with diffusion_i = mu_i * (L f)_i
    and advection_i = 0.5 * sum_{j ~ i} (mu_j - mu_i)(f_j - f_i); the
    combination diffusion - advection reproduces L_mu f (verified here to
    1e-12 relative as a mandatory self-check).
    """
    g = be.graph
    f = _check_node_signal(g, f)
    if f.ndim != 1:
        raise ValueError("decomposition expects a single-channel signal")
    diffusion = be.mu * laplacian(g).matvec(f)
    advection = endpoint_sums(0.5 * grad(g, be.mu) * grad(g, f),
                              g.edges[:, 0], g.edges[:, 1], g.n)
    reference = be.operator().matvec(f)
    scale = max(np.abs(reference).max(), np.abs(diffusion).max(), 1e-300)
    err = np.abs(diffusion - advection - reference).max()
    if err > 1e-12 * scale:
        raise ArithmeticError(
            f"decomposition failed to reconstruct the weighted Laplacian "
            f"(error {err:.3e} vs scale {scale:.3e})"
        )
    return diffusion, advection


def normalized_be(be: BEOperator) -> SymOperator:
    """Symmetric degree-normalized weighted Laplacian D_mu^{-1/2} L_mu D_mu^{-1/2}.

    Returned as an edge-list :class:`SymOperator`; its spectrum lies in
    [0, 2]. Raises :class:`IsolatedNodeUnderMu` when a weighted degree
    vanishes.
    """
    if (be.degrees <= 0.0).any():
        i = int(np.nonzero(be.degrees <= 0.0)[0][0])
        raise IsolatedNodeUnderMu(
            f"weighted degree of node {i} is zero: the node is isolated, or it and "
            "its neighbours have zero potential"
        )
    r = 1.0 / np.sqrt(be.degrees)
    e = be.graph.edges
    return SymOperator.from_edges(
        be.graph.n, e, -be.edge_weights * (r[e[:, 0]] * r[e[:, 1]]),
        be.degrees * (r * r),
    )


#: Chebyshev coefficients of the heat kernel below this are cut
HEAT_COEFF_TOL = 1e-17


def _miller_start(a: float) -> float:
    """Order at which the Bessel recurrence for argument ``a`` starts (inf for inf)."""
    return 10.0 * np.sqrt(a) + 40.0


def heat_term_budget(n: int) -> float:
    """Most Miller orders the heat series may take on an n-node graph.

    One dense eigendecomposition costs as much as about n^2 / 140 orders of
    the series (one BLAS thread, sparse graphs of mean degree 6, n = 50 to
    4000: ``eigh`` 0.33 ms to 11.7 s, a series term 8 to 130 us), so past
    this budget ``heat_flow`` takes the eigendecomposition. Above
    ``DENSE_LIMIT`` there is none, and the budget stays at its value there.
    """
    return 40.0 + min(n, DENSE_LIMIT) ** 2 / 150.0


#: no heat series takes more Miller orders than this, at any size
MAX_HEAT_TERMS = heat_term_budget(DENSE_LIMIT)


def scaled_bessel_i(a: float) -> np.ndarray:
    """e^{-a} I_k(a) for k = 0, 1, ..., up to the last term >= ``HEAT_COEFF_TOL``.

    Miller's backward recurrence I_{k-1} = (2k / a) I_k + I_{k+1}, started
    10 sqrt(a) + 40 orders out, run on the ratios r_k = I_k / I_{k-1} =
    a / (2k + a r_{k+1}), which neither overflow nor divide by a. Their
    running products are I_k / I_0, and the identity I_0 + 2 sum_k I_k = e^a
    normalizes them, so term_0 + 2 * (sum of the rest) is 1 to rounding.
    At least the order-0 term is returned. An ``a`` whose start would pass
    ``MAX_HEAT_TERMS`` is refused before any work.
    """
    if not 0.0 <= a < np.inf:
        raise ValueError(f"Bessel argument must be finite and nonnegative, got {a}")
    if _miller_start(a) > MAX_HEAT_TERMS:
        raise ValueError(f"Bessel argument {a:g} needs {_miller_start(a):.3g} orders, "
                         f"more than {MAX_HEAT_TERMS:.0f}")
    top = int(_miller_start(a))
    ratios = np.empty(top)
    r = 0.0
    for k in range(top, 0, -1):
        r = a / (2.0 * k + a * r)
        ratios[k - 1] = r
    terms = np.concatenate([[1.0], np.cumprod(ratios)])
    terms /= 1.0 + 2.0 * terms[1:].sum()
    return terms[:max(np.count_nonzero(terms >= HEAT_COEFF_TOL), 1)]


def _heat_series(be: BEOperator, f0: np.ndarray, t: float, lam: float) -> np.ndarray:
    """exp(-t L_mu) f0 as the Chebyshev series on [0, lam] (module docstring)."""
    from .chebyshev import ChebFilter, cheb_apply

    coeffs = 2.0 * scaled_bessel_i(0.5 * t * lam)
    coeffs[0] *= 0.5
    coeffs[1::2] *= -1.0
    return cheb_apply(ChebFilter(coeffs, lam), be.operator(), f0)


def _heat_eig(be: BEOperator, f0: np.ndarray, t: float, lam: float) -> np.ndarray:
    """exp(-t L_mu) f0 from one dense eigendecomposition (n <= DENSE_LIMIT).

    Eigenvalues below n eps lam, the solver's rounding, count as zero.
    """
    from .spectral import eig_sym

    dec = eig_sym(be.operator(), vectors=True)
    u, vals = dec.eigenvectors, dec.eigenvalues
    vals = np.where(vals <= be.graph.n * np.finfo(np.float64).eps * lam, 0.0, vals)
    with np.errstate(over="ignore"):  # -t * lambda may pass -inf; exp gives 0
        decay = np.exp(-t * vals)
    return u @ (decay[:, None] * (u.T @ f0)) if f0.ndim > 1 else u @ (decay * (u.T @ f0))


def heat_flow(be: BEOperator, f0: np.ndarray, t: float) -> np.ndarray:
    """exp(-t L_mu) f0: df/dt = -L_mu f evolved from f0 for time t >= 0.

    Exact up to rounding: one Chebyshev filter on [0, lam], lam = 2
    max(degrees) (Gershgorin, so no matvec is spent on it), with
    coefficients c_0 = e^{-a} I_0(a) and c_k = 2 (-1)^k e^{-a} I_k(a),
    a = t lam / 2 (module docstring), run on the edge-list operator by
    ``chebyshev.cheb_apply`` at any size. It takes about 9 sqrt(a) matvecs;
    its polynomial is 1 at lambda = 0, so total mass sum(f) is conserved by
    construction. Where the series would start past ``heat_term_budget(n)``
    orders, one dense eigendecomposition is cheaper and gives the flow
    instead (eigenvalues within rounding of zero count as zero, so the mass
    is kept at any t); above ``DENSE_LIMIT`` nodes such a t raises
    ``HeatSeriesTooLong``. ``f0`` is (n,) or (n, c).
    """
    f0 = _check_node_signal(be.graph, f0)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    if t == 0.0:
        return f0.copy()
    lam = 2.0 * float(be.degrees.max())
    if lam == 0.0:  # no edge weight: L_mu = 0
        return f0.copy()
    n, orders = be.graph.n, _miller_start(0.5 * t * lam)
    if orders <= heat_term_budget(n):
        return _heat_series(be, f0, t, lam)
    if n > DENSE_LIMIT:
        raise HeatSeriesTooLong(
            f"t = {t:g} needs about {orders:.3g} Chebyshev terms on this graph "
            f"(lam = {lam:g}), more than the {MAX_HEAT_TERMS:.0f} run above "
            f"n = {DENSE_LIMIT}")
    return _heat_eig(be, f0, t, lam)
