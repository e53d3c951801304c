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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IsolatedNodeUnderMu, UnstableStep
from .graphs import Graph, _check_node_signal, laplacian
from .operators import SymOperator

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


def floor_potential(mu, eps: float = DEFAULT_MU_FLOOR) -> np.ndarray:
    """Clamp a potential away from zero (never done silently elsewhere)."""
    return np.maximum(np.asarray(mu, dtype=np.float64), eps)


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

    def matrix(self) -> np.ndarray:
        return self.operator().dense()

    def matvec(self, f: np.ndarray) -> np.ndarray:
        return self.operator().matvec(f)


def build_be(g: Graph, mu) -> BEOperator:
    """Assemble the potential-weighted Laplacian data for graph ``g``."""
    mu = validate_potential(g, mu)
    ei, ej = g.edges[:, 0], g.edges[:, 1]
    w = 0.5 * (mu[ei] + mu[ej])
    deg = np.zeros(g.n)
    np.add.at(deg, ei, w)
    np.add.at(deg, ej, w)
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
    ei, ej = g.edges[:, 0], g.edges[:, 1]
    coupling = 0.5 * (be.mu[ej] - be.mu[ei]) * (f[ej] - f[ei])
    advection = np.zeros(g.n)
    np.add.at(advection, ei, coupling)
    np.add.at(advection, ej, coupling)
    reference = be.matvec(f)
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
    vanishes — floor the potential first.
    """
    if (be.degrees <= 0.0).any():
        i = int(np.nonzero(be.degrees <= 0.0)[0][0])
        raise IsolatedNodeUnderMu(
            f"weighted degree of node {i} is zero; apply floor_potential first"
        )
    r = 1.0 / np.sqrt(be.degrees)
    e = be.graph.edges
    return SymOperator.from_edges(
        be.graph.n, e, -be.edge_weights * (r[e[:, 0]] * r[e[:, 1]]),
        be.degrees * (r * r),
    )


def heat_flow(be: BEOperator, f0: np.ndarray, t: float, scheme: str = "spectral",
              dt: float | None = None) -> np.ndarray:
    """Evolve df/dt = -L_mu f from f0 for time t >= 0.

    ``spectral`` uses the eigendecomposition (exact up to solver accuracy);
    ``euler`` takes explicit steps of size ``dt``, which must satisfy
    dt < 2 / lambda_max(L_mu); lambda_max is the Lanczos estimate padded by
    ``LAMBDA_MAX_SLACK``, because a Ritz value never overestimates. Total
    mass sum(f) is conserved by both.
    """
    from .chebyshev import LAMBDA_MAX_SLACK
    from .spectral import eig_sym, lambda_max_power

    f0 = _check_node_signal(be.graph, f0)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return f0.copy()
    if scheme == "spectral":
        dec = eig_sym(be.operator())
        u, lam = dec.eigenvectors, np.maximum(dec.eigenvalues, 0.0)
        return u @ (np.exp(-t * lam)[:, None] * (u.T @ f0)) if f0.ndim > 1 \
            else u @ (np.exp(-t * lam) * (u.T @ f0))
    if scheme == "euler":
        if dt is None or dt <= 0.0:
            raise ValueError("euler scheme needs a positive dt")
        op = be.operator()
        lam_max = LAMBDA_MAX_SLACK * lambda_max_power(op)
        if lam_max > 0.0 and dt >= 2.0 / lam_max:
            raise UnstableStep(
                f"dt = {dt} violates dt < 2/lambda_max = {2.0 / lam_max:.6g}"
            )
        f = f0.copy()
        steps, rem = divmod(t, dt)
        for _ in range(int(steps)):
            f = f - dt * op.matvec(f)
        if rem > 1e-15 * t:
            f = f - rem * op.matvec(f)
        return f
    raise ValueError(f"unknown scheme {scheme!r}")
