"""Undirected graphs in compressed sparse form, plus discrete calculus.

Edges are stored once with the canonical orientation i < j, sorted
lexicographically, so every derived quantity is a deterministic function
of the edge *set* (input order never matters). Node functions are length-n
vectors, edge functions length-m vectors in canonical edge order.

Conventions: the gradient on edge (i, j) is f[j] - f[i], and the
combinatorial Laplacian is L = D - A, so f^T L h is the edge sum of
grad f * grad h. Edge-to-node sums go through :func:`scatter_rows`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import SymOperator


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected graph with canonical (i < j) edges.

    ``indptr``/``indices`` form the CSR neighbor structure; neighbor lists
    are ascending, so m = indices.size / 2.
    """

    n: int
    edges: np.ndarray   # (m, 2) int64, i < j, lexicographically sorted
    indptr: np.ndarray  # (n + 1,) offsets
    indices: np.ndarray # concatenated sorted neighbor lists

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list) -> Graph:
    """Validate, deduplicate and canonically orient an edge list.

    Raises ``ValueError`` on out-of-range endpoints or self-loops.
    Duplicate edges (in either orientation) collapse to one. Edge (i, j)
    is ordered by the int64 key ``i * n + j`` (exact for n < 3e9): one sort
    of the i < j keys, deduplicated by neighbour comparison, gives ``edges``,
    and one sort of both orientations' keys gives ``indptr``/``indices``.
    """
    n = int(n)
    if n <= 0:
        raise ValueError(f"node count must be positive, got {n}")
    e = edge_list if isinstance(edge_list, np.ndarray) else list(edge_list)
    e = np.asarray(e, dtype=np.int64).reshape(-1, 2)
    if e.size and (e.min() < 0 or e.max() >= n):
        bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
        raise ValueError(f"edge {tuple(bad)} has endpoint outside [0, {n})")
    if e.size and (e[:, 0] == e[:, 1]).any():
        i = int(e[e[:, 0] == e[:, 1]][0, 0])
        raise ValueError(f"self-loop at node {i} is not allowed")
    key = np.sort(np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1]))
    key = key[np.diff(key, prepend=-1) != 0]
    canon = np.stack([key // n, key % n], axis=1)
    both = np.sort(np.concatenate([key, canon[:, 1] * n + canon[:, 0]]))
    indptr = np.searchsorted(both, np.arange(n + 1, dtype=np.int64) * n)
    indices = both % n

    for a in (canon, indptr, indices):
        a.setflags(write=False)
    return Graph(n=n, edges=canon, indptr=indptr, indices=indices)


def _check_node_signal(g: Graph, f: np.ndarray, name: str = "f") -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape[0] != g.n:
        raise ValueError(f"{name} has length {f.shape[0]}, graph has n={g.n}")
    if not np.isfinite(f).all():
        raise ValueError(f"{name} contains non-finite entries")
    return f


def grad(g: Graph, f: np.ndarray) -> np.ndarray:
    """Edge signal f[j] - f[i] per canonical edge (i < j).

    Accepts (n,) or (n, c); returns (m,) or (m, c).
    """
    f = _check_node_signal(g, f)
    return f[g.edges[:, 1]] - f[g.edges[:, 0]]


def scatter_rows(v, idx, n: int) -> np.ndarray:
    """(..., m) -> (..., n): out[..., i] sums v[..., e] over idx[e] == i, in order of e.

    Every edge-to-node sum in the package goes through this one ``np.bincount``
    over row-offset bins (float64 also without edges), bit-equal to ``numpy.add.at``.
    One row takes ``idx`` as its bins: a fresh (m,) temporary costs page faults.
    """
    lead = v.shape[:-1]
    rows = math.prod(lead)
    bins = idx if rows == 1 else (idx + n * np.arange(rows)[:, None]).ravel()
    out = np.bincount(bins, weights=v.reshape(rows, -1).ravel(), minlength=rows * n)
    return out.reshape(lead + (n,)).astype(np.float64, copy=False)


def endpoint_sums(v, ei, ej, n: int) -> np.ndarray:
    """(..., m) -> (..., n): each edge value summed onto both endpoints ei[e], ej[e]."""
    return scatter_rows(np.concatenate([v, v], axis=-1), np.concatenate([ei, ej]), n)


def laplacian(g: Graph) -> SymOperator:
    """Combinatorial Laplacian L = D - A (integer entries, zero row sums)."""
    w = -np.ones(g.m)
    return SymOperator.from_edges(g.n, g.edges, w, g.degrees.astype(np.float64))


# --- convenience constructors used across tasks and checks ---

@lru_cache(maxsize=16)
def ring_graph(n: int) -> Graph:
    """Cycle 0 - 1 - ... - (n-1) - 0; memoized, every call with one n shares a graph."""
    if n < 3:
        raise ValueError("ring needs n >= 3")
    i = np.arange(n)
    return build_graph(n, np.stack([i, (i + 1) % n], axis=1))


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0 joined to leaves 1..n-1."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return build_graph(n, [(0, i) for i in range(1, n)])


@lru_cache(maxsize=16)
def barbell_graph(n_clique: int, k_path: int) -> Graph:
    """Two complete graphs joined by a path of ``k_path`` bridge nodes.

    Nodes 0..n_clique-1 form the first bell, the next k_path nodes the
    bridge, the rest the second bell. The bells attach at nodes
    n_clique - 1 and n_clique + k_path. Memoized: every call with the same
    sizes returns the same (immutable) graph.
    """
    if n_clique < 2:
        raise ValueError("bell size must be >= 2")
    if k_path < 1:
        raise ValueError("bridge must have at least one node")
    bell = np.stack(np.triu_indices(n_clique, k=1), axis=1)
    chain = np.arange(n_clique - 1, n_clique + k_path + 1)  # a[-1], bridge, b[0]
    edges = [bell, bell + n_clique + k_path, np.stack([chain[:-1], chain[1:]], axis=1)]
    return build_graph(2 * n_clique + k_path, np.concatenate(edges))
