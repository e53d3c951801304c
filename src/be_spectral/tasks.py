"""Synthetic long-range tasks with exact oracles.

Every generator is a pure function of its parameters and seed: identical
seeds give identical instances. Labels are produced by exact combinatorial
oracles (means over fixed node sets, BFS distances), never by a model.
Barbell and ring instances of one size hold the same immutable graph
object (``barbell_graph``/``ring_graph`` are memoized); BFS runs level by
level on the CSR arrays, every frontier node at once.

Barbell targets are means of the opposite bell's features, so their
variance is 1/n_clique; evaluation therefore reports MSE normalized by
that target variance (a no-information predictor scores about 1, which is
the oversquashing band, and a global-average predictor about 0.5).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedAfterRetries
from .graphs import Graph, barbell_graph, build_graph, ring_graph


@dataclass
class TaskInstance:
    """One problem: graph, features, oracle targets, supervision mask."""

    graph: Graph
    X: np.ndarray              # (n, c) features
    y: np.ndarray              # node-level (n, 1), graph-level (1,), or class ()
    mask: np.ndarray | None    # (n,) bool, or None when supervision is graph-level
    meta: dict = field(default_factory=dict)


#: fixed entropy tags so different generators with equal seeds decorrelate
_TAGS = {"barbell": 101, "graph-property": 202, "ring-routing": 303,
         "diameter": 1, "sssp": 2, "eccentricity": 3,
         "erdos-renyi": 11, "barabasi-albert": 12}


def _rng(*entropy) -> np.random.Generator:
    words = [_TAGS.get(e, e) if isinstance(e, str) else int(e) for e in entropy]
    return np.random.default_rng(np.random.PCG64(np.random.SeedSequence(words)))


# --- barbell oversquashing ---

def gen_barbell(n_clique: int, k_path: int, seed: int) -> TaskInstance:
    """Two bells joined by a bridge; each bell node must report the mean
    feature of the *opposite* bell. Bridge nodes are unsupervised.
    """
    if n_clique < 2 or k_path < 1:
        raise ValueError("need n_clique >= 2 and k_path >= 1")
    g = barbell_graph(n_clique, k_path)
    rng = _rng("barbell", n_clique, k_path, seed)
    x = rng.standard_normal((g.n, 1))
    bell_a = np.arange(n_clique)
    bell_b = np.arange(n_clique + k_path, g.n)
    y = np.zeros((g.n, 1))
    y[bell_a, 0] = x[bell_b, 0].mean()
    y[bell_b, 0] = x[bell_a, 0].mean()
    mask = np.zeros(g.n, dtype=bool)
    mask[bell_a] = mask[bell_b] = True
    meta = {
        "task": "barbell",
        "n_clique": n_clique,
        "k_path": k_path,
        "seed": seed,
        "bell_a": bell_a.tolist(),
        "bell_b": bell_b.tolist(),
        "bridge": list(range(n_clique, n_clique + k_path)),
        "target_variance": 1.0 / n_clique,
        # choices the construction leaves open, recorded for reproducibility
        "feature_distribution": "iid standard normal, scalar per node",
        "supervision": "bell nodes only",
    }
    return TaskInstance(graph=g, X=x, y=y, mask=mask, meta=meta)


# --- shortest-path machinery ---

def _bfs_rows(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Hop distances from each of ``sources`` (one row each), -1 if unreachable.

    Level-synchronous: each level gathers the CSR neighbours of every
    (row, node) pair on the frontier at once, keeps the unvisited ones and
    deduplicates them by the key ``row * n + node``. Every pair enters the
    frontier once, so the gathers of one source add up to 2m entries.
    """
    n = g.n
    rows = np.arange(sources.size)
    dist = np.full((sources.size, n), -1, dtype=np.int64)
    dist[rows, sources] = 0
    level = 0
    while rows.size:
        level += 1
        starts = g.indptr[sources]
        lens = g.indptr[sources + 1] - starts
        ends = np.cumsum(lens)
        rows = np.repeat(rows, lens)
        nodes = g.indices[np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)]
        new = dist[rows, nodes] < 0
        key = np.unique(rows[new] * n + nodes[new])
        rows, sources = key // n, key % n
        dist[rows, sources] = level
    return dist


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; -1 marks unreachable nodes. O(n + m) memory."""
    return _bfs_rows(g, np.arange(g.n)[[source]])[0]


#: bound on the (row, neighbour) pairs one all-pairs level may gather
_BFS_GATHER = 1 << 18


def all_pairs_bfs(g: Graph) -> np.ndarray:
    """(n, n) hop distances, row s from source s; -1 marks unreachable pairs.

    Sources run in blocks whose gathers stay within max(n^2, 2^18) pairs.
    """
    block = max(1, max(g.n * g.n, _BFS_GATHER) // max(2 * g.m, 1))
    return np.concatenate([_bfs_rows(g, np.arange(s, min(s + block, g.n)))
                           for s in range(0, g.n, block)])


def is_connected(g: Graph) -> bool:
    return bool((bfs_distances(g, 0) >= 0).all()) if g.n else True


# --- random graph models ---

def erdos_renyi(n: int, p: float, rng: np.random.Generator) -> Graph:
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return build_graph(n, np.stack([iu[keep], ju[keep]], axis=1))


def barabasi_albert(n: int, m_attach: int, rng: np.random.Generator) -> Graph:
    """Preferential attachment starting from a complete core of m_attach + 1."""
    if m_attach < 1 or n <= m_attach:
        raise ValueError("need 1 <= m_attach < n")
    core = m_attach + 1
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    stubs = [v for e in edges for v in e]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            pick = stubs[rng.integers(len(stubs))]
            targets.add(int(pick))
        for t in sorted(targets):
            edges.append((t, v))
            stubs.extend((t, v))
    return build_graph(n, edges)


#: the labels and random graph models ``gen_graph_property`` knows
PROPERTY_TASKS = ("diameter", "sssp", "eccentricity")
GRAPH_MODELS = ("erdos-renyi", "barabasi-albert")
#: graphs drawn by ``gen_graph_property`` before it gives up on connectivity
PROPERTY_DRAWS = 100


def gen_graph_property(task: str, n_range, seed: int, model: str = "erdos-renyi",
                       p: float = 0.3, m_attach: int = 2) -> TaskInstance:
    """Connected random graph labeled by an exact BFS oracle.

    ``task``: ``diameter`` (graph-level max distance), ``sssp`` (per-node
    distance to a marked source), or ``eccentricity`` (per-node max
    distance). Features are [1, degree] plus a source indicator channel
    for sssp.
    """
    if task not in PROPERTY_TASKS:
        raise ValueError(f"unknown property task {task!r}")
    if model not in GRAPH_MODELS:
        raise ValueError(f"unknown graph model {model!r}")
    lo, hi = int(n_range[0]), int(n_range[-1])
    rng = _rng("graph-property", task, lo, hi, model, seed)
    for _ in range(PROPERTY_DRAWS):
        n = int(rng.integers(lo, hi + 1))
        g = (erdos_renyi(n, p, rng) if model == "erdos-renyi"
             else barabasi_albert(n, m_attach, rng))
        dist = all_pairs_bfs(g)
        if (dist >= 0).all():  # connected
            break
    else:
        raise DisconnectedAfterRetries(
            f"no connected {model} graph in {PROPERTY_DRAWS} draws (n in [{lo}, {hi}])")

    feats = [np.ones((g.n, 1)), g.degrees.astype(np.float64)[:, None]]
    meta = {"task": task, "model": model, "seed": seed, "n": g.n}
    if task == "sssp":
        source = int(rng.integers(g.n))
        indicator = np.zeros((g.n, 1))
        indicator[source, 0] = 1.0
        feats.append(indicator)
        y = dist[source].astype(np.float64)[:, None]
        mask = np.ones(g.n, dtype=bool)
        meta["source"] = source
    elif task == "eccentricity":
        y = dist.max(axis=1).astype(np.float64)[:, None]
        mask = np.ones(g.n, dtype=bool)
    else:  # diameter
        y = np.array([float(dist.max())])
        mask = None
    return TaskInstance(graph=g, X=np.concatenate(feats, axis=1), y=y,
                        mask=mask, meta=meta)


# --- ring routing ---

def ring_routing_graph(n: int) -> Graph:
    """The (memoized) ring a routing task runs on: even n >= 8."""
    if n < 8 or n % 2:
        raise ValueError("ring routing needs even n >= 8")
    return ring_graph(n)


def gen_ring_routing(n: int, num_classes: int = 10, seed: int = 0,
                     noise_scale: float = 1.0) -> TaskInstance:
    """Even ring with a one-hot class planted at the node opposite the query.

    The two arcs between query and answer have equal length; the
    intermediate nodes of one (chosen per instance) carry i.i.d. gaussian
    noise, the other side stays silent. Supervision is the class label at
    the query node alone.
    """
    g = ring_routing_graph(n)
    rng = _rng("ring-routing", n, num_classes, seed)
    query, answer = 0, n // 2
    side_a = list(range(1, n // 2))
    side_b = list(range(n // 2 + 1, n))
    noisy, clean = (side_a, side_b) if rng.random() < 0.5 else (side_b, side_a)
    label = int(rng.integers(num_classes))
    x = np.zeros((n, num_classes))
    x[answer, label] = 1.0
    x[noisy] = noise_scale * rng.standard_normal((len(noisy), num_classes))
    mask = np.zeros(n, dtype=bool)
    mask[query] = True
    meta = {
        "task": "ring-routing",
        "n": n,
        "seed": seed,
        "query": query,
        "answer": answer,
        "clean_path": clean,
        "noisy_path": noisy,
        "label": label,
        "noise_scale": noise_scale,
    }
    return TaskInstance(graph=g, X=x, y=np.array(label), mask=mask, meta=meta)
