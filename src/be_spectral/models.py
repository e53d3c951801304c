"""Learnable-potential Chebyshev networks.

``MuParameterizer`` is a small GCN (symmetric-normalized A + I
propagation) whose softplus head emits a strictly positive node potential.
``MuChebNet`` computes that potential once per forward pass, assembles the
potential-weighted Laplacian differentiably from it (through the
edge-weight primitive, so loss gradients reach the parameterizer), and
stacks Chebyshev filter layers on the shared operator. The ``sym``
operator -(D_mu^{-1/2} A_mu D_mu^{-1/2}) is one dense scatter of the
normalized edge weights w_e r_i r_j, r = d_mu^{-1/2}: the normalization
runs on the (B, m) edges, never on (B, n, n) arrays. The stable variant
replaces each layer with the residual update

    X <- X + step * sum_k T_k(Ls) X (W_k - W_k^T - gamma I),

whose antisymmetric part contributes purely imaginary eigenvalues, so
depth does not blow up hidden norms.

Each layer of either kind is one ``autodiff.cheb_layer`` tape node over
the terms of ``chebyshev.cheb_basis``, the recurrence the numeric filters
use. With the symmetric-normalized operator the spectrum lives in [0, 2]
and the Chebyshev scaling constant is exactly 2, so no spectral-radius
estimate is needed; the unnormalized operator takes lambda_max from a
dense symmetric eigenvalue solve (``eigvalsh``) on every forward pass,
padded by ``LAMBDA_MAX_SLACK`` and treated as a constant during
differentiation (no gradient flows through it).

The plain ChebNet (``mu = None``) runs the same assembly on mu = 1, where
every edge weight is 1 and the operator is the combinatorial Laplacian.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .be import DEFAULT_MU_FLOOR
from .chebyshev import LAMBDA_MAX_SLACK
from .errors import IsolatedNodeUnderMu
from .graphs import Graph
from .operators import SymOperator


def config_from_dict(cls, d, block: str):
    """``cls(**d)``; a non-object ``d`` or an unknown or missing key raises ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError(f"{block} must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {block} keys: {', '.join(unknown)}")
    try:
        return cls(**d)
    except TypeError as exc:  # a required key is missing
        raise ValueError(f"{block}: {exc}") from None


def is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(block: str, key: str, value, low: int) -> None:
    """``ValueError`` unless ``value`` is an integer (not a bool) >= ``low``."""
    if not (is_int(value) and value >= low):
        raise ValueError(f"{block} {key} {value!r} must be an integer >= {low}")


def check_real(block: str, key: str, value, positive: bool = False) -> None:
    """``ValueError`` unless ``value`` is a finite number >= 0, or > 0 if ``positive``."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{block} {key} {value!r} must be a finite number "
                         f"{'>' if positive else '>='} 0")


@dataclass
class MuConfig:
    layers: int = 2
    hidden: int = 16
    eps_floor: float = DEFAULT_MU_FLOOR

    def __post_init__(self):
        check_int("model.mu", "layers", self.layers, 0)
        check_int("model.mu", "hidden", self.hidden, 1)
        check_real("model.mu", "eps_floor", self.eps_floor, positive=True)


@dataclass
class ModelConfig:
    """Architecture knobs; serializes to the run-config JSON ``model`` block."""

    layers: int = 2
    K: int = 9
    hidden: int = 16
    out_dim: int = 1
    operator: str = "sym"        # "sym" | "unnorm"
    readout: str = "node"        # "node" | "graph"
    stable: bool = False
    gamma: float = 0.05
    eps: float = 0.1             # residual step size of the stable update
    mu: MuConfig | None = field(default_factory=MuConfig)

    def __post_init__(self):
        if self.operator not in ("sym", "unnorm"):
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.readout not in ("node", "graph"):
            raise ValueError(f"unknown readout {self.readout!r}")
        if not isinstance(self.stable, bool):
            raise ValueError(f"model stable {self.stable!r} must be true or false")
        for key, low in (("layers", 1), ("K", 0), ("hidden", 1), ("out_dim", 1)):
            check_int("model", key, getattr(self, key), low)
        for key in ("gamma", "eps"):
            check_real("model", key, getattr(self, key))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = config_from_dict(cls, d, "model")
        if d.get("mu") is not None:  # absent keeps the default parameterizer, null drops it
            cfg.mu = config_from_dict(MuConfig, d["mu"], "model.mu")
        return cfg


class GraphContext:
    """Constants a forward pass needs for one graph, computed once."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.n
        self.ei = graph.edges[:, 0]
        self.ej = graph.edges[:, 1]
        self.degrees = graph.degrees.astype(np.float64)
        r = 1.0 / np.sqrt(self.degrees + 1.0)  # D_hat^{-1/2} (A + I) D_hat^{-1/2}
        self.gcn_prop = SymOperator.from_edges(self.n, graph.edges, r[self.ei] * r[self.ej],
                                               r * r).dense()


@lru_cache(maxsize=256)
def context_for(graph: Graph) -> GraphContext:
    return GraphContext(graph)


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class MuParameterizer:
    """GCN head producing a strictly positive potential from node features.

    The output head is zero-initialized, so an untrained parameterizer
    emits the constant softplus(0) + eps_floor and the downstream network
    starts out as a plain (mu-free) spectral model.
    """

    def __init__(self, in_dim: int, config: MuConfig, rng):
        self.in_dim = in_dim
        self.config = config
        self.params: dict[str, np.ndarray] = {}
        width = in_dim
        for l in range(config.layers):
            self.params[f"mu.W{l}"] = _uniform(rng, width, (width, config.hidden))
            self.params[f"mu.b{l}"] = np.zeros(config.hidden)
            width = config.hidden
        self.params["mu.Whead"] = np.zeros((width, 1))
        self.params["mu.bhead"] = np.zeros(1)

    def forward(self, bound: dict, ctx: GraphContext, x: ad.Tensor) -> ad.Tensor:
        prop = ad.constant(ctx.gcn_prop)
        h = x
        for l in range(self.config.layers):
            h = ad.relu(prop @ h @ bound[f"mu.W{l}"] + bound[f"mu.b{l}"])
        z = h @ bound["mu.Whead"] + bound["mu.bhead"]
        return ad.softplus(z) + self.config.eps_floor  # (B, n, 1), strictly > 0


class MuChebNet:
    """Chebyshev spectral network over a learned potential-weighted operator.

    With ``config.mu = None`` this is a plain ChebNet on the combinatorial
    Laplacian (the same operator at mu = 1); with ``config.stable = True``
    layers use the antisymmetric residual update instead of fresh filter
    banks.
    """

    def __init__(self, in_dim: int, config: ModelConfig, seed: int = 0):
        self.in_dim = in_dim
        self.config = config
        rng = np.random.default_rng(np.random.PCG64(seed))
        self.params: dict[str, np.ndarray] = {}
        c = config
        if c.stable:
            self.params["enc.W"] = _uniform(rng, in_dim, (in_dim, c.hidden))
            self.params["enc.b"] = np.zeros(c.hidden)
            for l in range(c.layers):
                for k in range(c.K + 1):
                    self.params[f"layer{l}.W{k}"] = _uniform(
                        rng, c.hidden, (c.hidden, c.hidden))
        else:
            width = in_dim
            for l in range(c.layers):
                for k in range(c.K + 1):
                    self.params[f"layer{l}.theta{k}"] = _uniform(
                        rng, width, (width, c.hidden))
                self.params[f"layer{l}.b"] = np.zeros(c.hidden)
                width = c.hidden
        self.params["readout.W"] = _uniform(rng, c.hidden, (c.hidden, c.out_dim))
        self.params["readout.b"] = np.zeros(c.out_dim)
        self.parameterizer = None
        if c.mu is not None:
            self.parameterizer = MuParameterizer(in_dim, c.mu, rng)
            self.params.update(self.parameterizer.params)
            self.parameterizer.params = self.params  # share one flat dict

    # --- parameter plumbing ---

    def bind(self, tape: ad.Tape | None) -> dict[str, ad.Tensor]:
        """One leaf per parameter on ``tape``, bound on its first forward pass.

        Later forwards on the same tape (one per graph of a graph-property
        batch) reuse those leaves, so each parameter's gradient sums over
        the whole batch. Raises ``ValueError`` if the tape's leaves are not
        this model's parameters. ``tape=None`` (inference) binds constants,
        so the forward records nothing.
        """
        if tape is None:
            return {k: ad.constant(v) for k, v in self.params.items()}
        leaves = tape.leaves()
        if not leaves:
            return {k: tape.leaf(v, name=k) for k, v in self.params.items()}
        if [t.name for t in leaves] != list(self.params):
            raise ValueError("tape holds leaves that are not this model's parameters")
        return {t.name: t for t in leaves}

    def load_params(self, values: dict[str, np.ndarray]) -> None:
        """Replace every parameter; names and shapes are checked before any is set."""
        missing = sorted(set(self.params) - set(values))
        extra = sorted(set(values) - set(self.params))
        if missing or extra:
            raise ValueError(f"parameter names do not match the model: missing {missing}, "
                             f"extra {extra}")
        loaded = {k: np.array(values[k], dtype=np.float64) for k in self.params}
        for k, v in loaded.items():
            if v.shape != self.params[k].shape:
                raise ValueError(f"parameter {k!r} has shape {v.shape}, the model needs "
                                 f"{self.params[k].shape}")
        self.params.update(loaded)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    # --- operator assembly ---

    def _mu_operator(self, ctx: GraphContext, mu: ad.Tensor, lambda_max):
        """Differentiable scaled operator built from the potential."""
        b = mu.shape[0]
        mu_flat = ad.reshape(mu, (b, ctx.n))
        w = ad.edge_weights(mu_flat, ctx.ei, ctx.ej)            # (B, m)
        d_mu = ad.node_sums(w, ctx.ei, ctx.ej, ctx.n)           # (B, n)
        if self.config.operator == "sym":
            if (ctx.degrees <= 0.0).any():
                raise IsolatedNodeUnderMu("graph has an isolated node")
            # w_e r_i r_j with r = d_mu^{-1/2}: the edges of D^{-1/2} A_mu D^{-1/2}
            r = ad.reshape(ad.powc(d_mu, -0.5), (b, ctx.n, 1))
            m = len(ctx.ei)
            w_norm = (w * ad.reshape(ad.take_nodes(r, ctx.ei), (b, m))
                      * ad.reshape(ad.take_nodes(r, ctx.ej), (b, m)))
            # (L_sym scaled by lambda_max = 2) = L_sym - I
            return ad.scatter_sym_dense(ad.neg(w_norm), ctx.ei, ctx.ej, ctx.n)
        l_mu = ad.diag_embed(d_mu) - ad.scatter_sym_dense(w, ctx.ei, ctx.ej, ctx.n)
        if lambda_max is None:
            # stop-gradient; the floor keeps an edgeless graph's L_mu = 0 finite
            lam = LAMBDA_MAX_SLACK * np.maximum(np.linalg.eigvalsh(l_mu.data)[..., -1], 1e-12)
        else:
            lam = np.broadcast_to(np.asarray(lambda_max, dtype=np.float64), (b,))
        scale = ad.constant((2.0 / lam)[:, None, None])
        return l_mu * scale - ad.constant(np.eye(ctx.n))

    # --- forward ---

    def forward(self, tape: ad.Tape | None, ctx: GraphContext, x, lambda_max=None,
                norm_trace: list | None = None):
        """Run the network; returns (predictions, potential-or-None).

        ``x`` is (B, n, c) or a single instance (n, c). ``lambda_max``
        freezes the spectral-radius constant (useful for finite-difference
        checks); by default it is recomputed each forward pass in ``unnorm``
        mode.
        ``norm_trace`` collects the hidden-state norm after the encoder and
        after every layer (stability diagnostics).
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        if x.shape[1] != ctx.n or x.shape[2] != self.in_dim:
            raise ValueError(
                f"features {x.shape} incompatible with n={ctx.n}, in_dim={self.in_dim}")
        bound = self.bind(tape)
        xs = ad.constant(x)

        mu = None
        if self.parameterizer is not None:
            mu = self.parameterizer.forward(bound, ctx, xs)
            op = self._mu_operator(ctx, mu, lambda_max)
        else:  # constant: folded without tape nodes, broadcast over the batch
            op = self._mu_operator(ctx, ad.constant(np.ones((1, ctx.n, 1))), lambda_max)

        def trace(t):
            if norm_trace is not None:
                norm_trace.append(float(np.linalg.norm(t.data)))

        c = self.config
        if c.stable:
            h = xs @ bound["enc.W"] + bound["enc.b"]
            trace(h)
            eye = ad.constant(c.gamma * np.eye(c.hidden))
            for l in range(c.layers):
                mats = [bound[f"layer{l}.W{k}"] for k in range(c.K + 1)]
                effective = [m - ad.transpose2(m) - eye for m in mats]
                h = h + ad.cheb_layer(op, h, effective) * c.eps
                trace(h)
        else:
            h = xs
            trace(h)
            for l in range(c.layers):
                thetas = [bound[f"layer{l}.theta{k}"] for k in range(c.K + 1)]
                h = ad.cheb_layer(op, h, thetas) + bound[f"layer{l}.b"]
                if l < c.layers - 1:
                    h = ad.relu(h)
                trace(h)

        if c.readout == "node":
            pred = h @ bound["readout.W"] + bound["readout.b"]
        else:
            pred = ad.tmean(h, axis=-2) @ bound["readout.W"] + bound["readout.b"]

        if single:
            pred = ad.reshape(pred, pred.shape[1:])
            if mu is not None:
                mu = ad.reshape(mu, (ctx.n,))
        elif mu is not None:
            mu = ad.reshape(mu, (x.shape[0], ctx.n))
        return pred, mu


# --- losses ---

def mse_loss(pred: ad.Tensor, target, mask=None) -> ad.Tensor:
    """Mean squared error over supervised entries.

    ``mask`` selects nodes (bool, shape (n,) or (B, n)); None supervises
    everything. Raises ``ValueError`` on an empty mask.
    """
    target = np.asarray(target, dtype=np.float64)
    diff = pred - ad.constant(target)
    sq = diff * diff
    if mask is None:
        return ad.tmean(sq)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no nodes")
    w = np.broadcast_to(mask[..., None], sq.shape).astype(float)
    return ad.tsum(sq * ad.constant(w)) * (1.0 / w.sum())


def cross_entropy_loss(logits: ad.Tensor, labels) -> ad.Tensor:
    """Softmax cross-entropy for (R, C) logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n_class = logits.data.shape[-1]
    shift = ad.constant(logits.data.max(axis=-1, keepdims=True))
    z = logits - shift
    lse = ad.tlog(ad.tsum(ad.texp(z), axis=-1))
    picked = ad.tsum(z * ad.constant(np.eye(n_class)[labels]), axis=-1)
    return ad.tmean(lse - picked)


def log10_mse(mse_value: float) -> float:
    """Reporting transform only; never a training objective."""
    return float(np.log10(max(float(mse_value), 1e-300)))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=-1) == np.asarray(labels)).mean())
