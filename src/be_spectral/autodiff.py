"""Minimal reverse-mode differentiation over dense float64 arrays.

A :class:`Tape` records primitive operations in execution order; since
every operation's inputs precede it, the recording order is already a
topological order and :func:`backward` visits nodes exactly once in
reverse. Tensors are immutable value wrappers; only nodes reachable from
a trainable leaf are recorded, everything else is constant-folded.

Besides the usual dense primitives (matmul with batch broadcasting,
elementwise ops, reductions) the engine provides the graph-specific
primitives that make a potential-weighted Laplacian differentiable in the
potential: ``edge_weights`` (node vector -> per-edge endpoint averages,
whose adjoint scatters half the upstream gradient to both endpoints),
``node_sums`` (per-edge values -> weighted degrees) and a symmetric
scatter into a dense matrix, from which the models assemble the operator.
``cheb_layer`` records a whole Chebyshev layer, sum_k T_k(op) h W_k, as
one node. It writes the terms T_k(op) h, transposed, into one buffer with
a contiguous block of rows per term; its backward runs the adjoint
(Clenshaw) recurrence in one adjoint buffer of the same layout, each block
overwritten by its scaled adjoint once the recurrence has read it, so the
operator gets one batched gradient contraction with those two buffers per
layer. ``matmul`` and ``cheb_layer`` skip the gradients of constant
operands.

Tapes are single-threaded and meant to live for one training step.
A tensor refers to its tape only weakly, so a finished step (tape,
tensors and arrays) is freed by reference counting as soon as the caller
drops it, without waiting for the cyclic garbage collector.
"""
from __future__ import annotations

import weakref

import numpy as np

from .chebyshev import cheb_basis
from .errors import NaNLoss
from .graphs import endpoint_sums, scatter_rows

__all__ = [
    "Tape", "Tensor", "backward", "constant",
    "add", "sub", "mul", "neg", "matmul", "transpose2", "reshape",
    "tsum", "tmean", "relu", "softplus", "texp", "tlog",
    "powc", "take_nodes", "edge_weights", "node_sums", "scatter_sym_dense",
    "diag_embed", "cheb_layer",
    "AdamState", "adam_step", "check_finite",
]


class Tape:
    """Ordered record of differentiable operations for one backward pass."""

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._leaves: list[Tensor] = []
        self._ref = weakref.ref(self)  # shared by every tensor recorded here

    def leaf(self, data, name: str | None = None) -> "Tensor":
        t = Tensor(np.asarray(data, dtype=np.float64), tape=self,
                   requires_grad=True, name=name)
        self._leaves.append(t)
        return t

    def leaves(self) -> list["Tensor"]:
        return list(self._leaves)


class Tensor:
    """Immutable array value, optionally attached to a tape."""

    __slots__ = ("data", "_tape", "parents", "vjp", "requires_grad", "name")

    def __init__(self, data, tape=None, parents=(), vjp=None,
                 requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._tape = None if tape is None else tape._ref
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = requires_grad
        self.name = name

    @property
    def tape(self) -> Tape | None:
        """The tape this tensor was recorded on; None once that tape is freed."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    # operator sugar; all dispatch to the module-level primitives
    def __add__(self, o): return add(self, o)
    def __radd__(self, o): return add(o, self)
    def __sub__(self, o): return sub(self, o)
    def __rsub__(self, o): return sub(o, self)
    def __mul__(self, o): return mul(self, o)
    def __rmul__(self, o): return mul(o, self)
    def __matmul__(self, o): return matmul(self, o)
    def __neg__(self): return neg(self)


def constant(value) -> Tensor:
    """Wrap an array as a non-differentiable tensor (explicit stop-gradient)."""
    return Tensor(np.asarray(value, dtype=np.float64))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _record(parents, data, vjp) -> Tensor:
    if not any(p.requires_grad for p in parents):
        return Tensor(data)  # constant folding: nothing upstream to reach
    tapes = {p.tape for p in parents} - {None}
    if len(tapes) > 1:
        raise ValueError("operands were recorded on different tapes")
    if not tapes:
        return Tensor(data)  # the tape was freed: no backward pass can reach it
    tape = tapes.pop()
    t = Tensor(data, tape=tape, parents=tuple(parents), vjp=vjp, requires_grad=True)
    tape._nodes.append(t)
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# --- arithmetic ---

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record((a, b), a.data + b.data,
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record((a, b), a.data - b.data,
                   lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _record((a, b), a.data * b.data,
                   lambda g: (_unbroadcast(g * b.data, a.shape),
                              _unbroadcast(g * a.data, b.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _record((a,), -a.data, lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch broadcasting on leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data @ b.data

    def vjp(g):  # None for a constant operand: its gradient is never read
        return (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
                if a.requires_grad else None,
                _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
                if b.requires_grad else None)

    return _record((a, b), out, vjp)


def transpose2(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    return _record((a,), np.swapaxes(a.data, -1, -2),
                   lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    return _record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record((a,), out, vjp)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# --- elementwise nonlinearities ---

def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0
    return _record((a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    return _record((a,), out, lambda g: (g * _sigmoid(a.data),))


def texp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _record((a,), out, lambda g: (g * out,))


def tlog(a) -> Tensor:
    a = _as_tensor(a)
    return _record((a,), np.log(a.data), lambda g: (g / a.data,))


def powc(a, p: float) -> Tensor:
    """Elementwise power with constant exponent (e.g. -0.5 for rsqrt)."""
    a = _as_tensor(a)
    return _record((a,), a.data ** p,
                   lambda g: (g * p * a.data ** (p - 1.0),))


# --- indexing ---

def take_nodes(a, idx) -> Tensor:
    """Select rows along axis -2 (node axis of a (..., n, c) signal)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take(a.data, idx, axis=-2)

    def vjp(g):
        ga = scatter_rows(np.swapaxes(g, -1, -2), idx, a.shape[-2])
        return (np.swapaxes(ga, -1, -2),)

    return _record((a,), out, vjp)


# --- graph primitives ---

def edge_weights(mu, ei, ej) -> Tensor:
    """Per-edge endpoint averages w_e = (mu_i + mu_j) / 2 on the last axis.

    The adjoint scatters half of each edge gradient back to both endpoint
    nodes; this is what routes loss gradients into the potential.
    """
    mu = _as_tensor(mu)
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    out = 0.5 * (np.take(mu.data, ei, axis=-1) + np.take(mu.data, ej, axis=-1))

    def vjp(g):
        return (endpoint_sums(0.5 * g, ei, ej, mu.shape[-1]),)

    return _record((mu,), out, vjp)


def node_sums(w, ei, ej, n: int) -> Tensor:
    """Scatter per-edge values to both endpoints: d_i = sum_{e ni i} w_e."""
    w = _as_tensor(w)
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    out = endpoint_sums(w.data, ei, ej, n)

    def vjp(g):
        return (np.take(g, ei, axis=-1) + np.take(g, ej, axis=-1),)

    return _record((w,), out, vjp)


def scatter_sym_dense(w, ei, ej, n: int) -> Tensor:
    """Dense symmetric matrix with w_e at (i, j) and (j, i) per canonical edge."""
    w = _as_tensor(w)
    ei = np.asarray(ei, dtype=np.int64)
    ej = np.asarray(ej, dtype=np.int64)
    out = np.zeros(w.shape[:-1] + (n, n))
    out[..., ei, ej] = w.data
    out[..., ej, ei] = w.data

    def vjp(g):
        return (g[..., ei, ej] + g[..., ej, ei],)

    return _record((w,), out, vjp)


def diag_embed(d) -> Tensor:
    """(..., n) -> (..., n, n) diagonal matrices."""
    d = _as_tensor(d)
    n = d.shape[-1]
    out = np.zeros(d.shape + (n,))
    r = np.arange(n)
    out[..., r, r] = d.data

    def vjp(g):
        return (g[..., r, r],)

    return _record((d,), out, vjp)


def cheb_layer(op, h, weights) -> Tensor:
    """One Chebyshev layer, sum_k T_k(op) h W_k, recorded as a single node.

    ``op`` is (..., n, n), ``h`` (..., n, c_in) and ``weights`` the K + 1
    (c_in, c_out) matrices. The forward writes the transposed terms
    Z_k^T = h^T T_k(op^T) of ``cheb_basis`` into one (..., (K+1) c_in, n)
    buffer, block k in rows k c_in ... (k+1) c_in - 1, and contracts it
    with the stacked weights. The
    backward runs A_k = G W_k^T + c_{k+1} op^T A_{k+1} - A_{k+2} (c_1 = 1,
    c_k = 2 for k >= 2) from k = K down; ``h`` gets A_0, ``op`` gets
    sum_{k>=1} c_k A_k Z_{k-1}^T and W_k gets Z_k^T G. It keeps one
    adjoint buffer shaped like the forward's: block k holds B^T_k = W_k G^T
    until step k reads it and is then overwritten by c_k A^T_k, which step
    k - 1 and the operator gradient read.
    """
    op, h = _as_tensor(op), _as_tensor(h)
    weights = [_as_tensor(w) for w in weights]
    K = len(weights) - 1
    n, c_in = h.shape[-2:]
    rows = lambda k: slice(k * c_in, (k + 1) * c_in)  # block of Z^T_k in z_t
    op_t = np.swapaxes(op.data, -1, -2)
    z_t = np.empty(np.broadcast_shapes(op.shape[:-2], h.shape[:-2]) + ((K + 1) * c_in, n))
    for k, term in enumerate(cheb_basis(lambda v: v @ op_t, np.swapaxes(h.data, -1, -2), K)):
        z_t[..., rows(k), :] = term
    w_all = np.concatenate([w.data for w in weights], axis=0)
    out = np.swapaxes(z_t, -1, -2) @ w_all

    def vjp(g):
        gw = (z_t @ g).reshape(-1, *w_all.shape).sum(axis=0)
        grads = [None, None, *np.split(gw, K + 1)]
        if not (op.requires_grad or h.requires_grad):
            return grads
        # transposed (..., c_in, n) adjoints, laid out in blocks like z_t:
        # block k holds B^T_k until step k reads it, then c_k A^T_k
        b_t = w_all @ np.ascontiguousarray(np.swapaxes(g, -1, -2))
        a1 = a2 = None                                   # A^T_{k+1}, A^T_{k+2}
        for k in range(K, -1 if h.requires_grad else 0, -1):
            if k == K:
                a = b_t[..., rows(k), :].copy()
            else:
                a = b_t[..., rows(k + 1), :] @ op.data
                a += b_t[..., rows(k), :]
            if k <= K - 2:
                a -= a2
            if k >= 1:
                np.multiply(a, 1.0 if k == 1 else 2.0, out=b_t[..., rows(k), :])
            a1, a2 = a, a1
        if h.requires_grad:
            grads[1] = _unbroadcast(np.swapaxes(a1, -1, -2), h.shape)
        if op.requires_grad and K >= 1:
            grads[0] = _unbroadcast(np.swapaxes(b_t[..., c_in:, :], -1, -2)
                                    @ z_t[..., :K * c_in, :], op.shape)
        return grads

    return _record((op, h, *weights), out, vjp)


# --- backward pass ---

def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep from a scalar loss; returns {trainable leaf: gradient}.

    Leaves the loss never touched get an explicit zero gradient.
    """
    if not isinstance(loss, Tensor):
        raise ValueError("loss must be a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss.tape is not tape:
        raise ValueError("loss was not recorded on this tape")
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return {leaf: grads.get(id(leaf), np.zeros_like(leaf.data))
            for leaf in tape._leaves}


# --- optimizer ---

class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self, params: dict):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              weight_decay: float = 0.0) -> None:
    """One in-place Adam update with decoupled L2 on the gradient."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads[k]
        if weight_decay:
            g = g + weight_decay * p
        state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
        state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
        p -= lr * (state.m[k] / bc1) / (np.sqrt(state.v[k] / bc2) + eps)


def check_finite(params: dict, context: str = "training step") -> None:
    """NaN guard run after each update; raises :class:`NaNLoss`."""
    for k, v in params.items():
        if not np.isfinite(v).all():
            raise NaNLoss(f"non-finite values in {k!r} after {context}")
