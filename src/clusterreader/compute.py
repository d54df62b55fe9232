"""Dense float64 tensors with reverse-mode gradients, Adam, and checkpoints.

This is deliberately small: just the operations the reader pipeline needs
(1-D convolution, matrix products, softmax, dropout, gathers, reductions
and segment pooling), recorded on a dynamic graph and differentiated by a
single topological backward sweep. Everything is 64-bit so that
finite-difference checks are tight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

CHECKPOINT_MAGIC = "RACv1"


class ComputeError(ValueError):
    """Shape mismatch, non-finite value, or malformed checkpoint."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    ``_backward`` is a closure that takes the output gradient and accumulates
    into the parents' ``grad`` fields. An op records its parents and closure
    only when some parent requires a gradient. Model parameters always do, so
    prediction records the same graph as training and never runs it backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = _as_f64(data)
        if not np.all(np.isfinite(self.data)):
            raise ComputeError("non-finite values entered the graph")
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def node(data, parents, backward) -> Tensor:
    """Record an op only when a gradient can flow through it."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def neg(a) -> Tensor:
    a = _lift(a)
    return node(-a.data, (a,), lambda g: a.accumulate(-g))


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant array or scalar (no gradient into the constant)."""
    a = _lift(a)
    c = _as_f64(c)
    return node(a.data * c, (a,), lambda g: a.accumulate(g * c))


def relu(a: Tensor) -> Tensor:
    a = _lift(a)
    mask = a.data > 0

    def backward(g):
        a.accumulate(g * mask)

    return node(np.where(mask, a.data, 0.0), (a,), backward)


def log(a: Tensor) -> Tensor:
    a = _lift(a)
    if np.any(a.data <= 0):
        raise ComputeError("log of non-positive value")
    out_data = np.log(a.data)

    def backward(g):
        a.accumulate(g / a.data)

    return node(out_data, (a,), backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp with pass-through gradient inside [lo, hi], zero outside."""
    a = _lift(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def backward(g):
        a.accumulate(g * inside)

    return node(np.clip(a.data, lo, hi), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    a = _lift(a)

    def backward(g):
        a.accumulate(np.full_like(a.data, float(g)))

    return node(a.data.sum(), (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis (a 1-D vector or the rows of a matrix)."""
    a = _lift(a)
    if a.data.size == 0:
        raise ComputeError("softmax of empty tensor")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        a.accumulate(out_data * (g - dot))

    return node(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra, shaping, and selection


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ComputeError("matmul expects a 2-D left operand and 1-D/2-D right operand")
    if a.data.shape[1] != b.data.shape[0]:
        raise ComputeError(f"matmul shape mismatch {a.data.shape} vs {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if b.data.ndim == 1:
            a.accumulate(np.outer(g, b.data))
            b.accumulate(a.data.T @ g)
        else:
            a.accumulate(g @ b.data.T)
            b.accumulate(a.data.T @ g)

    return node(out_data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    a = _lift(a)
    return node(a.data.T.copy(), (a,), lambda g: a.accumulate(g.T))


def rows_slice(a: Tensor, start: int, stop: int) -> Tensor:
    a = _lift(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        a.accumulate(ga)

    return node(a.data[start:stop].copy(), (a,), backward)


def cols_slice(a: Tensor, start: int, stop: int) -> Tensor:
    a = _lift(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[:, start:stop] = g
        a.accumulate(ga)

    return node(a.data[:, start:stop].copy(), (a,), backward)


def take(a: Tensor, idx) -> Tensor:
    """Select entries of a 1-D tensor, or rows of a 2-D one, at integer indices."""
    a = _lift(a)
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim not in (1, 2):
        raise ComputeError("take expects a 1-D or 2-D tensor")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ComputeError("take index out of range")

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a.accumulate(ga)

    return node(a.data[idx], (a,), backward)


def take_pairs(a: Tensor, rows, cols) -> Tensor:
    """Select a[rows[i], cols[i]] from a 2-D tensor as a 1-D tensor."""
    a = _lift(a)
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if a.data.ndim != 2:
        raise ComputeError("take_pairs expects a 2-D tensor")
    if rows.size and (rows.min() < 0 or rows.max() >= a.data.shape[0]
                      or cols.min() < 0 or cols.max() >= a.data.shape[1]):
        raise ComputeError("take_pairs index out of range")

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        a.accumulate(ga)

    return node(a.data[rows, cols], (a,), backward)


def segment_pool(a: Tensor, segments, weights=None, take_max=None) -> Tensor:
    """Pool index groups along the last axis: out[..., k] from a[..., segments[k]].

    Entry k is the sum of group k's entries, each times weights[index] when
    weights are given, or their maximum where take_max[k] is set (subgradient
    to the first maximum). Every row sums its group as one 1-D array in the
    given order, so out[s, k] equals a[s, segments[k]].sum() to the last bit.
    """
    a = _lift(a)
    rows = a.data.reshape(-1, a.data.shape[-1])
    segments = [np.asarray(seg, dtype=np.intp) for seg in segments]
    bounds = np.cumsum([0] + [seg.size for seg in segments])
    idx = np.concatenate(segments) if segments else np.zeros(0, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= rows.shape[1]):
        raise ComputeError("segment_pool index out of range")
    take_max = np.zeros(len(segments), dtype=bool) if take_max is None \
        else np.asarray(take_max, dtype=bool)
    if any(seg.size == 0 for seg, m in zip(segments, take_max) if m):
        raise ComputeError("segment_pool max over an empty group")
    w = np.ones(idx.size) if weights is None else _as_f64(weights)[idx]
    gathered = np.take(rows, idx, axis=1) * w
    out = np.empty((rows.shape[0], len(segments)))
    picks = np.zeros(out.shape, dtype=np.intp)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for r, row in enumerate(gathered):
            if take_max[k]:
                j = lo + int(np.argmax(row[lo:hi]))
                out[r, k], picks[r, k] = row[j], idx[j]
            else:
                out[r, k] = row[lo:hi].sum()
    col = np.repeat(np.arange(len(segments)), np.diff(bounds))
    summed = ~take_max[col]

    def backward(g):
        g = g.reshape(out.shape)
        ga = np.zeros_like(rows)
        np.add.at(ga.T, idx[summed], (g[:, col[summed]] * w[summed]).T)
        r = np.arange(rows.shape[0])[:, None]
        np.add.at(ga, (r, picks[:, take_max]), g[:, take_max])
        a.accumulate(ga.reshape(a.data.shape))

    return node(out.reshape(a.data.shape[:-1] + (len(segments),)), (a,), backward)


def stack(parts: list[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    parts = [_lift(p) for p in parts]
    out_data = np.stack([p.data for p in parts])

    def backward(g):
        for i, p in enumerate(parts):
            p.accumulate(g[i])

    return node(out_data, tuple(parts), backward)


def concat_rows(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 0."""
    parts = [_lift(p) for p in parts]
    sizes = [p.data.shape[0] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=0) if parts else np.zeros((0, 0))

    def backward(g):
        at = 0
        for p, sz in zip(parts, sizes):
            p.accumulate(g[at:at + sz])
            at += sz

    return node(out_data, tuple(parts), backward)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    parts = [_lift(p) for p in parts]
    sizes = [p.data.shape[1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=1)

    def backward(g):
        at = 0
        for p, sz in zip(parts, sizes):
            p.accumulate(g[:, at:at + sz])
            at += sz

    return node(out_data, tuple(parts), backward)


def compose_embedding(base: np.ndarray, mask_vector: Tensor, mask_rows) -> Tensor:
    """Frozen lookup matrix with selected rows replaced by a shared vector.

    The base matrix is a constant (pretrained rows are held fixed); gradient
    flows only into the shared replacement vector.
    """
    mask_rows = np.asarray(mask_rows, dtype=np.intp)
    out_data = _as_f64(base).copy()
    out_data[mask_rows] = mask_vector.data

    def backward(g):
        if mask_rows.size:
            mask_vector.accumulate(g[mask_rows].sum(axis=0))

    return node(out_data, (mask_vector,), backward)


# ---------------------------------------------------------------------------
# convolution and dropout


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 1-D convolution over rows of x.

    x is (n, d_in), w is (width, d_in, d_out), b is (d_out,). Padding is
    width//2 zeros on the left and the remainder on the right, so the output
    has exactly n rows for any width.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.data.ndim != 2 or w.data.ndim != 3 or b.data.ndim != 1:
        raise ComputeError("conv1d operand rank mismatch")
    width, d_in, d_out = w.data.shape
    if x.data.shape[1] != d_in or b.data.shape[0] != d_out:
        raise ComputeError(f"conv1d shape mismatch x={x.data.shape} w={w.data.shape} b={b.data.shape}")
    n = x.data.shape[0]
    if n == 0:
        return node(np.zeros((0, d_out)), (x, w, b), lambda g: None)

    left = width // 2
    right = width - 1 - left
    padded = np.zeros((n + left + right, d_in))
    padded[left:left + n] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=0)  # (n, d_in, width)
    windows = windows.transpose(0, 2, 1)  # (n, width, d_in)
    out_data = np.tensordot(windows, w.data, axes=((1, 2), (0, 1))) + b.data

    def backward(g):
        w.accumulate(np.tensordot(windows, g, axes=((0,), (0,))))
        b.accumulate(g.sum(axis=0))
        gpad = np.zeros_like(padded)
        for k in range(width):
            gpad[k:k + n] += g @ w.data[k].T
        x.accumulate(gpad[left:left + n])

    return node(out_data, (x, w, b), backward)


def dropout(x: Tensor, keep_prob: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability 1-keep_prob, scale survivors."""
    if not 0.0 < keep_prob <= 1.0:
        raise ComputeError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return _lift(x)
    if rng is None:
        raise ComputeError("dropout in training mode needs an rng")
    mask = (rng.random(x.data.shape) < keep_prob) / keep_prob
    return scale(x, mask)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Populate grads of every tensor reachable from a scalar loss."""
    if loss.data.ndim != 0:
        raise ComputeError("backward requires a scalar loss")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack_ = [(loss, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack_.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack_.append((p, False))

    loss.accumulate(np.array(1.0))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators with a shared step count."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps, "t": self.t,
            "m": {k: {"shape": list(a.shape), "data": a.ravel().tolist()} for k, a in self.m.items()},
            "v": {k: {"shape": list(a.shape), "data": a.ravel().tolist()} for k, a in self.v.items()},
        }

    @classmethod
    def from_jsonable(cls, obj):
        state = cls(beta1=obj["beta1"], beta2=obj["beta2"], eps=obj["eps"], t=obj["t"])
        state.m = {k: _as_f64(v["data"]).reshape(v["shape"]) for k, v in obj["m"].items()}
        state.v = {k: _as_f64(v["data"]).reshape(v["shape"]) for k, v in obj["v"].items()}
        return state


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float, l2: float = 0.0):
    """One Adam update with bias correction; l2 adds l2*param to each gradient."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise ComputeError(f"non-finite gradient for parameter {name!r}")
        if l2:
            g = g + l2 * p.data
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / (1 - b1 ** state.t)
        v_hat = v / (1 - b2 ** state.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, Tensor], adam: AdamState | None = None,
                    seed: int = 0, extra: dict | None = None):
    """Write parameters (and optimizer state) as a versioned JSON file.

    The first line is the magic string; the rest is one JSON object with
    row-major float arrays per parameter.
    """
    body = {
        "params": {k: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
                   for k, p in params.items()},
        "adam": adam.to_jsonable() if adam is not None else None,
        "seed": int(seed),
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        json.dump(body, fh)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; returns params (as ndarrays), adam, seed, extra."""
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise ComputeError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        body = json.load(fh)
    if not isinstance(body, dict) or not isinstance(body.get("params"), dict):
        raise ComputeError(f"{path}: checkpoint lacks params")
    params = {k: _as_f64(v["data"]).reshape(v["shape"]) for k, v in body["params"].items()}
    adam = AdamState.from_jsonable(body["adam"]) if body.get("adam") else None
    return {"params": params, "adam": adam, "seed": body.get("seed", 0), "extra": body.get("extra", {})}
