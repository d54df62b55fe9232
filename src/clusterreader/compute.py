"""Dense float64 tensors with reverse-mode gradients, Adam, and checkpoints.

This is deliberately small: just the operations the reader pipeline needs
(a convolution read through a window index, matrix products, softmax,
dropout, gathers, reductions and segment pooling), recorded on a dynamic
graph and differentiated by a single topological backward sweep.
Everything is 64-bit so that finite-difference checks are tight.

A cluster's documents are consecutive blocks of one matrix, not separate
tensors: softmax takes the block lengths and normalizes block by block
inside one node, and window_conv reads a window index in which no window
crosses a document, so no window or normalization crosses a document.
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


def _blocks(lengths, n: int) -> list:
    """(start, stop) of each non-empty block; lengths None is one block of n."""
    lengths = [n] if lengths is None else [int(k) for k in lengths]
    if min(lengths, default=0) < 0 or sum(lengths) != n:
        raise ComputeError(f"block lengths {lengths} do not cover {n} entries")
    stops = np.cumsum(lengths, dtype=int)
    return [(int(s) - k, int(s)) for s, k in zip(stops, lengths) if k]


def softmax(a: Tensor, lengths=None) -> Tensor:
    """Softmax over the last axis (a 1-D vector or the rows of a matrix).

    lengths splits the last axis into consecutive blocks (default: one
    block), and each block is normalized on its own with the one-block
    arithmetic, so the result equals a softmax of each block's slice.
    """
    a = _lift(a)
    if a.data.size == 0:
        raise ComputeError("softmax of empty tensor")
    blocks = _blocks(lengths, a.data.shape[-1])
    out_data = np.empty_like(a.data)
    for lo, hi in blocks:
        x = a.data[..., lo:hi]
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out_data[..., lo:hi] = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        ga = np.empty_like(g)
        for lo, hi in blocks:
            out, gb = out_data[..., lo:hi], g[..., lo:hi]
            ga[..., lo:hi] = out * (gb - (gb * out).sum(axis=-1, keepdims=True))
        a.accumulate(ga)

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
    to the first maximum). A group is reduced for all rows at once along the
    contiguous last axis, which numpy sums row by row as it sums a 1-D array,
    so out[s, k] equals a[s, segments[k]].sum() to the last bit.
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
    every_row = np.arange(rows.shape[0])
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if take_max[k]:
            j = lo + np.argmax(gathered[:, lo:hi], axis=1)
            out[:, k], picks[:, k] = gathered[every_row, j], idx[j]
        else:
            out[:, k] = gathered[:, lo:hi].sum(axis=1)
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


def window_conv(x: Tensor, w: Tensor, b: Tensor, windows) -> Tensor:
    """A convolution read through a window index (an unrolled convolution).

    x is (m, d_in), w is (width, d_in, d_out), b is (d_out,) and windows is
    (n, width): out[t] = b + sum over k of x~[windows[t, k]] . w[k], where x~
    is x with a zero row appended at index m for padding. A row of x may sit
    in many windows or in none, so x can hold only a cluster's distinct rows.

    The forward projects x~ once by every w[k] and sums each output row's
    gathered projections. The backward scatters g onto those projections,
    then takes w's gradient as one batched product with x and x's as one
    GEMM with w.
    """
    x, w, b = _lift(x), _lift(w), _lift(b)
    windows = np.asarray(windows, dtype=np.intp)
    if x.data.ndim != 2 or w.data.ndim != 3 or b.data.ndim != 1 or windows.ndim != 2:
        raise ComputeError("window_conv operand rank mismatch")
    width, d_in, d_out = w.data.shape
    m = x.data.shape[0]
    if x.data.shape[1] != d_in or b.data.shape[0] != d_out or windows.shape[1] != width:
        raise ComputeError(f"window_conv shape mismatch x={x.data.shape} w={w.data.shape} "
                           f"b={b.data.shape} windows={windows.shape}")
    if windows.size and (windows.min() < 0 or windows.max() > m):
        raise ComputeError("window_conv index out of range")
    proj = np.vstack([x.data, np.zeros(d_in)]) @ w.data     # width x (m + 1) x d_out
    flat = windows.T + (m + 1) * np.arange(width)[:, None]   # rows of proj, width x n
    out_data = np.take(proj.reshape(-1, d_out), flat, axis=0).sum(axis=0) + b.data

    def backward(g):
        # one flat scatter-add: numpy's fast path takes 1-D indices only
        dproj = np.zeros(width * (m + 1) * d_out)
        at = flat[..., None] * d_out + np.arange(d_out)
        np.add.at(dproj, at.ravel(), np.broadcast_to(g, at.shape).ravel())
        dproj = dproj.reshape(width, m + 1, d_out)[:, :m]
        w.accumulate(x.data.T @ dproj)
        b.accumulate(g.sum(axis=0))
        x.accumulate(dproj.transpose(1, 0, 2).reshape(m, width * d_out)
                     @ w.data.transpose(0, 2, 1).reshape(width * d_out, d_in))

    return node(out_data, (x, w, b), backward)


def dropout(x: Tensor, keep_prob: float, uniforms=None) -> Tensor:
    """Inverted dropout from pre-drawn uniforms in [0, 1) shaped like x:
    zero where a uniform is at least keep_prob, scale the rest by
    1/keep_prob. Without uniforms (inference) x passes through."""
    if uniforms is None:
        return _lift(x)
    return scale(x, (uniforms < keep_prob) / keep_prob)


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
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        # p -= lr * m_hat / (sqrt(v_hat) + eps) in that order, in place
        # through two buffers: a temporary the size of a large parameter can
        # cost a page fault per page when the allocator maps it afresh
        step = (1 - b1) * g
        m *= b1
        m += step
        np.multiply(g, g, out=step)
        step *= 1 - b2
        v *= b2
        v += step
        denom = v / (1 - b2 ** state.t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        np.divide(m, 1 - b1 ** state.t, out=step)
        step *= lr
        step /= denom
        p.data -= step


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, Tensor], seed: int = 0, extra: dict | None = None):
    """Write parameters as a versioned JSON file.

    The first line is the magic string; the rest is one JSON object with
    row-major float arrays per parameter.
    """
    body = {
        "params": {k: {"shape": list(p.data.shape), "data": p.data.ravel().tolist()}
                   for k, p in params.items()},
        "seed": int(seed),
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        json.dump(body, fh)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; returns params (as ndarrays), seed, extra. An
    optimizer-state section, which older files carry, is ignored."""
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise ComputeError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        try:
            body = json.load(fh)
        except RecursionError as exc:
            raise ComputeError(f"{path}: {exc}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("params"), dict):
        raise ComputeError(f"{path}: checkpoint lacks params")
    if not isinstance(body.get("extra", {}), dict):
        raise ComputeError(f"{path}: checkpoint extra is not an object")
    params = {}
    for k, v in body["params"].items():
        try:
            params[k] = _as_f64(v["data"]).reshape(v["shape"])
        except (TypeError, ValueError, KeyError) as exc:
            raise ComputeError(f"{path}: checkpoint params.{k} is not a float array") from exc
    return {"params": params, "seed": body.get("seed", 0), "extra": body.get("extra", {})}
