"""Dense float64 tensors with reverse-mode gradients, Adam, and checkpoints.

This is deliberately small: just the operations the reader pipeline needs
(a convolution read through a window index, softmax, dropout, one gather
that indexes as numpy does, segment pooling and the losses' floored mean
negative log), each recorded on a dynamic graph whenever it runs, and
differentiated by a single topological backward sweep. An op with one
caller, such as the scorer's slot products or BP, is recorded with node
where it is used. Everything is 64-bit so that finite-difference checks are
tight.

A cluster's documents are consecutive blocks of one matrix, not separate
tensors: softmax takes the block lengths and normalizes block by block
inside one node, and window_conv reads a window index in which no window
crosses a document, so no window or normalization crosses a document.

No op checks for NaN or inf. The loaders check what enters,
model.ReaderModel.token_scores each forward's token scores,
FlatParams.check_grad the gradient, and BP each round's messages.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = "RACv2"
# RACv1 files store arrays as number lists; they still load
READABLE_MAGICS = ("RACv1", CHECKPOINT_MAGIC)


class ComputeError(ValueError):
    """Shape mismatch, non-finite value, or malformed checkpoint."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place: a stray write to an array that is
    kept and reread raises at once instead of reaching every later reader."""
    array.flags.writeable = False
    return array


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode.

    ``_backward`` is a closure that takes the output gradient and accumulates
    into the parents' ``grad`` fields. Every op records its parents and
    closure, so prediction records the same graph as training and never runs
    it backward. Its data is not checked for NaN or inf (see the module).
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = _as_f64(data)
        self.grad = None
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
        """Zero the gradient in place, so a grad that is a view stays one."""
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def node(data, parents, backward) -> Tensor:
    """Record an op: its output, its parents and its backward closure."""
    return Tensor(data, _parents=tuple(parents), _backward=backward)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant array or scalar (no gradient into the constant)."""
    c = _as_f64(c)
    return node(a.data * c, (a,), lambda g: a.accumulate(g * c))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        a.accumulate(g * mask)

    return node(np.where(mask, a.data, 0.0), (a,), backward)


# the probability mean_neg_log floors: -log(MASS_FLOOR) is about 27.6
MASS_FLOOR = 1e-12


def mean_neg_log(p: Tensor) -> Tensor:
    """The mean of -log(max(p, MASS_FLOOR)) over p's entries, the losses'
    last node; no gradient flows to an entry the floor replaced."""
    clipped = np.maximum(p.data, MASS_FLOOR)
    kept = p.data >= MASS_FLOOR
    c = _as_f64(1.0 / p.data.size)

    def backward(g):
        p.accumulate(-np.full_like(clipped, g * c) / clipped * kept)

    return node((-np.log(clipped)).sum() * c, (p,), backward)


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
# shaping and selection


def transpose(a: Tensor) -> Tensor:
    return node(a.data.T.copy(), (a,), lambda g: a.accumulate(g.T))


def take(a: Tensor, idx) -> Tensor:
    """Select at integer indices as numpy indexing does: idx picks entries
    of a 1-D tensor or rows of a 2-D one, and a (rows, cols) tuple picks the
    entries a[rows[i], cols[i]] of a 2-D tensor. Repeats add their gradients."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    idx = tuple(np.asarray(i, dtype=np.intp) for i in idx)
    if not 1 <= len(idx) <= a.data.ndim <= 2:
        raise ComputeError("take expects a 1-D or 2-D tensor and one index per axis")
    if any(i.size and (i.min() < 0 or i.max() >= n) for i, n in zip(idx, a.data.shape)):
        raise ComputeError("take index out of range")

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        a.accumulate(ga)

    return node(a.data[idx], (a,), backward)


class Segments:
    """Disjoint index groups laid out for segment_pool, read-only.

    No index may appear twice, in one group or in two (ComputeError): every
    pool the reader runs reads a partition of some of its entries, as a
    value's mention first tokens never overlap, the null column reads the
    complement of the mention mask and the loss reads consecutive ranges.
    The groups' indices are concatenated once in stable order of group
    length, so the groups of one length lie end to end; runs holds one
    (length, offset, columns) per distinct length, columns the ascending
    group numbers of its block. len() counts the groups.
    """

    __slots__ = ("index", "runs", "stop", "count")

    def __init__(self, groups):
        groups = list(groups)
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        order = read_only(sizes.argsort(kind="stable"))
        lengths = sizes[order]
        nonempty = order[np.count_nonzero(lengths == 0):].tolist()
        index = np.concatenate([groups[k] for k in nonempty], dtype=np.intp) if nonempty \
            else np.zeros(0, dtype=np.intp)
        if index.size and index.min() < 0:
            raise ComputeError("segment index out of range")
        self.stop = int(index.max()) + 1 if index.size else 0
        seen = np.zeros(self.stop, dtype=bool)
        seen[index] = True
        if np.count_nonzero(seen) != index.size:
            raise ComputeError("segment groups overlap")
        self.index, self.count = read_only(index), sizes.size
        # a run starts where the sorted length changes
        starts = [0, *(np.flatnonzero(lengths[1:] != lengths[:-1]) + 1).tolist()][:sizes.size]
        offsets = (lengths.cumsum() - lengths).tolist()
        lengths = lengths.tolist()
        self.runs = [(lengths[lo], offsets[lo], order[lo:hi])
                     for lo, hi in zip(starts, starts[1:] + [sizes.size])]

    def __len__(self) -> int:
        return self.count


def segment_pool(a: Tensor, segments, weights=None, take_max=None) -> Tensor:
    """Pool disjoint index groups along the last axis: out[..., k] from
    a[..., segments[k]].

    Entry k is the sum of group k's entries, each times weights[index] when
    weights are given, or the maximum of those products where take_max[k]
    is set (subgradient to the first maximum). segments is a Segments
    layout, or a list of groups to lay out; no index may be in two groups
    or twice in one. One gather puts the entries in layout order, and each
    run of equal-length groups is one R x c x L block reduced along its
    contiguous last axis. numpy sums every contiguous row of a reduction
    with the same pairwise algorithm, whatever the array's leading shape, so
    out[s, k] equals a[s, segments[k]].sum() to the last bit.

    Since the groups are disjoint, each entry of a receives at most one
    gradient term, its group's g (times its weight), or nothing where a max
    group did not pick it. The backward therefore assigns those terms in one
    scatter, and no order of adds can change a bit.
    """
    segs = segments if isinstance(segments, Segments) else Segments(segments)
    rows = a.data.reshape(-1, a.data.shape[-1])
    R, n = rows.shape
    if segs.stop > n:
        raise ComputeError("segment_pool index out of range")
    take_max = None if take_max is None else np.asarray(take_max, dtype=bool)
    maxed = take_max is not None and take_max.any()
    gathered = np.take(rows, segs.index, axis=1)
    if weights is not None:
        weights = _as_f64(weights)[segs.index]      # in layout order
        gathered *= weights
    out = np.empty((R, len(segs)))
    picks = np.empty((R, len(segs)), dtype=np.intp) if maxed else None
    for length, at, cols in segs.runs:
        block = gathered[:, at:at + cols.size * length].reshape(R, cols.size, length)
        m = take_max[cols] if maxed else None
        if m is None or not m.any():
            out[:, cols] = block.sum(axis=2)
            continue
        if length == 0:
            raise ComputeError("segment_pool max over an empty group")
        if not m.all():
            out[:, cols[~m]] = block[:, ~m].sum(axis=2)
        # each max group's first maximum, as a position in gathered's rows
        j = at + np.flatnonzero(m) * length + block[:, m].argmax(axis=2)
        out[:, cols[m]] = np.take_along_axis(gathered, j, axis=1)
        picks[:, cols[m]] = j

    def backward(g):
        # g in layout order: every entry of a summed group takes its group's
        # g, as the forward's runs lay the groups out; a max group's entries
        # take 0 but for its pick
        g = g.reshape(R, len(segs))
        spread = np.where(take_max, 0.0, g) if maxed else g
        dg = np.empty((R, segs.index.size))
        for length, at, cols in segs.runs:
            dg[:, at:at + cols.size * length].reshape(R, cols.size, length)[...] = \
                spread[:, cols, None]
        if maxed:
            np.put_along_axis(dg, picks[:, take_max], g[:, take_max], axis=1)
        if weights is not None:
            dg *= weights
        ga = np.zeros_like(rows)
        ga[:, segs.index] = dg
        a.accumulate(ga.reshape(a.data.shape))

    return node(out.reshape(a.data.shape[:-1] + (len(segs),)), (a,), backward)


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
    gathered projections. The backward scatters g onto those projections
    (one bincount per output channel), then takes w's gradient as one
    batched product with x and x's as one GEMM with w.
    """
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
        # one bincount per output channel adds g onto the projections in
        # window order, with no width x n x d_out index or copy of g
        rows = flat.ravel()
        weights = np.empty(flat.shape)                       # row k holds g[:, c]
        dproj = np.empty((width * (m + 1), d_out))
        for c in range(d_out):
            weights[...] = g[:, c]
            dproj[:, c] = np.bincount(rows, weights=weights.ravel(),
                                      minlength=width * (m + 1))
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
        return x
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
# the flat parameter vector and Adam


class FlatParams:
    """Named parameters whose values and gradients are views into one data
    vector and one grad vector.

    Building it copies each tensor's values, and its gradient if it has
    one, into the two vectors and points the tensor's data and grad at its
    slices of them. Zeroing, the finiteness check, Adam and snapshots then
    each act once on a whole vector. Nothing may rebind a parameter's data
    or grad afterwards, or it leaves the vectors: write into them instead.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(tensors)
        self.data = np.concatenate([p.data.ravel() for p in self.tensors.values()])
        self.grad = np.zeros_like(self.data)
        at = 0
        for p in self.tensors.values():
            shape, size = p.data.shape, p.data.size
            grad = self.grad[at:at + size].reshape(shape)
            if p.grad is not None:
                grad[...] = p.grad
            p.data, p.grad = self.data[at:at + size].reshape(shape), grad
            at += size

    def zero_grad(self):
        self.grad[...] = 0.0

    def check_grad(self):
        """Raise ComputeError naming the first parameter whose gradient is
        not finite; the search runs only when the whole vector fails."""
        if np.isfinite(self.grad).all():
            return
        name = next(k for k, p in self.tensors.items() if not np.isfinite(p.grad).all())
        raise ComputeError(f"non-finite gradient for parameter {name!r}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors and two scratch vectors (all allocated on
    the first step) and the step count."""

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None    # 2 x size


def adam_step(params: FlatParams, state: AdamState, lr: float, l2: float = 0.0):
    """One Adam update of the whole vector with bias correction; l2 adds
    l2*param to each gradient. Elementwise, so it equals one update per
    tensor bit for bit.

    Every op writes into the state's vectors, so a step allocates no
    whole-vector temporary: at the reader's sizes each would be a block
    above glibc's mmap threshold, mapped and faulted in afresh per step.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    params.check_grad()
    if state.m is None:
        state.m, state.v = np.zeros_like(params.data), np.zeros_like(params.data)
        state.scratch = np.empty((2, params.data.size))
    m, v = state.m, state.v
    # g (when l2 makes one) and then denom share a buffer: g is dead once v
    # is updated
    work, step = state.scratch
    g = params.grad
    if l2:
        g = np.add(g, np.multiply(params.data, l2, out=work), out=work)
    # p -= lr * m_hat / (sqrt(v_hat) + eps) in that order, in place
    np.multiply(g, 1 - b1, out=step)
    m *= b1
    m += step
    np.multiply(g, g, out=step)
    step *= 1 - b2
    v *= b2
    v += step
    denom = np.divide(v, 1 - b2 ** state.t, out=work)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1 - b1 ** state.t, out=step)
    step *= lr
    step /= denom
    params.data -= step


# ---------------------------------------------------------------------------
# checkpoints


def encode_array(a: np.ndarray) -> dict:
    """A checkpoint array: its shape and its little-endian float64 bytes in base64."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "base64": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(entry) -> np.ndarray:
    """The array of a {"shape", "base64"} entry, or of RACv1's {"shape", "data"}
    number list. The entry holds exactly one of the two, and as many floats
    as the product of its shape, a list of non-negative integers. A base64
    array is read-only. Raises ComputeError on any defect."""
    if not isinstance(entry, dict) or ("data" in entry) == ("base64" in entry):
        raise ComputeError("expected an object with a shape and one of data or base64")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ComputeError("shape is not a list of non-negative integers")
    size = math.prod(shape)
    try:
        if "base64" in entry:
            flat = np.frombuffer(base64.b64decode(entry["base64"], validate=True), dtype="<f8")
        else:
            flat = _as_f64(entry["data"])
        if flat.size == size:
            return flat.reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:   # Overflow: an int past float range
        raise ComputeError(str(exc)) from exc
    raise ComputeError(f"{flat.size} floats for shape {shape}")


def save_checkpoint(path, params: dict[str, Tensor], seed: int = 0, extra: dict | None = None):
    """Write parameters as a versioned JSON file.

    The first line is the magic string; the rest is one JSON object with
    one encode_array entry per parameter.
    """
    body = {
        "params": {k: encode_array(p.data) for k, p in params.items()},
        "seed": int(seed),
        "extra": extra or {},
    }
    with open(path, "w") as fh:
        fh.write(CHECKPOINT_MAGIC + "\n")
        json.dump(body, fh)


def load_checkpoint(path) -> dict:
    """Read a RACv2 or RACv1 checkpoint; returns params (as ndarrays, read-only
    when base64), seed, extra. An optimizer-state section, which older files
    carry, is ignored."""
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic not in READABLE_MAGICS:
            raise ComputeError(f"bad checkpoint magic {magic!r}, expected one of "
                               f"{', '.join(map(repr, READABLE_MAGICS))}")
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
            params[k] = decode_array(v)
        except ComputeError as exc:
            raise ComputeError(f"{path}: checkpoint params.{k} is not a float array: "
                               f"{exc}") from exc
    return {"params": params, "seed": body.get("seed", 0), "extra": body.get("extra", {})}
