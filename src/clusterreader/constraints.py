"""Factor grid over (value, slot) variables, decoded by loopy BP.

Aggregated value scores often let one value win several slots at once. This
layer turns the transposed slot x value score matrix into a V x S grid of
Boolean variables X[v,s] with a local potential each, an Exactly-1 factor
across the values of every slot, and a factor across the slots of every
non-null value. Synchronous message passing for a fixed number of rounds
(or to convergence) sharpens the beliefs so duplicate assignments lose out.

The value factors are At-Most-1: a value fills at most one slot, as in
bipartite matching, and a grid with more values than slots still has valid
assignments. The one exception is a square grid with no null row: there
the slot factors already leave only bijections, so Exactly-1 value factors
allow the same assignments, and loopy BP converges on them where it can
cycle under At-Most-1. ConstraintGraph.value_constant reads the rule off
the grid's shape and null row. The null row has no value factor.

A local potential is a probability: the caller's score matrix holds either
probabilities already (prediction's value-level pooled attention masses,
as model.prediction_graph scales them) or log-odds, whose sigmoid is taken
(ConstraintGraph.from_scores).

Messages are (true, false) pairs normalized to sum 1; we store only the
true mass. The factor-to-variable update has the closed form

    t_i = 1 / (c + S_i),   S_i = sum_{j != i} mu_j / (1 - mu_j)

with c = 1 for Exactly-1 and c = 2 for At-Most-1, whose all-false
assignment adds the leave-one-out product once more to the false mass.
Normalized, it equals prod_{j != i}(1 - mu_j) against (c - 1) prod_{j !=
i}(1 - mu_j) + sum_j mu_j prod_{l != i,j}(1 - mu_l), but never under- or
overflows.

All four message directions live in one 4 x V x S float64 array, stacked as
[to_row, to_col, from_col, from_row]: the variable-to-factor messages first,
then the factor-to-variable messages each of them is combined from (to_row
takes from_col, to_col takes from_row). A round is therefore a handful of
numpy calls over whole slices of the stack: both factor families into the
from half, one combine into the to half, damping over all four at once.
The per-direction names stay readable as views. A round returns its own
largest message change (MessageState.delta, max |new - old| over the whole
stack): converge stops on it, and since it is NaN or inf exactly when a
message is, it is also the round's finiteness check; the four directions
are scanned for the culprit's name only when it fails.

There is one BP implementation, and both callers build its grid from a
score matrix with ConstraintGraph.from_scores. Prediction runs these rounds
on its grid (run_bp; values sorted, null last, unscored cells at
MISSING_PHI); training runs the same undamped rounds on the loss's score
matrix (run_bp_tensor, sigmoid locals) and differentiates them with one
closed-form backward that walks the kept message states in reverse.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import compute as C

EPS = 1e-9
CONVERGENCE = "conv"
CONV_TOL = 1e-6
CONV_CAP = 100
MISSING_PHI = -20.0


class ConstraintError(ValueError):
    pass


@dataclass
class ConstraintGraph:
    values: tuple       # row labels; may contain the null pseudo-value
    slots: tuple        # column labels
    local: np.ndarray   # V x S potentials in (0,1)
    null_row: int | None

    @classmethod
    def from_scores(cls, phi, values, slots, null_row: int | None,
                    masses: bool = False) -> "ConstraintGraph":
        """The grid of a V x S score array: local = sigmoid(phi), or phi itself
        when masses says the scores are probabilities already, clipped into
        [EPS, 1-EPS]."""
        local = np.asarray(phi, dtype=np.float64) if masses else _sigmoid(phi)
        return cls(values=tuple(values), slots=tuple(slots),
                   local=np.clip(local, EPS, 1 - EPS), null_row=null_row)

    @property
    def shape(self):
        return self.local.shape

    @cached_property
    def value_constant(self) -> float:
        """c of the value factors' message 1 / (c + S_i): 2.0 for At-Most-1,
        or 1.0 for Exactly-1 on a square grid without a null row, whose
        support is the bijections either way."""
        V, S = self.shape
        return 1.0 if self.null_row is None and V == S else 2.0

    @cached_property
    def not_local(self) -> np.ndarray:
        """1 - local, the false mass of every local potential."""
        return 1 - self.local


@dataclass
class MessageState:
    """True-mass of every message, one 4 x V x S stack in this order:

    to_row:   X[v,s] -> slot factor s
    to_col:   X[v,s] -> value factor v (null row unused)
    from_col: value factor v -> X[v,s], held at 0.5 on the null row (no factor there)
    from_row: slot factor s -> X[v,s]

    delta is the round's largest message change, max |new - old| over the
    whole stack (inf before the first round).
    """

    msgs: np.ndarray
    iteration: int = 0
    delta: float = np.inf

    @property
    def to_row(self) -> np.ndarray:
        return _read_only(self.msgs[0])

    @property
    def to_col(self) -> np.ndarray:
        return _read_only(self.msgs[1])

    @property
    def from_col(self) -> np.ndarray:
        return _read_only(self.msgs[2])

    @property
    def from_row(self) -> np.ndarray:
        return _read_only(self.msgs[3])


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def init_messages(graph: ConstraintGraph) -> MessageState:
    msgs = np.empty((4,) + graph.shape)
    msgs[:2] = graph.local
    msgs[2:] = 0.5
    return MessageState(msgs=msgs, iteration=0)


def _odds(mu: np.ndarray) -> np.ndarray:
    """mu / (1 - mu) after clipping mu into [EPS, 1 - EPS]."""
    mu = np.minimum(np.maximum(mu, EPS), 1 - EPS)
    return mu / (1 - mu)


def _factor_messages(ratio: np.ndarray, axis: int, c: float, out=None) -> np.ndarray:
    """1 / (c + S_i) for every target of one factor family, from the odds:
    c = 1 is Exactly-1, c = 2 At-Most-1."""
    rest = np.subtract(np.add.reduce(ratio, axis=axis, keepdims=True), ratio, out=out)
    np.add(rest, c, out=rest)
    return np.divide(1.0, rest, out=rest)


def _combine(local: np.ndarray, other_t: np.ndarray, out=None, not_local=None) -> np.ndarray:
    """Variable -> factor message: the local potential times the other factor's.

    not_local is 1 - local when the caller already holds it."""
    t = local * other_t
    f = (1 - local if not_local is None else not_local) * (1 - other_t)
    p = np.divide(t, t + f, out=out)
    return np.minimum(np.maximum(p, EPS), 1 - EPS, out=out)


def bp_iterate(state: MessageState, graph: ConstraintGraph, damping: float = 0.0) -> MessageState:
    """One synchronous round: all factor messages, then all variable messages.

    damping mixes the new messages with the previous ones (new = (1-d)*new +
    d*old). It never moves the fixed points, only the trajectory; fixed
    iteration counts use d=0 so each round is exactly one recurrence. The
    input state is left unchanged; the returned one carries the round's
    largest message change, which is NaN or inf exactly when a message is.
    """
    old = state.msgs
    new = np.empty_like(old)
    ratio = _odds(old[:2])
    _factor_messages(ratio[0], 0, 1.0, out=new[3])                   # slot factors: from_row
    _factor_messages(ratio[1], 1, graph.value_constant, out=new[2])  # value factors: from_col
    if graph.null_row is not None:
        new[2, graph.null_row, :] = 0.5
    _combine(graph.local, new[2:], out=new[:2], not_local=graph.not_local)
    if damping:
        np.multiply(new, 1 - damping, out=new)
        change = np.multiply(damping, old)
        np.add(change, new, out=new)
        change = np.subtract(new, old, out=change)
    else:
        change = np.subtract(new, old)
    delta = np.abs(change, out=change).max(initial=0.0)
    out = MessageState(msgs=new, iteration=state.iteration + 1, delta=delta)
    if not math.isfinite(delta):
        bad = next(name for name in ("to_row", "to_col", "from_row", "from_col")
                   if not np.isfinite(getattr(out, name)).all())
        raise ConstraintError(f"non-finite {bad} message at iteration {out.iteration}")
    return out


def beliefs(state: MessageState, graph: ConstraintGraph) -> np.ndarray:
    """Posterior true-probability per variable from local and both factor messages."""
    t = graph.local * state.from_row * state.from_col
    f = graph.not_local * (1 - state.from_row) * (1 - state.from_col)
    return t / (t + f)


CONV_DAMPING = 0.3


def converge(graph: ConstraintGraph) -> tuple[MessageState, float]:
    """Damped rounds until the largest message change is below tolerance.

    Undamped synchronous updates can enter period-2 cycles on dense grids;
    damping (0.3) removes them without changing the fixed point. Returns
    the final state and last delta (below CONV_TOL unless the cap hit).
    """
    state = init_messages(graph)
    for _ in range(CONV_CAP):
        state = bp_iterate(state, graph, damping=CONV_DAMPING)
        if state.delta < CONV_TOL:
            break
    return state, state.delta


def run_bp(graph: ConstraintGraph, iterations) -> np.ndarray:
    """Beliefs after a fixed number of rounds, or to convergence.

    iterations=0 returns the locals unchanged; CONVERGENCE runs
    damped rounds until the largest message change is below 1e-6 (cap 100).
    """
    if iterations == 0:
        return graph.local.copy()
    if iterations == CONVERGENCE:
        state, _ = converge(graph)
    else:
        if iterations < 0:
            raise ConstraintError(f"negative iteration count {iterations}")
        state = init_messages(graph)
        for _ in range(iterations):
            state = bp_iterate(state, graph)
    return beliefs(state, graph)


def bp_trace(graph: ConstraintGraph, iterations: int, path):
    """CSV dump of the belief trajectory: iteration, value, slot, belief."""
    if iterations < 0:
        raise ConstraintError(f"negative iteration count {iterations}")
    state = init_messages(graph)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "value", "slot", "belief"])
        for it in range(iterations + 1):
            b = beliefs(state, graph)
            for i, v in enumerate(graph.values):
                for j, s in enumerate(graph.slots):
                    writer.writerow([it, v, s, f"{b[i, j]:.10f}"])
            if it < iterations:
                state = bp_iterate(state, graph)


# ---------------------------------------------------------------------------
# the same rounds with a gradient (for training with constraints in the loop)


def run_bp_tensor(phi: C.Tensor, null_col: int | None, iterations: int) -> C.Tensor:
    """Beliefs after undamped rounds, differentiable in the S x K score grid.

    phi is the slot x value grid, the transpose of the V x S layout: each
    row is a slot's Exactly-1 factor and each column but null_col a value's
    factor. The locals are sigmoid(phi).
    The forward is init_messages, bp_iterate and beliefs on the transposed
    grid, so it equals run_bp there; the backward is one node whose closure
    walks the kept message states in reverse (_bp_adjoint).
    """
    graph = ConstraintGraph.from_scores(phi.data.T, range(phi.shape[1]),
                                        range(phi.shape[0]), null_col)
    states = [init_messages(graph)]
    for _ in range(iterations):
        states.append(bp_iterate(states[-1], graph))

    def backward(g):
        phi.accumulate(_bp_adjoint(graph, states, g.T).T)

    return C.node(beliefs(states[-1], graph).T, (phi,), backward)


def _bp_adjoint(graph: ConstraintGraph, states: list, g: np.ndarray) -> np.ndarray:
    """Gradient of beliefs(states[-1]) in the V x S scores, given g on the beliefs.

    Every step uses the direct quotient-rule derivative: d(lo / D)/do =
    l(1-l) / D^2 with D = lo + (1-l)(1-o). It stays finite where a factor over
    a single variable sends a message of exactly 1, which the logit-additive
    form b(1-b) / (o(1-o)) turns into 0/0. Clipped entries pass no gradient.
    """
    local = graph.local
    col, row = states[-1].msgs[2], states[-1].msgs[3]
    t = local * row * col
    f = (1 - local) * (1 - row) * (1 - col)
    g = g / ((t + f) * (t + f))
    g_local = g * row * col * (1 - row) * (1 - col)
    adj = np.zeros_like(states[-1].msgs)
    adj[2] = g * local * row * (1 - local) * (1 - row)
    adj[3] = g * local * col * (1 - local) * (1 - col)
    for old, new in zip(states[-2::-1], states[:0:-1]):
        # combine: to_row from from_col, to_col from from_row
        other = new.msgs[2:]
        t = local * other
        d = t + (1 - local) * (1 - other)
        p = t / d
        g_p = adj[:2] * ((p >= EPS) & (p <= 1 - EPS)) / (d * d)
        g_local += (g_p * other * (1 - other)).sum(axis=0)
        adj[2:] += g_p * local * (1 - local)
        # factors from the odds: d(1 / (c + S_i)) / d ratio_j = -o_i^2 for j != i
        if graph.null_row is not None:
            adj[2, graph.null_row, :] = 0.0
        w = new.msgs[2:] * new.msgs[2:] * adj[2:]
        mu = old.msgs[:2]
        inside = (mu >= EPS) & (mu <= 1 - EPS)
        mu = np.minimum(np.maximum(mu, EPS), 1 - EPS)
        adj[0] = w[1] - w[1].sum(axis=0, keepdims=True)   # slot factors, from to_row
        adj[1] = w[0] - w[0].sum(axis=1, keepdims=True)   # value factors, from to_col
        adj[:2] *= inside / ((1 - mu) * (1 - mu))
        adj[2:] = 0.0                                      # a round reads no old from_*
    g_local += adj[0] + adj[1]
    # sigmoid: local is sigmoid(phi) wherever the clip left it alone
    return g_local * local * (1 - local) * ((local > EPS) & (local < 1 - EPS))
