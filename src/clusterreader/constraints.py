"""Factor grid over (value, slot) variables, decoded by loopy BP.

Aggregated value scores often let one value win several slots at once. This
layer turns the transposed slot x value score matrix into a V x S grid of
Boolean variables X[v,s] with a local potential each, an Exactly-1 factor
across the values of every slot, and a factor across the slots of every
non-null value. Synchronous message passing for a fixed number of rounds
(or to convergence) sharpens the beliefs so duplicate assignments lose out.
A round is the undamped recurrence the paper runs BP as; only a converging
run damps, and only once its message change stops falling.

The value factors are At-Most-1: a value fills at most one slot, as in
bipartite matching, and a grid with more values than slots still has valid
assignments. The one exception is a square grid with no null row: there
the slot factors already leave only bijections, so Exactly-1 value factors
allow the same assignments, and loopy BP converges on them where it can
cycle under At-Most-1. A grid with fewer values than slots and no null row
cannot fill every slot, so its slot factors are At-Most-1 too.
ConstraintGraph.slot_constant and value_constant read the rules off the
grid's shape and null row. The null row has no value factor.

A local potential is a probability: the caller's score matrix holds either
probabilities already (value-level pooled attention masses, as
model.mass_divisor scales them) or log-odds, whose sigmoid model.bp_graph
takes when it builds the grid.

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
stack): a converging schedule stops on it, and since it is NaN or inf
exactly when a message is, it is also the round's finiteness check; the
four directions are scanned for the culprit's name only when it fails.

There is one BP schedule and one grid rule. Every caller builds its grid
with model.bp_graph and runs the rounds one generator yields (rounds: a
fixed number of undamped rounds, or rounds to convergence, undamped until
the message change stalls and damped after). run_bp keeps the last state,
for prediction's grid (values sorted, null last, unscored cells at
MISSING_PHI); bp_trace keeps every state's beliefs; and run_bp_tensor keeps
every state of the undamped rounds on the mass grid of training's score
matrix, which its one closed-form backward walks in reverse.
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

    @property
    def shape(self):
        return self.local.shape

    @cached_property
    def slot_constant(self) -> float:
        """c of the slot factors' message: 1.0 for Exactly-1, or 2.0 for At-Most-1
        where fewer values than slots and no null row cannot fill every slot."""
        V, S = self.shape
        return 2.0 if self.null_row is None and V < S else 1.0

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


def _combine(local: np.ndarray, not_local: np.ndarray, other_t: np.ndarray,
             out=None) -> np.ndarray:
    """Variable -> factor message: the local potential (true mass local,
    false mass not_local) times the other factor's."""
    t = local * other_t
    f = not_local * (1 - other_t)
    p = np.divide(t, t + f, out=out)
    return np.minimum(np.maximum(p, EPS), 1 - EPS, out=out)


def bp_iterate(state: MessageState, graph: ConstraintGraph, damping: float = 0.0) -> MessageState:
    """One synchronous round: all factor messages, then all variable messages.

    damping mixes the new messages with the previous ones (new = (1-d)*new +
    d*old). It never moves the fixed points, only the trajectory; rounds
    uses d=0, so each round is exactly one recurrence, except that a run to
    convergence switches to CONV_DAMPING once the change stalls. The input
    state is left unchanged; the returned one carries the round's largest
    message change, which is NaN or inf exactly when a message is.
    """
    old = state.msgs
    new = np.empty_like(old)
    ratio = _odds(old[:2])
    _factor_messages(ratio[0], 0, graph.slot_constant, out=new[3])   # slot factors: from_row
    _factor_messages(ratio[1], 1, graph.value_constant, out=new[2])  # value factors: from_col
    if graph.null_row is not None:
        new[2, graph.null_row, :] = 0.5
    _combine(graph.local, graph.not_local, new[2:], out=new[:2])
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


def rounds(graph: ConstraintGraph, iterations):
    """The message states of BP on graph: init_messages' state, then one
    state per round.

    An integer count runs that many undamped rounds. CONVERGENCE runs
    rounds until the largest message change is below CONV_TOL, or CONV_CAP
    rounds. They start undamped, the same round a count runs; from the first
    round whose change is not below the previous round's, the rest are
    damped (CONV_DAMPING). Undamped synchronous updates can enter period-2
    cycles on dense grids, and damping removes them without moving the
    fixed point, but on a grid that does not cycle it only slows the
    approach: there undamped rounds reach the fixed point in about half as
    many rounds.
    """
    converge = iterations == CONVERGENCE
    if not converge and iterations < 0:
        raise ConstraintError(f"negative iteration count {iterations}")
    damping = 0.0
    state = init_messages(graph)
    yield state
    for _ in range(CONV_CAP if converge else iterations):
        previous = state.delta
        state = bp_iterate(state, graph, damping)
        yield state
        if converge:
            if state.delta < CONV_TOL:
                return
            if state.delta >= previous:
                damping = CONV_DAMPING


def run_bp(graph: ConstraintGraph, iterations) -> np.ndarray:
    """Beliefs after the last of rounds(graph, iterations). At iterations=0
    they are the locals exactly: both factor messages are 0.5, and l + (1 - l)
    rounds to 1 for every local l."""
    for state in rounds(graph, iterations):
        pass
    return beliefs(state, graph)


def bp_trace(graph: ConstraintGraph, iterations, path):
    """CSV dump of the belief trajectory: iteration, value, slot, belief.
    Returns the number of rounds traced.

    The trajectory is computed before the file is opened, so a bad count
    writes nothing."""
    trajectory = [beliefs(state, graph) for state in rounds(graph, iterations)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "value", "slot", "belief"])
        for it, b in enumerate(trajectory):
            for i, v in enumerate(graph.values):
                for j, s in enumerate(graph.slots):
                    writer.writerow([it, v, s, f"{b[i, j]:.10f}"])
    return len(trajectory) - 1


# ---------------------------------------------------------------------------
# the same rounds with a gradient (for training with constraints in the loop)


def run_bp_tensor(scores: C.Tensor, graph: ConstraintGraph, iterations: int) -> C.Tensor:
    """Beliefs after undamped rounds on graph, in the S x V layout of scores
    and differentiable in them.

    graph is the V x S mass grid of scores (model.bp_graph with masses=True),
    whose locals are the scores clipped into [EPS, 1-EPS]. The forward is
    rounds and beliefs, so it equals run_bp there; the backward is one node
    whose closure walks the kept message states in reverse (_bp_adjoint).
    """
    if iterations == CONVERGENCE:
        raise ConstraintError("the BP backward takes a fixed number of undamped rounds")
    states = list(rounds(graph, iterations))

    def backward(g):
        scores.accumulate(_bp_adjoint(graph, states, g.T).T)

    return C.node(beliefs(states[-1], graph).T, (scores,), backward)


def _bp_adjoint(graph: ConstraintGraph, states: list, g: np.ndarray) -> np.ndarray:
    """Gradient of beliefs(states[-1]) in the V x S locals, given g on the beliefs.

    Every step uses the direct quotient-rule derivative: d(lo / D)/do =
    l(1-l) / D^2 with D = lo + (1-l)(1-o). It stays finite where a factor over
    a single variable sends a message of exactly 1, which the logit-additive
    form b(1-b) / (o(1-o)) turns into 0/0. Clipped entries, messages and
    locals alike, pass no gradient.
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
    return g_local * ((local > EPS) & (local < 1 - EPS))
