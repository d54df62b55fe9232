"""End-to-end optimization of the reader with early stopping.

One cluster is one gradient step. The standard loss is the negative log of
the aggregated score mass on the gold values (per evaluable slot, averaged);
the mention-level mode instead hard-labels every mention with a matching
slot (or the null pseudo-slot) and trains a per-mention classifier, which
recreates the brittleness of classic distant supervision on purpose.

A train call prepares each training cluster once, inside the cluster's first
step, and reuses that plan (cluster_plan) in every later epoch: the
cluster's ClusterIndex and the loss targets. The index keeps what the first
forward derives from it, the distinct rows and row map, the loss columns'
pooling layout and topic mode's weights, so later epochs reread them. A
call's plans retain 45-70 bytes per corpus token, more in value-level mode
and where mentions are denser: 59.6 value-level and 47.9 mention-level on
72 clusters of 8-16 documents.
Each step still embeds, encodes and pools afresh, since those read the
parameters or draw dropout, and the encoder builds its two window indexes
per step: kept as intp they would retain 8 x (width1 + width2) bytes per
token, 120 at the defaults. Dev scoring and prediction build each
cluster's index per call: a predicted cluster is read once per call, so a
kept index would be reread by no one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import compute as C
from . import corpus as cp
from . import encoder as E
from . import scorer as S
from .aggregator import NULL_VALUE, AggregationConfig, AggregationError
from .constraints import run_bp_tensor
from .evaluation import evaluate, instance_from_cluster
from .model import (ClusterIndex, ReaderModel, bp_graph, init_model, mass_divisor,
                    predict_clusters, predictions_map)
from .scorer import NULL_SLOT

LOSS_MODES = ("value_level", "mention_level")


class TrainingError(RuntimeError):
    pass


class DivergenceError(TrainingError):
    """Non-finite token scores or gradient in a training step or dev scoring."""


class GradientCheckError(RuntimeError):
    pass


@dataclass
class Hyperparams:
    """Defaults are the tuned configuration: two CNN layers (widths 10 and
    5, both 10 channels), no pooling, Adam at lr 0.003 with L2 0.01, dropout
    keep probability 0.8, 200-dim pretrained embeddings."""

    lr: float = 0.003
    l2: float = 0.01
    keep_prob: float = 0.8
    width1: int = 10
    width2: int = 5
    d1: int = 10
    r: int = 10
    embed_dim: int = 200
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    loss_mode: str = "value_level"
    bp_train_iters: int = 0
    seed: int = 13
    max_epochs: int = 200
    patience: int = 10

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise TrainingError(f"unknown loss mode {self.loss_mode!r}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise TrainingError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):
            raise TrainingError(f"lr must be finite and non-negative, got {self.lr}")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise TrainingError(f"l2 must be finite and non-negative, got {self.l2}")
        for name in ("width1", "width2", "d1", "r", "embed_dim"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("bp_train_iters", "max_epochs", "patience"):
            if getattr(self, name) < 0:
                raise TrainingError(f"{name} must be non-negative, got {getattr(self, name)}")


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def hyperparams_from_dict(settings: dict, text: bool = True) -> Hyperparams:
    """Build Hyperparams from flat keys: its own fields and AggregationConfig's.

    Each value takes the type of its field's default. With text (config
    files and --set) a string is parsed to that type; otherwise (checkpoint
    JSON) the value must already have it.
    """
    kinds = {f.name: type(f.default) for f in fields(Hyperparams) + fields(AggregationConfig)
             if f.name != "aggregation"}
    typed = {}
    for key, raw in settings.items():
        if key not in kinds:
            raise TrainingError(f"unknown hyperparameter {key!r}")
        typed[key] = _typed(key, raw, kinds[key], text)
    aggregation = AggregationConfig(**{f.name: typed.pop(f.name)
                                       for f in fields(AggregationConfig) if f.name in typed})
    return Hyperparams(aggregation=aggregation, **typed)


def _typed(key: str, raw, kind: type, text: bool):
    if type(raw) is kind:
        return raw
    if text and isinstance(raw, str):
        try:
            return _BOOLS[raw.strip().lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            pass
    words = " (true/false, 1/0, yes/no or on/off)" if kind is bool and text else ""
    raise TrainingError(f"{key} must be a {kind.__name__}{words}, got {raw!r}")


# ---------------------------------------------------------------------------
# losses


def value_targets(slots, columns, gold: dict):
    """The value-level loss's (rows, cols, segments): the (slot, gold value)
    cells of an S x K score matrix whose rows are labelled by slots and
    columns by columns (values and NULL_VALUE), and each slot's run of them
    as a compute.Segments layout.

    Each distinct gold value is one target (gold is a set), and empty gold
    sets target the null column. Slots whose gold values have no column
    (never mentioned) are skipped; None when all are. The arrays are
    read-only, as a training run rereads them every epoch.
    """
    col = {v: k for k, v in enumerate(columns)}
    rows, cols, segments = [], [], []
    for i, slot in enumerate(slots):
        wanted = dict.fromkeys(gold.get(slot, ()) or (NULL_VALUE,))
        targets = [col[v] for v in wanted if v in col]
        if not targets:
            continue
        segments.append(range(len(cols), len(cols) + len(targets)))
        rows += [i] * len(targets)
        cols += targets
    if not segments:
        return None
    return (C.read_only(np.array(rows, dtype=np.intp)), C.read_only(np.array(cols, dtype=np.intp)),
            C.Segments(segments))


def value_loss(scores: C.Tensor, targets) -> C.Tensor:
    """Mean negative log gold mass over the slots of value_targets.

    scores: the S x K value score matrix: masses, max mode's softmaxed
    masses or BP's beliefs.
    """
    rows, cols, segments = targets
    return C.mean_neg_log(C.segment_pool(C.take(scores, (rows, cols)), segments))


def mention_labels(index: ClusterIndex, gold: dict) -> list:
    """(mention_position, label_slot) training instances under hard labeling
    over the EVAL_SLOTS.

    A mention of a value that is gold for k slots yields k positive
    instances; every other mention is a null-slot instance, including
    incidental mentions of gold values in unrelated contexts -- that is the
    distant-supervision noise this mode is meant to exhibit.
    """
    out = []
    for i, (m, _) in enumerate(index.mention_rows):
        matched = [s for s in cp.EVAL_SLOTS if m.value_id in gold.get(s, ())]
        if matched:
            out.extend((i, s) for s in matched)
        else:
            out.append((i, NULL_SLOT))
    return out


def mention_targets(index: ClusterIndex, gold: dict, slot_order: list):
    """The mention-level loss's (rows, cols): each training instance's
    mention and its label's column in slot_order, read-only; None without
    instances."""
    instances = mention_labels(index, gold)
    if not instances:
        return None
    rows, labels = zip(*instances)
    return (C.read_only(np.array(rows, dtype=np.intp)),
            C.read_only(np.array([slot_order.index(s) for s in labels], dtype=np.intp)))


def mention_loss(logits: C.Tensor, targets) -> C.Tensor:
    """Mean cross-entropy over the training instances of each mention's
    softmax over slots (incl. null), the distribution prediction's mention
    decodes read; logits holds one row per mention, targets are
    mention_targets."""
    return C.mean_neg_log(C.take(C.softmax(logits), targets))


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainState:
    model: ReaderModel
    adam: C.AdamState
    epoch: int = 0
    best_dev_metric: float = -1.0
    epochs_since_best: int = 0
    history: list = field(default_factory=list)   # (epoch, mean_loss, dev_f1)


def cluster_plan(model: ReaderModel, cluster: cp.Cluster, hp: Hyperparams) -> tuple:
    """(index, targets): the cluster's ClusterIndex and its loss targets
    (value_targets or mention_targets), what every step on the cluster
    rereads besides the parameters and the dropout draws. The index keeps
    its distinct rows and segments once a forward has found them. A training
    run builds the plan in the cluster's first step and reuses it in every
    later epoch."""
    index = ClusterIndex.build(cluster)
    if hp.loss_mode == "mention_level":
        return index, mention_targets(index, cluster.gold, list(model.pi))
    columns = index.columns(hp.aggregation.null_enabled)
    return index, value_targets(model.scoring_slots(), columns, cluster.gold)


def cluster_loss(model: ReaderModel, cluster: cp.Cluster, hp: Hyperparams, rng=None,
                 plan: tuple | None = None):
    """The cluster's loss; with an rng, dropout runs as in training. A
    value-level loss reads the gold mass (softmaxed in max mode), or with
    bp_train_iters > 0 the gold belief of BP on prediction's mass grid.
    plan is the cluster's cluster_plan, which a training run keeps; without
    one it is built here."""
    index, targets = cluster_plan(model, cluster, hp) if plan is None else plan
    if index.n_tokens == 0:
        return None
    if hp.loss_mode == "mention_level":
        logits = model.mention_slot_logits(index, keep_prob=hp.keep_prob, rng=rng)
        return None if targets is None else mention_loss(logits, targets)
    columns = index.columns(hp.aggregation.null_enabled)
    scores = model.value_scores(index, hp.aggregation, columns, keep_prob=hp.keep_prob,
                                rng=rng)
    if targets is None:     # nothing to score, after the forward's dropout draws
        return None
    if hp.bp_train_iters > 0:
        scores = C.scale(scores, 1.0 / mass_divisor(index, hp.aggregation))
        graph = bp_graph(columns, model.scoring_slots(), scores.data, masses=True)
        scores = run_bp_tensor(scores, graph, hp.bp_train_iters)
    elif hp.aggregation.mode == "max":
        scores = C.softmax(scores)
    return value_loss(scores, targets)


def default_mention_decode(loss_mode: str) -> str | None:
    """The decode prediction uses unless told otherwise: a mention-level
    model sums each value's mention probabilities per slot; a value-level
    model decodes its value scores (None)."""
    return "sum" if loss_mode == "mention_level" else None


def dev_f1(model: ReaderModel, dev_clusters, hp: Hyperparams) -> float:
    """F1 at the BP depth the loss trains (none for a mention-level model)."""
    if not dev_clusters:
        return 0.0
    decode = default_mention_decode(hp.loss_mode)
    records = predict_clusters(model, dev_clusters, hp.aggregation,
                               bp_iterations=0 if decode else hp.bp_train_iters,
                               mention_decode=decode)
    instances = [instance_from_cluster(c) for c in dev_clusters]
    report = evaluate(instances, predictions_map(records))
    return report.score_f1


def train(train_clusters, dev_clusters, hp: Hyperparams,
          table: E.EmbeddingTable | None = None, log=None) -> TrainState:
    """Optimize on the training clusters; keep the best dev-F1 parameters.

    Without dev clusters, runs exactly max_epochs. A non-finite forward or
    gradient, dev scoring's too, aborts with a parameter-norm dump.
    """
    seeds = np.random.SeedSequence(hp.seed).spawn(3)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in seeds)
    vocab = [t for c in train_clusters for d in c.documents for t in d.flat_tokens()]
    model = init_model(vocab, hp, init_rng, table)
    params, flat = model.params(), model.flat
    state = TrainState(model=model, adam=C.AdamState())
    best_snapshot = flat.data.copy()
    plans = [None] * len(train_clusters)    # each built in its cluster's first step

    for epoch in range(1, hp.max_epochs + 1):
        order = shuffle_rng.permutation(len(train_clusters)).tolist()
        losses = []
        try:
            for ci in order:
                cluster = train_clusters[ci]
                flat.zero_grad()
                if plans[ci] is None:
                    plans[ci] = cluster_plan(model, cluster, hp)
                loss = cluster_loss(model, cluster, hp, rng=dropout_rng, plan=plans[ci])
                if loss is None:
                    continue
                C.backward(loss)
                C.adam_step(flat, state.adam, lr=hp.lr, l2=hp.l2)
                losses.append(loss.item())
            cluster = None
            metric = dev_f1(model, dev_clusters, hp)
        except C.ComputeError as exc:
            where = f"on cluster {cluster.cluster_id}" if cluster else "in dev scoring"
            norms = {k: float(np.abs(p.data).max()) for k, p in params.items()}
            raise DivergenceError(f"diverged {where} epoch {epoch}: {exc}; "
                                  f"param max-abs: {norms}") from exc
        state.epoch = epoch
        state.history.append((epoch, float(np.mean(losses)) if losses else 0.0, metric))
        if log:
            log(f"epoch {epoch}: loss {state.history[-1][1]:.4f} dev_f1 {metric:.4f}")
        if not dev_clusters:
            continue
        if metric > state.best_dev_metric:
            state.best_dev_metric = metric
            state.epochs_since_best = 0
            best_snapshot = flat.data.copy()
        else:
            state.epochs_since_best += 1
            if state.epochs_since_best > hp.patience:
                break
    if dev_clusters:
        flat.data[:] = best_snapshot
    return state


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, model: ReaderModel, hp: Hyperparams):
    extra = {
        "slots": list(model.pi),
        "vocab": model.table.vocab,
        "embed_matrix": C.encode_array(model.table.matrix),
        "unk_vector": C.encode_array(model.table.unk_vector),
        "hyperparams": {"loss_mode": hp.loss_mode, **asdict(hp.aggregation)},
    }
    C.save_checkpoint(path, model.params(), seed=hp.seed, extra=extra)


def load_model(path):
    """Rebuild a ReaderModel (and its aggregation config) from a checkpoint."""
    raw = C.load_checkpoint(path)
    extra = raw["extra"]
    params = raw["params"]
    missing = [f"extra.{k}" for k in ("slots", "vocab", "embed_matrix", "unk_vector")
               if k not in extra]
    if missing:
        raise C.ComputeError(f"{path}: checkpoint lacks {', '.join(missing)}")
    slots, vocab = extra["slots"], extra["vocab"]
    if not isinstance(slots, list) or not all(isinstance(s, str) for s in slots):
        raise C.ComputeError(f"{path}: checkpoint extra.slots is not a list of strings")
    if all(s == NULL_SLOT for s in slots):
        raise C.ComputeError(f"{path}: checkpoint extra.slots names no scoring slot")
    wanted = ["mask_vector", "enc.w1", "enc.b1", "enc.w2", "enc.b2"]
    missing = [f"params.{k}" for k in wanted + [f"slot.{s}" for s in slots] if k not in params]
    if missing:
        raise C.ComputeError(f"{path}: checkpoint lacks {', '.join(missing)}")
    try:
        matrix = _extra_array(extra["embed_matrix"])
        unk_vector = _extra_array(extra["unk_vector"])
    except (TypeError, ValueError, OverflowError):   # not floats: fails the shape check below
        matrix = unk_vector = np.zeros(0)
    if matrix.ndim != 2 or not (unk_vector.shape == params["mask_vector"].shape
                                == matrix.shape[1:]):
        raise C.ComputeError(f"{path}: checkpoint extra.embed_matrix is not a 2-D matrix as "
                             f"wide as extra.unk_vector and params.mask_vector")
    if not isinstance(vocab, dict) or not all(type(i) is int and 0 <= i < len(matrix)
                                              for i in vocab.values()):
        raise C.ComputeError(f"{path}: checkpoint extra.vocab does not map strings to "
                             f"row ids in [0, {len(matrix)})")
    _check_param_shapes(path, params, slots, matrix.shape[1])
    arrays = [(f"params.{k}", v) for k, v in params.items()]
    arrays += [("extra.embed_matrix", matrix), ("extra.unk_vector", unk_vector)]
    bad = [name for name, v in arrays if not np.isfinite(v).all()]
    if bad:
        raise C.ComputeError(f"{path}: checkpoint {', '.join(bad)} holds non-finite values")
    table = E.EmbeddingTable(
        vocab=vocab, matrix=matrix,
        mask_vector=C.Tensor(params["mask_vector"]),
        unk_vector=unk_vector)
    enc = E.EncoderParams(w1=C.Tensor(params["enc.w1"]), b1=C.Tensor(params["enc.b1"]),
                          w2=C.Tensor(params["enc.w2"]), b2=C.Tensor(params["enc.b2"]))
    pi = {s: C.Tensor(params[f"slot.{s}"]) for s in slots}
    model = ReaderModel(table=table, enc=enc, pi=pi)
    bits = extra.get("hyperparams", {})
    if not isinstance(bits, dict):
        raise C.ComputeError(f"{path}: checkpoint extra.hyperparams is not an object")
    source = bits.pop("weight_source", None)    # older checkpoints: two aggregation fields
    if bits.get("mode") == "weighted_sum":
        bits["mode"] = source
    # 'date', since deleted, predicted as 'sum'
    for old, new in (("per_document_softmax_sum", "per-doc"), ("date", "sum")):
        if bits.get("mode") == old:
            bits["mode"] = new
    try:
        hp = hyperparams_from_dict(bits, text=False)
    except (TrainingError, AggregationError) as exc:
        raise C.ComputeError(f"{path}: checkpoint extra.hyperparams: {exc}") from exc
    return model, hp.aggregation, hp.loss_mode


def _extra_array(value) -> np.ndarray:
    """An array of extra: an encode_array entry, or RACv1's nested number list."""
    if isinstance(value, dict):
        return C.decode_array(value)
    return np.asarray(value, dtype=np.float64)


def _check_param_shapes(path, params: dict, slots, embed_dim: int):
    """Each encoder and slot parameter's shape against the embedding width
    and the widths the earlier parameters fix (w1 fixes d1, w2 fixes r)."""
    layout = [("enc.w1", ("width1", embed_dim, "d1")), ("enc.b1", ("d1",)),
              ("enc.w2", ("width2", "d1", "r")), ("enc.b2", ("r",))]
    layout += [(f"slot.{s}", ("r",)) for s in slots]
    dims = {}
    for name, axes in layout:
        shape = params[name].shape
        want = [dims.get(a, a) for a in axes]
        if len(shape) != len(axes) or any(n < 1 or (isinstance(w, int) and w != n)
                                           for w, n in zip(want, shape)):
            want = ", ".join(map(str, want))
            raise C.ComputeError(f"{path}: checkpoint params.{name} has shape "
                                 f"{list(shape)}, expected [{want}]")
        dims.update(zip(axes, shape))


# ---------------------------------------------------------------------------
# gradient checking


GRAD_CHECK_STEP = 1e-5


def gradient_check(hp: Hyperparams, cluster: cp.Cluster, tol: float = 1e-4) -> dict:
    """Analytic vs central-difference gradients of the cluster loss, with
    steps of GRAD_CHECK_STEP.

    Meant for shrunken dimensions and tiny clusters (a few dozen tokens).
    Raises GradientCheckError naming the worst parameter above tol.
    """
    rng = np.random.default_rng(hp.seed)
    vocab = [t for d in cluster.documents for t in d.flat_tokens()]
    model = init_model(vocab, hp, rng)

    def forward() -> C.Tensor:
        loss = cluster_loss(model, cluster, hp)
        if loss is None:
            raise GradientCheckError("cluster produced no loss terms")
        return loss

    C.backward(forward())

    report = {}
    worst = ("", 0.0)
    for name, p in model.params().items():
        analytic = p.grad
        flat = p.data.ravel()
        err = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + GRAD_CHECK_STEP
            up = forward().item()
            flat[i] = keep - GRAD_CHECK_STEP
            down = forward().item()
            flat[i] = keep
            numeric = (up - down) / (2 * GRAD_CHECK_STEP)
            a = analytic.ravel()[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            err = max(err, rel)
        report[name] = err
        if err > worst[1]:
            worst = (name, err)
    if worst[1] > tol:
        raise GradientCheckError(
            f"gradient mismatch: {worst[0]} rel err {worst[1]:.3e} exceeds {tol:.0e}")
    return report
