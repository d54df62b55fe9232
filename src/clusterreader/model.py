"""The assembled reader: embeddings -> CNN -> slot attention -> aggregation.

Ties the component modules together around a per-cluster token index. One
dense matrix flows from attention to the loss: the scorer gives an S x n
attention matrix (one row per scoring slot), the aggregator pools it into an
S x K value score matrix, and training reads each slot's gold mass from that.
Training's K columns are the cluster's mentioned values plus the null value,
sorted as strings (ClusterIndex.columns). No forward pass takes gold labels;
only training's losses read them. A forward checks for NaN and inf only at
the token scores (ReaderModel.token_scores); the loaders check the inputs,
FlatParams.check_grad the gradients and BP its messages.

The caller names the columns it pools (value_scores): each column reads
only its own tokens, so any order pools the same numbers. Prediction works
on one S x V grid per cluster (prediction_scores), pooled straight in grid
order, the mentioned values sorted and then null
(ClusterIndex.grid_columns), or the mention-level baseline's pooled
probabilities in that order, NaN where a cell has no score. Every BP grid
is built by bp_graph: a value-level mass, as a share of its slot row
(mass_divisor), is its cell's local potential, a mention-level score the
log-odds of it; training's BP runs on the same mass grid, in training's
column order. Decoding, ranking and the {slot: {value: score}} record are
read off the grid once (prediction_record).

Training and prediction encode alike: they embed only the cluster's
distinct rows (ClusterIndex.distinct_tokens, every mention token one mask
row), and the encoder reads token t's row through the index those rows
come with. The index keeps what it derives: the distinct rows and each
column order's segments are found on first use and reread after, as
read-only arrays. Prediction reads a cluster's index once per call; a
training run keeps one index per cluster and rereads it every epoch.

The index is built with array ops and C-level iterators, so no Python frame
runs per token: the mention mask is the running sum of +1 at each span
start and -1 at each end, the null column's tokens are the mask's
complement, and the distinct rows rank each token's first-seen position,
found by one dict pass over the tokens with mention tokens masked to None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from . import aggregator as agg
from . import compute as C
from . import constraints as K
from . import corpus as cp
from . import encoder as E
from . import scorer as S
from .aggregator import NULL_VALUE
from .scorer import NULL_SLOT


@dataclass
class ClusterIndex:
    """Flattened token/mention view of one cluster with global indices."""

    cluster: cp.Cluster
    flat_tokens: list = field(default_factory=list)
    doc_lengths: list = field(default_factory=list)
    mention_rows: list = field(default_factory=list)   # (mention, global_first_token)
    mention_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    groups: dict = field(default_factory=dict)         # value_id -> [global_first_token]
    # what distinct_tokens and segments derive, kept for later calls
    _distinct: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _segments: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, cluster: cp.Cluster) -> "ClusterIndex":
        """The index of a cluster; its one Python loop runs per mention."""
        docs = cluster.documents
        lengths = [doc.n_tokens for doc in docs]
        mention_rows, groups, starts, ends = [], {}, [], []
        for doc, offset in zip(docs, accumulate(lengths, initial=0)):
            for m in doc.mentions:
                k = offset + m.start
                mention_rows.append((m, k))
                starts.append(k)
                ends.append(offset + m.end)
                groups.setdefault(m.value_id, []).append(k)
        n = sum(lengths)
        # +1 where a span starts, -1 where it ends: the running sum is
        # positive exactly on mention tokens
        edges = np.bincount(np.array(starts, dtype=np.intp), minlength=n + 1)
        edges -= np.bincount(np.array(ends, dtype=np.intp), minlength=n + 1)
        flat = list(chain.from_iterable(chain.from_iterable(doc.sentences for doc in docs)))
        mask = C.read_only(np.cumsum(edges[:n]) > 0)
        return cls(cluster, flat, lengths, mention_rows, mask, groups)

    @property
    def n_tokens(self) -> int:
        return len(self.flat_tokens)

    def distinct_tokens(self):
        """The cluster's distinct embedding rows as (tokens, mask_rows, rows).

        Tokens outside mentions get one row per distinct string, in first-seen
        order; every mention token shares one row, listed in mask_rows, which
        embed_cluster fills with the mask vector. Token t reads row rows[t].
        Found on the first call; later calls return the same objects.
        """
        if self._distinct is None:
            self._distinct = self._find_distinct_tokens()
        return self._distinct

    def _find_distinct_tokens(self):
        n = self.n_tokens
        # a mention token reads as None, so all of them share one row
        masked = np.array(self.flat_tokens, dtype=object)
        masked[self.mention_mask] = None
        # each token's key is the position where its row is first seen, and
        # ranking the keys numbers the rows in first-seen order
        first: dict = {}
        key = np.fromiter(map(first.setdefault, masked.tolist(), range(n)), dtype=np.intp,
                          count=n)
        rank = np.cumsum(key == np.arange(n), dtype=np.intp) - 1
        seen = list(first)
        tokens = ["" if tok is None else tok for tok in seen]
        return tokens, [seen.index(None)] if None in first else [], C.read_only(rank[key])

    def columns(self, null_enabled: bool) -> list:
        """Score-matrix column labels: mentioned values plus null, sorted as strings."""
        return sorted(list(self.groups) + ([NULL_VALUE] if null_enabled else []))

    def grid_columns(self, null_enabled: bool) -> list:
        """Prediction grid columns: mentioned values sorted, then null."""
        return sorted(self.groups) + ([NULL_VALUE] if null_enabled else [])

    def segments(self, columns) -> list:
        """Tokens each column pools, as read-only intp arrays: a value's
        mention first tokens, or for null every token outside all mention
        spans. Found on the first call for an order of columns; later calls
        with that order return the same list."""
        key = tuple(columns)
        if key not in self._segments:
            outside = C.read_only(np.flatnonzero(~self.mention_mask))
            self._segments[key] = [outside if v == NULL_VALUE
                                   else C.read_only(np.array(self.groups[v], dtype=np.intp))
                                   for v in columns]
        return self._segments[key]


@dataclass
class ReaderModel:
    """The reader's parameters: the encoder, the slot vectors and the mask
    vector, whose data and grads are views into flat.data and flat.grad."""

    table: E.EmbeddingTable
    enc: E.EncoderParams
    pi: dict                      # slot name -> embedding tensor
    flat: C.FlatParams = field(init=False, repr=False)

    def __post_init__(self):
        self.flat = C.FlatParams(self.params())

    def params(self) -> dict:
        out = dict(self.enc.as_dict())
        out.update(S.slot_params(self.pi))
        out["mask_vector"] = self.table.mask_vector
        return out

    def scoring_slots(self) -> list:
        return [s for s in self.pi if s != NULL_SLOT]

    def representations(self, index: ClusterIndex, keep_prob: float = 1.0,
                        rng=None) -> C.Tensor:
        """n x r token representations, encoded from the cluster's distinct
        rows; dropout exactly when an rng is given."""
        tokens, mask_rows, rows = index.distinct_tokens()
        distinct = E.embed_cluster(tokens, mask_rows, self.table)
        return E.encode(distinct, index.doc_lengths, self.enc, keep_prob=keep_prob,
                        rng=rng, rows=rows)

    def token_scores(self, R: C.Tensor, slots) -> C.Tensor:
        """The S x n scores U = R pi, every forward's last unbounded value:
        after U come softmaxes, 0/1-weighted pools of their masses, a floored
        -log and BP on clipped locals. A non-finite row of R makes its column
        of U non-finite, so one check here covers every forward (ComputeError)."""
        U = S.score_tokens(R, [self.pi[s] for s in slots])
        if not np.isfinite(U.data).all():
            raise C.ComputeError("non-finite token scores")
        return U

    def value_scores(self, index: ClusterIndex, config: agg.AggregationConfig, columns,
                     keep_prob: float = 1.0, rng=None) -> C.Tensor:
        """Differentiable S x K scores: scoring slots by columns (index.columns
        or index.grid_columns), each pooled from its own segment alone."""
        R = self.representations(index, keep_prob=keep_prob, rng=rng)
        U = self.token_scores(R, self.scoring_slots())
        if config.mode == "per-doc":
            A = agg.per_document_attention(U, index.doc_lengths)
        else:
            A = S.attend(U)
        segments = index.segments(columns)
        if config.mode == "max":
            null_col = columns.index(NULL_VALUE) if config.null_enabled else None
            return agg.aggregate_max(A, segments, null_col)
        return agg.aggregate_sum(A, segments, agg.weights_for(index.cluster, config.mode))

    def mention_slot_logits(self, index: ClusterIndex, keep_prob: float = 1.0,
                            rng=None) -> C.Tensor:
        """m x |pi| raw slot scores at each mention's first token (mention-level mode)."""
        R = self.representations(index, keep_prob=keep_prob, rng=rng)
        U = self.token_scores(R, list(self.pi))
        return C.take(C.transpose(U), [k for _, k in index.mention_rows])


def init_model(vocab_tokens, hp, rng: np.random.Generator,
               table: E.EmbeddingTable | None = None) -> ReaderModel:
    """Fresh model; random embedding table unless a pretrained one is given."""
    if table is None:
        table = E.random_table(vocab_tokens, hp.embed_dim, rng)
    enc = E.init_encoder(table.dim, rng, width1=hp.width1, d1=hp.d1,
                         width2=hp.width2, r=hp.r)
    pi = S.init_slot_embeddings(cp.EVAL_SLOTS, hp.r, rng,
                                include_null_slot=(hp.loss_mode == "mention_level"))
    return ReaderModel(table=table, enc=enc, pi=pi)


def prediction_scores(model: ReaderModel, index: ClusterIndex, config: agg.AggregationConfig,
                      mention_decode: str | None = None) -> tuple[list, np.ndarray]:
    """Grid columns and the S x V score matrix prediction decodes.

    Rows are the scoring slots; columns are ClusterIndex.grid_columns, the
    mentioned values sorted as strings and then the null value if it is
    scored. A NaN cell has no score (mention decode 'none' only).
    """
    if mention_decode is not None:
        return _mention_scores(model, index, mention_decode)
    values = index.grid_columns(config.null_enabled)
    return values, model.value_scores(index, config, values).data


def _mention_scores(model: ReaderModel, index: ClusterIndex,
                    decode: str) -> tuple[list, np.ndarray]:
    """Scores of the mention-classification baseline on the prediction grid.

    decode='none' classifies each mention into its argmax slot and lets the
    most confident classified mention score its value in that slot; cells no
    mention reaches are NaN, and null scores 0.0 everywhere. 'max'/'sum'
    pool each slot's softmaxed probability over a value's mentions, with no
    null column. Pooling is unbuffered in mention order, so a sum adds as a
    running total over the mentions does; segment_pool's pairwise sum would
    move the sums, and BP's beliefs after them, in the last bits.
    """
    probs = C.softmax(model.mention_slot_logits(index)).data
    slot_order = list(model.pi)
    slots = model.scoring_slots()
    values = index.grid_columns(decode == "none")
    col = {v: k for k, v in enumerate(values)}
    owner = np.array([col[m.value_id] for m, _ in index.mention_rows])
    scores = np.full((len(slots), len(values)), 0.0 if decode == "sum" else np.nan)
    if decode == "none":
        scores[:, -1] = 0.0
        row = np.array([-1 if s == NULL_SLOT else slots.index(s) for s in slot_order])
        rows = row[probs.argmax(axis=1)]
        kept = rows >= 0
        np.fmax.at(scores, (rows[kept], owner[kept]), probs.max(axis=1)[kept])
    else:
        pool = np.add if decode == "sum" else np.fmax
        pool.at(scores.T, owner, probs[:, [slot_order.index(s) for s in slots]])
    return values, scores


def bp_graph(values, slots, scores: np.ndarray, masses: bool = False) -> K.ConstraintGraph:
    """The V x S constraint grid of an S x V score matrix.

    The scores are read as log-odds, whose sigmoid is the local potential,
    or with masses=True as probabilities, each its cell's local; locals are
    clipped into [EPS, 1-EPS]. A NaN cell reads MISSING_PHI, so its local
    potential is effectively zero on either scale.
    """
    phi = np.where(np.isnan(scores), K.MISSING_PHI, scores).T
    local = phi if masses else _sigmoid(phi)
    null_row = values.index(NULL_VALUE) if NULL_VALUE in values else None
    return K.ConstraintGraph(values=tuple(values), slots=tuple(slots),
                             local=np.clip(local, K.EPS, 1 - K.EPS), null_row=null_row)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def mass_divisor(index: ClusterIndex, config: agg.AggregationConfig) -> int:
    """A value-level grid's masses over this are probabilities: per-doc
    softmaxes each document alone, so a slot row sums to up to the number of
    non-empty documents; every other mode spreads attention once (1)."""
    return np.count_nonzero(index.doc_lengths) if config.mode == "per-doc" else 1


def prediction_graph(model: ReaderModel, index: ClusterIndex, config: agg.AggregationConfig,
                     values, scores: np.ndarray,
                     mention_decode: str | None = None) -> K.ConstraintGraph:
    """The grid prediction's BP decodes, of prediction_scores' output: a
    value-level score is a pooled attention mass, scaled by mass_divisor; a
    mention-level decode's score is read as log-odds."""
    slots = model.scoring_slots()
    if mention_decode is not None:
        return bp_graph(values, slots, scores)
    return bp_graph(values, slots, scores / mass_divisor(index, config), masses=True)


def prediction_record(cluster_id: str, slots, values, scores: np.ndarray) -> dict:
    """The record predict writes for an S x V score matrix: the top value
    per slot (None for null), every scored value best-first, and the
    {slot: {value: score}} table in grid order without the NaN cells."""
    table = {s: {v: x for v, x in zip(values, row) if not math.isnan(x)}
             for s, row in zip(slots, scores.tolist())}
    return {"cluster_id": cluster_id,
            "predictions": dict(zip(slots, agg.decode_top1(scores, values))),
            "rankings": dict(zip(slots, agg.rank_values(scores, values))),
            "scores": table}


def predict_cluster(model: ReaderModel, cluster: cp.Cluster,
                    config: agg.AggregationConfig, bp_iterations=0,
                    mention_decode: str | None = None) -> dict:
    """Decode one cluster into its prediction record."""
    index = ClusterIndex.build(cluster)
    slots = model.scoring_slots()
    if index.n_tokens == 0 or not index.groups:
        return prediction_record(cluster.cluster_id, slots, [NULL_VALUE],
                                 np.ones((len(slots), 1)))
    values, scores = prediction_scores(model, index, config, mention_decode)
    if bp_iterations != 0:
        graph = prediction_graph(model, index, config, values, scores, mention_decode)
        scores = K.run_bp(graph, bp_iterations).T
    return prediction_record(cluster.cluster_id, slots, values, scores)


def predict_clusters(model: ReaderModel, clusters, config: agg.AggregationConfig,
                     bp_iterations=0, mention_decode: str | None = None) -> list:
    return [predict_cluster(model, c, config, bp_iterations, mention_decode)
            for c in clusters]


def predictions_map(records: list) -> dict:
    return {r["cluster_id"]: r["predictions"] for r in records}


def rankings_map(records: list) -> dict:
    return {r["cluster_id"]: r["rankings"] for r in records}
