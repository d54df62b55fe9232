"""The assembled reader: embeddings -> CNN -> slot attention -> aggregation.

Ties the component modules together around a per-cluster token index. One
dense matrix flows from attention to the loss: the scorer gives an S x n
attention matrix (one row per scoring slot), the aggregator pools it into an
S x K value score matrix, and training reads each slot's gold mass from that.
Its K columns are the cluster's mentioned values plus the null value, sorted
as strings (ClusterIndex.columns). For inference the matrix becomes the
prediction record's {slot: {value: float}} table once per cluster
(score_table), optionally sharpened by the constraint layer.

The prediction entry points (score_table and the mention-level tables)
encode with projected=True: they embed only the cluster's distinct rows
(ClusterIndex.distinct_tokens, every mention token one mask row) and the
encoder reads layer 1 from their projection. Training, and anything else
that backpropagates, keeps the default conv1d path whatever its training
flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    mention_rows: list = field(default_factory=list)   # (mention, doc_pos, global_first_token)
    mention_token_set: set = field(default_factory=set)
    groups: dict = field(default_factory=dict)         # value_id -> [global_first_token]

    @classmethod
    def build(cls, cluster: cp.Cluster) -> "ClusterIndex":
        idx = cls(cluster=cluster)
        offset = 0
        for pos, doc in enumerate(cluster.documents):
            idx.flat_tokens.extend(doc.flat_tokens())
            idx.doc_lengths.append(doc.n_tokens)
            for m in doc.mentions:
                k = offset + m.start
                idx.mention_rows.append((m, pos, k))
                idx.mention_token_set.update(range(offset + m.start, offset + m.end))
                idx.groups.setdefault(m.value_id, []).append(k)
            offset += doc.n_tokens
        return idx

    @property
    def n_tokens(self) -> int:
        return len(self.flat_tokens)

    def distinct_tokens(self):
        """The cluster's distinct embedding rows as (tokens, mask_rows, rows).

        Tokens outside mentions get one row per distinct string, in first-seen
        order; every mention token shares one row, listed in mask_rows, which
        embed_cluster fills with the mask vector. Token t reads row rows[t].
        """
        first: dict = {}
        mention = self.mention_token_set
        rows = np.fromiter((first.setdefault(None if t in mention else tok, len(first))
                            for t, tok in enumerate(self.flat_tokens)),
                           dtype=np.intp, count=self.n_tokens)
        tokens = ["" if tok is None else tok for tok in first]
        return tokens, [first[None]] if None in first else [], rows

    def columns(self, null_enabled: bool) -> list:
        """Score-matrix column labels: mentioned values plus null, sorted as strings."""
        return sorted(list(self.groups) + ([NULL_VALUE] if null_enabled else []))

    def segments(self, columns) -> list:
        """Tokens each column pools: a value's mention first tokens, or for
        null every token outside all mention spans."""
        outside = sorted(set(range(self.n_tokens)) - self.mention_token_set)
        return [outside if v == NULL_VALUE else self.groups[v] for v in columns]


@dataclass
class ReaderModel:
    table: E.EmbeddingTable
    enc: E.EncoderParams
    pi: dict                      # slot name -> embedding tensor
    slots: tuple = cp.EVAL_SLOTS

    def params(self) -> dict:
        out = dict(self.enc.as_dict())
        out.update(S.slot_params(self.pi))
        out["mask_vector"] = self.table.mask_vector
        return out

    def scoring_slots(self) -> list:
        return [s for s in self.pi if s != NULL_SLOT]

    def representations(self, index: ClusterIndex, training: bool = False,
                        keep_prob: float = 1.0, rng=None, projected: bool = False) -> C.Tensor:
        """n x r token representations; projected (prediction only) reads
        layer 1 from the projection of the cluster's distinct rows."""
        if projected:
            tokens, mask_rows, rows = index.distinct_tokens()
            distinct = E.embed_cluster(tokens, mask_rows, self.table)
            return E.encode(distinct, index.doc_lengths, self.enc, training=training, rows=rows)
        embedded = E.embed_cluster(index.flat_tokens, index.mention_token_set, self.table)
        return E.encode(embedded, index.doc_lengths, self.enc,
                        training=training, keep_prob=keep_prob, rng=rng)

    def token_scores(self, R: C.Tensor, slots) -> C.Tensor:
        return S.score_tokens(R, [self.pi[s] for s in slots])

    def value_scores(self, index: ClusterIndex, config: agg.AggregationConfig,
                     training: bool = False, keep_prob: float = 1.0, rng=None,
                     gold_for_fit: dict | None = None, projected: bool = False) -> C.Tensor:
        """Differentiable S x K scores: scoring slots by index.columns(null_enabled)."""
        R = self.representations(index, training=training, keep_prob=keep_prob, rng=rng,
                                 projected=projected)
        U = self.token_scores(R, self.scoring_slots())
        if config.mode == "per_document_softmax_sum":
            A = agg.per_document_attention(U, index.doc_lengths)
        else:
            A = S.attend(U)
        columns = index.columns(config.null_enabled)
        segments = index.segments(columns)
        if config.mode == "max":
            null_col = columns.index(NULL_VALUE) if config.null_enabled else None
            return agg.aggregate_max(A, segments, null_col)
        weights = None
        if config.mode == "weighted_sum":
            weights = agg.weights_for(index.cluster, config.weight_source, gold_for_fit)
        return agg.aggregate_sum(A, segments, weights)

    def mention_slot_logits(self, index: ClusterIndex, training: bool = False,
                            keep_prob: float = 1.0, rng=None,
                            projected: bool = False) -> C.Tensor:
        """m x |pi| raw slot scores at each mention's first token (mention-level mode)."""
        R = self.representations(index, training=training, keep_prob=keep_prob, rng=rng,
                                 projected=projected)
        U = self.token_scores(R, list(self.pi))
        return C.take(C.transpose(U), [k for _, _, k in index.mention_rows])


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


def score_table(model: ReaderModel, index: ClusterIndex,
                config: agg.AggregationConfig) -> dict:
    """Value scores as the prediction record's {slot: {value: float}}, values
    in first-mention order and the null value last."""
    scores = model.value_scores(index, config, projected=True).data
    col = {v: k for k, v in enumerate(index.columns(config.null_enabled))}
    keys = list(index.groups) + ([NULL_VALUE] if config.null_enabled else [])
    return {slot: {v: float(scores[i, col[v]]) for v in keys}
            for i, slot in enumerate(model.scoring_slots())}


def constraint_graph(index: ClusterIndex, table: dict) -> K.ConstraintGraph:
    """Exactly-1 grid over a score table: mentioned values sorted, then null
    if any slot scores it."""
    values = sorted(index.groups)
    if any(NULL_VALUE in vals for vals in table.values()):
        values.append(NULL_VALUE)
    return K.build_graph(table, values, list(table))


def rank_values(scores: dict) -> list:
    """Value keys best-first; ties go to the smaller id with NULL last."""
    return [k for k, _ in sorted(scores.items(),
                                 key=lambda kv: (-kv[1], kv[0] == NULL_VALUE, kv[0]))]


def _mention_mode_tables(model: ReaderModel, index: ClusterIndex, decode: str) -> dict:
    """Score tables for the mention-classification baseline.

    decode='none' treats each mention as classified into its argmax slot and
    lets the most confident classified mention win that slot (slots winning
    no mention fall to NULL); 'max'/'sum' pool the per-mention slot
    probabilities over each value's mentions with no NULL candidate.
    """
    probs = C.softmax(model.mention_slot_logits(index, projected=True)).data
    slot_order = list(model.pi)
    slots = model.scoring_slots()
    table: dict = {s: {} for s in slots}
    if decode == "none":
        for s in slots:
            table[s][NULL_VALUE] = 0.0
        for (m, _, _), p in zip(index.mention_rows, probs):
            arg = slot_order[int(np.argmax(p))]
            if arg == NULL_SLOT:
                continue
            cur = table[arg].get(m.value_id, 0.0)
            table[arg][m.value_id] = max(cur, float(p.max()))
        return table
    for s in slots:
        si = slot_order.index(s)
        for (m, _, _), p in zip(index.mention_rows, probs):
            prev = table[s].get(m.value_id)
            val = float(p[si])
            if decode == "max":
                table[s][m.value_id] = val if prev is None else max(prev, val)
            else:
                table[s][m.value_id] = val if prev is None else prev + val
    return table


def predict_cluster(model: ReaderModel, cluster: cp.Cluster,
                    config: agg.AggregationConfig, bp_iterations=0,
                    mention_decode: str | None = None) -> dict:
    """Decode one cluster into the prediction-record format."""
    index = ClusterIndex.build(cluster)
    if index.n_tokens == 0 or not index.groups:
        empty = {s: None for s in model.scoring_slots()}
        return {"cluster_id": cluster.cluster_id, "predictions": empty,
                "scores": {s: {NULL_VALUE: 1.0} for s in model.scoring_slots()}}
    if mention_decode is not None:
        scores = _mention_mode_tables(model, index, mention_decode)
        scores = {s: (vals if vals else {NULL_VALUE: 0.0}) for s, vals in scores.items()}
    else:
        scores = score_table(model, index, config)
    if bp_iterations != 0:
        graph = constraint_graph(index, scores)
        beliefs = K.run_bp(graph, bp_iterations)
        decode_table = K.beliefs_as_table(graph, beliefs)
    else:
        decode_table = scores
    predictions = agg.decode_top1(decode_table)
    return {"cluster_id": cluster.cluster_id, "predictions": predictions,
            "scores": decode_table}


def predict_clusters(model: ReaderModel, clusters, config: agg.AggregationConfig,
                     bp_iterations=0, mention_decode: str | None = None) -> list:
    return [predict_cluster(model, c, config, bp_iterations, mention_decode)
            for c in clusters]


def predictions_map(records: list) -> dict:
    return {r["cluster_id"]: r["predictions"] for r in records}


def rankings_map(records: list) -> dict:
    return {r["cluster_id"]: {s: rank_values(vals) for s, vals in r["scores"].items()}
            for r in records}
