"""Pooling slot attention into value scores, with optional weights and null.

A value is usually mentioned many times across a cluster; these functions
pool the S x n attention matrix (one row per slot) into an S x K value score
matrix with one segment-pool op. Column k pools the first tokens of one
value's mentions. The aggregation mode is one of MODES: 'max' (hard max),
'sum' (plain sum), 'topic' (a sum weighted by discourse topicality), or
'per-doc' (a sum over a per-document attention softmax, one block softmax
whose blocks are the documents). The null column pools the attention mass
left on non-mention tokens.

Decoding reads prediction's S x V grid, whose columns are the mentioned
values sorted and then null: top-1 is each row's first maximum and a
ranking its stable descending sort, which in that order break ties to the
smaller value_id with null last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compute as C
from . import corpus as cp

NULL_VALUE = "__NULL__"

MODES = ("max", "sum", "topic", "per-doc")


class AggregationError(ValueError):
    pass


@dataclass(frozen=True)
class AggregationConfig:
    mode: str = "sum"
    null_enabled: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise AggregationError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")


def aggregate_max(a: C.Tensor, segments, null_col: int | None = None) -> C.Tensor:
    """S x K value scores: each value's best single mention per slot.

    segments[k] lists the token indices of column k; the null column, if
    any, still sums its (non-mention) tokens.
    """
    take_max = [k != null_col for k in range(len(segments))]
    return C.segment_pool(a, segments, take_max=take_max)


def aggregate_sum(a: C.Tensor, segments, weights=None) -> C.Tensor:
    """S x K value scores: all of a column's tokens accumulated, optionally
    scaled by fixed per-token weights."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0):
            raise AggregationError("negative aggregation weight")
        if weights.shape != (a.shape[-1],):
            raise AggregationError(f"weights of shape {weights.shape} for {a.shape[-1]} tokens")
    return C.segment_pool(a, segments, weights)


def per_document_attention(u: C.Tensor, doc_lengths) -> C.Tensor:
    """Softmax each document's block of every slot's scores separately."""
    return C.softmax(u, doc_lengths)


# ---------------------------------------------------------------------------
# aggregation weights


def topic_weights(cluster: cp.Cluster) -> np.ndarray:
    """1.0 for tokens in on-topic sentences, 0.0 in off-topic ones."""
    weights = []
    for doc in cluster.documents:
        flags = cp.segment_topicality(doc)
        for sid, sent in enumerate(doc.sentences):
            weights.extend([1.0 if flags[sid] else 0.0] * len(sent))
    return np.asarray(weights)


def weights_for(cluster: cp.Cluster, mode: str):
    """Per-token pooling weights of an aggregation mode; None for the
    unweighted modes."""
    return topic_weights(cluster) if mode == "topic" else None


# ---------------------------------------------------------------------------
# decoding


def decode_top1(scores: np.ndarray, values) -> list:
    """Each slot row's best column label, None where that is the null value.

    Columns are in grid order (values sorted, null last) and NaN cells are
    unscored. The first maximum wins, so ties break to the smaller value_id
    and a tied null never wins over a concrete value.
    """
    if np.isnan(scores).all(axis=1).any():
        raise AggregationError("a slot has no scored value")
    return [None if values[k] == NULL_VALUE else values[k]
            for k in np.nanargmax(scores, axis=1).tolist()]


def rank_values(scores: np.ndarray, values) -> list:
    """Each slot row's scored column labels best-first: a stable sort in
    grid order, so ties go to the smaller value_id with null last."""
    order = np.argsort(-scores, axis=1, kind="stable").tolist()   # NaN sorts last
    counts = (~np.isnan(scores)).sum(axis=1).tolist()
    return [[values[k] for k in row[:n]] for row, n in zip(order, counts)]
