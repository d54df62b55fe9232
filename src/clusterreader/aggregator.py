"""Pooling slot attention into value scores, with optional weights and null.

A value is usually mentioned many times across a cluster; these functions
pool the S x n attention matrix (one row per slot) into an S x K value score
matrix with one segment-pool op. Column k pools the first tokens of one
value's mentions: hard max, plain sum, weighted sum (weights from discourse
topicality or from publication-date information content), or a sum over a
per-document attention softmax, one block softmax whose blocks are the
documents. The null column pools the attention mass left on non-mention
tokens.

Decoding reads prediction's S x V grid, whose columns are the mentioned
values sorted and then null: top-1 is each row's first maximum and a
ranking its stable descending sort, which in that order break ties to the
smaller value_id with null last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import compute as C
from . import corpus as cp

NULL_VALUE = "__NULL__"

MODES = ("max", "sum", "weighted_sum", "per_document_softmax_sum")
WEIGHT_SOURCES = ("unit", "topic", "date")


class AggregationError(ValueError):
    pass


@dataclass(frozen=True)
class AggregationConfig:
    mode: str = "sum"
    weight_source: str = "unit"
    null_enabled: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise AggregationError(f"unknown aggregation mode {self.mode!r}")
        if self.weight_source not in WEIGHT_SOURCES:
            raise AggregationError(f"unknown weight source {self.weight_source!r}")
        if self.mode == "weighted_sum" and self.weight_source == "unit":
            raise AggregationError("weighted_sum needs a topic or date weight source")


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
    if sum(doc_lengths) != u.shape[-1]:
        raise AggregationError("doc lengths do not cover the score matrix")
    return C.softmax(u, doc_lengths)


# ---------------------------------------------------------------------------
# aggregation weights


def _doc_token_counts(cluster: cp.Cluster) -> list[int]:
    return [d.n_tokens for d in cluster.documents]


def topic_weights(cluster: cp.Cluster) -> np.ndarray:
    """1.0 for tokens in on-topic sentences, 0.0 in off-topic ones."""
    weights = []
    for doc in cluster.documents:
        flags = cp.segment_topicality(doc)
        for sid, sent in enumerate(doc.sentences):
            weights.extend([1.0 if flags[sid] else 0.0] * len(sent))
    return np.asarray(weights)


def skew_normal_pdf(x, xi: float, omega: float, alpha: float):
    """Density of the skew-normal distribution, no scipy required."""
    z = (np.asarray(x, dtype=np.float64) - xi) / omega
    phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    cdf = 0.5 * (1.0 + _erf_vec(alpha * z / math.sqrt(2)))
    return 2.0 / omega * phi * cdf


def _erf_vec(x):
    return np.vectorize(math.erf)(x)


def fit_skew_normal(positions, masses):
    """Moment-matched (xi, omega, alpha) for weighted points, or None.

    Returns None when the fit is under-determined: zero total mass or zero
    spread. Skewness is clipped to the representable range of the family.
    """
    x = np.asarray(positions, dtype=np.float64)
    w = np.asarray(masses, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        return None
    mean = (w * x).sum() / total
    m2 = (w * (x - mean) ** 2).sum() / total
    if m2 <= 1e-12:
        return None
    m3 = (w * (x - mean) ** 3).sum() / total
    g1 = m3 / m2 ** 1.5
    g1 = float(np.clip(g1, -0.99, 0.99))
    # invert the skewness relation: g1 -> delta
    t = math.copysign(abs(2 * g1 / (4 - math.pi)) ** (1 / 3), g1)
    u = t / math.sqrt(1 + t * t)          # u = delta * sqrt(2/pi)
    delta = u * math.sqrt(math.pi / 2)
    delta = max(-0.999, min(0.999, delta))
    omega = math.sqrt(m2 / (1 - 2 * delta * delta / math.pi))
    xi = mean - omega * delta * math.sqrt(2 / math.pi)
    alpha = delta / math.sqrt(1 - delta * delta)
    return xi, omega, alpha


def date_weights(cluster: cp.Cluster, gold_for_fit: dict | None = None) -> np.ndarray:
    """Per-token weights from a recency curve over dated documents.

    Each dated document's information content is the number of correct
    values it mentions; a skew-normal curve is fit over publication order
    and its density, min-max normalized to [0,1], becomes the document
    weight. Documents without datelines, and all documents when the fit is
    under-determined (fewer than 3 dated documents, no gold, flat curve),
    keep weight 1.0. Prediction passes no gold, so there every document
    keeps weight 1.0.
    """
    correct = {v for vals in (gold_for_fit or {}).values() for v in vals}
    doc_w = np.ones(len(cluster.documents))
    dated = [i for i, d in enumerate(cluster.documents) if d.dateline]
    if len(dated) >= 3 and correct:
        pos = np.array([cluster.documents[i].order_index for i in dated], dtype=np.float64)
        ic = np.array([len({m.value_id for m in cluster.documents[i].mentions} & correct)
                       for i in dated], dtype=np.float64)
        fit = None if np.ptp(ic) == 0 else fit_skew_normal(pos, ic)
        if fit is not None:
            dens = skew_normal_pdf(pos, *fit)
            span = dens.max() - dens.min()
            if span > 1e-12:
                doc_w[dated] = (dens - dens.min()) / span
    counts = _doc_token_counts(cluster)
    return np.repeat(doc_w, counts) if counts else np.zeros(0)


def weights_for(cluster: cp.Cluster, source: str, gold_for_fit: dict | None = None) -> np.ndarray:
    if source == "unit":
        return np.ones(sum(_doc_token_counts(cluster)))
    if source == "topic":
        return topic_weights(cluster)
    if source == "date":
        return date_weights(cluster, gold_for_fit)
    raise AggregationError(f"unknown weight source {source!r}")


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
