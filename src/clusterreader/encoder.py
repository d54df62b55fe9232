"""Token representations: frozen word embeddings + a two-layer CNN.

Every token in a cluster gets an embedding row (mentions are masked with one
shared trainable vector so the reader sees only context), then a two-layer
same-padded convolution runs over the whole n x e matrix, with each
document a block of rows that no filter window crosses; the result is the
representation matrix R in cluster order.

Training runs layer 1 as conv1d, so gradients reach w1, b1 and the mask
vector. Prediction holds those fixed, so it reads layer 1 from a projection
instead: each of the cluster's u distinct embedding rows times each filter
offset of w1, gathered and summed along each token's window. That costs
u x e x width x d1 multiply-adds rather than n x e x width x d1, and copies
no n x width x e window tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import compute as C


@dataclass
class EmbeddingTable:
    """Pretrained lookup table; rows are frozen, the mask vector trains."""

    vocab: dict            # token -> row index
    matrix: np.ndarray     # |vocab| x e, never updated
    mask_vector: C.Tensor  # shared replacement row for mention tokens
    unk_vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row(self, token: str) -> np.ndarray:
        i = self.vocab.get(token)
        return self.unk_vector if i is None else self.matrix[i]


def load_embeddings(path) -> EmbeddingTable:
    """Read a text table, one `token v1 v2 ... ve` line per word."""
    vocab: dict[str, int] = {}
    rows = []
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            token, vals = parts[0], parts[1:]
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise C.ComputeError(f"{path}: line {lineno}: expected {dim} values, got {len(vals)}")
            if token in vocab:
                continue
            vocab[token] = len(rows)
            rows.append([float(v) for v in vals])
    if not rows:
        raise C.ComputeError(f"{path}: no embedding rows")
    matrix = np.asarray(rows, dtype=np.float64)
    return EmbeddingTable(vocab=vocab, matrix=matrix,
                          mask_vector=C.Tensor(matrix.mean(axis=0), requires_grad=True),
                          unk_vector=matrix.mean(axis=0))


def random_table(tokens, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Random frozen table for experiments without pretrained vectors."""
    vocab = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    matrix = rng.normal(scale=0.5, size=(max(len(vocab), 1), dim))
    return EmbeddingTable(vocab=vocab, matrix=matrix,
                          mask_vector=C.Tensor(rng.normal(scale=0.5, size=dim), requires_grad=True),
                          unk_vector=matrix.mean(axis=0))


@dataclass
class EncoderParams:
    w1: C.Tensor  # width1 x e x d1
    b1: C.Tensor
    w2: C.Tensor  # width2 x d1 x r
    b2: C.Tensor

    def as_dict(self) -> dict:
        return {"enc.w1": self.w1, "enc.b1": self.b1, "enc.w2": self.w2, "enc.b2": self.b2}

    @property
    def out_dim(self) -> int:
        return self.w2.shape[2]


def init_encoder(embed_dim: int, rng: np.random.Generator,
                 width1: int = 10, d1: int = 10, width2: int = 5, r: int = 10) -> EncoderParams:
    def u(*shape):
        return C.Tensor(rng.uniform(-0.05, 0.05, size=shape), requires_grad=True)

    return EncoderParams(w1=u(width1, embed_dim, d1),
                         b1=C.Tensor(np.zeros(d1), requires_grad=True),
                         w2=u(width2, d1, r),
                         b2=C.Tensor(np.zeros(r), requires_grad=True))


def embed_cluster(flat_tokens, mention_token_indices, table: EmbeddingTable) -> C.Tensor:
    """n x e embedding matrix; rows inside mention spans share mask_vector.

    One gather of vocabulary rows; tokens outside the vocabulary (id -1) get
    unk_vector, as table.row gives them.
    """
    ids = np.fromiter((table.vocab.get(tok, -1) for tok in flat_tokens),
                      dtype=np.intp, count=len(flat_tokens))
    base = table.matrix[ids]
    base[ids < 0] = table.unk_vector
    return C.compose_embedding(base, table.mask_vector, np.asarray(sorted(mention_token_indices), dtype=np.intp))


def _projected_layer1(distinct: np.ndarray, rows, doc_lengths, w1: np.ndarray,
                      b1: np.ndarray) -> np.ndarray:
    """Layer 1 of encode before its rectifier, read from a projection.

    distinct holds u embedding rows and token t reads row rows[t]. The
    projection P[k, j] = distinct[j] . w1[k] covers every filter offset k and
    every row j, plus a zero row j = u. Token t gets b1 plus the sum over k of
    P[k, rows[t + k - width//2]], where a position outside t's document reads
    the zero row: conv1d's same padding, summed in another order.
    """
    width, e, d1 = w1.shape
    rows = np.asarray(rows, dtype=np.intp)
    lengths = np.asarray(doc_lengths, dtype=np.intp)
    if lengths.sum() != rows.size:
        raise C.ComputeError(f"block lengths {list(doc_lengths)} do not cover {rows.size} entries")
    zero = len(distinct)
    proj = np.vstack([distinct, np.zeros(e)]) @ w1     # width x (u + 1) x d1
    stop = np.repeat(np.cumsum(lengths), lengths)
    start = stop - np.repeat(lengths, lengths)
    src = np.arange(rows.size)[:, None] + np.arange(width) - width // 2
    inside = (src >= start[:, None]) & (src < stop[:, None])
    window = np.where(inside, rows[np.clip(src, 0, max(rows.size - 1, 0))], zero)
    picked = np.take(proj.reshape(-1, d1), window + (zero + 1) * np.arange(width), axis=0)
    return np.einsum("nkd->nd", picked) + b1


def encode(embedded: C.Tensor, doc_lengths, params: EncoderParams,
           training: bool = False, keep_prob: float = 1.0,
           rng: np.random.Generator | None = None, rows=None) -> C.Tensor:
    """Two CNN layers over the n x e matrix, rectifier between them, dropout
    on each.

    doc_lengths gives the per-document row counts: each document is a block
    of rows that the convolutions pad on their own, so no filter window spans
    a document boundary. Output is n x r in the original row order. Dropout
    uniforms are drawn document by document, the first layer's before the
    second's, so a seeded run draws each mask in document order.

    rows is for prediction only: embedded then holds the cluster's distinct
    embedding rows, token t reads row rows[t], and layer 1 comes from
    _projected_layer1 with no gradient into w1, b1 or the embeddings. It equals
    the conv1d path up to rounding.
    """
    if rows is not None:
        if training:
            raise C.ComputeError("the projected layer 1 is for prediction only, not training")
        h = C.relu(_projected_layer1(embedded.data, rows, doc_lengths,
                                     params.w1.data, params.b1.data))
        return C.conv1d(h, params.w2, params.b2, doc_lengths)
    u1 = u2 = None
    if training and keep_prob < 1.0 and embedded.shape[0]:
        if rng is None:
            raise C.ComputeError("dropout in training mode needs an rng")
        widths = (params.w1.shape[2], params.out_dim)
        draws = [rng.random((k, d)) for k in doc_lengths for d in widths]
        u1, u2 = np.concatenate(draws[0::2]), np.concatenate(draws[1::2])
    h = C.relu(C.conv1d(embedded, params.w1, params.b1, doc_lengths))
    h = C.dropout(h, keep_prob, u1)
    h = C.conv1d(h, params.w2, params.b2, doc_lengths)
    return C.dropout(h, keep_prob, u2)
