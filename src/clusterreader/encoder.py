"""Token representations: frozen word embeddings + a two-layer CNN.

Every token in a cluster gets an embedding row (mentions are masked with one
shared trainable vector so the reader sees only context), then a two-layer
same-padded convolution runs over the whole n x e matrix, with each
document a block of rows that no filter window crosses; the result is the
representation matrix R in cluster order.
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


def encode(embedded: C.Tensor, doc_lengths, params: EncoderParams,
           training: bool = False, keep_prob: float = 1.0,
           rng: np.random.Generator | None = None) -> C.Tensor:
    """Two CNN layers over the n x e matrix, rectifier between them, dropout
    on each.

    doc_lengths gives the per-document row counts: each document is a block
    of rows that the convolutions pad on their own, so no filter window spans
    a document boundary. Output is n x r in the original row order. Dropout
    uniforms are drawn document by document, the first layer's before the
    second's, so a seeded run draws each mask in document order.
    """
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
