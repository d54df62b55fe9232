"""Token representations: frozen word embeddings + a two-layer CNN.

Every token in a cluster gets an embedding row (mentions are masked with one
shared trainable vector so the reader sees only context), then a two-layer
same-padded convolution runs over each document separately and the outputs
are concatenated in cluster order into the representation matrix R.
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
    """Two CNN layers per document, rectifier between them, dropout on each.

    doc_lengths gives the per-document row counts so no filter window spans
    a document boundary. Output is n x r in the original row order.
    """
    if sum(doc_lengths) != embedded.shape[0]:
        raise C.ComputeError(f"doc lengths {sum(doc_lengths)} != embedded rows {embedded.shape[0]}")
    blocks = []
    at = 0
    for length in doc_lengths:
        if length == 0:
            continue
        x = C.rows_slice(embedded, at, at + length)
        h = C.conv1d(x, params.w1, params.b1)
        h = C.relu(h)
        h = C.dropout(h, keep_prob, training, rng)
        h = C.conv1d(h, params.w2, params.b2)
        h = C.dropout(h, keep_prob, training, rng)
        blocks.append(h)
        at += length
    if not blocks:
        return C.Tensor(np.zeros((0, params.out_dim)))
    return C.concat_rows(blocks)
