"""Token representations: frozen word embeddings + a two-layer CNN.

Every token in a cluster reads an embedding row (mentions are masked with
one shared trainable vector so the reader sees only context), then a
two-layer same-padded convolution runs over the cluster's n tokens, with
each document a block of tokens that no filter window crosses; the result is
the representation matrix R in cluster order.

Training and prediction run the same encode. Each layer is one
compute.window_conv over an index of every token's same-padded window.
Layer 1 reads the cluster's u distinct embedding rows, so its projection
costs u x e x width1 x d1 multiply-adds rather than n x e x width1 x d1 and
no n x width1 x e window tensor is copied; gradients reach w1, b1 and,
through the one mask row, the mask vector. Layer 2 reads the n rectified
layer-1 rows.
"""

from __future__ import annotations

import math
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


def load_embeddings(path) -> EmbeddingTable:
    """Read a text table, one `token v1 v2 ... ve` line per word."""
    vocab: dict[str, int] = {}
    rows = []
    dim = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise C.ComputeError(f"{path}: line {lineno}: not UTF-8") from None
            parts = line.rstrip("\r\n").split(" ")
            if len(parts) < 2:
                continue
            token, vals = parts[0], parts[1:]
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise C.ComputeError(f"{path}: line {lineno}: expected {dim} values, got {len(vals)}")
            try:
                row = [float(v) for v in vals]
            except ValueError as exc:
                raise C.ComputeError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise C.ComputeError(f"{path}: line {lineno}: non-finite value")
            if token in vocab:
                continue
            vocab[token] = len(rows)
            rows.append(row)
    if not rows:
        raise C.ComputeError(f"{path}: no embedding rows")
    matrix = np.asarray(rows, dtype=np.float64)
    with np.errstate(over="ignore"):
        mean = matrix.mean(axis=0)
    if not np.isfinite(mean).all():
        raise C.ComputeError(f"{path}: the column mean of the embedding rows overflows")
    return EmbeddingTable(vocab=vocab, matrix=matrix, mask_vector=C.Tensor(mean.copy()),
                          unk_vector=mean)


def random_table(tokens, dim: int, rng: np.random.Generator) -> EmbeddingTable:
    """Random frozen table for experiments without pretrained vectors."""
    vocab = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    matrix = rng.normal(scale=0.5, size=(max(len(vocab), 1), dim))
    return EmbeddingTable(vocab=vocab, matrix=matrix,
                          mask_vector=C.Tensor(rng.normal(scale=0.5, size=dim)),
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
        return C.Tensor(rng.uniform(-0.05, 0.05, size=shape))

    return EncoderParams(w1=u(width1, embed_dim, d1),
                         b1=C.Tensor(np.zeros(d1)),
                         w2=u(width2, d1, r),
                         b2=C.Tensor(np.zeros(r)))


def embed_cluster(tokens, mask_rows, table: EmbeddingTable) -> C.Tensor:
    """One embedding row per token; the rows listed in mask_rows share
    mask_vector.

    One gather of vocabulary rows; tokens outside the vocabulary (id -1) get
    unk_vector.
    """
    ids = np.fromiter((table.vocab.get(tok, -1) for tok in tokens),
                      dtype=np.intp, count=len(tokens))
    base = table.matrix[ids]
    base[ids < 0] = table.unk_vector
    return C.compose_embedding(base, table.mask_vector, np.asarray(sorted(mask_rows), dtype=np.intp))


def _windows(lengths: np.ndarray, width: int, rows: np.ndarray, pad: int) -> np.ndarray:
    """n x width: row t, column k holds rows[t + k - width//2], or pad where
    that position falls outside t's document.

    That is same padding, width//2 pads on the left and the rest on the
    right. The documents lie end to end in one padded sequence, each with
    width//2 pad entries before it and the rest of width - 1 after, so token
    t of document j sits at t + j * (width - 1) + width//2 and its window
    starts width//2 earlier.
    """
    doc = np.repeat(np.arange(lengths.size), lengths)
    at = np.arange(doc.size) + doc * (width - 1)
    padded = np.full(doc.size + lengths.size * (width - 1), pad)
    padded[at + width // 2] = rows
    return padded[at[:, None] + np.arange(width)]


def dropout_uniforms(rng: np.random.Generator, lengths: np.ndarray, widths) -> tuple:
    """Both layers' dropout uniforms, n x widths[0] and n x widths[1]: for
    each document in turn, a k x widths[0] block and then a k x widths[1]
    block, k its length.

    They come from one draw cut into those blocks. PCG64 spends one 64-bit
    output per double, so the draw holds exactly the uniforms the blocks'
    own draws, one per document and layer, would give.
    """
    sizes = np.outer(lengths, widths).ravel()          # document by document, layer by layer
    first = np.repeat([True, False] * lengths.size, sizes)
    draw = rng.random(first.size)
    return draw[first].reshape(-1, widths[0]), draw[~first].reshape(-1, widths[1])


def encode(embedded: C.Tensor, doc_lengths, params: EncoderParams, keep_prob: float = 1.0,
           rng: np.random.Generator | None = None, rows=None) -> C.Tensor:
    """Two CNN layers over a cluster's tokens, rectifier between them.

    Dropout follows each layer exactly when an rng is given, as in training;
    without one (prediction, gradient checks) both layers pass through.

    embedded holds m embedding rows and token t reads row rows[t] (default:
    row t, one row per token). doc_lengths gives the per-document token
    counts: each document is a block of tokens padded on its own, so no
    filter window spans a document boundary. Output is n x r in token order.
    Dropout uniforms are drawn document by document, the first layer's before
    the second's, so a seeded run draws each mask in document order
    (dropout_uniforms).
    """
    m = embedded.shape[0]
    rows = np.arange(m) if rows is None else np.asarray(rows, dtype=np.intp)
    lengths = np.asarray(doc_lengths, dtype=np.intp)
    n = rows.size
    if np.any(lengths < 0) or lengths.sum() != n:
        raise C.ComputeError(f"block lengths {list(doc_lengths)} do not cover {n} entries")
    u1 = u2 = None
    if rng is not None and keep_prob < 1.0 and n:
        u1, u2 = dropout_uniforms(rng, lengths, (params.w1.shape[2], params.out_dim))
    window1 = _windows(lengths, params.w1.shape[0], rows, m)
    h = C.relu(C.window_conv(embedded, params.w1, params.b1, window1))
    h = C.dropout(h, keep_prob, u1)
    window2 = _windows(lengths, params.w2.shape[0], np.arange(n), n)
    h = C.window_conv(h, params.w2, params.b2, window2)
    return C.dropout(h, keep_prob, u2)
