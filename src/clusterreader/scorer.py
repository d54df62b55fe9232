"""Slot attention over token representations.

Each slot has a trainable embedding; its dot products with every token row
give scores that a softmax turns into an attention distribution over the
whole cluster. All slots are scored at once: row s of the S x n score and
attention matrices belongs to slot s. A mention's score is the attention
mass at its first token, and mass on non-mention tokens is what the
aggregator later reads as evidence for the null value.
"""

from __future__ import annotations

import csv

import numpy as np

from . import compute as C

# pseudo-slot used by the mention-classification baseline for "no slot"
NULL_SLOT = "null"


def init_slot_embeddings(slots, r: int, rng: np.random.Generator,
                         include_null_slot: bool = False) -> dict[str, C.Tensor]:
    names = list(slots) + ([NULL_SLOT] if include_null_slot else [])
    return {s: C.Tensor(rng.uniform(-0.05, 0.05, size=r), requires_grad=True)
            for s in names}


def slot_params(pi: dict[str, C.Tensor]) -> dict[str, C.Tensor]:
    return {f"slot.{s}": t for s, t in pi.items()}


def score_tokens(R: C.Tensor, pis: list) -> C.Tensor:
    """S x n raw scores; row s is u^s = R pi_s."""
    for pi_s in pis:
        if R.shape[1] != pi_s.shape[0]:
            raise C.ComputeError(f"representation dim {R.shape[1]} != slot dim {pi_s.shape[0]}")
    return C.stack([C.matmul(R, pi_s) for pi_s in pis])


def attend(U: C.Tensor) -> C.Tensor:
    """Each slot's attention over all cluster tokens, mentions and plain words alike."""
    return C.softmax(U)


def write_attention_csv(path, tokens, attention: dict[str, np.ndarray]):
    """Debug dump: token_index,token,one column per slot."""
    slots = sorted(attention)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token_index", "token"] + slots)
        for i, tok in enumerate(tokens):
            writer.writerow([i, tok] + [f"{attention[s][i]:.6g}" for s in slots])
