"""Slot attention over token representations.

Each slot has a trainable embedding; its dot products with every token row
give scores that a softmax turns into an attention distribution over the
whole cluster. All slots are scored at once: row s of the S x n score and
attention matrices belongs to slot s. A mention's score is the attention
mass at its first token, and mass on non-mention tokens is what the
aggregator later reads as evidence for the null value.
"""

from __future__ import annotations

import numpy as np

from . import compute as C

# pseudo-slot used by the mention-classification baseline for "no slot"
NULL_SLOT = "null"


def init_slot_embeddings(slots, r: int, rng: np.random.Generator,
                         include_null_slot: bool = False) -> dict[str, C.Tensor]:
    names = list(slots) + ([NULL_SLOT] if include_null_slot else [])
    return {s: C.Tensor(rng.uniform(-0.05, 0.05, size=r)) for s in names}


def slot_params(pi: dict[str, C.Tensor]) -> dict[str, C.Tensor]:
    return {f"slot.{s}": t for s, t in pi.items()}


def score_tokens(R: C.Tensor, pis: list) -> C.Tensor:
    """S x n raw scores as one graph node; row s is u^s = R pi_s.

    Each row is its own matrix-vector product (one S x r product would round
    differently), and the backward adds R's per-slot outer products in slot
    order before R accumulates them once.
    """
    for pi_s in pis:
        if R.shape[1] != pi_s.shape[0]:
            raise C.ComputeError(f"representation dim {R.shape[1]} != slot dim {pi_s.shape[0]}")

    def backward(g):
        dR = np.zeros_like(R.data)
        for g_s, pi_s in zip(g, pis):
            dR += g_s[:, None] * pi_s.data
            pi_s.accumulate(R.data.T @ g_s)
        R.accumulate(dR)

    return C.node(np.stack([R.data @ pi_s.data for pi_s in pis]), (R, *pis), backward)


def attend(U: C.Tensor) -> C.Tensor:
    """Each slot's attention over all cluster tokens, mentions and plain words alike."""
    return C.softmax(U)
