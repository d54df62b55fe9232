"""Machine reading for noisy news clusters.

Pipeline: encode every token of a cluster with a small CNN, score tokens
against each slot with attention, aggregate mention-level scores into
value-level scores (with optional topicality weighting and a null-value
mass), and optionally sharpen the per-slot decisions with factor-graph
belief propagation: each slot takes exactly one value, each value fills at
most one slot.
"""

__version__ = "0.1.0"
