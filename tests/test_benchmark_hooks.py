"""The names the benchmark hooks must exist in the program.

perfbench wraps clusterreader's functions by "module:qualname" from outside
(perfbench/spans.py's LAYERS, plus the counter hooks perfbench/run.py
installs). A renamed or deleted target makes the benchmark silently record
nothing for it, so a change that drops one fails here, in tier 1, first.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# what run.py hooks for its step clock, output checks and counters
COUNTER_HOOKS = ["compute:adam_step", "compute:backward", "training:cluster_loss",
                 "constraints:run_bp_tensor", "constraints:bp_iterate"]

# deleted from the program, still listed by the benchmark; CHANGES.md has a
# FOUND line for each ("perfbench/spans.py still wraps ..." and "traced
# perfbench runs read constraints.dup_slots_before as 0")
KNOWN_STALE = {"model:float_table", "aggregator:group_mention_scores", "aggregator:null_score",
               "constraints:build_graph", "constraints:beliefs_as_table"}


def _span_targets() -> list:
    layers = runpy.run_path(str(SPANS))["LAYERS"]   # read from source, nothing written
    return [target for targets in layers.values() for target in targets]


def _resolves(target: str) -> bool:
    """Whether the target exists where spans.Tracer.install looks it up."""
    modname, qualname = target.split(":")
    owner = importlib.import_module(f"clusterreader.{modname}")
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner is not None and vars(owner).get(name) is not None


@pytest.mark.parametrize("target", sorted(set(_span_targets() + COUNTER_HOOKS) - KNOWN_STALE))
def test_benchmark_target_exists(target):
    assert _resolves(target), f"{target} is hooked by perfbench but absent from src/"


def test_known_stale_targets_are_only_those_the_benchmark_lists():
    assert KNOWN_STALE <= set(_span_targets())
