"""The names the benchmark hooks must exist in the program, and what its
hooks read from them.

perfbench wraps clusterreader's functions by "module:qualname" from outside
(perfbench/spans.py's LAYERS, plus the counter hooks perfbench/run.py
installs). A renamed or deleted target makes the benchmark silently record
nothing for it, so a change that drops one fails here, in tier 1, first. A
hook also reads the arguments and results of its target (the cluster of a
loss call, the loss backward gets, the beliefs BP returns), so a changed
signature fails here too.
"""

import importlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from clusterreader import compute as C
from clusterreader import constraints as K
from clusterreader import corpus as cp
from clusterreader import model as M
from clusterreader import synth as sy
from clusterreader import training as T

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


def _hook(monkeypatch, target: str) -> list:
    """Wrap target as spans.Tracer.install does, in every clusterreader module
    that holds the function; returns the (positional args, result) calls."""
    modname, name = target.split(":")
    raw = getattr(importlib.import_module(f"clusterreader.{modname}"), name)
    calls = []

    def wrapper(*args, **kwargs):
        result = raw(*args, **kwargs)
        calls.append((args, result))
        return result

    for modname_, module in list(sys.modules.items()):
        if modname_ == "clusterreader" or modname_.startswith("clusterreader."):
            for key, value in list(vars(module).items()):
                if value is raw:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


_CLUSTERS, _ = sy.generate(sy.SynthConfig(n_clusters=3, docs_min=2, docs_max=3, seed=4,
                                          misinformation_rate=0.3, offtopic_rate=0.3))


@pytest.mark.parametrize("bp_train_iters", [0, 2])
def test_training_hooks_read_what_they_expect(monkeypatch, bp_train_iters):
    # run.py's train hooks: the step clock after adam_step, the cluster id
    # from cluster_loss's second argument and its loss's item(), the graph
    # size from backward's first argument, the beliefs run_bp_tensor returns,
    # and one bp_iterate call per round it runs
    calls = {t: _hook(monkeypatch, t) for t in ("compute:adam_step", "compute:backward",
                                                "training:cluster_loss",
                                                "constraints:run_bp_tensor",
                                                "constraints:bp_iterate")}
    hp = T.Hyperparams(embed_dim=8, width1=3, width2=2, d1=4, r=4, max_epochs=1,
                       bp_train_iters=bp_train_iters)
    T.train(_CLUSTERS, [], hp)
    losses = calls["training:cluster_loss"]
    assert all(isinstance(args[1], cp.Cluster) and isinstance(loss, C.Tensor)
               for args, loss in losses)
    assert sorted(args[1].cluster_id for args, _ in losses) == sorted(c.cluster_id
                                                                     for c in _CLUSTERS)
    backward = calls["compute:backward"]
    assert [args[0] for args, _ in backward] == [loss for _, loss in losses]
    assert all(isinstance(args[0], C.Tensor) and args[0].data.ndim == 0
               for args, _ in backward)
    assert len(calls["compute:adam_step"]) == len(backward) == len(_CLUSTERS)   # one per step
    beliefs = [result for _, result in calls["constraints:run_bp_tensor"]]
    assert len(beliefs) == (len(_CLUSTERS) if bp_train_iters else 0)
    assert all(isinstance(b, C.Tensor) and np.all((b.data >= 0) & (b.data <= 1))
               for b in beliefs)
    rounds = [args[0].iteration for args, _ in calls["constraints:bp_iterate"]]
    assert rounds == list(range(bp_train_iters)) * len(beliefs)


def test_prediction_hooks_read_what_they_expect(monkeypatch):
    # run.py's predict hooks: one count per bp_iterate round, exactly as many
    # as the converged schedule yields, and records it checks for every
    # scoring slot and beliefs in [0, 1]
    hp = T.Hyperparams(embed_dim=8, width1=3, width2=2, d1=4, r=4)
    vocab = [t for c in _CLUSTERS for d in c.documents for t in d.flat_tokens()]
    model = M.init_model(vocab, hp, np.random.default_rng(3))
    index = M.ClusterIndex.build(_CLUSTERS[0])
    values, scores = M.prediction_scores(model, index, hp.aggregation)
    graph = M.prediction_graph(model, index, hp.aggregation, values, scores)
    n_rounds = len(list(K.rounds(graph, K.CONVERGENCE))) - 1
    rounds = _hook(monkeypatch, "constraints:bp_iterate")
    record = M.predict_clusters(model, _CLUSTERS[:1], hp.aggregation,
                                bp_iterations=K.CONVERGENCE)[0]
    assert n_rounds > 1
    assert all(isinstance(args[0], K.MessageState) for args, _ in rounds)
    assert [args[0].iteration for args, _ in rounds] == list(range(n_rounds))
    assert set(record["predictions"]) == set(model.scoring_slots())
    assert all(0.0 <= v <= 1.0 for vals in record["scores"].values() for v in vals.values())


def test_training_builds_one_cluster_index_per_step(monkeypatch):
    """perfbench counts model.index calls only inside training steps, each
    ended by adam_step, and a traced train-sum run fails when a layer it
    requires records no calls. A train call keeps one plan per cluster, so
    it builds each cluster's ClusterIndex once: lazily, inside that
    cluster's first step and before its adam_step. Every call's first epoch
    thus records model.index inside its steps, and later epochs build none."""
    raw_build = vars(M.ClusterIndex)["build"].__func__
    raw_loss, raw_step = T.cluster_loss, C.adam_step
    events = []

    def build(cls, cluster):
        events.append(("index", cluster.cluster_id))
        return raw_build(cls, cluster)

    def loss(model, cluster, *args, **kwargs):
        events.append(("loss", cluster.cluster_id))
        return raw_loss(model, cluster, *args, **kwargs)

    def step(*args, **kwargs):
        events.append(("step",))
        return raw_step(*args, **kwargs)

    monkeypatch.setattr(M.ClusterIndex, "build", classmethod(build))
    monkeypatch.setattr(T, "cluster_loss", loss)
    monkeypatch.setattr(C, "adam_step", step)
    epochs = 3
    hp = T.Hyperparams(embed_dim=8, width1=3, width2=2, d1=4, r=4, max_epochs=epochs)
    for _ in range(2):      # plans last one call: the next builds its own
        events.clear()
        T.train(_CLUSTERS, [], hp)
        steps, step = [], []
        for event in events:
            step.append(event)
            if event == ("step",):
                steps.append(step)
                step = []
        assert step == [] and len(steps) == epochs * len(_CLUSTERS)
        seen = set()
        for step in steps:
            cluster_id = next(e[1] for e in step if e[0] == "loss")
            built = [e for e in step if e[0] == "index"]
            assert built == ([] if cluster_id in seen else [("index", cluster_id)])
            seen.add(cluster_id)
        assert seen == {c.cluster_id for c in _CLUSTERS}
