"""Hypothesis fuzz of the JSON inputs besides the corpus: a `predict` output
file and a checkpoint. A mutated copy of a real file must load or raise the
loader's documented error; anything else would exit 1 with a traceback."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterreader import compute as C
from clusterreader import evaluation as ev
from clusterreader import model as M
from clusterreader import synth as sy
from clusterreader import training as T
from test_corpus import _JSON, _paths

_CLUSTERS, _ = sy.generate(sy.SynthConfig(n_clusters=2, docs_min=2, docs_max=3, seed=9,
                                          split="test"))
_HP = T.Hyperparams(embed_dim=4, width1=3, width2=2, d1=3, r=3, seed=5)
_MODEL = M.init_model([t for c in _CLUSTERS for d in c.documents for t in d.flat_tokens()],
                      _HP, np.random.default_rng(5))
_INSTANCES = [ev.instance_from_cluster(c) for c in _CLUSTERS]
_RECORDS = json.loads(json.dumps(M.predict_clusters(_MODEL, _CLUSTERS, _HP.aggregation)))


def _mutate(data, doc):
    """doc with one to three of its fields deleted or replaced by any JSON."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths), label="path")
        owner = doc
        for key in head:
            owner = owner[key]
        if data.draw(st.booleans(), label="delete"):
            del owner[last]
        else:
            owner[last] = data.draw(_JSON, label="value")
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_predictions_raise_only_evaluation_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-pred.json"
    path.write_text(json.dumps(_mutate(data, _RECORDS)))
    try:
        predictions, rankings = ev.load_predictions(path)
        ev.evaluate(_INSTANCES, predictions, rankings)
    except ev.EvaluationError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_checkpoints_raise_only_compute_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    T.save_model(path, _MODEL, _HP)
    magic, body = path.read_text().split("\n", 1)
    path.write_text(magic + "\n" + json.dumps(_mutate(data, json.loads(body))))
    try:
        T.load_model(path)
    except C.ComputeError:
        pass
