"""Hypothesis fuzz of the inputs besides the corpus: a `predict` output
file, a checkpoint and an embedding table. A mutated copy of a real file must
load or raise the loader's documented error; anything else would exit 1
with a traceback."""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterreader import cli
from clusterreader import compute as C
from clusterreader import corpus as cp
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


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


_NOT_A_FLOAT = st.text(st.characters(min_codepoint=33, max_codepoint=126),
                       max_size=6).filter(lambda t: not _parses(t))
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-1e999"])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_malformed_embedding_tables_exit_3_naming_the_file(tmp_path_factory, data):
    # a well-formed table of at least two rows with one value unparsable,
    # non-finite, dropped or added
    base = tmp_path_factory.getbasetemp()
    corpus = base / "fuzz-emb-corpus.ndjson"
    if not corpus.exists():
        cp.save_clusters(corpus, _CLUSTERS)
    dim = data.draw(st.integers(1, 4), label="dim")
    n = data.draw(st.integers(2, 5), label="rows")
    rows = [[repr(v) for v in data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim,
                                                 max_size=dim), label="row")]
            for _ in range(n)]
    i, j = data.draw(st.integers(0, n - 1), label="line"), data.draw(st.integers(0, dim - 1))
    fault = data.draw(st.sampled_from(["text", "non-finite", "drop", "add"]), label="fault")
    if fault == "text":
        rows[i][j] = data.draw(_NOT_A_FLOAT)
    elif fault == "non-finite":
        rows[i][j] = data.draw(_NON_FINITE)
    elif fault == "drop":
        del rows[i][j]
    else:
        rows[i].append("0.5")
    path = base / "fuzz-emb.txt"
    path.write_text("".join(f"w{k} {' '.join(r)}\n" for k, r in enumerate(rows)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["train", "--corpus", str(corpus), "--embeddings", str(path),
                        "--checkpoint", str(base / "fuzz-emb.ckpt"), "--set", "max_epochs=0"])
    assert code == 3
    assert str(path) in err.getvalue().strip().splitlines()[-1]
