"""End-to-end checks of the command-line pipeline and its exit codes."""

import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clusterreader import cli
from clusterreader import constraints as K
from clusterreader import corpus as cp
from clusterreader import model as M
from clusterreader import training as T
from clusterreader.aggregator import NULL_VALUE
from clusterreader.compute import load_checkpoint
from clusterreader.training import TrainingError
from test_training import quiet_cluster

TINY = ["--set", "embed_dim=12", "--set", "width1=3", "--set", "width2=2",
        "--set", "d1=4", "--set", "r=4", "--set", "max_epochs=2"]
# long enough that --bp 0 predicts values
VALUE_RECIPE = ["--set", "embed_dim=16", "--set", "width1=3", "--set", "width2=3",
                "--set", "d1=8", "--set", "r=8", "--set", "max_epochs=15"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> train -> predict run shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    train = str(root / "train.ndjson")
    test = str(root / "test.ndjson")
    ckpt = str(root / "model.json")
    pred = str(root / "pred.json")
    assert cli.run(["synth", "--out", train, "--clusters", "4", "--docs-min", "3",
                    "--docs-max", "4", "--missing", "0.3", "--seed", "5"]) == 0
    assert cli.run(["synth", "--out", test, "--clusters", "3", "--docs-min", "3",
                    "--docs-max", "4", "--missing", "0.3", "--seed", "6",
                    "--split", "test"]) == 0
    assert cli.run(["train", "--corpus", train, "--checkpoint", ckpt,
                    "--aggregation", "sum"] + TINY) == 0
    assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", test,
                    "--out", pred]) == 0
    return {"root": root, "train": train, "test": test, "ckpt": ckpt, "pred": pred}


# ---------------------------------------------------------------------------
# exit codes


def test_missing_checkpoint_exits_2(pipeline, tmp_path):
    code = cli.run(["predict", "--checkpoint", str(tmp_path / "nope.json"),
                    "--corpus", pipeline["test"], "--out", str(tmp_path / "p.json")])
    assert code == 2


def test_missing_corpus_exits_2(tmp_path):
    code = cli.run(["train", "--corpus", str(tmp_path / "nope.ndjson"),
                    "--checkpoint", str(tmp_path / "m.json")])
    assert code == 2


@pytest.mark.parametrize("command,flag", [
    ("predict", "--checkpoint"), ("predict", "--corpus"), ("eval", "--pred"), ("eval", "--gold")])
def test_directory_as_input_exits_2(pipeline, tmp_path, capsys, command, flag):
    args = {"predict": {"--checkpoint": pipeline["ckpt"], "--corpus": pipeline["test"],
                        "--out": str(tmp_path / "p.json")},
            "eval": {"--pred": pipeline["pred"], "--gold": pipeline["test"]}}[command]
    args[flag] = str(tmp_path)
    code = cli.run([command] + [x for pair in args.items() for x in pair])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("[clusterreader] missing or unreadable file")


def test_unknown_setting_exits_3(pipeline, tmp_path):
    code = cli.run(["train", "--corpus", pipeline["train"],
                    "--checkpoint", str(tmp_path / "m.json"), "--set", "nonsense=1"])
    assert code == 3


def test_max_pooling_setting_exits_3(pipeline, tmp_path, capsys):
    code = cli.run(["train", "--corpus", pipeline["train"],
                    "--checkpoint", str(tmp_path / "m.json"), "--set", "max_pooling=true"])
    assert code == 3
    assert "unknown hyperparameter 'max_pooling'" in capsys.readouterr().err


def test_malformed_set_exits_3(pipeline, tmp_path):
    code = cli.run(["train", "--corpus", pipeline["train"],
                    "--checkpoint", str(tmp_path / "m.json"), "--set", "lr:0.5"])
    assert code == 3


def test_bad_bp_argument_exits_3(pipeline, tmp_path):
    code = cli.run(["predict", "--checkpoint", pipeline["ckpt"],
                    "--corpus", pipeline["test"], "--out", str(tmp_path / "p.json"),
                    "--bp", "wat"])
    assert code == 3


def test_synth_validation_exits_3(tmp_path):
    code = cli.run(["synth", "--out", str(tmp_path / "x.ndjson"), "--missing", "1.5"])
    assert code == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_4(pipeline, tmp_path, capsys):
    code = cli.run(["train", "--corpus", pipeline["train"],
                    "--checkpoint", str(tmp_path / "m.json"),
                    "--set", "lr=1e200", "--set", "max_epochs=2"] + TINY[:-2])
    assert code == 4
    assert "diverged" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_first_seen_in_dev_scoring_exits_4(pipeline, tmp_path, capsys):
    # one step at lr 1e200 leaves a model whose first forward is dev scoring's
    clusters = cp.load_clusters(pipeline["train"])
    train, dev = str(tmp_path / "train.ndjson"), str(tmp_path / "dev.ndjson")
    cp.save_clusters(train, clusters[:1])
    cp.save_clusters(dev, clusters[1:])
    ckpt = tmp_path / "m.json"
    code = cli.run(["train", "--corpus", train, "--dev", dev, "--checkpoint", str(ckpt),
                    "--set", "lr=1e200", "--set", "max_epochs=3"] + TINY[:-2])
    assert code == 4
    assert "diverged in dev scoring epoch 1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_cluster_without_mentions_trains_with_max_and_no_null(pipeline, tmp_path):
    corpus = str(tmp_path / "quiet.ndjson")
    cp.save_clusters(corpus, cp.load_clusters(pipeline["train"]) + [quiet_cluster()])
    assert cli.run(["train", "--corpus", corpus, "--checkpoint", str(tmp_path / "m.json"),
                    "--aggregation", "max", "--set", "null_enabled=false"] + TINY) == 0


@pytest.mark.parametrize("setting", ["keep_prob=0", "keep_prob=1.5", "lr=nan", "lr=-0.1",
                                     "l2=-0.01", "l2=inf", "width1=0", "width2=0", "d1=0",
                                     "r=0", "embed_dim=0", "bp_train_iters=-1",
                                     "max_epochs=-1", "patience=-1", "null_enabled=flase",
                                     "width1=1.5", "weight_source=topic", "mode=weighted_sum"])
def test_invalid_hyperparameter_exits_3(pipeline, tmp_path, capsys, setting):
    code = cli.run(["train", "--corpus", pipeline["train"],
                    "--checkpoint", str(tmp_path / "m.json")] + TINY + ["--set", setting])
    assert code == 3
    key = setting.partition("=")[0]
    want = f"unknown hyperparameter {key!r}" if key == "weight_source" else f"{key} must be"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("value,detail", [("x", "could not convert string to float: 'x'"),
                                          ("nan", "non-finite value"),
                                          ("1e400", "non-finite value")])
def test_malformed_embedding_value_exits_3_naming_its_line(pipeline, tmp_path, capsys,
                                                           value, detail):
    emb = tmp_path / "emb.txt"
    emb.write_text(f"the 0.1 0.2\ncrash 0.5 {value}\n")
    ckpt = tmp_path / "m.json"
    code = cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", str(ckpt),
                    "--embeddings", str(emb)] + TINY)
    assert code == 3
    assert f"{emb}: line 2: {detail}" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not ckpt.exists()


def test_checkpoint_has_no_optimizer_state(pipeline):
    with open(pipeline["ckpt"]) as fh:
        fh.readline()
        assert "adam" not in json.load(fh)


@pytest.mark.parametrize("content,detail", [
    (b"a 1e308 1\nb 1e308 1\n", "the column mean of the embedding rows overflows"),
    (b"the 0.1 0.2\ncr\xe9sh 0.5 0.5\n", "line 2: not UTF-8")],
    ids=["mean-overflows", "not-utf8"])
def test_malformed_embedding_table_exits_3_naming_the_file(pipeline, tmp_path, capsys,
                                                           content, detail):
    emb = tmp_path / "emb.txt"
    emb.write_bytes(content)
    ckpt = tmp_path / "m.json"
    code = cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", str(ckpt),
                    "--embeddings", str(emb)] + TINY)
    assert code == 3
    assert f"{emb}: {detail}" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not ckpt.exists()


@pytest.mark.parametrize("field", ["extra.vocab", "extra.slots", "extra.embed_matrix",
                                   "extra.unk_vector", "params.enc.w2", "params.slot.Crew",
                                   "params"])
def test_checkpoint_missing_field_exits_3(pipeline, tmp_path, capsys, field):
    with open(pipeline["ckpt"]) as fh:
        magic = fh.readline()
        body = json.load(fh)
    section, _, name = field.partition(".")
    del (body[section] if name else body)[name or section]
    ckpt = tmp_path / "partial.json"
    ckpt.write_text(magic + json.dumps(body))
    code = cli.run(["predict", "--checkpoint", str(ckpt), "--corpus", pipeline["test"],
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert f"checkpoint lacks {field}" in capsys.readouterr().err


def _rewrite_checkpoint(src, dest, edit):
    with open(src) as fh:
        magic = fh.readline()
        body = json.load(fh)
    edit(body)
    dest.write_text(magic + json.dumps(body))
    return str(dest)


def _set_extra(name, value):
    return lambda body: body["extra"].__setitem__(name, value)


def _decoded(entry) -> np.ndarray:
    """The array of a checkpoint's {"shape", "base64"} entry, writable."""
    raw = base64.b64decode(entry["base64"])
    return np.frombuffer(raw, dtype="<f8").reshape(entry["shape"]).copy()


def _encoded(a: np.ndarray) -> dict:
    return {"shape": list(a.shape),
            "base64": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}


def _vocab_past_end(body):
    rows = body["extra"]["embed_matrix"]["shape"][0]
    body["extra"]["vocab"] = {token: rows for token in body["extra"]["vocab"]}


def _narrow_unk_vector(body):
    body["extra"]["unk_vector"] = _encoded(_decoded(body["extra"]["unk_vector"])[:-1])


def _no_scoring_slot(body):
    body["extra"]["slots"] = []
    body["params"] = {k: v for k, v in body["params"].items() if not k.startswith("slot.")}


def _set_param(name, shape, data):
    return lambda body: body["params"].__setitem__(name, {"shape": shape, "data": data})


def _nan_in_embed_matrix(body):
    matrix = _decoded(body["extra"]["embed_matrix"])
    matrix[0][0] = float("nan")
    body["extra"]["embed_matrix"] = _encoded(matrix)


def _set_hyperparam(name, value):
    return lambda body: body["extra"]["hyperparams"].__setitem__(name, value)


@pytest.mark.parametrize("edit,message", [
    (_set_extra("slots", 3), "extra.slots is not a list of strings"),
    (_set_extra("slots", ["Crew", 7]), "extra.slots is not a list of strings"),
    (_vocab_past_end, "extra.vocab does not map strings to row ids"),
    (_set_extra("vocab", {"acme": "0"}), "extra.vocab does not map strings to row ids"),
    (_set_extra("vocab", ["acme"]), "extra.vocab does not map strings to row ids"),
    (_set_extra("embed_matrix", [0.5, 0.25]), "extra.embed_matrix is not a 2-D matrix"),
    (_set_extra("embed_matrix", {}), "extra.embed_matrix is not a 2-D matrix"),
    (_narrow_unk_vector, "extra.embed_matrix is not a 2-D matrix as wide as extra.unk_vector"),
    (_no_scoring_slot, "extra.slots names no scoring slot"),
    (_set_extra("hyperparams", ["sum"]), "extra.hyperparams is not an object"),
    (_set_hyperparam("null_enabled", "no"), "extra.hyperparams: null_enabled must be a bool"),
    (_set_hyperparam("max_pooling", True),
     "extra.hyperparams: unknown hyperparameter 'max_pooling'"),
    (_set_hyperparam("mode", "mean"), "extra.hyperparams: mode must be one of"),
    (lambda body: body["params"].__setitem__("enc.w1", 5),
     "checkpoint params.enc.w1 is not a float array"),
    (_set_param("enc.w1", [1], [0.5]),
     "checkpoint params.enc.w1 has shape [1], expected [width1, 12, d1]"),
    (_set_param("enc.w1", [3, 11, 4], [0.5] * 132),
     "checkpoint params.enc.w1 has shape [3, 11, 4], expected [width1, 12, d1]"),
    (_set_param("enc.b1", [5], [0.5] * 5), "checkpoint params.enc.b1 has shape [5], expected [4]"),
    (_set_param("enc.w2", [2, 5, 4], [0.5] * 40),
     "checkpoint params.enc.w2 has shape [2, 5, 4], expected [width2, 4, r]"),
    (_set_param("enc.b2", [4, 1], [0.5] * 4),
     "checkpoint params.enc.b2 has shape [4, 1], expected [4]"),
    (_set_param("slot.Crew", [3], [0.5] * 3),
     "checkpoint params.slot.Crew has shape [3], expected [4]"),
    (_set_param("enc.b2", [4], [0.5, "NaN", 0.5, 0.5]),
     "checkpoint params.enc.b2 holds non-finite values"),
    (_set_param("mask_vector", [12], [0.5] * 11 + ["Infinity"]),
     "checkpoint params.mask_vector holds non-finite values"),
    (_nan_in_embed_matrix, "checkpoint extra.embed_matrix holds non-finite values"),
], ids=["slots-int", "slots-item-int", "vocab-row-past-end", "vocab-row-str", "vocab-list",
        "embed-1d", "embed-object", "unk-narrow", "slots-none-scoring", "hyperparams-list",
        "null-enabled-str", "hyperparams-unknown-key", "mode-unknown", "param-int",
        "w1-1d", "w1-narrow", "b1-wide", "w2-wrong-d1", "b2-2d", "slot-narrow", "b2-nan",
        "mask-inf", "embed-nan"])
def test_checkpoint_bad_field_value_exits_3(pipeline, tmp_path, capsys, edit, message):
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "bad.json", edit)
    code = cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert message in capsys.readouterr().err


def _overflowing_w1(body):
    """Finite first-layer filters that overflow any forward pass."""
    w1 = _decoded(body["params"]["enc.w1"])
    body["params"]["enc.w1"] = _encoded(np.full_like(w1, 1e308))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["predict", "bp-trace"])
def test_overflowing_checkpoint_exits_3_at_the_token_scores(pipeline, tmp_path, capsys,
                                                            command):
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "big.json", _overflowing_w1)
    out = tmp_path / "out"
    code = cli.run([command, "--checkpoint", ckpt, "--corpus", pipeline["test"],
                    "--out", str(out)])
    assert code == 3
    assert "invalid input: non-finite token scores" in capsys.readouterr().err
    assert not out.exists()


def _as_racv1(src, dest) -> str:
    """The list-form RACv1 file of a RACv2 checkpoint: the same body with
    every array written as numbers."""
    with open(src) as fh:
        assert fh.readline() == "RACv2\n"
        body = json.load(fh)
    body["params"] = {k: {"shape": v["shape"], "data": _decoded(v).ravel().tolist()}
                      for k, v in body["params"].items()}
    for name in ("embed_matrix", "unk_vector"):
        body["extra"][name] = _decoded(body["extra"][name]).tolist()
    dest.write_text("RACv1\n" + json.dumps(body))
    return str(dest)


def test_racv1_checkpoint_loads_and_predicts_as_its_racv2_source(pipeline, tmp_path):
    v1 = _as_racv1(pipeline["ckpt"], tmp_path / "v1.json")
    (new, *settings_new), (old, *settings_old) = T.load_model(pipeline["ckpt"]), T.load_model(v1)
    assert settings_new == settings_old and new.table.vocab == old.table.vocab
    assert list(new.params()) == list(old.params())
    for a, b in [(new.flat.data, old.flat.data), (new.table.matrix, old.table.matrix),
                 (new.table.unk_vector, old.table.unk_vector)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    outputs = []
    for ckpt in (pipeline["ckpt"], v1):
        out = tmp_path / "p.json"
        assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                        "--out", str(out), "--bp", "conv"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_unknown_checkpoint_magic_exits_3(pipeline, tmp_path, capsys):
    body = Path(pipeline["ckpt"]).read_text().split("\n", 1)[1]
    ckpt = tmp_path / "v3.json"
    ckpt.write_text("RACv3\n" + body)
    code = cli.run(["predict", "--checkpoint", str(ckpt), "--corpus", pipeline["test"],
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert "bad checkpoint magic 'RACv3'" in capsys.readouterr().err


@pytest.mark.parametrize("edit,message", [
    (_set_param("enc.b1", [4], [10 ** 400] * 4), "checkpoint params.enc.b1 is not a float array"),
    (_set_extra("unk_vector", [10 ** 400] * 12),
     "extra.embed_matrix is not a 2-D matrix as wide as extra.unk_vector")],
    ids=["param", "unk-vector"])
def test_checkpoint_number_too_large_for_a_float_exits_3(pipeline, tmp_path, capsys, edit,
                                                         message):
    ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / "huge.json", edit)
    code = cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert message in capsys.readouterr().err


def test_too_deeply_nested_checkpoint_exits_3(pipeline, tmp_path, capsys):
    with open(pipeline["ckpt"]) as fh:
        magic = fh.readline()
    ckpt = tmp_path / "deep.json"
    ckpt.write_text(magic + "[" * 100_000 + "]" * 100_000)
    code = cli.run(["predict", "--checkpoint", str(ckpt), "--corpus", pipeline["test"],
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert "maximum recursion depth" in capsys.readouterr().err


def test_too_deeply_nested_predictions_exit_3(pipeline, tmp_path, capsys):
    pred = tmp_path / "deep.json"
    pred.write_text("[" * 100_000 + "]" * 100_000)
    assert cli.run(["eval", "--pred", str(pred), "--gold", pipeline["test"]]) == 3
    assert "maximum recursion depth" in capsys.readouterr().err


def test_date_checkpoint_predicts_as_sum(pipeline, tmp_path):
    outputs = []
    for mode in ("date", "sum"):
        ckpt = _rewrite_checkpoint(pipeline["ckpt"], tmp_path / f"{mode}.json",
                                   _set_hyperparam("mode", mode))
        for bp in ("0", "conv"):
            out = tmp_path / f"{mode}-{bp}.json"
            assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                            "--out", str(out), "--bp", bp]) == 0
            outputs.append(out.read_bytes())
    assert outputs[:2] == outputs[2:]


def _write_records(path, records):
    with open(path, "w") as fh:
        json.dump(records, fh)
    return str(path)


def test_eval_record_without_predictions_exits_3(pipeline, tmp_path, capsys):
    with open(pipeline["pred"]) as fh:
        records = json.load(fh)
    del records[1]["predictions"]
    pred = _write_records(tmp_path / "pred.json", records)
    assert cli.run(["eval", "--pred", pred, "--gold", pipeline["test"]]) == 3
    err = capsys.readouterr().err
    assert f"cluster {records[1]['cluster_id']}: 'predictions' missing" in err


def test_eval_duplicate_prediction_ids_exits_3(pipeline, tmp_path, capsys):
    with open(pipeline["pred"]) as fh:
        records = json.load(fh)
    records[1]["cluster_id"] = records[0]["cluster_id"]
    pred = _write_records(tmp_path / "pred.json", records)
    assert cli.run(["eval", "--pred", pred, "--gold", pipeline["test"]]) == 3
    assert f"duplicate cluster_id {records[0]['cluster_id']!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,what", [
    ("predictions", ["x"], "is not a string or null"),
    ("rankings", 5, "is not a list of strings"),
    ("rankings", ["x", None], "is not a list of strings"),
], ids=["prediction-list", "ranking-int", "ranking-null-item"])
def test_eval_prediction_value_types_exit_3(pipeline, tmp_path, capsys, field, value, what):
    with open(pipeline["pred"]) as fh:
        records = json.load(fh)
    records[1][field]["Crew"] = value
    pred = _write_records(tmp_path / "pred.json", records)
    assert cli.run(["eval", "--pred", pred, "--gold", pipeline["test"]]) == 3
    err = capsys.readouterr().err
    assert f"cluster {records[1]['cluster_id']} slot 'Crew':" in err and what in err


def test_eval_cluster_id_that_is_not_a_string_exits_3(pipeline, tmp_path, capsys):
    with open(pipeline["pred"]) as fh:
        records = json.load(fh)
    records[1]["cluster_id"] = [records[1]["cluster_id"]]
    pred = _write_records(tmp_path / "pred.json", records)
    assert cli.run(["eval", "--pred", pred, "--gold", pipeline["test"]]) == 3
    assert "record 2: cluster_id" in capsys.readouterr().err


def test_duplicate_cluster_ids_in_corpus_exit_3(pipeline, tmp_path, capsys):
    with open(pipeline["test"]) as fh:
        line = fh.readline()
    corpus = tmp_path / "dup.ndjson"
    corpus.write_text(line + line)
    code = cli.run(["predict", "--checkpoint", pipeline["ckpt"], "--corpus", str(corpus),
                    "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert "record 2: duplicate cluster_id" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# round trip


def test_predict_output_format(pipeline):
    with open(pipeline["pred"]) as fh:
        records = json.load(fh)
    assert len(records) == 3
    ids = [r["cluster_id"] for r in records]
    assert ids == sorted(ids)
    for rec in records:
        assert set(rec) == {"cluster_id", "predictions", "rankings", "scores"}
        for slot, ranked in rec["rankings"].items():
            assert ranked, f"empty ranking for {slot}"
            # scores list the values sorted, null last; a ranking holds the same keys
            keys = list(rec["scores"][slot])
            assert keys == sorted(set(keys) - {"__NULL__"}) + ["__NULL__"] * ("__NULL__" in keys)
            assert sorted(ranked) == sorted(keys)
            top = rec["predictions"][slot]
            if top is None:
                assert ranked[0] == "__NULL__"
            else:
                assert ranked[0] == top


def test_eval_round_trip(pipeline, capsys):
    assert cli.run(["eval", "--pred", pipeline["pred"], "--gold", pipeline["test"],
                    "--label", "smoke", "--per-slot"]) == 0
    out = capsys.readouterr().out
    assert "smoke" in out
    assert re.search(r"\bF1\b", out)
    assert "Fatalities" in out  # per-slot table


def test_mention_level_pipeline(pipeline, tmp_path):
    ckpt = str(tmp_path / "mention.json")
    pred = str(tmp_path / "pred.json")
    assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                    "--set", "loss_mode=mention_level"] + TINY) == 0
    assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                    "--out", pred]) == 0
    with open(pred) as fh:
        records = json.load(fh)
    # pooled mention decoding has no null candidate, so it never abstains
    for rec in records:
        assert all(v is not None for v in rec["predictions"].values())


@pytest.fixture(scope="module")
def mention_checkpoint(pipeline):
    ckpt = str(pipeline["root"] / "mention.json")
    assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                    "--set", "loss_mode=mention_level"] + TINY) == 0
    return ckpt


@pytest.mark.parametrize("command", ["predict", "bp-trace"])
def test_aggregation_on_mention_level_checkpoint_exits_3(pipeline, mention_checkpoint,
                                                         tmp_path, capsys, command):
    out = tmp_path / "out"
    code = cli.run([command, "--checkpoint", mention_checkpoint, "--corpus", pipeline["test"],
                    "--out", str(out), "--aggregation", "max"])
    assert code == 3
    assert "--aggregation" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not out.exists()


@pytest.mark.parametrize("decode", ["none", "max", "sum"])
def test_mention_decode_on_value_level_checkpoint_exits_3(pipeline, tmp_path, capsys, decode):
    # a value-level model's slot vectors were trained for attention, not to
    # classify mentions; the library still decodes them when asked
    out = tmp_path / "p.json"
    code = cli.run(["predict", "--checkpoint", pipeline["ckpt"], "--corpus", pipeline["test"],
                    "--out", str(out), "--mention-decode", decode])
    assert code == 3
    assert "--mention-decode" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not out.exists()
    model, config, _ = T.load_model(pipeline["ckpt"])
    records = M.predict_clusters(model, cp.load_clusters(pipeline["test"]), config,
                                 mention_decode=decode)
    assert all(set(r["predictions"]) == set(cp.EVAL_SLOTS) for r in records)


def test_aggregation_with_mention_level_training_exits_3(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "m.json"
    code = cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", str(ckpt),
                    "--aggregation", "sum", "--set", "loss_mode=mention_level"] + TINY)
    assert code == 3
    assert "--aggregation" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not ckpt.exists()


@pytest.mark.parametrize("setting", ["mode=max", "null_enabled=false"])
def test_aggregation_key_with_mention_level_training_exits_3(pipeline, tmp_path, capsys,
                                                              setting):
    ckpt = tmp_path / "m.json"
    config = tmp_path / "agg.cfg"
    config.write_text(setting.replace("=", " = ") + "\n")
    for flags in (["--set", setting], ["--config", str(config)]):
        code = cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", str(ckpt),
                        "--set", "loss_mode=mention_level"] + TINY + flags)
        assert code == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"{setting.partition('=')[0]} does not apply to loss_mode=mention_level" in last
        assert not ckpt.exists()


def test_bp_train_iters_with_mention_level_training_exits_3(pipeline, tmp_path, capsys):
    # the mention loss runs no BP, so the setting would be logged and ignored;
    # the library still accepts the pair
    ckpt = tmp_path / "m.json"
    config = tmp_path / "bp.cfg"
    config.write_text("bp_train_iters = 3\n")
    for flags in (["--set", "bp_train_iters=3"], ["--config", str(config)]):
        code = cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", str(ckpt),
                        "--set", "loss_mode=mention_level"] + TINY + flags)
        assert code == 3
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "bp_train_iters does not apply to loss_mode=mention_level" in last
        assert not ckpt.exists()
    T.Hyperparams(loss_mode="mention_level", bp_train_iters=3)


@pytest.mark.parametrize("mode", ["bogus", "date"])
@pytest.mark.parametrize("command", ["train", "predict", "bp-trace"])
def test_unknown_aggregation_mode_exits_3(pipeline, tmp_path, capsys, command, mode):
    out = tmp_path / "out"
    if command == "train":
        args = ["--corpus", pipeline["train"], "--checkpoint", str(out)] + TINY
    else:
        args = ["--checkpoint", pipeline["ckpt"], "--corpus", pipeline["test"],
                "--out", str(out)]
    assert cli.run([command, "--aggregation", mode] + args) == 3
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"mode must be one of max, sum, topic, per-doc, got {mode!r}" in last
    assert not out.exists()


def _predictions(path):
    with open(path) as fh:
        return {r["cluster_id"]: r for r in json.load(fh)}


@pytest.fixture(scope="module")
def value_checkpoint(pipeline):
    """A value-level checkpoint trained long enough that --bp 0 predicts values."""
    root = pipeline["root"]
    train, test, ckpt = (str(root / name) for name in ("vtrain.ndjson", "vtest.ndjson",
                                                       "value.json"))
    assert cli.run(["synth", "--out", train, "--clusters", "8", "--seed", "5"]) == 0
    assert cli.run(["synth", "--out", test, "--clusters", "4", "--seed", "6",
                    "--split", "test"]) == 0
    assert cli.run(["train", "--corpus", train, "--checkpoint", ckpt] + VALUE_RECIPE) == 0
    return {"train": train, "test": test, "ckpt": ckpt}


def test_one_bp_round_keeps_the_values_bp_0_predicts(value_checkpoint, tmp_path):
    # a value-level grid has more values than slots; one round must not push
    # every slot of a cluster to null where the masses alone pick values
    picked = {}
    for bp in ("0", "1"):
        out = tmp_path / f"bp{bp}.json"
        assert cli.run(["predict", "--checkpoint", value_checkpoint["ckpt"], "--corpus",
                        value_checkpoint["test"], "--out", str(out), "--bp", bp]) == 0
        picked[bp] = {cid: [v for v in r["predictions"].values() if v is not None]
                      for cid, r in _predictions(out).items()}
    assert all(picked["0"].values())
    for cid, values in picked["1"].items():
        assert values, cid


def _duplicate_winners(by_slot: dict) -> set:
    winners = [v for v in by_slot.values() if v is not None]
    return {v for v in winners if winners.count(v) > 1}


def test_per_doc_converged_bp_keeps_the_top_1_of_bp_0(value_checkpoint, tmp_path):
    # per-doc masses sum to the number of documents in each slot; BP must
    # read them as the slot's shares, not clip every mass above 1 into a tie.
    # Converged BP may move a slot off a value that also wins another slot,
    # and no other
    ckpt = str(tmp_path / "perdoc.json")
    assert cli.run(["train", "--corpus", value_checkpoint["train"], "--checkpoint", ckpt,
                    "--aggregation", "per-doc", "--set", "lr=0.01"]
                   + VALUE_RECIPE + ["--set", "max_epochs=40"]) == 0
    picked = {}
    for bp in ("0", "conv"):
        out = tmp_path / f"bp{bp}.json"
        assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", value_checkpoint["test"],
                        "--out", str(out), "--bp", bp]) == 0
        picked[bp] = {cid: r["predictions"] for cid, r in _predictions(out).items()}
    for cid, by_slot in picked["0"].items():
        assert any(v is not None for v in by_slot.values()), cid
        duplicates = _duplicate_winners(by_slot)
        converged = picked["conv"][cid]
        assert len(_duplicate_winners(converged)) <= len(duplicates), cid
        for slot, value in by_slot.items():
            if value not in duplicates:
                assert converged[slot] == value, (cid, slot)


def test_bp_trace_of_value_level_checkpoint_starts_at_its_masses(pipeline, tmp_path):
    # iteration 0 is the grid's locals, which for a value-level model are the
    # pooled masses predict --bp 0 writes (clipped into [EPS, 1-EPS])
    trace = tmp_path / "t.csv"
    assert cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--iterations", "0", "--out", str(trace)]) == 0
    cluster = cp.load_clusters(pipeline["test"])[0]
    scores = _predictions(pipeline["pred"])[cluster.cluster_id]["scores"]
    rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
    assert len(rows) == sum(len(by_value) for by_value in scores.values())
    for it, value, slot, belief in rows:
        assert it == "0"
        assert abs(float(belief) - scores[slot][value]) <= K.EPS + 5e-11


def test_bp_trace_of_mention_level_checkpoint_traces_its_sum_decode(pipeline,
                                                                    mention_checkpoint,
                                                                    tmp_path):
    # bp-trace's iteration 0 is the grid predict decodes: the summed mention
    # probabilities, with no null row
    trace = tmp_path / "t.csv"
    assert cli.run(["bp-trace", "--checkpoint", mention_checkpoint, "--corpus",
                    pipeline["test"], "--iterations", "0", "--out", str(trace)]) == 0
    model, config, _ = T.load_model(mention_checkpoint)
    cluster = cp.load_clusters(pipeline["test"])[0]
    values, scores = M.prediction_scores(model, M.ClusterIndex.build(cluster), config, "sum")
    graph = M.bp_graph(values, model.scoring_slots(), scores)
    beliefs = K.beliefs(K.init_messages(graph), graph)
    rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
    assert [(v, s) for _, v, s, _ in rows] == [(v, s) for v in values
                                              for s in model.scoring_slots()]
    assert NULL_VALUE not in values
    assert [b for *_, b in rows] == [f"{b:.10f}" for b in beliefs.ravel()]


# ---------------------------------------------------------------------------
# eval arithmetic on a hand-built fixture


def _fixture_cluster():
    doc = cp.Document(
        doc_id="d0", order_index=0,
        sentences=(("fifty", "people", "died", "on", "acme"),),
        mentions=(cp.Mention(sentence=0, start=0, end=1, value_id="fifty",
                             entity_type="number"),
                  cp.Mention(sentence=0, start=4, end=5, value_id="acme",
                             entity_type="airline")))
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = ("fifty",)
    gold["Operator"] = ("acme",)
    return cp.Cluster(cluster_id="c1", split="test", gold=gold,
                      candidate_values=("acme", "fifty"), documents=(doc,))


def test_eval_numbers_match_hand_computation(tmp_path, capsys):
    gold_path = str(tmp_path / "gold.ndjson")
    cp.save_clusters(gold_path, [_fixture_cluster()])
    predictions = {s: None for s in cp.EVAL_SLOTS}
    predictions["Fatalities"] = "fifty"   # correct
    predictions["Crew"] = "acme"          # wrong non-null; Operator missed
    rankings = {s: ["__NULL__"] for s in cp.EVAL_SLOTS}
    rankings["Fatalities"] = ["fifty", "acme", "__NULL__"]   # hit at rank 1
    rankings["Operator"] = ["fifty", "acme"]                 # hit at rank 2
    rankings["Crew"] = ["acme", "__NULL__"]                  # null at rank 2
    pred_path = str(tmp_path / "pred.json")
    with open(pred_path, "w") as fh:
        json.dump([{"cluster_id": "c1", "predictions": predictions,
                    "rankings": rankings}], fh)
    out_path = str(tmp_path / "report.json")
    assert cli.run(["eval", "--pred", pred_path, "--gold", gold_path,
                    "--json", out_path]) == 0
    with open(out_path) as fh:
        report = json.load(fh)
    # precision 1/2 (one of two non-null right), recall 1/2 (two findable)
    assert report["score"] == {"p": 0.5, "r": 0.5, "f1": 0.5}
    # 6 predicted nulls, 5 of them gold-null; 6 gold nulls total
    assert abs(report["nulls"]["p"] - 5 / 6) < 1e-12
    assert abs(report["nulls"]["r"] - 5 / 6) < 1e-12
    # (1 + 1/2 + 1/2 + 5 * 1) / 8 queries
    assert abs(report["mrr"] - 0.875) < 1e-12
    assert report["queries"] == 8


# ---------------------------------------------------------------------------
# configuration plumbing


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\nlr = 0.5\nseed=9   # trailing\nmode = 'max'\n\n")
    assert cli.parse_config_file(path) == {"lr": "0.5", "seed": "9", "mode": "max"}
    path.write_text("just a line\n")
    with pytest.raises(TrainingError, match="key = value"):
        cli.parse_config_file(path)


def test_flag_overrides_beat_config_file(pipeline, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 1\nlr = 0.5\nembed_dim = 12\nwidth1 = 3\nwidth2 = 2\n"
                   "d1 = 4\nr = 4\nmax_epochs = 1\n")
    ckpt = str(tmp_path / "m.json")
    assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                    "--config", str(cfg), "--set", "seed=2"]) == 0
    assert load_checkpoint(ckpt)["seed"] == 2
    assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                    "--config", str(cfg), "--set", "seed=2", "--seed", "3"]) == 0
    assert load_checkpoint(ckpt)["seed"] == 3


def test_train_is_deterministic(pipeline, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint",
                        path, "--seed", "21"] + TINY) == 0
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()


def test_predict_is_deterministic_and_bp_changes_scores(pipeline, tmp_path):
    p0, p0b, p2 = (str(tmp_path / n) for n in ("p0.json", "p0b.json", "p2.json"))
    for path, bp in ((p0, "0"), (p0b, "0"), (p2, "2")):
        assert cli.run(["predict", "--checkpoint", pipeline["ckpt"], "--corpus",
                        pipeline["test"], "--out", path, "--bp", bp]) == 0
    with open(p0) as fa, open(p0b) as fb:
        assert fa.read() == fb.read()
    with open(p0) as fa, open(p2) as fb:
        raw_scores = json.load(fa)[0]["scores"]
        bp_scores = json.load(fb)[0]["scores"]
    diffs = [abs(raw_scores[s][v] - bp_scores[s][v])
             for s in raw_scores for v in raw_scores[s]]
    assert max(diffs) > 1e-6


@pytest.mark.parametrize("loss_mode,bp", [("value_level", "0"), ("value_level", "1"),
                                        ("value_level", "conv"), ("mention_level", "0")])
def test_separate_predict_runs_write_identical_files(pipeline, tmp_path, loss_mode, bp):
    # two processes with different string-hash seeds, so no output may hang
    # on set or dict order
    ckpt = pipeline["ckpt"]
    if loss_mode == "mention_level":
        ckpt = str(tmp_path / "mention.json")
        assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                        "--set", "loss_mode=mention_level"] + TINY) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"pred{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "clusterreader.cli", "predict",
                               "--checkpoint", ckpt, "--corpus", pipeline["test"],
                               "--out", str(out), "--bp", bp],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_aggregation_flag_keeps_checkpoint_null_setting(pipeline, tmp_path):
    # --aggregation replaces the stored mode only; null stays off as trained
    ckpt = str(tmp_path / "m.json")
    assert cli.run(["train", "--corpus", pipeline["train"], "--checkpoint", ckpt,
                    "--aggregation", "sum", "--set", "null_enabled=false"] + TINY) == 0
    for flags in ([], ["--aggregation", "sum"], ["--aggregation", "topic"]):
        out = tmp_path / "p.json"
        assert cli.run(["predict", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                        "--out", str(out)] + flags) == 0
        records = json.loads(out.read_text())
        assert all(v is not None for r in records for v in r["predictions"].values())
        assert all(NULL_VALUE not in ranking
                   for r in records for ranking in r["rankings"].values())
        trace = tmp_path / "t.csv"
        assert cli.run(["bp-trace", "--checkpoint", ckpt, "--corpus", pipeline["test"],
                        "--out", str(trace)] + flags) == 0
        assert NULL_VALUE not in trace.read_text()


def test_predict_convergence_mode_runs(pipeline, tmp_path):
    out = str(tmp_path / "pc.json")
    assert cli.run(["predict", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--out", out, "--bp", "conv"]) == 0
    with open(out) as fh:
        assert len(json.load(fh)) == 3


# ---------------------------------------------------------------------------
# diagnostics


def test_bp_trace_writes_csv(pipeline, tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--iterations", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,value,slot,belief"
    assert len(lines) > 1


def test_bp_trace_negative_iterations_exits_3(pipeline, tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--iterations", "-1", "--out", str(out)])
    assert code == 3
    assert "negative iteration count" in capsys.readouterr().err
    assert not out.exists()


def test_bp_trace_to_convergence_ends_at_predict_conv_scores(pipeline, tmp_path, capsys):
    trace, pred = tmp_path / "t.csv", tmp_path / "p.json"
    assert cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--iterations", "conv", "--out", str(trace)]) == 0
    assert cli.run(["predict", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--bp", "conv", "--out", str(pred)]) == 0
    rows = [line.split(",") for line in trace.read_text().strip().splitlines()[1:]]
    rounds = int(rows[-1][0])
    assert rounds > 0
    assert f"wrote a {rounds}-round belief trace" in capsys.readouterr().err
    cluster = cp.load_clusters(pipeline["test"])[0]
    scores = _predictions(str(pred))[cluster.cluster_id]["scores"]
    last = {(slot, value): belief for it, value, slot, belief in rows if int(it) == rounds}
    assert last == {(slot, value): f"{x:.10f}" for slot, by_value in scores.items()
                    for value, x in by_value.items()}


@pytest.mark.parametrize("bad", ["wat", "1.5", "conv2"])
def test_bp_trace_bad_iterations_exits_3(pipeline, tmp_path, capsys, bad):
    out = tmp_path / "t.csv"
    code = cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--iterations", bad, "--out", str(out)])
    assert code == 3
    assert "--iterations expects" in capsys.readouterr().err.strip().splitlines()[-1]
    assert not out.exists()


def test_bp_trace_unknown_cluster_exits_3(pipeline, tmp_path):
    code = cli.run(["bp-trace", "--checkpoint", pipeline["ckpt"], "--corpus",
                    pipeline["test"], "--cluster-id", "ghost",
                    "--out", str(tmp_path / "t.csv")])
    assert code == 3


def test_grad_check_command(capsys):
    assert cli.run(["grad-check"]) == 0
    assert "max relative error" in capsys.readouterr().out
