"""Losses, the training loop, and gradient checking (plus the model glue)."""

import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterreader.aggregator as agg
import clusterreader.compute as C
import clusterreader.corpus as cp
import clusterreader.encoder as E
import clusterreader.model as M
import clusterreader.scorer as S
import clusterreader.synth as SY
import clusterreader.training as T
from clusterreader.aggregator import (MODES, NULL_VALUE, AggregationConfig, aggregate_sum,
                                      rank_values)
from clusterreader.cli import _tiny_cluster
from clusterreader.constraints import run_bp, run_bp_tensor
from clusterreader.scorer import NULL_SLOT
from test_compute import assert_close, layout_groups
from test_encoder_scorer import reference_encode


def make_doc(doc_id, order, tokens, mentions, dateline=None):
    ms = tuple(sorted(
        (cp.Mention(sentence=0, start=s, end=e, value_id=v, entity_type=t)
         for (s, e, v, t) in mentions), key=lambda m: (m.start, m.end)))
    return cp.Document(doc_id=doc_id, order_index=order,
                       sentences=(tuple(tokens),), mentions=ms, dateline=dateline)


def crash_cluster(cid="c0", split="train"):
    """Two short documents, three candidate values, two gold slots."""
    d0 = make_doc("d0", 0,
                  ["officials", "said", "fifty", "people", "died", "when",
                   "the", "acme", "jet", "crashed"],
                  [(2, 3, "fifty", "number"), (7, 8, "acme", "airline")])
    d1 = make_doc("d1", 1,
                  ["the", "acme", "crash", "killed", "fifty", "not", "nine"],
                  [(1, 2, "acme", "airline"), (4, 5, "fifty", "number"),
                   (6, 7, "nine", "number")])
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = ("fifty",)
    gold["Operator"] = ("acme",)
    c = cp.Cluster(cluster_id=cid, split=split, gold=gold,
                   candidate_values=("fifty", "acme", "nine"),
                   documents=(d0, d1))
    cp.validate_cluster(c)
    return c


def small_corpus(n, rng):
    """n variants of the crash cluster with shuffled filler words."""
    fillers = ["reports", "say", "that", "today", "another", "update",
               "from", "scene", "early", "morning"]
    out = []
    for i in range(n):
        extra = [fillers[j] for j in rng.integers(0, len(fillers), size=3)]
        d0 = make_doc("d0", 0,
                      extra + ["fifty", "dead", "in", "acme", "crash"],
                      [(3, 4, "fifty", "number"), (6, 7, "acme", "airline")])
        d1 = make_doc("d1", 1,
                      ["the", "acme", "toll", "was", "fifty", "not", "nine"],
                      [(1, 2, "acme", "airline"), (4, 5, "fifty", "number"),
                       (6, 7, "nine", "number")])
        gold = {s: () for s in cp.EVAL_SLOTS}
        gold["Fatalities"] = ("fifty",)
        gold["Operator"] = ("acme",)
        out.append(cp.Cluster(cluster_id=f"s{i}", split="train", gold=gold,
                              candidate_values=("fifty", "acme", "nine"),
                              documents=(d0, d1)))
    return out


def tiny_hp(**kw):
    base = dict(embed_dim=8, width1=3, width2=2, d1=4, r=4, keep_prob=1.0,
                seed=7, max_epochs=2, patience=10)
    base.update(kw)
    return T.Hyperparams(**base)


def score_matrix(nested):
    """value_loss's (scores, slots, columns) from {slot: {value: mass}}; absent pairs score 0."""
    slots = list(nested)
    columns = sorted({v for vals in nested.values() for v in vals})
    return C.Tensor([[nested[s].get(v, 0.0) for v in columns] for s in slots]), slots, columns


def value_loss(scores, slots, columns, gold):
    """The value-level loss of the targets value_targets finds; None without any."""
    targets = T.value_targets(slots, columns, gold)
    return None if targets is None else T.value_loss(scores, targets)


def mention_loss(logits, index, gold, slot_order):
    """The mention-level loss of the targets mention_targets finds."""
    return T.mention_loss(logits, T.mention_targets(index, gold, slot_order))


# ---------------------------------------------------------------------------
# hyperparameters


def test_hyperparam_defaults():
    hp = T.Hyperparams()
    assert (hp.lr, hp.l2, hp.keep_prob) == (0.003, 0.01, 0.8)
    assert (hp.width1, hp.width2, hp.d1, hp.r) == (10, 5, 10, 10)
    assert hp.embed_dim == 200
    assert hp.loss_mode == "value_level" and hp.bp_train_iters == 0


def test_max_pooling_rejected():
    # the encoder keeps per-token outputs; there is no pooling knob
    with pytest.raises(T.TrainingError, match="unknown hyperparameter"):
        T.hyperparams_from_dict({"max_pooling": "true"})


def test_bad_loss_mode_rejected():
    with pytest.raises(T.TrainingError):
        T.Hyperparams(loss_mode="span_level")


def test_hyperparams_from_dict_coercion():
    hp = T.hyperparams_from_dict({"lr": "0.01", "max_epochs": "5",
                                  "mode": "max", "null_enabled": "true"})
    assert hp.lr == 0.01 and hp.max_epochs == 5
    assert hp.aggregation.mode == "max" and hp.aggregation.null_enabled


def test_hyperparams_from_dict_unknown_key():
    with pytest.raises(T.TrainingError):
        T.hyperparams_from_dict({"learning_rate": "0.1"})


def _flat_settings(hp):
    """hp as the flat key -> str(value) settings of a config file."""
    flat = {f.name: getattr(hp, f.name) for f in fields(hp) if f.name != "aggregation"}
    flat.update(asdict(hp.aggregation))
    return {k: str(v) for k, v in flat.items()}


def test_every_setting_survives_its_text_form():
    # a field without a parse type or a default would fail here
    custom = T.Hyperparams(lr=0.25, l2=0.5, keep_prob=0.5, width1=3, width2=4, d1=5, r=6,
                           embed_dim=7, aggregation=AggregationConfig("per-doc", False),
                           loss_mode="mention_level", bp_train_iters=2, seed=8,
                           max_epochs=9, patience=1)
    for hp in (T.Hyperparams(), custom):
        assert T.hyperparams_from_dict(_flat_settings(hp)) == hp


@pytest.mark.parametrize("word,value", [("true", True), ("1", True), ("Yes", True),
                                        ("on", True), ("false", False), ("0", False),
                                        ("no", False), ("OFF", False)])
def test_bool_setting_words(word, value):
    assert T.hyperparams_from_dict({"null_enabled": word}).aggregation.null_enabled is value


# ---------------------------------------------------------------------------
# value-level loss


def test_value_loss_perfect_mass_is_zero():
    table = score_matrix({"Fatalities": {"a": 1.0}})
    loss = value_loss(*table, {"Fatalities": ("a",)})
    assert abs(loss.item()) < 1e-12


def test_value_loss_half_mass_is_log2():
    table = score_matrix({"Fatalities": {"a": 0.5, NULL_VALUE: 0.5}})
    loss = value_loss(*table, {"Fatalities": ("a",)})
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_value_loss_monotone_in_gold_mass():
    lo = value_loss(*score_matrix({"Crew": {"a": 0.3}}), {"Crew": ("a",)})
    hi = value_loss(*score_matrix({"Crew": {"a": 0.5}}), {"Crew": ("a",)})
    assert lo.item() > hi.item()


def test_value_loss_empty_gold_targets_null():
    table = score_matrix({"Crew": {"a": 0.1, NULL_VALUE: 0.9}})
    loss = value_loss(*table, {"Crew": ()})
    assert abs(loss.item() + math.log(0.9)) < 1e-12


def test_value_loss_multiple_gold_values_sum():
    table = score_matrix({"Crash Site": {"a": 0.3, "b": 0.2, NULL_VALUE: 0.5}})
    loss = value_loss(*table, {"Crash Site": ("a", "b")})
    assert abs(loss.item() + math.log(0.5)) < 1e-12


def test_value_loss_counts_a_repeated_gold_value_once():
    # gold is a set, as evaluation reads it (EvalInstance.gold_set)
    table = score_matrix({"Crew": {"a": 0.3, "b": 0.2, NULL_VALUE: 0.5},
                          "Operator": {"b": 0.25}})
    once = value_loss(*table, {"Crew": ("b", "a"), "Operator": ("b",)})
    twice = value_loss(*table, {"Crew": ("b", "a", "b"), "Operator": ("b", "b")})
    assert twice.item() == once.item()


def test_value_loss_skips_unfindable_gold():
    table = score_matrix({"Operator": {"a": 0.5},
                          "Fatalities": {"a": 0.25}})
    loss = value_loss(*table, {"Operator": ("ghost",), "Fatalities": ("a",)})
    assert abs(loss.item() + math.log(0.25)) < 1e-12


def test_value_loss_nothing_scorable():
    assert value_loss(*score_matrix({"Crew": {"a": 0.5}}), {"Crew": ("ghost",)}) is None


def test_value_loss_mean_over_slots():
    table = score_matrix({"Crew": {"a": 0.5}, "Operator": {"b": 0.25}})
    loss = value_loss(*table, {"Crew": ("a",), "Operator": ("b",)})
    want = (math.log(2) + math.log(4)) / 2
    assert abs(loss.item() - want) < 1e-12


def test_value_loss_softmax_mode():
    table = score_matrix({"Crew": {"a": 2.0, NULL_VALUE: 0.0}})
    scores, slots, columns = table
    loss = value_loss(C.softmax(scores), slots, columns, {"Crew": ("a",)})
    want = -math.log(math.exp(2) / (math.exp(2) + 1))
    assert abs(loss.item() - want) < 1e-12


# ---------------------------------------------------------------------------
# mention-level loss


def test_mention_labels_hard_labeling():
    c = crash_cluster()
    index = M.ClusterIndex.build(c)
    labels = T.mention_labels(index, c.gold)
    by_value = {}
    for i, slot in labels:
        by_value.setdefault(index.mention_rows[i][0].value_id, []).append(slot)
    assert set(by_value["fifty"]) == {"Fatalities"}
    assert set(by_value["acme"]) == {"Operator"}
    assert set(by_value["nine"]) == {NULL_SLOT}
    assert len(labels) == 5


def test_mention_labels_multi_slot_value_duplicated():
    c = crash_cluster()
    gold = dict(c.gold)
    gold["Passengers"] = ("fifty",)   # fifty now gold for two slots
    index = M.ClusterIndex.build(c)
    labels = T.mention_labels(index, gold)
    fifty_rows = [i for i, (m, _) in enumerate(index.mention_rows)
                  if m.value_id == "fifty"]
    for i in fifty_rows:
        assert {s for j, s in labels if j == i} == {"Fatalities", "Passengers"}


def test_mention_loss_uniform_is_log9():
    c = crash_cluster()
    index = M.ClusterIndex.build(c)
    slots = list(cp.EVAL_SLOTS) + [NULL_SLOT]
    logits = C.Tensor(np.zeros((len(index.mention_rows), 9)))
    loss = mention_loss(logits, index, c.gold, slots)
    assert abs(loss.item() - math.log(9)) < 1e-12


def test_mention_loss_confident_correct_is_small():
    c = crash_cluster()
    index = M.ClusterIndex.build(c)
    slots = list(cp.EVAL_SLOTS) + [NULL_SLOT]
    label_of = dict(T.mention_labels(index, c.gold))   # one label per mention here
    rows = np.zeros((len(index.mention_rows), 9))
    for i in range(len(index.mention_rows)):
        rows[i, slots.index(label_of[i])] = 30.0
    logits = C.Tensor(rows)
    loss = mention_loss(logits, index, c.gold, slots)
    assert loss.item() < 1e-9


def softmax_per_instance_loss(logits, index, gold, slot_order):
    """The mention loss with one softmax per training instance: each
    instance's mention row is gathered, softmaxed, and its label picked."""
    instances = T.mention_labels(index, gold)
    dist = C.softmax(C.take(logits, [i for i, _ in instances]))
    label_prob = C.take(dist, (range(len(instances)),
                               [slot_order.index(s) for _, s in instances]))
    return C.mean_neg_log(label_prob)


@pytest.mark.parametrize("two_slots", [False, True])
def test_mention_loss_softmaxes_each_mention_once(two_slots):
    # one softmax per mention gives the per-instance loss exactly; where a
    # value is gold for two slots its mentions' rows each sum two label
    # gradients inside one softmax backward, which can move the last bits
    c = crash_cluster()
    gold = dict(c.gold)
    if two_slots:
        gold["Crew"] = gold["Survivors"] = ("nine",)
    index = M.ClusterIndex.build(c)
    slots = list(cp.EVAL_SLOTS) + [NULL_SLOT]
    x = np.random.default_rng(31).normal(size=(len(index.mention_rows), len(slots)))
    got, want = C.Tensor(x), C.Tensor(x)
    loss = mention_loss(got, index, gold, slots)
    ref = softmax_per_instance_loss(want, index, gold, slots)
    assert len(T.mention_labels(index, gold)) == len(index.mention_rows) + two_slots
    assert loss.item() == ref.item()
    C.backward(loss)
    C.backward(ref)
    if two_slots:
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got.grad, want.grad)


# ---------------------------------------------------------------------------
# model plumbing


def test_model_params_by_loss_mode():
    hp = tiny_hp()
    c = crash_cluster()
    vocab = [t for d in c.documents for t in d.flat_tokens()]
    model = M.init_model(vocab, hp, np.random.default_rng(0))
    names = set(model.params())
    assert {"enc.w1", "enc.b1", "enc.w2", "enc.b2", "mask_vector"} <= names
    assert sum(n.startswith("slot.") for n in names) == 8

    hp2 = tiny_hp(loss_mode="mention_level")
    model2 = M.init_model(vocab, hp2, np.random.default_rng(0))
    assert sum(n.startswith("slot.") for n in model2.params()) == 9
    assert f"slot.{NULL_SLOT}" in model2.params()


def test_value_table_masses_partition_attention():
    # single-token mentions: per slot, value masses + null mass = 1
    hp = tiny_hp()
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(1))
    index = M.ClusterIndex.build(c)
    scores = model.value_scores(index, hp.aggregation, index.columns(True))
    assert index.columns(True) == sorted(["fifty", "acme", "nine", NULL_VALUE])
    assert scores.shape == (len(model.scoring_slots()), 4)
    assert np.abs(scores.data.sum(axis=1) - 1.0).max() < 1e-9


def mixed_order_cluster():
    """The crash cluster with an empty middle document and a value id that
    sorts before the null value: training's columns put null between the
    values, prediction's grid puts it last."""
    d0, d1 = crash_cluster().documents
    d2 = make_doc("d2", 2, ["the", "acme", "crash", "killed", "fifty", "not", "NINE"],
                  [(1, 2, "acme", "airline"), (4, 5, "fifty", "number"),
                   (6, 7, "NINE", "number")])
    gold = {s: () for s in cp.EVAL_SLOTS}
    c = cp.Cluster(cluster_id="c", split="train", gold=gold,
                   candidate_values=("fifty", "acme", "NINE"),
                   documents=(d0, cp.Document("d1", 1, (), ()), d2))
    cp.validate_cluster(c)
    return c


@pytest.mark.parametrize("null_enabled", [True, False])
@pytest.mark.parametrize("mode", MODES)
def test_grid_order_pooling_equals_training_order_reindexed(mode, null_enabled):
    # a column's sum, weighted sum or max reads only its own tokens, so
    # pooling straight into grid order is training's order reindexed, bit for bit
    c = mixed_order_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         tiny_hp(), np.random.default_rng(2))
    config = AggregationConfig(mode=mode, null_enabled=null_enabled)
    index = M.ClusterIndex.build(c)
    train_cols, grid_cols = index.columns(null_enabled), index.grid_columns(null_enabled)
    assert sorted(train_cols) == sorted(grid_cols)
    assert (train_cols == grid_cols) == (not null_enabled)
    trained = model.value_scores(index, config, train_cols).data
    grid = model.value_scores(index, config, grid_cols).data
    assert np.array_equal(grid, trained[:, [train_cols.index(v) for v in grid_cols]])
    assert np.array_equal(M.prediction_scores(model, index, config)[1], grid)


def test_predict_cluster_covers_all_slots():
    hp = tiny_hp()
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(2))
    rec = M.predict_cluster(model, c, hp.aggregation)
    assert set(rec["predictions"]) == set(cp.EVAL_SLOTS)
    values, scores = M.prediction_scores(model, M.ClusterIndex.build(c), hp.aggregation)
    rankings = dict(zip(model.scoring_slots(), rank_values(scores, values)))
    for slot, value in rec["predictions"].items():
        assert value is None or value in c.candidate_values
        ranked = rankings[slot]
        assert rec["rankings"][slot] == ranked
        assert ranked[0] == (value if value is not None else NULL_VALUE) or value is None


def test_mention_decode_modes():
    hp = tiny_hp(loss_mode="mention_level")
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(3))
    for decode in ("none", "max", "sum"):
        rec = M.predict_cluster(model, c, hp.aggregation, mention_decode=decode)
        assert set(rec["predictions"]) == set(cp.EVAL_SLOTS)
        if decode in ("max", "sum"):
            # these decodes have no null candidate, so never abstain
            assert all(v is not None for v in rec["predictions"].values())


def _count_window_conv(monkeypatch):
    calls = []
    window_conv = C.window_conv

    def counting(x, w, b, windows):
        calls.append(w.shape)
        return window_conv(x, w, b, windows)

    monkeypatch.setattr(C, "window_conv", counting)
    return calls


@pytest.mark.parametrize("loss_mode,decode", [("value_level", None), ("mention_level", "none"),
                                              ("mention_level", "sum")])
def test_training_step_calls_window_conv_per_layer(monkeypatch, loss_mode, decode):
    # a training step runs the two CNN layers through compute.window_conv,
    # layer 1 then layer 2, and its gradients reach layer 1 and the mask vector
    hp = tiny_hp(loss_mode=loss_mode)
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(22))
    calls = _count_window_conv(monkeypatch)
    C.backward(T.cluster_loss(model, c, hp, rng=np.random.default_rng(0)))
    assert calls == [model.enc.w1.shape, model.enc.w2.shape]
    for name in ("enc.w1", "enc.b1", "mask_vector"):
        grad = model.params()[name].grad
        assert grad is not None and np.abs(grad).max() > 0, name


def test_eval_mode_loss_backpropagates_through_conv1d(monkeypatch):
    # a loss built without an rng, as gradient_check builds it, convolves
    # both layers through window_conv and gives the gradients of the same loss
    # over one embedding row per token up to rounding
    hp = tiny_hp()
    c = crash_cluster()
    vocab = [t for d in c.documents for t in d.flat_tokens()]
    model = M.init_model(vocab, hp, np.random.default_rng(21))
    ref = M.init_model(vocab, hp, np.random.default_rng(21))
    calls = _count_window_conv(monkeypatch)
    C.backward(T.cluster_loss(model, c, hp))
    assert calls == [model.enc.w1.shape, model.enc.w2.shape]

    index = M.ClusterIndex.build(c)
    R = E.encode(E.embed_cluster(index.flat_tokens, np.flatnonzero(index.mention_mask), ref.table),
                 index.doc_lengths, ref.enc)
    columns = index.columns(True)
    scores = aggregate_sum(S.attend(ref.token_scores(R, ref.scoring_slots())),
                           index.segments(columns))
    loss = value_loss(scores, ref.scoring_slots(), columns, c.gold)
    C.backward(loss)
    for name in ("enc.w1", "enc.b1", "mask_vector"):
        got, want = model.params()[name].grad, ref.params()[name].grad
        assert got is not None and np.abs(got).max() > 0, name
        assert_close(got, want)


@pytest.mark.parametrize("loss_mode,decode", [("value_level", None), ("mention_level", "none"),
                                              ("mention_level", "sum")])
def test_prediction_calls_no_conv1d(monkeypatch, loss_mode, decode):
    # compute has one convolution, window_conv, and prediction reads both
    # layers through it, layer 1 then layer 2
    assert not hasattr(C, "conv1d")
    hp = tiny_hp(loss_mode=loss_mode)
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(22))
    calls = _count_window_conv(monkeypatch)
    rec = M.predict_cluster(model, c, hp.aggregation, bp_iterations=1, mention_decode=decode)
    assert set(rec["predictions"]) == set(cp.EVAL_SLOTS)
    assert calls == [model.enc.w1.shape, model.enc.w2.shape]


def _synth_clusters(n, seed):
    clusters, _ = SY.generate(SY.SynthConfig(n_clusters=n, docs_min=3, docs_max=6, seed=seed,
                                             misinformation_rate=0.2, offtopic_rate=0.2))
    return clusters


@pytest.fixture(scope="module")
def dated_model_and_clusters():
    clusters = _synth_clusters(6, 3)    # synth documents carry datelines
    return T.train(clusters, [], tiny_hp(max_epochs=1)).model, clusters


@pytest.mark.parametrize("mode", MODES)
def test_predict_records_do_not_read_gold(dated_model_and_clusters, mode):
    model, clusters = dated_model_and_clusters
    config = AggregationConfig(mode=mode)
    stripped = [replace(c, gold={}) for c in clusters]
    for bp in (0, 1):
        assert (M.predict_clusters(model, stripped, config, bp)
                == M.predict_clusters(model, clusters, config, bp))


@pytest.mark.parametrize("loss_mode,bp,decode", [
    ("value_level", 0, None), ("value_level", 1, None), ("value_level", "conv", None),
    ("mention_level", 0, "none"), ("mention_level", 0, "max"), ("mention_level", 0, "sum")])
def test_projected_predictions_match_conv1d_reference(monkeypatch, loss_mode, bp, decode):
    # encoding the distinct rows predicts what the test-only reference
    # encoder, one embedding row per token, predicts
    clusters = _synth_clusters(6, 31)
    hp = tiny_hp(loss_mode=loss_mode, embed_dim=12, width1=5, max_epochs=10, lr=0.03)
    model = T.train(clusters, [], hp).model
    got = M.predict_clusters(model, clusters, hp.aggregation, bp, decode)
    if bp != 1:  # a single BP round predicts null for every slot
        assert any(v is not None for r in got for v in r["predictions"].values())
    representations = M.ReaderModel.representations

    def reference(self, index, keep_prob=1.0, rng=None):
        embedded = E.embed_cluster(index.flat_tokens, np.flatnonzero(index.mention_mask), self.table)
        return C.Tensor(reference_encode(embedded.data, index.doc_lengths, self.enc)[0])

    monkeypatch.setattr(M.ReaderModel, "representations", reference)
    want = M.predict_clusters(model, clusters, hp.aggregation, bp, decode)
    monkeypatch.setattr(M.ReaderModel, "representations", representations)
    assert M.predictions_map(got) == M.predictions_map(want)
    assert M.rankings_map(got) == M.rankings_map(want)
    for g, w in zip(got, want):
        for slot, vals in w["scores"].items():
            assert list(g["scores"][slot]) == list(vals)
            for v, x in vals.items():
                assert abs(g["scores"][slot][v] - x) <= 1e-12 + 1e-9 * abs(x)


def test_bp_sharpened_table_matches_numpy_bp():
    # the loss's belief grid keeps the score matrix layout, null sorted among values
    rng = np.random.default_rng(11)
    slots = ["Crew", "Operator"]
    columns = sorted(["a", "b", NULL_VALUE])
    masses = rng.dirichlet(np.ones(3), size=2)
    graph = M.bp_graph(columns, slots, masses, masses=True)
    sharpened = run_bp_tensor(C.Tensor(masses), graph, 2)

    assert np.array_equal(sharpened.data, run_bp(graph, 2).T)


@pytest.mark.parametrize("mode", MODES)
def test_training_bp_runs_on_the_prediction_grid(monkeypatch, mode):
    # one grid rule: the loss's BP reads the locals prediction's BP reads,
    # in score-matrix column order, with the null row found by its label
    clusters = _synth_clusters(3, 5)
    hp = tiny_hp(aggregation=AggregationConfig(mode=mode), bp_train_iters=2)
    model = M.init_model([t for c in clusters for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(23))
    grids = []

    def record(scores, graph, iterations):
        grids.append(graph)
        return run_bp_tensor(scores, graph, iterations)

    monkeypatch.setattr(T, "run_bp_tensor", record)
    for cluster in clusters:
        T.cluster_loss(model, cluster, hp)
        index = M.ClusterIndex.build(cluster)
        values, scores = M.prediction_scores(model, index, hp.aggregation)
        want = M.prediction_graph(model, index, hp.aggregation, values, scores)
        got = grids.pop()
        order = [got.values.index(v) for v in want.values]
        assert got.slots == want.slots
        assert got.values[got.null_row] == want.values[want.null_row] == NULL_VALUE
        assert_close(got.local[order], want.local)    # per-doc: x * (1/n) against x / n


def graph_size(loss):
    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node._parents)
    return len(seen)


def test_value_step_graph_does_not_grow_with_values_or_mentions():
    # nor with documents: each document is a block of rows, not a graph node
    words = ["w%d" % i for i in range(12)]
    few = [(2, 3, "fifty", "number")]
    many = [(0, 1, "nine", "number"), (2, 3, "fifty", "number"), (4, 6, "acme", "airline"),
            (7, 8, "fifty", "number"), (9, 10, "ten", "number"), (11, 12, "acme", "airline")]
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold.update(Fatalities=("fifty",), Operator=("acme",), Passengers=("ten",))
    modes = ("sum", "max", "per-doc")
    sizes = {}
    for name, mentions, n_docs in (("few", few, 2), ("many", many, 2), ("more docs", many, 5)):
        docs = tuple(make_doc(f"d{i}", i, words, mentions) for i in range(n_docs))
        c = cp.Cluster(cluster_id=name, split="train", gold=gold,
                       candidate_values=("fifty", "acme", "nine", "ten"), documents=docs)
        cp.validate_cluster(c)
        for mode in modes:
            hp = tiny_hp(keep_prob=0.8, aggregation=AggregationConfig(mode=mode))
            model = M.init_model(words, hp, np.random.default_rng(0))
            loss = T.cluster_loss(model, c, hp, rng=np.random.default_rng(1))
            sizes[name, mode] = graph_size(loss)
    for mode in modes:
        assert sizes["few", mode] == sizes["many", mode] == sizes["more docs", mode], mode


@pytest.mark.parametrize("loss_mode, nodes", [("value_level", 25), ("mention_level", 26)])
def test_training_step_graph_size(loss_mode, nodes):
    """Per-node overhead, not arithmetic, dominates a training step (ROADMAP
    aim 1), so the node count of one step is pinned: the scorer records all
    slots in one node and each loss ends in one mean_neg_log node."""
    cluster = _synth_clusters(1, 3)[0]
    hp = tiny_hp(keep_prob=0.8, loss_mode=loss_mode)
    model = M.init_model([t for d in cluster.documents for t in d.flat_tokens()], hp,
                         np.random.default_rng(0))
    loss = T.cluster_loss(model, cluster, hp, rng=np.random.default_rng(1))
    assert graph_size(loss) == nodes


def quiet_cluster(cid="quiet"):
    """A cluster with tokens but no mentions: no value to score."""
    c = cp.Cluster(cluster_id=cid, split="train", gold={s: () for s in cp.EVAL_SLOTS},
                   candidate_values=(), documents=(make_doc("d0", 0, ["no", "news", "here"], []),))
    cp.validate_cluster(c)
    return c


@pytest.mark.parametrize("bp_train_iters", [0, 2])
@pytest.mark.parametrize("mode", MODES)
def test_cluster_without_mentions_or_null_column_trains(mode, bp_train_iters):
    # no column to score: the step is skipped (max mode used to softmax an empty matrix)
    hp = tiny_hp(keep_prob=0.8, bp_train_iters=bp_train_iters,
                 aggregation=AggregationConfig(mode=mode, null_enabled=False))
    state = T.train([quiet_cluster(), crash_cluster()], [], hp)
    assert state.epoch == hp.max_epochs
    assert T.cluster_loss(state.model, quiet_cluster(), hp, rng=np.random.default_rng(0)) is None


# ---------------------------------------------------------------------------
# the loop


def test_lr_zero_keeps_parameters_fixed():
    rng = np.random.default_rng(5)
    clusters = small_corpus(3, rng)
    hp = tiny_hp(lr=0.0, l2=0.0, max_epochs=2)
    state = T.train(clusters, clusters[:1], hp)
    fresh = M.init_model(
        [t for c in clusters for d in c.documents for t in d.flat_tokens()],
        hp, np.random.default_rng(
            np.random.SeedSequence(hp.seed).spawn(3)[0]))
    for name, p in state.model.params().items():
        assert np.array_equal(p.data, fresh.params()[name].data), name
    losses = [h[1] for h in state.history]
    assert abs(losses[0] - losses[1]) < 1e-12


def test_single_small_step_decreases_loss():
    c = crash_cluster()
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(9))
    params = model.params()
    loss1 = T.cluster_loss(model, c, hp)
    for p in params.values():
        p.zero_grad()
    C.backward(loss1)
    C.adam_step(model.flat, C.AdamState(), lr=1e-5, l2=0.0)
    loss2 = T.cluster_loss(model, c, hp)
    assert loss2.item() < loss1.item()


def test_patience_zero_stops_after_first_flat_epoch():
    rng = np.random.default_rng(6)
    clusters = small_corpus(3, rng)
    hp = tiny_hp(lr=0.0, patience=0, max_epochs=50)
    state = T.train(clusters, clusters[:1], hp)
    assert state.epoch == 2           # epoch 1 improves over nothing, epoch 2 stops
    assert state.epochs_since_best == 1


def test_training_is_bit_reproducible():
    rng = np.random.default_rng(8)
    clusters = small_corpus(4, rng)
    hp = tiny_hp(max_epochs=2, keep_prob=0.8)
    s1 = T.train(clusters[:3], clusters[3:], hp)
    s2 = T.train(clusters[:3], clusters[3:], hp)
    for name, p in s1.model.params().items():
        assert np.array_equal(p.data, s2.model.params()[name].data), name

    s3 = T.train(clusters[:3], clusters[3:], tiny_hp(max_epochs=2, seed=99))
    assert any(not np.array_equal(p.data, s3.model.params()[name].data)
               for name, p in s1.model.params().items())


def rebuilding_train(train_clusters, dev_clusters, hp):
    """train's loop with no plans kept: every step's cluster_loss builds the
    cluster's index, distinct rows, columns and loss targets anew. Returns
    the history and the flat parameters train would return (patience is
    assumed not to run out)."""
    seeds = np.random.SeedSequence(hp.seed).spawn(3)
    init_rng, shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in seeds)
    model = M.init_model([t for c in train_clusters for d in c.documents
                          for t in d.flat_tokens()], hp, init_rng)
    flat, adam = model.flat, C.AdamState()
    history, best, best_data = [], -1.0, flat.data.copy()
    for epoch in range(1, hp.max_epochs + 1):
        losses = []
        for ci in shuffle_rng.permutation(len(train_clusters)):
            flat.zero_grad()
            loss = T.cluster_loss(model, train_clusters[ci], hp, rng=dropout_rng)
            if loss is not None:
                C.backward(loss)
                C.adam_step(flat, adam, lr=hp.lr, l2=hp.l2)
                losses.append(loss.item())
        metric = T.dev_f1(model, dev_clusters, hp)
        history.append((epoch, float(np.mean(losses)), metric))
        if metric > best:
            best, best_data = metric, flat.data.copy()
    flat.data[:] = best_data
    return history, flat.data


@pytest.mark.parametrize("settings", [
    dict(aggregation=AggregationConfig("sum")), dict(aggregation=AggregationConfig("topic")),
    dict(aggregation=AggregationConfig("max")), dict(aggregation=AggregationConfig("per-doc")),
    dict(loss_mode="mention_level"), dict(bp_train_iters=2)],
    ids=["sum", "topic", "max", "per-doc", "mention_level", "bp_train_iters=2"])
def test_training_with_plans_equals_rebuilding_every_step(settings):
    # a train call prepares each cluster once and reuses it every epoch:
    # the same parameters to the bit and the same loss and dev-F1 histories
    # as a loop that rebuilds everything each step (a mentionless cluster
    # scores nothing in mention-level mode, yet its forward still draws)
    clusters = _synth_clusters(8, 41) + [quiet_cluster()]
    hp = tiny_hp(keep_prob=0.8, lr=0.03, max_epochs=3, **settings)
    state = T.train(clusters[2:], clusters[:2], hp)
    history, flat = rebuilding_train(clusters[2:], clusters[:2], hp)
    assert state.history == history
    assert np.array_equal(state.model.flat.data, flat)
    assert len({h[1] for h in history}) == 3


def test_topic_training_finds_each_clusters_weights_once(monkeypatch):
    # the index keeps a cluster's topic weights once a forward has found
    # them, so a train call walks each cluster's sentences once, not per step
    clusters = _synth_clusters(6, 43)
    calls, topic_weights = [], agg.topic_weights

    def counting(cluster):
        calls.append(cluster.cluster_id)
        return topic_weights(cluster)

    monkeypatch.setattr(agg, "topic_weights", counting)
    T.train(clusters, [], tiny_hp(aggregation=AggregationConfig("topic"), max_epochs=3))
    assert sorted(calls) == sorted(c.cluster_id for c in clusters)


@pytest.mark.parametrize("loss_mode", T.LOSS_MODES)
def test_cluster_plan_arrays_are_read_only(loss_mode):
    # what every epoch rereads, the loss targets and what the first forward
    # leaves on the index, is kept once and read-only: a stray in-place
    # write fails at once instead of reaching a later epoch
    hp = tiny_hp(loss_mode=loss_mode)
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(0))
    plan = T.cluster_plan(model, c, hp)
    T.cluster_loss(model, c, hp, plan=plan)
    index, targets = plan
    distinct = index.distinct_tokens()
    assert distinct is index.distinct_tokens()
    arrays = [index.mention_mask, distinct[2], targets[0], targets[1]]
    if loss_mode == "value_level":
        columns = index.columns(hp.aggregation.null_enabled)
        assert index.segments(columns) is index.segments(columns)
        assert len(targets[2]) == len(cp.EVAL_SLOTS)
        arrays += [index.segments(columns).index, targets[2].index]
    for array in arrays:
        assert isinstance(array, np.ndarray) and array.size
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def abutting_cluster():
    """Multi-token mention spans that abut, at both ends of a document."""
    d0 = make_doc("d0", 0, ["acme", "air", "flight", "nine", "fifty", "five", "died"],
                  [(0, 2, "acme", "airline"), (2, 4, "nine", "number"),
                   (4, 6, "fifty", "number")])
    d1 = make_doc("d1", 1, ["the", "acme", "air", "fifty", "five"],
                  [(1, 3, "acme", "airline"), (3, 5, "fifty", "number")])
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = ("fifty",)
    c = cp.Cluster(cluster_id="abut", split="train", gold=gold,
                   candidate_values=("acme", "nine", "fifty"), documents=(d0, d1))
    cp.validate_cluster(c)
    return c


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 0.75), min_size=4, max_size=4), st.integers(1, 8),
       st.integers(0, 8), st.integers(0, 2**16))
def test_pipeline_pools_only_partitions(rates, docs_min, more_docs, seed):
    # segment_pool rejects overlapping groups, so every layout the pipeline
    # builds must be a partition of some tokens
    config = SY.SynthConfig(n_clusters=3, docs_min=docs_min, docs_max=docs_min + more_docs,
                            misinformation_rate=rates[0], offtopic_rate=rates[1],
                            missing_slot_rate=rates[2], incidental_rate=rates[3], seed=seed)
    for c in [*SY.generate(config)[0], abutting_cluster()]:
        index = M.ClusterIndex.build(c)
        outside = np.flatnonzero(~index.mention_mask).tolist()
        for null_enabled in (False, True):
            for columns in (index.columns(null_enabled), index.grid_columns(null_enabled)):
                groups = dict(zip(columns, layout_groups(index.segments(columns))))
                assert groups.pop(NULL_VALUE, outside) == outside
                assert groups == index.groups
            T.value_targets(cp.EVAL_SLOTS, index.columns(null_enabled), c.gold)


def test_value_loss_invariant_to_document_order():
    c = crash_cluster()
    flipped = replace(
        c, documents=tuple(replace(d, order_index=i)
                           for i, d in enumerate(reversed(c.documents))))
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(4))
    a = T.cluster_loss(model, c, hp).item()
    b = T.cluster_loss(model, flipped, hp).item()
    assert abs(a - b) < 1e-9


def test_divergence_aborts_with_state_dump(monkeypatch):
    clusters = small_corpus(2, np.random.default_rng(10))

    def explode(*a, **kw):
        raise C.ComputeError("non-finite values in tensor")

    monkeypatch.setattr(T, "cluster_loss", explode)
    with pytest.raises(T.TrainingError, match="diverged.*param max-abs"):
        T.train(clusters, [], tiny_hp(max_epochs=1))


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    c = crash_cluster()
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(12))
    path = tmp_path / "model.ckpt"
    T.save_model(path, model, hp)
    loaded, config, loss_mode = T.load_model(path)
    assert config == hp.aggregation and loss_mode == hp.loss_mode
    want = M.predict_cluster(model, c, hp.aggregation)
    got = M.predict_cluster(loaded, c, config)
    assert want["predictions"] == got["predictions"]
    for slot in want["scores"]:
        for v, x in want["scores"][slot].items():
            assert abs(got["scores"][slot][v] - x) < 1e-12


def test_checkpoint_keeps_every_aggregation_setting(tmp_path):
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         tiny_hp(), np.random.default_rng(12))
    path = tmp_path / "model.ckpt"
    for mode in MODES:
        for null_enabled in (True, False):
            for loss_mode in T.LOSS_MODES:
                hp = tiny_hp(aggregation=AggregationConfig(mode, null_enabled),
                             loss_mode=loss_mode)
                T.save_model(path, model, hp)
                _, config, loaded_loss_mode = T.load_model(path)
                assert (config, loaded_loss_mode) == (hp.aggregation, loss_mode)


@pytest.mark.parametrize("mode,weight_source,want", [
    ("weighted_sum", "topic", "topic"), ("weighted_sum", "date", "sum"),
    ("per_document_softmax_sum", "unit", "per-doc"), ("sum", "unit", "sum"),
    ("max", "topic", "max")])
def test_two_field_checkpoint_loads_as_one_mode(tmp_path, mode, weight_source, want):
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         tiny_hp(), np.random.default_rng(12))
    path = tmp_path / "model.ckpt"
    T.save_model(path, model, tiny_hp())
    magic, body = path.read_text().split("\n", 1)
    body = json.loads(body)
    body["extra"]["hyperparams"] = {"loss_mode": "value_level", "mode": mode,
                                    "weight_source": weight_source, "null_enabled": False}
    path.write_text(magic + "\n" + json.dumps(body))
    _, config, _ = T.load_model(path)
    assert config == AggregationConfig(mode=want, null_enabled=False)


def test_date_checkpoint_loads_as_sum(tmp_path):
    # the deleted 'date' mode predicted as 'sum'
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         tiny_hp(), np.random.default_rng(12))
    path = tmp_path / "model.ckpt"
    T.save_model(path, model, tiny_hp())
    magic, body = path.read_text().split("\n", 1)
    body = json.loads(body)
    body["extra"]["hyperparams"] = {"loss_mode": "value_level", "mode": "date",
                                    "null_enabled": False}
    path.write_text(magic + "\n" + json.dumps(body))
    _, config, _ = T.load_model(path)
    assert config == AggregationConfig(mode="sum", null_enabled=False)


def test_train_smoke_with_dev_tracking():
    rng = np.random.default_rng(14)
    clusters = small_corpus(5, rng)
    hp = tiny_hp(max_epochs=3, lr=0.01)
    state = T.train(clusters[:4], clusters[4:], hp)
    assert len(state.history) <= 3
    assert 0.0 <= state.best_dev_metric <= 1.0
    for _, loss, f1 in state.history:
        assert np.isfinite(loss) and 0.0 <= f1 <= 1.0


# ---------------------------------------------------------------------------
# gradient checking


def test_gradient_check_value_mode():
    hp = tiny_hp()
    report = T.gradient_check(hp, crash_cluster())
    assert max(report.values()) < 1e-4
    assert {"enc.w1", "mask_vector"} <= set(report)
    assert any(k.startswith("slot.") for k in report)


def test_gradient_check_mention_mode():
    hp = tiny_hp(loss_mode="mention_level")
    report = T.gradient_check(hp, crash_cluster())
    assert max(report.values()) < 1e-4
    assert f"slot.{NULL_SLOT}" in report


def test_gradient_check_with_bp_in_the_loss():
    # in every mode, so per-doc's 1/n factor and max mode's unsoftmaxed masses are checked too
    for mode in MODES:
        hp = tiny_hp(seed=13, bp_train_iters=2, aggregation=AggregationConfig(mode=mode))
        report = T.gradient_check(hp, _tiny_cluster())
        assert max(report.values()) < 1e-4, mode
        assert {"enc.w1", "mask_vector"} <= set(report)


@pytest.mark.parametrize("mode", MODES)
def test_bp_loss_learns(mode):
    # default hyperparameters with BP in the loss: 4 epochs over 12 noisy
    # clusters cut the mean loss by more than 10% (about 45% measured)
    clusters, _ = SY.generate(SY.SynthConfig(n_clusters=12, seed=4, misinformation_rate=0.3,
                                             offtopic_rate=0.3))
    hp = T.Hyperparams(bp_train_iters=2, max_epochs=4, aggregation=AggregationConfig(mode=mode))
    losses = [loss for _, loss, _ in T.train(clusters, [], hp).history]
    assert losses[-1] <= 0.9 * losses[0], losses


@pytest.mark.parametrize("loss_mode,bp_train_iters,want", [
    ("value_level", 0, 0), ("value_level", 2, 2), ("mention_level", 2, 0)])
def test_dev_f1_decodes_at_the_trained_depth(monkeypatch, loss_mode, bp_train_iters, want):
    # a value-level loss runs bp_train_iters BP rounds, a mention-level loss none
    seen = []

    def predict(model, clusters, config, bp_iterations=0, mention_decode=None):
        seen.append(bp_iterations)
        return M.predict_clusters(model, clusters, config, bp_iterations, mention_decode)

    monkeypatch.setattr(T, "predict_clusters", predict)
    clusters = small_corpus(3, np.random.default_rng(24))
    T.train(clusters[:2], clusters[2:], tiny_hp(loss_mode=loss_mode, max_epochs=1,
                                                bp_train_iters=bp_train_iters))
    assert seen == [want]


def test_embedding_matrix_is_frozen_and_mask_trains():
    c = crash_cluster()
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(15))
    assert not any(name.startswith("embed") for name in model.params())
    assert isinstance(model.table.matrix, np.ndarray)   # plain array, no grad
    before = model.table.matrix.copy()

    loss = T.cluster_loss(model, c, hp)
    C.backward(loss)
    assert np.array_equal(model.table.matrix, before)
    assert model.table.mask_vector.grad is not None
    assert np.abs(model.table.mask_vector.grad).max() > 0


# ---------------------------------------------------------------------------
# the flat parameter vector


def assert_flat_views(model):
    """Every parameter's data and grad are views into the model's two flat
    vectors, and together the views tile each vector once in order."""
    flat = model.flat
    at = 0
    for name, p in model.params().items():
        assert p is flat.tensors[name], name
        for view, vector in ((p.data, flat.data), (p.grad, flat.grad)):
            assert view.base is vector, name
            assert view.ctypes.data == vector.ctypes.data + at * vector.itemsize, name
        at += p.data.size
    assert at == flat.data.size == flat.grad.size


@pytest.mark.parametrize("loss_mode", ["value_level", "mention_level"])
def test_init_model_params_are_flat_views(loss_mode):
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         tiny_hp(loss_mode=loss_mode), np.random.default_rng(16))
    assert_flat_views(model)
    assert not model.flat.grad.any()


def test_load_model_params_are_flat_views(tmp_path):
    c = crash_cluster()
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(17))
    T.save_model(tmp_path / "m.ckpt", model, hp)
    loaded, _, _ = T.load_model(tmp_path / "m.ckpt")
    assert_flat_views(loaded)
    assert loaded.flat.data.flags.writeable
    assert loaded.flat.data.tobytes() == model.flat.data.tobytes()


def test_training_with_dev_keeps_flat_views_and_restores_the_best():
    rng = np.random.default_rng(18)
    clusters = small_corpus(5, rng)
    hp = tiny_hp(max_epochs=4, lr=0.01, patience=1)
    state = T.train(clusters[:4], clusters[4:], hp)
    assert_flat_views(state.model)
    # the restored parameters are those of the best dev epoch, which is not
    # the last: a run without dev clusters that stops there ends on them
    best = max(range(len(state.history)), key=lambda i: (state.history[i][2], -i))
    assert best + 1 < state.epoch
    plain = T.train(clusters[:4], [], replace(hp, max_epochs=best + 1))
    assert state.model.flat.data.tobytes() == plain.model.flat.data.tobytes()


def _keeping(models: list):
    """init_model that also appends each model it builds to models."""
    def init_and_keep(*args, **kwargs):
        models.append(M.init_model(*args, **kwargs))
        return models[-1]
    return init_and_keep


@pytest.mark.parametrize("mode,loss_mode", [("sum", "value_level"), ("max", "value_level"),
                                            ("per-doc", "value_level"),
                                            ("sum", "mention_level")])
def test_mask_vector_and_slot_grads_match_central_differences(monkeypatch, mode, loss_mode):
    # layer 1's backward computes x's gradient for the mask row alone and the
    # scorer's as two products; what reaches the mask vector and the slots
    # still matches central differences, and is not 0
    models = []
    monkeypatch.setattr(T, "init_model", _keeping(models))
    hp = tiny_hp(aggregation=AggregationConfig(mode=mode), loss_mode=loss_mode)
    report = T.gradient_check(hp, crash_cluster())
    checked = ["mask_vector", *(k for k in report if k.startswith("slot."))]
    assert len(checked) > 1
    for name in checked:
        assert report[name] < 1e-4, name
        assert np.abs(models[0].params()[name].grad).max() > 0, name


def test_gradient_check_keeps_flat_views(monkeypatch):
    models = []
    monkeypatch.setattr(T, "init_model", _keeping(models))
    T.gradient_check(tiny_hp(), crash_cluster())
    assert_flat_views(models[0])
    assert models[0].flat.grad.any()


def test_zero_grad_on_a_parameter_keeps_its_view():
    c = crash_cluster()
    hp = tiny_hp()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()],
                         hp, np.random.default_rng(19))
    C.backward(T.cluster_loss(model, c, hp))
    model.params()["enc.w1"].zero_grad()
    assert_flat_views(model)
    assert not model.params()["enc.w1"].grad.any() and model.flat.grad.any()


def test_non_finite_gradient_diverges_naming_the_parameter(monkeypatch):
    models = []
    monkeypatch.setattr(T, "init_model", _keeping(models))
    backward = C.backward

    def poisoned(loss):
        backward(loss)
        models[0].params()["slot.Crew"].grad[1] = np.nan

    monkeypatch.setattr(C, "backward", poisoned)
    with pytest.raises(T.DivergenceError, match="non-finite gradient for parameter 'slot.Crew'"):
        T.train(small_corpus(2, np.random.default_rng(20)), [], tiny_hp(max_epochs=1))


# ---------------------------------------------------------------------------
# finiteness: one check, at the token scores


def _overflowing_w1(model):
    """Finite parameters whose first CNN layer overflows any forward."""
    model.params()["enc.w1"].data[...] = 1e308
    return model


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("loss_mode", T.LOSS_MODES)
def test_overflowing_forward_raises_at_the_token_scores(loss_mode):
    c = crash_cluster()
    hp = tiny_hp(loss_mode=loss_mode)
    model = _overflowing_w1(M.init_model([t for d in c.documents for t in d.flat_tokens()],
                                         hp, np.random.default_rng(21)))
    with pytest.raises(C.ComputeError, match="non-finite token scores"):
        T.cluster_loss(model, c, hp)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_forward_in_training_diverges(monkeypatch):
    monkeypatch.setattr(T, "init_model", lambda *a, **kw: _overflowing_w1(M.init_model(*a, **kw)))
    with pytest.raises(T.DivergenceError, match="non-finite token scores"):
        T.train(small_corpus(2, np.random.default_rng(22)), [], tiny_hp(max_epochs=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_forward_is_finite_wherever_the_token_scores_are(data):
    # everything after the token scores is bounded, so a model either fails
    # the one check there or yields finite records, beliefs and losses
    loss_mode, decode, bp_train_iters = data.draw(st.sampled_from(
        [("value_level", None, 0), ("value_level", None, 2), ("mention_level", "none", 0),
         ("mention_level", "max", 0), ("mention_level", "sum", 0)]), label="loss")
    hp = tiny_hp(loss_mode=loss_mode, bp_train_iters=bp_train_iters,
                 aggregation=AggregationConfig(mode=data.draw(st.sampled_from(MODES))))
    c = crash_cluster()
    model = M.init_model([t for d in c.documents for t in d.flat_tokens()], hp,
                         np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed")))
    for name, p in model.params().items():
        p.data *= 10.0 ** data.draw(st.one_of(st.just(0.0), st.floats(0.0, 307.5)), label=name)
    try:
        records = [M.predict_cluster(model, c, hp.aggregation, bp, decode)
                   for bp in (0, 3, "conv")]
        loss = T.cluster_loss(model, c, hp)
    except C.ComputeError as exc:
        assert str(exc) == "non-finite token scores"
        return
    for record in records:
        assert all(math.isfinite(x) for row in record["scores"].values() for x in row.values())
    assert math.isfinite(loss.item())
