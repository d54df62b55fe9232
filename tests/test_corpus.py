"""Round-trip, capping, splitting, and topicality tests for the corpus layer."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterreader import cli
from clusterreader import corpus as cp
from clusterreader import synth as SY


def make_doc(doc_id, order, sentences, mentions=(), dateline=None):
    return cp.Document(doc_id=doc_id, order_index=order,
                       sentences=tuple(tuple(s) for s in sentences),
                       mentions=tuple(mentions), dateline=dateline)


def make_cluster(docs, gold=None, cands=("v1", "v2"), split="train", cid="c0"):
    return cp.Cluster(cluster_id=cid, split=split, gold=gold or {},
                      candidate_values=tuple(cands), documents=tuple(docs))


def flight(sentence, start, value_id, topical=False):
    return cp.Mention(sentence=sentence, start=start, end=start + 1, value_id=value_id,
                      entity_type="number", is_flight_number=True, is_topical_flight=topical)


def test_slot_inventory():
    assert len(cp.SLOTS) == 15
    assert len(cp.EVAL_SLOTS) == 8
    assert set(cp.EVAL_SLOTS) <= set(cp.SLOTS)


def test_roundtrip_identity(tmp_path):
    m = cp.Mention(sentence=0, start=1, end=2, value_id="v1", entity_type="number")
    doc = make_doc("d1", 0, [["the", "crash", "site"], ["ten", "dead"]], [m], dateline="2004-01-03")
    doc2 = make_doc("d2", 1, [["second", "story"]])
    cluster = make_cluster([doc, doc2], gold={"Fatalities": ("v1",)}, cands=("v1",))
    path = tmp_path / "c.jsonl"
    cp.save_clusters(path, [cluster])
    loaded = cp.load_clusters(path)
    assert len(loaded) == 1
    assert loaded[0] == cluster
    # and a second round trip produces byte-identical text
    path2 = tmp_path / "c2.jsonl"
    cp.save_clusters(path2, loaded)
    assert path.read_text() == path2.read_text()


def test_roundtrip_keeps_an_empty_dateline(tmp_path):
    # "" is a dateline, not a missing one: it must not reload as None
    cluster = make_cluster([make_doc("d1", 0, [["ten", "dead"]], dateline="")], cands=())
    path = tmp_path / "c.jsonl"
    cp.save_clusters(path, [cluster])
    assert cp.load_clusters(path) == [cluster]


def test_load_caps_at_200_documents(tmp_path):
    docs = [make_doc(f"d{i}", i, [["tok"]]) for i in range(250)]
    rec = cp.cluster_to_record(make_cluster(docs, cands=()))
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    loaded = cp.load_clusters(path)
    assert len(loaded[0].documents) == 200
    assert loaded[0].documents[-1].doc_id == "d199"


def test_duplicate_cluster_ids_rejected(tmp_path):
    doc = make_doc("d1", 0, [["a", "b"]])
    path = tmp_path / "dup.jsonl"
    cp.save_clusters(path, [make_cluster([doc], cid="c7"), make_cluster([doc], cid="c8"),
                            make_cluster([doc], cid="c7")])
    with pytest.raises(cp.CorpusError, match="record 3: duplicate cluster_id 'c7'"):
        cp.load_clusters(path)


def test_span_out_of_bounds_rejected(tmp_path):
    bad = cp.Mention(sentence=0, start=1, end=4, value_id="v1")
    doc = make_doc("d1", 0, [["a", "b"]], [bad])
    rec = cp.cluster_to_record(make_cluster([doc], cands=("v1",)))
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(cp.CorpusError, match="record 1"):
        cp.load_clusters(path)


def test_overlapping_mentions_rejected():
    ms = [cp.Mention(sentence=0, start=0, end=2, value_id="v1"),
          cp.Mention(sentence=0, start=1, end=3, value_id="v2")]
    doc = make_doc("d1", 0, [["a", "b", "c"]], ms)
    with pytest.raises(cp.CorpusError, match="overlap"):
        cp.validate_cluster(make_cluster([doc]))


def test_mention_value_must_be_candidate():
    m = cp.Mention(sentence=0, start=0, end=1, value_id="ghost")
    doc = make_doc("d1", 0, [["a"]], [m])
    with pytest.raises(cp.CorpusError, match="candidate"):
        cp.validate_cluster(make_cluster([doc]))


def test_mention_must_sit_in_its_sentence():
    m = cp.Mention(sentence=0, start=2, end=3, value_id="v1")  # token 2 is in sentence 1
    doc = make_doc("d1", 0, [["a", "b"], ["c"]], [m])
    with pytest.raises(cp.CorpusError, match="boundary"):
        cp.validate_cluster(make_cluster([doc]))


def test_unknown_slot_rejected():
    doc = make_doc("d1", 0, [["a"]])
    with pytest.raises(cp.CorpusError, match="slot"):
        cp.validate_cluster(make_cluster([doc], gold={"Shoe Size": ("v1",)}))


def test_split_dev_every_fifth():
    docs = [make_doc(f"d{i}", i, [["w"]]) for i in range(10)]
    train, dev = cp.split_dev([make_cluster(docs)])
    assert [d.doc_id for d in dev[0].documents] == ["d4", "d9"]
    assert len(train[0].documents) == 8
    assert dev[0].split == "dev"
    assert dev[0].gold == train[0].gold


def test_split_dev_small_and_empty():
    small = make_cluster([make_doc(f"d{i}", i, [["w"]]) for i in range(3)])
    empty = make_cluster([], cid="c-empty")
    train, dev = cp.split_dev([small, empty])
    assert len(train[0].documents) == 3 and len(train[1].documents) == 0
    assert dev == []


def test_split_dev_is_a_partition():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(0, 30))
        docs = [make_doc(f"d{i}", i, [["w"]]) for i in range(n)]
        train, dev = cp.split_dev([make_cluster(docs)])
        train_ids = [d.doc_id for d in train[0].documents]
        dev_ids = [d.doc_id for c in dev for d in c.documents]
        assert sorted(train_ids + dev_ids) == sorted(d.doc_id for d in docs)
        assert not set(train_ids) & set(dev_ids)


def test_split_dev_leaves_test_clusters_alone():
    docs = [make_doc(f"d{i}", i, [["w"]]) for i in range(10)]
    train, dev = cp.split_dev([make_cluster(docs, split="test")])
    assert len(train[0].documents) == 10 and dev == []


def test_topicality_rule_flips_and_resets():
    # sentences: no flight / nontopical flight / no flight / topical flight
    sents = [["just", "words"], ["flight", "123"], ["more", "words"], ["flight", "990"]]
    ms = [flight(1, 2, "f123", topical=False), flight(3, 6, "f990", topical=True)]
    doc = make_doc("d", 0, sents, ms)
    assert cp.segment_topicality(doc) == [True, False, False, True]


def test_topicality_no_flight_mentions_all_true():
    doc = make_doc("d", 0, [["a"], ["b"], ["c"]])
    assert cp.segment_topicality(doc) == [True, True, True]


def test_topicality_nontopical_first_sentence():
    sents = [["flight", "111"], ["next"], ["flight", "990"]]
    ms = [flight(0, 0, "f111"), flight(2, 3, "f990", topical=True)]
    doc = make_doc("d", 0, sents, ms)
    assert cp.segment_topicality(doc) == [False, False, True]


def test_topicality_value_set_overrides_flag():
    sents = [["flight", "990"]]
    doc = make_doc("d", 0, sents, [flight(0, 0, "f990", topical=False)])
    assert cp.segment_topicality(doc) == [False]


def test_topicality_ignores_non_flight_mentions():
    sents = [["ten", "dead"], ["flight", "123"]]
    ms = [cp.Mention(sentence=0, start=0, end=1, value_id="f123", entity_type="number"),
          flight(1, 2, "f123")]
    doc = make_doc("d", 0, sents, ms)
    # the sentence-0 mention is not a flight number, so it cannot flip state
    assert cp.segment_topicality(doc) == [True, False]


def test_document_token_helpers():
    doc = make_doc("d", 0, [["a", "b"], ["c"], ["d", "e", "f"]])
    assert doc.n_tokens == 6
    assert doc.sentence_starts() == [0, 2, 3]
    assert doc.flat_tokens() == ["a", "b", "c", "d", "e", "f"]


def test_malformed_json_names_record(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"cluster_id": "ok"\n')
    with pytest.raises(cp.CorpusError, match="record 1"):
        cp.load_clusters(path)


# ---------------------------------------------------------------------------
# field types


def _synth_record(seed=3):
    clusters, _ = SY.generate(SY.SynthConfig(n_clusters=1, docs_min=2, docs_max=3, seed=seed))
    return cp.cluster_to_record(clusters[0])


def _set_path(rec, path, value):
    *head, last = path
    for key in head:
        rec = rec[key]
    rec[last] = value


_WRONG_TYPES = [
    (("gold", "Fatalities"), "12", "Fatalities"),               # was the tuple ("1", "2")
    (("gold", "Fatalities"), [5], "Fatalities"),
    (("candidate_values",), "fat5", "candidate_values"),
    (("cluster_id",), {"id": 1}, "cluster_id"),                 # was str()-ed
    (("cluster_id",), 7, "cluster_id"),
    (("documents", 0, "doc_id"), 3, "doc_id"),
    (("documents", 0, "order_index"), 0.0, "order_index"),
    (("documents", 0, "order_index"), True, "order_index"),
    (("documents", 0, "sentences"), "a b c", "sentences"),
    (("documents", 0, "sentences", 0, 0), 12, "sentences"),
    (("documents", 0, "dateline"), 20150310, "dateline"),
    (("documents", 0, "mentions", 1, "start"), 6.0, "start"),
    (("documents", 0, "mentions", 1, "start"), 1.5, "start"),    # was truncated to 1
    (("documents", 0, "mentions", 1, "end"), False, "end"),
    (("documents", 0, "mentions", 1, "sentence"), "1", "sentence"),
    (("documents", 0, "mentions", 1, "value_id"), 5, "value_id"),
    (("documents", 0, "mentions", 1, "is_flight_number"), "false", "is_flight_number"),
]


@pytest.mark.parametrize("path,value,field", _WRONG_TYPES,
                         ids=[f"{f}={json.dumps(v)}" for _, v, f in _WRONG_TYPES])
def test_field_of_wrong_json_type_exits_3(tmp_path, capsys, path, value, field):
    rec = _synth_record()
    _set_path(rec, path, value)
    corpus = tmp_path / "c.ndjson"
    corpus.write_text(json.dumps(rec) + "\n")
    with pytest.raises(cp.CorpusError, match=f"record 1: .*'{field}'"):
        cp.load_clusters(corpus)
    assert cli.run(["train", "--corpus", str(corpus), "--checkpoint", str(tmp_path / "m")]) == 3
    assert f"'{field}'" in capsys.readouterr().err


def test_too_deeply_nested_record_names_record(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(cp.CorpusError, match="record 1"):
        cp.load_clusters(path)


def test_dateline_may_be_null(tmp_path):
    rec = _synth_record()
    rec["documents"][0]["dateline"] = None
    corpus = tmp_path / "c.ndjson"
    corpus.write_text(json.dumps(rec) + "\n")
    assert cp.load_clusters(corpus)[0].documents[0].dateline is None


def _paths(node, at=()):
    """Every key and index path inside a JSON value."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
_RECORDS = [_synth_record(seed) for seed in (3, 4)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_records_raise_only_corpus_errors(tmp_path_factory, data):
    rec = json.loads(json.dumps(data.draw(st.sampled_from(_RECORDS), label="record")))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(rec))
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        if data.draw(st.booleans(), label="delete"):
            *head, last = path
            owner = rec
            for key in head:
                owner = owner[key]
            del owner[last]
        else:
            _set_path(rec, path, data.draw(_JSON, label="value"))
    corpus = tmp_path_factory.getbasetemp() / "fuzz.ndjson"
    corpus.write_text(json.dumps(rec) + "\n")
    try:
        cp.load_clusters(corpus)
    except cp.CorpusError:
        pass
