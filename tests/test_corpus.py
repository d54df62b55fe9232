"""Round-trip, capping, splitting, and topicality tests for the corpus layer."""

import json

import numpy as np
import pytest

from clusterreader import corpus as cp


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


def test_split_dev_extra_clusters_copy_train_docs():
    docs = [make_doc(f"d{i}", i, [["w"]]) for i in range(10)]
    train, dev = cp.split_dev([make_cluster(docs)], extra_dev_clusters=2)
    assert len(dev) == 3  # held-out twin + two round-robin copies
    extra_ids = sorted(d.doc_id for c in dev[1:] for d in c.documents)
    assert extra_ids == sorted(d.doc_id for d in train[0].documents)


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
