"""Generator noise model: exact counts, determinism, validation."""

import numpy as np
import pytest

import clusterreader.corpus as cp
import clusterreader.synth as sy
from clusterreader.aggregator import topic_weights


def corpus_records(clusters):
    return [cp.cluster_to_record(c) for c in clusters]


def doc_offsets(cluster):
    out, at = {}, 0
    for d in cluster.documents:
        out[d.doc_id] = at
        at += d.n_tokens
    return out


def test_generated_corpus_passes_validation():
    clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=6, misinformation_rate=0.3, offtopic_rate=0.3,
        missing_slot_rate=0.2, seed=5))
    for c in clusters:
        cp.validate_cluster(c)  # raises on any violation
        assert c.documents and all(d.n_tokens > 0 for d in c.documents)


def test_generation_deterministic_per_seed():
    cfg = sy.SynthConfig(n_clusters=4, misinformation_rate=0.5,
                         offtopic_rate=0.4, missing_slot_rate=0.3, seed=11)
    a_clusters, a_prov = sy.generate(cfg)
    b_clusters, b_prov = sy.generate(cfg)
    assert corpus_records(a_clusters) == corpus_records(b_clusters)
    assert a_prov == b_prov

    c_clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=4, misinformation_rate=0.5, offtopic_rate=0.4,
        missing_slot_rate=0.3, seed=12))
    assert corpus_records(a_clusters) != corpus_records(c_clusters)


def test_corpus_file_byte_identical(tmp_path):
    cfg = sy.SynthConfig(n_clusters=3, offtopic_rate=0.5, seed=2)
    p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    cp.save_clusters(p1, sy.generate(cfg)[0])
    cp.save_clusters(p2, sy.generate(cfg)[0])
    assert p1.read_bytes() == p2.read_bytes()


def test_noiseless_corpus_all_correct():
    clusters, prov = sy.generate(sy.SynthConfig(
        n_clusters=5, misinformation_rate=0.0, offtopic_rate=0.0, seed=3))
    assert all(rec["label"] == "correct" for rec in prov)
    stats = sy.oracle_stats(prov)
    for slot, counts in stats.items():
        assert counts["wrong"] == 0 and counts["offtopic"] == 0
    # every stated slot is asserted in a characteristic context in every doc
    by_cluster = {c.cluster_id: c for c in clusters}
    for c in clusters:
        for slot in cp.EVAL_SLOTS:
            if not c.gold[slot]:
                continue
            n = sum(1 for rec in prov
                    if rec["cluster"] == c.cluster_id and rec["slot"] == slot
                    and not rec["incidental"])
            assert n == len(by_cluster[c.cluster_id].documents)


def test_all_slots_missing():
    clusters, prov = sy.generate(sy.SynthConfig(
        n_clusters=4, missing_slot_rate=1.0, seed=4))
    for c in clusters:
        assert all(c.gold[s] == () for s in cp.EVAL_SLOTS)
    assert all(rec["slot"] is None for rec in prov)   # only flight mentions remain


def test_misinformation_exact_counts():
    clusters, prov = sy.generate(sy.SynthConfig(
        n_clusters=6, docs_min=10, docs_max=10,
        misinformation_rate=0.3, seed=6))
    for c in clusters:
        for slot in cp.EVAL_SLOTS:
            if not c.gold[slot]:
                continue
            wrong = [rec for rec in prov if rec["cluster"] == c.cluster_id
                     and rec["slot"] == slot and rec["label"] == "wrong"]
            correct = [rec for rec in prov if rec["cluster"] == c.cluster_id
                       and rec["slot"] == slot and rec["label"] == "correct"
                       and not rec["incidental"]]
            assert len(wrong) == 3               # floor(0.3 * 10)
            assert len(correct) == 7             # the remaining documents
            # a consistent wrong story: one distinct wrong value
            assert len({rec["value_id"] for rec in wrong}) == 1


def test_misinformation_is_early_biased():
    clusters, prov = sy.generate(sy.SynthConfig(
        n_clusters=30, docs_min=10, docs_max=10,
        misinformation_rate=0.3, seed=7))
    order_of = {}
    for c in clusters:
        for d in c.documents:
            order_of[(c.cluster_id, d.doc_id)] = d.order_index
    wrong_orders = [order_of[(rec["cluster"], rec["doc"])]
                    for rec in prov if rec["label"] == "wrong"]
    assert np.mean(wrong_orders) < 4.5           # uniform would sit at 4.5


def test_offtopic_counts_and_topicality():
    clusters, prov = sy.generate(sy.SynthConfig(
        n_clusters=6, docs_min=6, docs_max=6, offtopic_rate=0.5,
        missing_slot_rate=0.2, seed=8))
    for c in clusters:
        off_docs = {rec["doc"] for rec in prov
                    if rec["cluster"] == c.cluster_id and rec["label"] == "offtopic"}
        assert len(off_docs) == 3                # floor(0.5 * 6)
        offsets = doc_offsets(c)
        w = topic_weights(c)
        for rec in prov:
            if rec["cluster"] != c.cluster_id:
                continue
            k = offsets[rec["doc"]] + rec["start"]
            if rec["label"] == "offtopic":
                assert w[k] == 0.0
            else:
                assert w[k] == 1.0


def test_oracle_stats_shape_and_totals():
    _, prov = sy.generate(sy.SynthConfig(
        n_clusters=5, misinformation_rate=0.4, offtopic_rate=0.4, seed=9))
    stats = sy.oracle_stats(prov)
    assert set(stats) == set(cp.EVAL_SLOTS)
    slot_records = [rec for rec in prov if rec["slot"] is not None]
    total = sum(sum(c.values()) for c in stats.values())
    assert total == len(slot_records)
    assert any(c["wrong"] > 0 for c in stats.values())
    assert any(c["offtopic"] > 0 for c in stats.values())


def test_gold_values_always_candidates():
    clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=5, misinformation_rate=0.3, offtopic_rate=0.3, seed=10))
    for c in clusters:
        cands = set(c.candidate_values)
        for vals in c.gold.values():
            assert set(vals) <= cands


def test_config_validation():
    with pytest.raises(sy.SynthError):
        sy.SynthConfig(misinformation_rate=1.5)
    with pytest.raises(sy.SynthError):
        sy.SynthConfig(docs_min=5, docs_max=3)
    with pytest.raises(sy.SynthError):
        sy.SynthConfig(n_clusters=0)


def test_provenance_roundtrip(tmp_path):
    _, prov = sy.generate(sy.SynthConfig(n_clusters=2, offtopic_rate=0.5, seed=1))
    path = tmp_path / "prov.json"
    sy.save_provenance(path, prov)
    assert sy.load_provenance(path) == prov


def test_clusters_load_back_from_disk(tmp_path):
    clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=3, misinformation_rate=0.2, offtopic_rate=0.2, seed=13))
    path = tmp_path / "corpus.ndjson"
    cp.save_clusters(path, clusters)
    loaded = cp.load_clusters(path)
    assert corpus_records(loaded) == corpus_records(clusters)
