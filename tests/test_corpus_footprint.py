"""What a loaded corpus keeps in memory: one string per distinct token, value
id and entity type per load, and few bytes per token."""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from clusterreader import corpus as cp
from clusterreader import synth as SY


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    """72 synthetic clusters of 8-16 documents, 8 per document count, at
    misinformation and off-topic rates 0.3: the shape of the benchmark's
    prediction corpus."""
    clusters = []
    for docs in range(8, 17):
        part, _ = SY.generate(SY.SynthConfig(
            n_clusters=8, docs_min=docs, docs_max=docs, seed=docs, split="test",
            misinformation_rate=0.3, offtopic_rate=0.3, missing_slot_rate=0.2))
        clusters += [replace(c, cluster_id=f"test{docs:02d}-{i:02d}") for i, c in enumerate(part)]
    path = tmp_path_factory.mktemp("footprint") / "corpus.ndjson"
    cp.save_clusters(path, clusters)
    return path


def distinct_objects(strings) -> tuple[int, int]:
    """(distinct objects, distinct values) among strings that are all alive."""
    strings = list(strings)
    return len({id(s) for s in strings}), len(set(strings))


def test_load_retains_at_most_80_bytes_per_token(corpus_path):
    # a string per token occurrence and a dataclass per mention kept about
    # 148 bytes per token here
    cp.load_clusters(corpus_path)     # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        clusters = cp.load_clusters(corpus_path)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tokens = sum(d.n_tokens for c in clusters for d in c.documents)
    assert tokens > 30000
    assert retained <= 80 * tokens, f"{retained / tokens:.1f} bytes per token"


def test_load_keeps_one_object_per_distinct_token(corpus_path):
    clusters = cp.load_clusters(corpus_path)
    objects, values = distinct_objects(
        t for c in clusters for d in c.documents for s in d.sentences for t in s)
    assert objects == values


def test_load_keeps_one_object_per_distinct_value_id_and_entity_type(corpus_path):
    clusters = cp.load_clusters(corpus_path)
    mentions = [m for c in clusters for d in c.documents for m in d.mentions]
    value_ids = [m.value_id for m in mentions]
    value_ids += [v for c in clusters for v in c.candidate_values]
    value_ids += [v for c in clusters for vals in c.gold.values() for v in vals]
    objects, values = distinct_objects(value_ids)
    assert objects == values
    objects, values = distinct_objects(m.entity_type for m in mentions)
    assert objects == values
