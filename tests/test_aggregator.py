"""Pooling, weighting, null-mass, and decoding tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from clusterreader import aggregator as agg
from clusterreader import compute as C
from clusterreader import corpus as cp
from clusterreader import model as M
from test_compute import tsum


def make_doc(doc_id, order, sentences, mentions=()):
    return cp.Document(doc_id=doc_id, order_index=order,
                       sentences=tuple(tuple(s) for s in sentences),
                       mentions=tuple(mentions))


def test_config_validation():
    for mode in agg.MODES:
        agg.AggregationConfig(mode=mode)
    for mode in ("mean", "weighted_sum", "per_document_softmax_sum"):
        with pytest.raises(agg.AggregationError, match="mode must be one of"):
            agg.AggregationConfig(mode=mode)


def rows(*xs):
    """A 1 x n attention matrix."""
    return C.Tensor(np.asarray([xs], dtype=np.float64))


def outside(n, mention_tokens):
    """The null column's tokens: everything outside the mention spans."""
    return sorted(set(range(n)) - set(mention_tokens))


def test_aggregate_max_examples():
    out = agg.aggregate_max(rows(0.2, 0.3, 0.1, 0.05), [[0, 1, 2], [3]])
    assert_allclose(out.data, [[0.3, 0.05]])


def test_aggregate_sum_examples():
    a = rows(0.2, 0.3, 0.1)
    assert_allclose(agg.aggregate_sum(a, [[0, 1, 2]]).data, [[0.6]])
    weighted = agg.aggregate_sum(a, [[0, 1, 2]], [1.0, 0.0, 1.0])
    assert_allclose(weighted.data, [[0.3]])


def test_aggregate_sum_matches_naive_oracle():
    rng = np.random.default_rng(60)
    for _ in range(10):
        scores = rng.uniform(size=rng.integers(1, 8))
        out = agg.aggregate_sum(rows(*scores), [range(scores.size)]).data[0, 0]
        assert_allclose(out, float(sum(float(s) for s in scores)), atol=1e-12)


def test_aggregate_sum_rejects_negative_weight():
    with pytest.raises(agg.AggregationError):
        agg.aggregate_sum(rows(0.2), [[0]], [-0.1])
    with pytest.raises(agg.AggregationError):
        agg.aggregate_sum(rows(0.2, 0.3), [[0]], [1.0])


def test_max_le_sum_property():
    rng = np.random.default_rng(61)
    for _ in range(20):
        a = rng.uniform(size=(3, int(rng.integers(1, 9))))
        segments = [range(a.shape[1])]
        mx = agg.aggregate_max(C.Tensor(a), segments).data
        sm = agg.aggregate_sum(C.Tensor(a), segments).data
        assert np.all(mx <= sm + 1e-12)


def test_max_duplicate_invariance_sum_strict_growth():
    base = [0.4, 0.2]
    mx1 = agg.aggregate_max(rows(*base), [[0, 1]]).data
    mx2 = agg.aggregate_max(rows(*base, 0.4), [[0, 1, 2]]).data
    assert np.array_equal(mx1, mx2)
    sm1 = agg.aggregate_sum(rows(*base), [[0, 1]]).data
    sm2 = agg.aggregate_sum(rows(*base, 0.05), [[0, 1, 2]]).data
    assert sm2[0, 0] > sm1[0, 0]


def test_group_mention_scores_gathers_and_drops_empty():
    # a column per mentioned value, gathering its mentions' first tokens;
    # a candidate never mentioned gets no column
    doc = make_doc("d", 0, [["x", "acme", "jet", "y", "fifty"]],
                   [cp.Mention(sentence=0, start=1, end=3, value_id="acme"),
                    cp.Mention(sentence=0, start=4, end=5, value_id="fifty")])
    index = M.ClusterIndex.build(cp.Cluster("c", "train", {}, ("acme", "fifty", "nine"), (doc,)))
    columns = index.columns(null_enabled=True)
    assert columns == sorted(["acme", "fifty", agg.NULL_VALUE])
    segments = {v: np.asarray(seg).tolist() for v, seg in zip(columns, index.segments(columns))}
    assert segments == {"acme": [1], "fifty": [4], agg.NULL_VALUE: [0, 3]}
    out = agg.aggregate_sum(rows(0.1, 0.2, 0.3, 0.4, 0.0), index.segments(columns))
    want = {"acme": 0.2, "fifty": 0.0, agg.NULL_VALUE: 0.5}
    assert_allclose(out.data[0], [want[v] for v in columns])


def test_null_score_complement():
    a = rows(*[0.1] * 10)  # uniform attention, mentions hold 0.4
    assert_allclose(agg.aggregate_sum(a, [outside(10, {0, 1, 2, 3})]).data, [[0.6]])
    assert_allclose(agg.aggregate_sum(a, [outside(10, range(10))]).data, [[0.0]])


def test_null_score_grows_with_cluster_size():
    # same mention attention per mention, more plain tokens -> more null mass
    def null(*xs):
        return agg.aggregate_sum(rows(*xs), [outside(len(xs), {0, 1})]).data[0, 0]

    small = null(0.2, 0.2, 0.3, 0.3)
    large = null(0.2, 0.2, 0.15, 0.15, 0.15, 0.15)
    assert large == small  # mass is conserved...
    tiny = null(0.45, 0.45, 0.1)
    assert tiny < small  # ...so spreading tokens matters only via attention


def test_null_score_weighted():
    a = rows(0.25, 0.25, 0.25, 0.25)
    w = [1.0, 1.0, 0.0, 1.0]
    assert_allclose(agg.aggregate_sum(a, [outside(4, {0})], w).data, [[0.5]])


def test_unit_weight_partition_invariant():
    # single-token mentions: sum of value scores plus null is exactly 1
    rng = np.random.default_rng(62)
    for _ in range(10):
        n = int(rng.integers(4, 20))
        a = C.softmax(C.Tensor(rng.normal(size=(3, n))))
        ks = rng.choice(n, size=max(1, n // 3), replace=False)
        segments = [[int(k)] for k in ks] + [outside(n, map(int, ks))]
        total = agg.aggregate_sum(a, segments).data.sum(axis=1)
        assert np.abs(total - 1.0).max() < 1e-9


def test_zero_weights_zero_value():
    out = agg.aggregate_sum(rows(0.3, 0.3, 0.4), [[0, 2]], [0.0, 1.0, 0.0])
    assert out.data[0, 0] == 0.0


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_segment_pool_equals_naive_mention_loop(data):
    """Pooled scores and their gradient match a per-mention Python loop in
    every aggregation mode and weight source."""
    doc_lengths = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4)
                            .filter(lambda ls: sum(ls) > 0))
    n = sum(doc_lengths)
    firsts = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    values = [data.draw(st.sampled_from("abc")) for _ in firsts]
    inside = set(firsts) | set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    mode = data.draw(st.sampled_from(["max", "sum", "per_document_softmax_sum"]))
    source = "unit" if mode != "sum" else data.draw(st.sampled_from(["unit", "topic", "date"]))
    null_enabled = data.draw(st.booleans())
    u = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), n),
                         elements=st.floats(-4, 4)))
    g = data.draw(arrays(np.float64, (u.shape[0], 4), elements=st.floats(-2, 2)))
    if source == "topic":
        w = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    elif source == "date":
        per_doc = data.draw(st.lists(st.floats(0, 1), min_size=len(doc_lengths),
                                     max_size=len(doc_lengths)))
        w = np.repeat(per_doc, doc_lengths)
    else:
        w = None

    if mode == "per_document_softmax_sum":
        a = agg.per_document_attention(C.Tensor(u), doc_lengths).data
    else:
        a = C.softmax(C.Tensor(u)).data
    groups = {}
    for k, v in zip(firsts, values):
        groups.setdefault(v, []).append(k)
    columns = sorted(list(groups) + ([agg.NULL_VALUE] if null_enabled else []))
    segments = [outside(n, inside) if v == agg.NULL_VALUE else groups[v] for v in columns]
    A = C.Tensor(a)
    if mode == "max":
        null_col = columns.index(agg.NULL_VALUE) if null_enabled else None
        pooled = agg.aggregate_max(A, segments, null_col)
    else:
        pooled = agg.aggregate_sum(A, segments, w)
    G = g[:, :len(columns)]
    C.backward(tsum(C.scale(pooled, G)))

    weight = np.ones(n) if w is None else w
    want = np.zeros((u.shape[0], len(columns)))
    want_grad = np.zeros_like(a)
    for s in range(u.shape[0]):
        for c, v in enumerate(columns):
            ks = segments[c]
            if mode == "max" and v != agg.NULL_VALUE:
                best = ks[0]
                for k in ks:
                    if a[s, k] > a[s, best]:
                        best = k
                want[s, c] = a[s, best]
                want_grad[s, best] += G[s, c]
                continue
            for k in ks:
                want[s, c] += a[s, k] * weight[k]
                want_grad[s, k] += G[s, c] * weight[k]
    assert_allclose(pooled.data, want, rtol=1e-12, atol=1e-15)
    assert_allclose(A.grad if A.grad is not None else 0.0, want_grad, rtol=1e-12, atol=1e-15)


def test_topic_weights_all_topical():
    doc = make_doc("d", 0, [["a", "b"], ["c"]])
    cluster = cp.Cluster("c", "train", {}, ("v",), (doc,))
    assert_allclose(agg.topic_weights(cluster), np.ones(3))


def test_topic_weights_zero_in_offtopic_segment():
    sents = [["intro", "words"], ["flight", "111"], ["still", "off"], ["flight", "990"], ["back"]]
    ms = [cp.Mention(sentence=1, start=3, end=4, value_id="f111", entity_type="number",
                     is_flight_number=True),
          cp.Mention(sentence=3, start=7, end=8, value_id="f990", entity_type="number",
                     is_flight_number=True, is_topical_flight=True)]
    doc = make_doc("d", 0, sents, ms)
    cluster = cp.Cluster("c", "train", {}, ("f111", "f990"), (doc,))
    w = agg.topic_weights(cluster)
    assert_allclose(w, [1, 1, 0, 0, 0, 0, 1, 1, 1])


def test_per_document_attention_normalizes_each_doc():
    rng = np.random.default_rng(64)
    u = C.Tensor(rng.normal(size=(2, 10)))
    a = agg.per_document_attention(u, [4, 0, 6])
    assert_allclose(a.data[:, :4].sum(axis=1), [1.0, 1.0], atol=1e-12)
    assert_allclose(a.data[:, 4:].sum(axis=1), [1.0, 1.0], atol=1e-12)
    # a plain sum of attention is constant, so weight the entries
    C.backward(tsum(C.scale(a, rng.normal(size=(2, 10)))))
    assert u.grad is not None and np.abs(u.grad).max() > 0


def test_per_document_attention_single_doc_is_softmax():
    rng = np.random.default_rng(65)
    u = rng.normal(size=(3, 7))
    a = agg.per_document_attention(C.Tensor(u), [7])
    assert_allclose(a.data, C.softmax(C.Tensor(u)).data, atol=1e-12)


def test_per_document_dominant_value_accumulates_per_doc():
    # one dominant mention per document: per-doc softmax gives each ~1
    u = np.concatenate([[8.0, 0, 0, 0]] * 5)[None, :]
    a = agg.per_document_attention(C.Tensor(u), [4] * 5)
    score = agg.aggregate_sum(a, [[0, 4, 8, 12, 16]]).data[0, 0]
    assert score > 4.9


def test_decode_top1_basic_and_null():
    scores = np.array([[0.6, 0.3, 0.1],         # Crew
                       [0.2, np.nan, 0.7]])     # Operator: v2 unscored
    assert agg.decode_top1(scores, ["v1", "v2", agg.NULL_VALUE]) == ["v1", None]


def test_decode_top1_ties():
    assert agg.decode_top1(np.array([[0.4, 0.4]]), ["a", "b"]) == ["a"]
    # a tied null loses to a concrete value
    assert agg.decode_top1(np.array([[0.5, 0.5]]), ["z", agg.NULL_VALUE]) == ["z"]


def test_decode_top1_monotone_invariance():
    rng = np.random.default_rng(66)
    scores = rng.uniform(size=(1, 6))
    values = [f"v{i}" for i in range(6)]
    base = agg.decode_top1(scores, values)
    assert agg.decode_top1(np.tanh(3 * scores) + 2, values) == base


def test_decode_top1_empty_slot_errors():
    with pytest.raises(agg.AggregationError):
        agg.decode_top1(np.array([[0.5, 0.1], [np.nan, np.nan]]), ["a", agg.NULL_VALUE])


def dict_rule_order(row: dict) -> list:
    """The decode order of the {value: score} tables prediction used to rank:
    best score first, ties to a concrete value over null, then the smaller id."""
    return [v for v, _ in sorted(row.items(),
                                 key=lambda kv: (-kv[1], kv[0] == agg.NULL_VALUE, kv[0]))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matrix_decode_and_ranking_match_the_dict_rule(data):
    ids = data.draw(st.lists(st.text("abz09_", min_size=1, max_size=3), min_size=1,
                             max_size=8, unique=True), label="value ids")
    values = sorted(ids) + ([agg.NULL_VALUE] if data.draw(st.booleans(), label="null") else [])
    cell = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, np.nan]),
                     st.floats(-2.0, 2.0, allow_nan=False))
    scores = data.draw(arrays(np.float64, (data.draw(st.integers(1, 4), label="slots"),
                                           len(values)), elements=cell), label="scores")
    assume(not np.isnan(scores).all(axis=1).any())
    rows = [{v: x for v, x in zip(values, row) if not np.isnan(x)} for row in scores.tolist()]
    want = [dict_rule_order(row) for row in rows]
    assert agg.rank_values(scores, values) == want
    assert agg.decode_top1(scores, values) == [
        None if order[0] == agg.NULL_VALUE else order[0] for order in want]


def test_weights_for_dispatch():
    doc = make_doc("d", 0, [["a", "b"]])
    cluster = cp.Cluster("c", "train", {}, (), (doc,))
    assert_allclose(agg.weights_for(cluster, "topic"), [1, 1])
    for mode in ("max", "sum", "per-doc"):
        assert agg.weights_for(cluster, mode) is None
