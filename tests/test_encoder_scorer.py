"""Representation and attention tests: masking, locality, and scoring."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clusterreader import aggregator as agg
from clusterreader import compute as C
from clusterreader import corpus as cp
from clusterreader import encoder as E
from clusterreader import scorer as S
from clusterreader.model import ClusterIndex
from test_compute import (assert_close, check_grads, reference_conv, reference_conv_grads,
                          tsum)


def small_table(rng, tokens=("a", "b", "c", "d"), dim=6):
    return E.random_table(tokens, dim, rng)


def mention_mask(n, positions):
    """The index's mention mask of n tokens with the given positions masked."""
    mask = np.zeros(n, dtype=bool)
    mask[list(positions)] = True
    return mask


def table_row(table, token):
    """The row a token reads: its vocabulary row, or unk_vector outside it."""
    i = table.vocab.get(token)
    return table.unk_vector if i is None else table.matrix[i]


def test_load_embeddings_text_format(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("the 0.1 0.2 0.3\ncrash 1.0 -1.0 0.5\n")
    table = E.load_embeddings(path)
    assert table.dim == 3
    assert_allclose(table_row(table, "crash"), [1.0, -1.0, 0.5])
    assert_allclose(table_row(table, "the"), [0.1, 0.2, 0.3])
    # OOV falls back to the mean row
    assert_allclose(table_row(table, "zzz"), [0.55, -0.4, 0.4])


def test_embed_cluster_masks_all_mention_tokens():
    rng = np.random.default_rng(40)
    table = small_table(rng)
    out = E.embed_cluster(["a", "b", "c", "a"], [1, 2], table)
    assert_allclose(out.data[1], table.mask_vector.data)
    assert_allclose(out.data[2], table.mask_vector.data)
    assert_allclose(out.data[0], table.matrix[table.vocab["a"]])
    assert_allclose(out.data[1], out.data[2])  # different mentions, same row


def test_embed_cluster_no_mentions_is_pure_lookup():
    rng = np.random.default_rng(41)
    table = small_table(rng)
    out = E.embed_cluster(["b", "zzz"], [], table)
    assert_allclose(out.data[0], table.matrix[table.vocab["b"]])
    assert_allclose(out.data[1], table.unk_vector)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_embed_cluster_equals_per_row_lookup(data):
    """The gathered matrix is the table_row loop's, unknown tokens and masked
    mentions included."""
    table = small_table(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    tokens = data.draw(st.lists(st.sampled_from(("a", "b", "c", "d", "zzz", "")), max_size=30))
    mentions = data.draw(st.sets(st.integers(0, max(len(tokens) - 1, 0)))) if tokens else set()
    want = np.empty((len(tokens), table.dim))
    for i, tok in enumerate(tokens):
        want[i] = table_row(table, tok)
    want[sorted(mentions)] = table.mask_vector.data
    got = E.embed_cluster(tokens, mentions, table)
    assert got.shape == want.shape
    assert np.array_equal(got.data, want)


def test_embed_cluster_grad_only_reaches_mask_vector():
    rng = np.random.default_rng(42)
    table = small_table(rng)
    out = E.embed_cluster(["a", "b", "c"], [1], table)
    C.backward(tsum(out))
    assert table.mask_vector.grad is not None
    assert_allclose(table.mask_vector.grad, np.ones(table.dim))


def test_encode_row_counts_and_doc_blocks():
    rng = np.random.default_rng(43)
    params = E.init_encoder(6, rng, width1=10, d1=10, width2=5, r=10)
    x = C.Tensor(rng.normal(size=(12, 6)))
    out = E.encode(x, [5, 7], params)
    assert out.shape == (12, 10)
    # identical documents encode to identical blocks
    twin = C.Tensor(np.vstack([x.data[:5], x.data[:5]]))
    out2 = E.encode(twin, [5, 5], params)
    assert_allclose(out2.data[:5], out2.data[5:])


def test_encode_empty_document_contributes_zero_rows():
    rng = np.random.default_rng(44)
    params = E.init_encoder(4, rng)
    x = C.Tensor(rng.normal(size=(3, 4)))
    out = E.encode(x, [0, 3, 0], params)
    assert out.shape == (3, 10)


def test_encode_receptive_field_locality():
    # widths 10 and 5 give row i reach [i-7, i+6]; beyond that, no effect
    rng = np.random.default_rng(45)
    params = E.init_encoder(5, rng)
    base = rng.normal(size=(40, 5))
    i = 20
    ref = E.encode(C.Tensor(base), [40], params).data[i]
    for j, expect_change in [(i + 7, False), (i - 8, False), (i + 15, False),
                             (i + 6, True), (i - 7, True), (i, True)]:
        x = base.copy()
        x[j] += 3.0
        row = E.encode(C.Tensor(x), [40], params).data[i]
        changed = np.abs(row - ref).max() > 1e-12
        assert changed == expect_change, f"perturb at offset {j - i}"


def test_encode_does_not_cross_document_boundary():
    rng = np.random.default_rng(46)
    params = E.init_encoder(5, rng)
    base = rng.normal(size=(10, 5))
    ref = E.encode(C.Tensor(base), [5, 5], params).data
    x = base.copy()
    x[5] += 2.0  # first token of doc 2, right next to doc 1's last token
    out = E.encode(C.Tensor(x), [5, 5], params).data
    assert_allclose(out[:5], ref[:5])
    assert np.abs(out[5:] - ref[5:]).max() > 1e-12


def test_encode_gradients_reach_all_params():
    rng = np.random.default_rng(47)
    params = E.init_encoder(4, rng)
    x = C.Tensor(rng.normal(size=(8, 4)))
    out = E.encode(x, [8], params, keep_prob=0.8, rng=rng)
    C.backward(tsum(C.scale(out, rng.normal(size=out.shape))))
    for name, p in params.as_dict().items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name


def reference_encode(x0, doc_lengths, params, masks=(1.0, 1.0)):
    """Both CNN layers of encode over one embedding row per token, as
    reference convolutions: masks scale the rectified layer 1 and layer 2
    (dropout). Returns the output and the backward function of
    sum(g * output), giving the gradients of x0, w1, b1, w2 and b2."""
    w1, b1, w2, b2 = (p.data for p in (params.w1, params.b1, params.w2, params.b2))
    pre = reference_conv(x0, w1, b1, doc_lengths)
    h = np.where(pre > 0, pre, 0.0) * masks[0]
    out = reference_conv(h, w2, b2, doc_lengths) * masks[1]

    def backward(g):
        dh, dw2, db2 = reference_conv_grads(h, w2, doc_lengths, g * masks[1])
        dx, dw1, db1 = reference_conv_grads(x0, w1, doc_lengths, dh * masks[0] * (pre > 0))
        return dx, {"enc.w1": dw1, "enc.b1": db1, "enc.w2": dw2, "enc.b2": db2}

    return out, backward


@settings(max_examples=25, deadline=None)
@given(doc_lengths=st.lists(st.integers(0, 14), min_size=1, max_size=5),
       seed=st.integers(0, 2**16))
def test_training_encode_equals_doc_by_doc_encoding(doc_lengths, seed):
    # one pass over the cluster draws each document's masks, first layer then
    # second, bit for bit as a document-by-document draw does, and gives the
    # reference convolutions' output and gradients up to rounding
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(sum(doc_lengths), 5))
    g = rng.normal(size=(sum(doc_lengths), 3))
    params = E.init_encoder(5, np.random.default_rng(seed), width1=4, d1=4, width2=3, r=3)
    params.b1.data[:] = rng.normal(scale=0.05, size=4)  # rectifier on both sides
    x = C.Tensor(x0)
    drawn, dropout = [], C.dropout

    def recording(h, keep_prob, uniforms=None):
        drawn.append(uniforms)
        return dropout(h, keep_prob, uniforms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(C, "dropout", recording)
        out = E.encode(x, doc_lengths, params, keep_prob=0.7, rng=np.random.default_rng(seed + 1))
    C.backward(tsum(C.scale(out, g)))

    draws = np.random.default_rng(seed + 1)
    per_doc = [(draws.random((k, 4)), draws.random((k, 3))) for k in doc_lengths if k]
    if per_doc:
        assert all(np.array_equal(u, np.concatenate(layer)) for u, layer in zip(drawn, zip(*per_doc)))
    masks = [(u < 0.7) / 0.7 if u is not None else 1.0 for u in drawn]
    want, want_backward = reference_encode(x0, doc_lengths, params, masks)
    want_dx, want_grads = want_backward(g)
    assert_close(out.data, want)
    assert_close(x.grad, want_dx)
    for name, p in params.as_dict().items():
        assert_close(p.grad, want_grads[name])


def _reference_and_encoded(tokens, mentions, doc_lengths, table, params):
    """(got, want) pairs: encode over the cluster's distinct rows, as
    training and prediction run it, against the reference encoding of one
    embedding row per token. First the output, then the gradients of
    sum(g * output) for the mask vector and each encoder parameter."""
    embedded = E.embed_cluster(tokens, mentions, table).data
    want, want_backward = reference_encode(embedded, doc_lengths, params)
    index = ClusterIndex(cluster=None, flat_tokens=list(tokens), doc_lengths=list(doc_lengths),
                         mention_mask=mention_mask(len(tokens), mentions))
    distinct_tokens, mask_rows, rows = index.distinct_tokens()
    for p in (table.mask_vector, *params.as_dict().values()):
        p.zero_grad()
    got = E.encode(E.embed_cluster(distinct_tokens, mask_rows, table), doc_lengths, params, rows=rows)
    g = np.cos(np.arange(want.size)).reshape(want.shape)
    C.backward(tsum(C.scale(got, g)))
    want_dx, want_grads = want_backward(g)

    def grad(t):
        return np.zeros_like(t.data) if t.grad is None else t.grad

    return ([(got.data, want), (grad(table.mask_vector), want_dx[sorted(mentions)].sum(axis=0))]
            + [(grad(p), want_grads[name]) for name, p in params.as_dict().items()])


def _assert_close_to_reference(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 + 1e-9 * np.abs(want))


def _encoder(table, rng, width1, width2=3):
    params = E.init_encoder(table.dim, rng, width1=width1, d1=4, width2=width2, r=3)
    params.b1.data[:] = rng.normal(scale=0.05, size=4)  # rectifier on both sides
    return params


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_projected_layer1_equals_conv1d_encoding(data):
    """Unknown tokens, masked mentions, repeated tokens, empty documents and
    documents shorter than the filter: encode over the cluster's distinct
    rows gives the reference convolutions' output, and the mask vector and
    encoder parameters their gradients, up to rounding."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = small_table(rng)
    doc_lengths = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    n = sum(doc_lengths)
    tokens = data.draw(st.lists(st.sampled_from(("a", "b", "c", "d", "zzz", "")),
                                min_size=n, max_size=n))
    mentions = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    params = _encoder(table, rng, data.draw(st.integers(1, 10)), data.draw(st.integers(1, 5)))
    for got, want in _reference_and_encoded(tokens, mentions, doc_lengths, table, params):
        _assert_close_to_reference(got, want)


@pytest.mark.parametrize("width1", range(1, 11))
def test_projected_layer1_every_width_on_edge_clusters(width1):
    # every width2 from 1 to 5 with each width1: both layers' windows
    rng = np.random.default_rng(width1)
    table = small_table(rng)
    cases = [(["a"], set(), [1]),                       # one token
             (["zzz"], {0}, [0, 1, 0]),                 # one masked token
             (["a", "a", "zzz", "b", "a", "", "c", "c"], {1, 6}, [0, 3, 1, 0, 4]),
             (["a", "b", "a", "c"], {0, 1, 2, 3}, [3, 1])]      # every token masked
    for width2 in range(1, 6):
        params = _encoder(table, rng, width1, width2)
        for tokens, mentions, doc_lengths in cases:
            for got, want in _reference_and_encoded(tokens, mentions, doc_lengths, table, params):
                _assert_close_to_reference(got, want)


def test_distinct_tokens_share_one_mask_row():
    index = ClusterIndex(cluster=None, flat_tokens=["a", "b", "a", "c", "b", "zzz"],
                         doc_lengths=[6], mention_mask=mention_mask(6, {1, 3, 4}))
    tokens, mask_rows, rows = index.distinct_tokens()
    assert tokens == ["a", "", "zzz"]
    assert mask_rows == [1]
    assert rows.tolist() == [0, 1, 0, 1, 1, 2]


def walked_index(cluster) -> dict:
    """A cluster's index as a walk over every token in Python builds it: the
    reference the array-built ClusterIndex must equal."""
    flat, lengths, mention_rows, inside, groups = [], [], [], set(), {}
    offset = 0
    for doc in cluster.documents:
        flat.extend(doc.flat_tokens())
        lengths.append(doc.n_tokens)
        for m in doc.mentions:
            k = offset + m.start
            mention_rows.append((m, k))
            inside.update(range(offset + m.start, offset + m.end))
            groups.setdefault(m.value_id, []).append(k)
        offset += doc.n_tokens
    first: dict = {}
    rows = [first.setdefault(None if t in inside else tok, len(first))
            for t, tok in enumerate(flat)]
    return {"flat_tokens": flat, "doc_lengths": lengths, "mention_rows": mention_rows,
            "mention_tokens": sorted(inside), "groups": groups,
            "distinct": (["" if tok is None else tok for tok in first],
                         [first[None]] if None in first else [], rows),
            "null_segment": sorted(set(range(len(flat))) - inside)}


@st.composite
def small_clusters(draw):
    """Clusters over a four-string vocabulary, so that strings recur inside
    and outside mentions; documents may be empty and clusters mention-free.
    Each token starts a mention (1), continues the one ending just before it
    (2, else outside) or lies outside (0)."""
    docs = []
    for d in range(draw(st.integers(1, 4))):
        sentences, mentions = [], []
        for s in range(draw(st.integers(0, 3))):
            tokens = draw(st.lists(st.sampled_from(("a", "b", "c", "")), max_size=6))
            marks = draw(st.lists(st.integers(0, 2), min_size=len(tokens), max_size=len(tokens)))
            at = sum(map(len, sentences))
            spans = []
            for k, mark in enumerate(marks):
                if mark == 2 and spans and spans[-1][1] == k:
                    spans[-1][1] = k + 1
                elif mark == 1:
                    spans.append([k, k + 1])
            mentions += [cp.Mention(s, at + lo, at + hi, draw(st.sampled_from(("v1", "v2"))))
                         for lo, hi in spans]
            sentences.append(tuple(tokens))
        docs.append(cp.Document(f"d{d}", d, tuple(sentences), tuple(mentions)))
    return _cluster(docs)


def _cluster(docs) -> cp.Cluster:
    cluster = cp.Cluster("c", "train", {}, ("v1", "v2"), tuple(docs))
    cp.validate_cluster(cluster)
    return cluster


# an empty document; mentions at a document's first and last token; "a" and
# "c" both inside and outside mentions; then a cluster with no mentions
_EDGE_CLUSTER = _cluster([
    cp.Document("d0", 0, (), ()),
    cp.Document("d1", 1, (("a", "b"), ("a", "c")),
                (cp.Mention(0, 0, 1, "v1"), cp.Mention(1, 3, 4, "v2"))),
    cp.Document("d2", 2, (("c", "a", "b"),), ())])
_PLAIN_CLUSTER = _cluster([cp.Document("d0", 0, (("a", "b", "a"),), ())])


@settings(max_examples=200, deadline=None)
@given(cluster=small_clusters())
@example(cluster=_EDGE_CLUSTER)
@example(cluster=_PLAIN_CLUSTER)
def test_array_built_index_equals_the_token_walk(cluster):
    index, want = ClusterIndex.build(cluster), walked_index(cluster)
    assert index.flat_tokens == want["flat_tokens"]
    assert index.doc_lengths == want["doc_lengths"]
    assert index.mention_rows == want["mention_rows"]
    assert index.groups == want["groups"]
    assert index.mention_mask.shape == (index.n_tokens,)
    assert np.flatnonzero(index.mention_mask).tolist() == want["mention_tokens"]
    tokens, mask_rows, rows = index.distinct_tokens()
    assert (tokens, mask_rows, rows.tolist()) == want["distinct"]
    assert rows.dtype == np.intp
    columns = index.columns(null_enabled=True)
    segments = [np.asarray(seg).tolist() for seg in index.segments(columns)]
    assert segments == [want["null_segment"] if v == agg.NULL_VALUE else want["groups"][v]
                        for v in columns]


def test_encode_block_lengths_must_cover_the_tokens():
    rng = np.random.default_rng(49)
    params = E.init_encoder(4, rng)
    x = C.Tensor(rng.normal(size=(5, 4)))
    for lengths in ([2, 2], [3, 3], [6, -1]):
        with pytest.raises(C.ComputeError, match="do not cover"):
            E.encode(x, lengths, params)
    with pytest.raises(C.ComputeError, match="do not cover"):
        E.encode(x, [2, 2], params, rows=[0, 1, 0])


def test_encode_deterministic_at_inference():
    rng = np.random.default_rng(48)
    params = E.init_encoder(4, rng)
    x = C.Tensor(rng.normal(size=(6, 4)))
    a = E.encode(x, [6], params).data
    b = E.encode(x, [6], params).data
    assert_allclose(a, b)


def test_score_tokens_matches_naive_loop():
    rng = np.random.default_rng(49)
    R = C.Tensor(rng.normal(size=(9, 10)))
    pis = [C.Tensor(rng.normal(size=10)) for _ in range(3)]
    u = S.score_tokens(R, pis).data
    naive = np.array([[float(np.dot(R.data[i], p.data)) for i in range(9)] for p in pis])
    assert u.shape == (3, 9)
    assert_allclose(u, naive, atol=1e-12)


def test_score_tokens_is_the_per_slot_products_with_their_gradients():
    # one node: each row is bit for bit R @ pi_s, and the gradient reaches R and every slot
    rng = np.random.default_rng(51)
    R = C.Tensor(rng.normal(size=(7, 5)))
    pis = [C.Tensor(rng.normal(size=5)) for _ in range(4)]
    u = S.score_tokens(R, pis)
    assert u._parents == (R, *pis)
    assert np.array_equal(u.data, np.stack([R.data @ p.data for p in pis]))
    g = rng.normal(size=(4, 7))
    check_grads(lambda: tsum(C.scale(S.score_tokens(R, pis), g)), [R, *pis])
    with pytest.raises(C.ComputeError, match="representation dim 5 != slot dim 4"):
        S.score_tokens(R, [pis[0], C.Tensor(np.ones(4))])


def test_score_tokens_zero_and_duplicate_rows():
    rng = np.random.default_rng(50)
    R = C.Tensor(rng.normal(size=(4, 6)))
    assert_allclose(S.score_tokens(R, [C.Tensor(np.zeros(6))]).data, np.zeros((1, 4)))
    Rdup = C.Tensor(np.vstack([R.data, R.data[1]]))
    u = S.score_tokens(Rdup, [C.Tensor(rng.normal(size=6))]).data[0]
    assert_allclose(u[1], u[4])


def test_attend_uniform_and_saturation():
    a = S.attend(C.Tensor(np.zeros(5))).data
    assert_allclose(a, np.full(5, 0.2))
    dominant = S.attend(C.Tensor([50.0, 0.0, 0.0])).data
    assert dominant[0] > 0.999
    assert abs(a.sum() - 1) < 1e-12


def test_attend_permutation_equivariance():
    rng = np.random.default_rng(51)
    u = rng.normal(size=8)
    perm = rng.permutation(8)
    a = S.attend(C.Tensor(u)).data
    assert_allclose(S.attend(C.Tensor(u[perm])).data, a[perm], atol=1e-12)


def test_attention_competition():
    rng = np.random.default_rng(52)
    u = rng.normal(size=6)
    a = S.attend(C.Tensor(u)).data
    u2 = u.copy()
    u2[3] += 1.0
    a2 = S.attend(C.Tensor(u2)).data
    others = [i for i in range(6) if i != 3]
    assert a2[3] > a[3]
    assert np.all(a2[others] < a[others])


def test_mention_score_is_attention_at_first_token():
    rng = np.random.default_rng(53)
    R = C.Tensor(rng.normal(size=(4, 5)))
    pi = C.Tensor(rng.normal(size=5))
    a = S.attend(S.score_tokens(R, [pi]))
    assert_allclose(agg.aggregate_sum(a, [[2]]).data, a.data[:, [2]])
    uniform = S.attend(C.Tensor(np.zeros((1, 4))))
    assert_allclose(agg.aggregate_sum(uniform, [[1]]).data, [[0.25]])


def test_slot_embedding_setup_and_null_slot():
    rng = np.random.default_rng(54)
    pi = S.init_slot_embeddings(["Crew", "Operator"], 10, rng)
    assert set(pi) == {"Crew", "Operator"}
    with_null = S.init_slot_embeddings(["Crew"], 10, rng, include_null_slot=True)
    assert S.NULL_SLOT in with_null
    named = S.slot_params(pi)
    assert set(named) == {"slot.Crew", "slot.Operator"}


def test_attention_sums_to_one_per_slot():
    rng = np.random.default_rng(55)
    R = C.Tensor(rng.normal(size=(30, 10)))
    pi = S.init_slot_embeddings(["A", "B", "C"], 10, rng)
    a = S.attend(S.score_tokens(R, list(pi.values()))).data
    assert a.shape == (3, 30)
    assert_allclose(a.sum(axis=1), np.ones(3), atol=1e-9)
    assert np.all(a >= 0)
