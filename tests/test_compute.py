"""Gradient, optimizer, and checkpoint tests for the compute core.

Every differentiable op is checked against central finite differences on
random seeded inputs, through tsum, a sum node the other test modules
import too; window_conv also against reference_conv, a direct
loop over the taps of a same-padded convolution that the encoder tests
reuse; dropout is checked against its expectation by Monte Carlo; Adam
against a step-by-step reference implementation.
"""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clusterreader import aggregator as agg
from clusterreader import compute as C
from clusterreader import scorer as S

SRC = Path(C.__file__).parent


def tsum(a):
    """The sum of a tensor's entries as a graph node: the scalar a gradient
    test differentiates."""
    return C.node(a.data.sum(), (a,), lambda g: a.accumulate(np.full_like(a.data, float(g))))


def numeric_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_grads(build, tensors, h=1e-5, tol=1e-4):
    """Compare autodiff grads of scalar build() against finite differences."""
    loss = build()
    C.backward(loss)
    for t in tensors:
        assert t.grad is not None, "missing gradient"
        num = numeric_grad(lambda: float(build().data), t.data, h=h)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-6)
        rel = np.abs(t.grad - num) / denom
        assert rel.max() < tol, f"rel grad err {rel.max():.2e}"


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the nondifferentiable point
    a = C.Tensor(x)
    check_grads(lambda: tsum(C.relu(a)), [a])


def test_mean_neg_log_value_and_grad():
    rng = np.random.default_rng(7)
    a = C.Tensor(rng.uniform(0.2, 3.0, size=(5,)))
    assert_allclose(C.mean_neg_log(a, 1e-12).item(), -np.log(a.data).mean(), rtol=1e-15)
    check_grads(lambda: C.mean_neg_log(a, 1e-12), [a])


def test_mean_neg_log_passes_no_gradient_where_the_floor_applied():
    a = C.Tensor([0.5, 1e-3, 0.0, 1e-4])
    out = C.mean_neg_log(a, 1e-3)       # 1e-3 itself is kept: the floor equals it
    C.backward(out)
    assert_allclose(out.item(), -(np.log(0.5) + 3 * np.log(1e-3)) / 4)
    assert a.grad.tolist() == [-0.25 / 0.5, -0.25 / 1e-3, 0.0, 0.0]


def test_softmax_vector_grad_and_simplex():
    rng = np.random.default_rng(8)
    a = C.Tensor(rng.normal(size=(6,)))
    w = rng.normal(size=(6,))
    check_grads(lambda: tsum(C.scale(C.softmax(a), w)), [a])
    p = C.softmax(a).data
    assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


def test_softmax_rows_grad():
    rng = np.random.default_rng(9)
    a = C.Tensor(rng.normal(size=(4, 5)))
    w = rng.normal(size=(4, 5))
    check_grads(lambda: tsum(C.scale(C.softmax(a), w)), [a])
    assert_allclose(C.softmax(a).data.sum(axis=1), np.ones(4), atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8,))
    assert_allclose(C.softmax(C.Tensor(x)).data, C.softmax(C.Tensor(x + 123.0)).data, atol=1e-12)


def test_segment_pool_max_grad_routes_to_argmax():
    a = C.Tensor([[0.3, 2.0, -1.0, 2.0]])
    out = C.segment_pool(a, [[0, 1, 2, 3]], take_max=[True])
    C.backward(tsum(out))
    assert_allclose(a.grad, [[0.0, 1.0, 0.0, 0.0]])  # first of the tied maxima
    assert out.data.tolist() == [[2.0]]


def test_segment_pool_sum_and_weighted_grads():
    rng = np.random.default_rng(15)
    a = C.Tensor(rng.normal(size=(3, 7)))
    segments = [[4, 0], [], [6, 2, 5]]
    weights = rng.uniform(0.0, 2.0, size=7)
    g = rng.normal(size=(3, 3))
    check_grads(lambda: tsum(C.scale(C.segment_pool(a, segments), g)), [a])
    a.zero_grad()
    check_grads(lambda: tsum(C.scale(C.segment_pool(a, segments, weights), g)), [a])
    out = C.segment_pool(a, segments, weights).data
    for k, seg in enumerate(segments):
        assert np.array_equal(out[:, k], [(a.data[s, seg] * weights[seg]).sum()
                                          for s in range(3)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_segment_pool_equals_per_row_reduction(data):
    """Each entry is the per-row 1-D sum, or the first maximum, bit for bit."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_rows, width = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40))
    a = rng.normal(size=(n_rows, width))
    if data.draw(st.booleans()):
        a = np.round(a)  # ties for the max, zeros of both signs
    sizes = data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=6))
    segments = [rng.integers(0, width, size=k).tolist() for k in sizes]
    take_max = [bool(seg) and data.draw(st.booleans()) for seg in segments]
    weights = rng.uniform(0.0, 2.0, size=width) if data.draw(st.booleans()) else None
    w = np.ones(width) if weights is None else weights
    a_t = C.Tensor(a)
    out = C.segment_pool(a_t, segments, weights, take_max)
    C.backward(tsum(out))
    want = np.empty((n_rows, len(segments)))
    grad = np.zeros_like(a)
    for k, (seg, is_max) in enumerate(zip(segments, take_max)):
        for r in range(n_rows):
            row = a[r, seg] * w[seg]
            if is_max:
                j = int(np.argmax(row))
                want[r, k] = row[j]
                grad[r, seg[j]] += 1.0
            else:
                want[r, k] = row.sum()
                np.add.at(grad[r], seg, w[seg])
    assert np.array_equal(out.data, want)
    assert_allclose(a_t.grad, grad, rtol=1e-12)


def add_at_pool_grad(a, segments, g, weights=None, take_max=None):
    """segment_pool's input gradient as two np.add.at scatters: every summed
    entry in segment order, then each row's max picks in column order."""
    rows = a.reshape(-1, a.shape[-1])
    g = g.reshape(rows.shape[0], len(segments))
    segments = [np.asarray(seg, dtype=np.intp) for seg in segments]
    idx = np.concatenate(segments) if segments else np.zeros(0, dtype=np.intp)
    col = np.repeat(np.arange(len(segments)), [seg.size for seg in segments])
    take_max = np.zeros(len(segments), dtype=bool) if take_max is None \
        else np.asarray(take_max, dtype=bool)
    w = np.ones(rows.shape[1]) if weights is None else np.asarray(weights)
    picks = np.array([[seg[np.argmax(row[seg] * w[seg])] for seg, m in zip(segments, take_max)
                       if m] for row in rows], dtype=np.intp).reshape(rows.shape[0], -1)
    summed = ~take_max[col]
    ga = np.zeros_like(rows)
    np.add.at(ga.T, idx[summed], (g[:, col[summed]] * w[idx[summed]]).T)
    np.add.at(ga, (np.arange(rows.shape[0])[:, None], picks), g[:, take_max])
    return ga.reshape(a.shape)


@pytest.mark.parametrize("case", ["sum", "topic", "max-with-null", "value-loss", "empty",
                                  "no-segments"])
def test_segment_pool_grad_equals_add_at_scatter(case):
    # one bincount adds each cell's contributions in the order the two
    # np.add.at scatters did, so the gradient is bit-equal; tokens shared
    # by two columns and repeated within one make that order matter
    rng = np.random.default_rng(16)
    a = np.round(rng.normal(size=(4, 9)), 1)      # ties for the max
    segments = [[4, 0, 7, 4], [1], [2, 3, 0, 6, 8], []]
    weights = take_max = None
    if case == "topic":
        weights = rng.uniform(0.0, 2.0, size=9) * (rng.random(9) < 0.7)
    elif case == "max-with-null":
        segments = [[4, 0, 7], [1, 5], [2, 3, 0, 6, 8]]
        take_max = [True, True, False]
    elif case == "value-loss":
        a = rng.uniform(0.05, 0.95, size=6)        # take_pairs' gathered masses
        segments = [range(0, 2), range(2, 3), range(3, 6)]
    elif case == "empty":
        segments = [[], []]
    elif case == "no-segments":
        segments = []
    a_t = C.Tensor(a)
    out = C.segment_pool(a_t, segments, weights, take_max)
    g = rng.normal(size=out.shape)
    out._backward(g)
    want = add_at_pool_grad(a, segments, g, weights, take_max)
    assert a_t.grad.dtype == np.float64
    assert np.array_equal(a_t.grad, want)


def test_segment_pool_rejects_bad_groups():
    a = C.Tensor(np.zeros((2, 3)))
    with pytest.raises(C.ComputeError):
        C.segment_pool(a, [[3]])
    with pytest.raises(C.ComputeError):
        C.segment_pool(a, [[]], take_max=[True])


def test_take_and_take_pairs_grads():
    rng = np.random.default_rng(11)
    a = C.Tensor(rng.normal(size=(7,)))
    idx = [1, 4, 4, 0]
    check_grads(lambda: tsum(C.take(a, idx)), [a])
    m = C.Tensor(rng.normal(size=(4, 5)))
    check_grads(lambda: tsum(C.take_pairs(m, [0, 2, 2], [1, 3, 3])), [m])


def test_take_rows_grad():
    rng = np.random.default_rng(18)
    m = C.Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(5, 3))
    check_grads(lambda: tsum(C.scale(C.take(m, [2, 0, 2, 3, 1]), w)), [m])


def test_take_out_of_range():
    a = C.Tensor(np.arange(3.0))
    with pytest.raises(C.ComputeError):
        C.take(a, [3])


def test_transpose_grad():
    rng = np.random.default_rng(14)
    a = C.Tensor(rng.normal(size=(3, 5)))
    w = rng.normal(size=(5, 3))
    check_grads(lambda: tsum(C.scale(C.transpose(a), w)), [a])


def _taps(lengths, width):
    """(t, k, s) for every tap of a same-padded convolution over documents
    of the given lengths: output row t reads input row s at filter offset k,
    s = t + k - width//2 inside t's document."""
    at = 0
    for length in lengths:
        for t in range(at, at + length):
            for k in range(width):
                s = t + k - width // 2
                if at <= s < at + length:
                    yield t, k, s
        at += length


def reference_conv(x, w, b, lengths):
    """Same-padded 1-D convolution over the rows of x, each document (block
    of rows) padded on its own, as a direct loop: out[t] = b + the sum over
    k of x[t + k - width//2] . w[k], a position outside t's document reading
    zeros. w is (width, d_in, d_out)."""
    out = np.tile(b, (len(x), 1))
    for t, k, s in _taps(lengths, len(w)):
        out[t] += x[s] @ w[k]
    return out


def reference_conv_grads(x, w, lengths, g):
    """(dx, dw, db) of sum(g * reference_conv(x, w, b, lengths)), as a direct loop."""
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for t, k, s in _taps(lengths, len(w)):
        dx[s] += w[k] @ g[t]
        dw[k] += np.outer(x[s], g[t])
    return dx, dw, g.sum(axis=0)


def reference_windows(lengths, width, rows, pad):
    """n x width window index of a same-padded convolution whose token t
    reads row rows[t]: entry (t, k) is rows[t + k - width//2], or pad."""
    windows = np.full((len(rows), width), pad)
    for t, k, s in _taps(lengths, width):
        windows[t, k] = rows[s]
    return windows


def assert_close(got, want, rel=1e-12):
    """Equal up to rounding: within rel of want's largest magnitude (at least 1)."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * max(1.0, np.abs(want).max(initial=0.0))


def test_reference_conv_worked_example():
    # width 3 on 4 tokens: out[i] = sum_k w[k] . x[i+k-1] with zero pads
    x = np.arange(8.0).reshape(4, 2)
    w = np.zeros((3, 2, 1))
    w[0, 0, 0] = 1.0   # taps left neighbor's first feature
    w[1, 1, 0] = 2.0   # taps own second feature
    out = reference_conv(x, w, np.array([0.5]), [4])
    expect = np.array([[0 + 2 * 1 + 0.5], [0 + 2 * 3 + 0.5], [2 + 2 * 5 + 0.5], [4 + 2 * 7 + 0.5]])
    assert_allclose(out, expect)
    # two documents: token 2 no longer sees token 1
    assert_allclose(reference_conv(x, w, np.array([0.5]), [2, 2])[2], [2 * 5 + 0.5])


def _window_case(lengths, width, m, d_in, d_out, seed):
    """Random operands of a window convolution whose tokens read m rows with
    repeats, as layer 1 reads a cluster's distinct rows."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=sum(lengths))
    x, w, b = rng.normal(size=(m, d_in)), rng.normal(size=(width, d_in, d_out)), rng.normal(size=d_out)
    return rows, x, w, b, rng.normal(size=(rows.size, d_out))


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=5),
       width=st.integers(1, 10), m=st.integers(1, 6), d_in=st.integers(1, 3),
       d_out=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(lengths=[0, 0], width=3, m=1, d_in=2, d_out=2, seed=0)      # no tokens
@example(lengths=[2, 0, 1, 3], width=10, m=2, d_in=2, d_out=1, seed=1)  # shorter than the filter
@example(lengths=[7], width=4, m=1, d_in=3, d_out=2, seed=2)         # every token one row
def test_window_conv_equals_reference_convolution(lengths, width, m, d_in, d_out, seed):
    # forward and every gradient equal the direct loop over each token's own
    # copy of its row, x's gradient folded back onto the rows, up to rounding
    rows, x0, w0, b0, g = _window_case(lengths, width, m, d_in, d_out, seed)
    x, w, b = (C.Tensor(v) for v in (x0, w0, b0))
    out = C.window_conv(x, w, b, reference_windows(lengths, width, rows, m))
    C.backward(tsum(C.scale(out, g)))
    tokens = x0[rows]
    dx_tokens, dw, db = reference_conv_grads(tokens, w0, lengths, g)
    dx = np.zeros_like(x0)
    np.add.at(dx, rows, dx_tokens)
    assert_close(out.data, reference_conv(tokens, w0, b0, lengths))
    assert_close(x.grad, dx)
    assert_close(w.grad, dw)
    assert_close(b.grad, db)


def add_at_window_conv_grads(x, w, windows, g):
    """x's, w's and b's gradients from window_conv's backward as one flat
    np.add.at scatter of g onto the projections: the formulation that the
    bincount scatter replaced, kept as its reference."""
    width, d_in, d_out = w.shape
    m = x.shape[0]
    flat = windows.T + (m + 1) * np.arange(width)[:, None]
    dproj = np.zeros(width * (m + 1) * d_out)
    at = flat[..., None] * d_out + np.arange(d_out)
    np.add.at(dproj, at.ravel(), np.broadcast_to(g, at.shape).ravel())
    dproj = dproj.reshape(width, m + 1, d_out)[:, :m]
    dx = (dproj.transpose(1, 0, 2).reshape(m, width * d_out)
          @ w.transpose(0, 2, 1).reshape(width * d_out, d_in))
    return dx, x.T @ dproj, g.sum(axis=0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), width=st.integers(1, 10), m=st.integers(1, 8),
       d_in=st.integers(1, 4), d_out=st.integers(1, 4), seed=st.integers(0, 2**16))
@example(n=6, width=3, m=1, d_in=2, d_out=2, seed=0)      # every window one row or pad
def test_window_conv_backward_is_bit_equal_to_add_at(n, width, m, d_in, d_out, seed):
    # the same additions in the same order: equal bits, signs of zeros too.
    # Windows repeat rows and read the pad row m. g holds -0.0 entries and
    # goes to the node's backward directly, since a gradient accumulated
    # from zero would turn them into 0.0; the grads start at -0.0 so that a
    # -0.0 result survives its accumulation
    rng = np.random.default_rng(seed)
    windows = rng.integers(0, m + 1, size=(n, width))
    x0, w0 = rng.normal(size=(m, d_in)), rng.normal(size=(width, d_in, d_out))
    g = rng.normal(size=(n, d_out))
    g[rng.random(g.shape) < 0.3] = -0.0
    x, w, b = C.Tensor(x0), C.Tensor(w0), C.Tensor(rng.normal(size=d_out))
    out = C.window_conv(x, w, b, windows)
    for t in (x, w, b):
        t.grad = np.full(t.data.shape, -0.0)
    out._backward(g)
    for got, want in zip((x.grad, w.grad, b.grad), add_at_window_conv_grads(x0, w0, windows, g)):
        assert got.tobytes() == (np.full(want.shape, -0.0) + want).tobytes()


@settings(max_examples=30, deadline=None)
@given(lengths=st.lists(st.integers(0, 7), min_size=1, max_size=3).filter(sum),
       width=st.integers(1, 10), m=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_window_conv_grads(lengths, width, m, seed):
    rows, x0, w0, b0, g = _window_case(lengths, width, m, 2, 3, seed)
    x, w, b = (C.Tensor(v) for v in (x0, w0, b0))
    windows = reference_windows(lengths, width, rows, m)
    check_grads(lambda: tsum(C.scale(C.window_conv(x, w, b, windows), g)), [x, w, b])


def test_window_conv_rejects_bad_operands():
    x, w, b = C.Tensor(np.ones((3, 2))), C.Tensor(np.ones((2, 2, 1))), C.Tensor(np.zeros(1))
    C.window_conv(x, w, b, [[0, 3], [3, 2]])       # index 3 is the zero row
    for windows in ([[0, 4]], [[-1, 0]]):
        with pytest.raises(C.ComputeError, match="out of range"):
            C.window_conv(x, w, b, windows)
    with pytest.raises(C.ComputeError, match="shape mismatch"):
        C.window_conv(x, w, b, [[0, 1, 2]])
    with pytest.raises(C.ComputeError, match="rank"):
        C.window_conv(x, w, b, [0, 1])


def _grad(t):
    return np.zeros_like(t.data) if t.grad is None else t.grad


def _block_bounds(lengths):
    stops = np.cumsum(lengths, dtype=int)
    return [(int(s) - k, int(s)) for s, k in zip(stops, lengths) if k]


# The test_conv1d_* tests check the same-padded 1-D convolution over
# documents that both encoder layers compute: window_conv with one row of x
# per token, each token's window from reference_windows.

def conv1d(x, w, b, lengths=None):
    """Same-padded convolution over the rows of x through window_conv; each
    block of lengths rows (default: all of x) is padded on its own."""
    n = x.data.shape[0]
    lengths = [n] if lengths is None else lengths
    return C.window_conv(x, w, b, reference_windows(lengths, w.data.shape[0], np.arange(n), n))


def test_conv1d_matches_direct_computation():
    # width 3 on 4 tokens: out[i] = sum_k w[k] . x[i+k-1] with zero pads
    x = np.arange(8.0).reshape(4, 2)
    w = np.zeros((3, 2, 1))
    w[0, 0, 0] = 1.0   # taps left neighbor's first feature
    w[1, 1, 0] = 2.0   # taps own second feature
    out = conv1d(C.Tensor(x), C.Tensor(w), C.Tensor([0.5]))
    expect = np.array([[0 + 2 * 1 + 0.5], [0 + 2 * 3 + 0.5], [2 + 2 * 5 + 0.5], [4 + 2 * 7 + 0.5]])
    assert_allclose(out.data, expect)


def test_conv1d_same_padding_lengths():
    rng = np.random.default_rng(15)
    for width in (1, 2, 3, 5, 10):
        for n in (1, 2, 7):
            x = C.Tensor(rng.normal(size=(n, 3)))
            w = C.Tensor(rng.normal(size=(width, 3, 4)))
            b = C.Tensor(rng.normal(size=(4,)))
            assert conv1d(x, w, b).shape == (n, 4)


def test_conv1d_grads():
    rng = np.random.default_rng(16)
    x = C.Tensor(rng.normal(size=(6, 3)))
    w = C.Tensor(rng.normal(size=(5, 3, 2)))
    b = C.Tensor(rng.normal(size=(2,)))
    weights = rng.normal(size=(6, 2))
    check_grads(lambda: tsum(C.scale(conv1d(x, w, b), weights)), [x, w, b])


def test_conv1d_wide_kernel_grads():
    rng = np.random.default_rng(17)
    x = C.Tensor(rng.normal(size=(4, 2)))
    w = C.Tensor(rng.normal(size=(10, 2, 3)))  # kernel wider than input
    b = C.Tensor(rng.normal(size=(3,)))
    check_grads(lambda: tsum(conv1d(x, w, b)), [x, w, b])


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(0, 12), min_size=1, max_size=6),
       width=st.integers(1, 10), d_in=st.integers(1, 3), d_out=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_conv1d_blocks_equal_per_block_convolutions(lengths, width, d_in, d_out, seed):
    # one block op is each block convolved on its own, concatenated; w and b
    # gradients add block by block; up to rounding, as w's gradient is one
    # product over all blocks' rows
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    x0, w0, b0 = rng.normal(size=(n, d_in)), rng.normal(size=(width, d_in, d_out)), rng.normal(size=d_out)
    g = rng.normal(size=(n, d_out))
    x, w, b = (C.Tensor(v) for v in (x0, w0, b0))
    out = conv1d(x, w, b, lengths)
    C.backward(tsum(C.scale(out, g)))

    w_ref, b_ref = C.Tensor(w0), C.Tensor(b0)
    outs, gxs = [np.zeros((0, d_out))], [np.zeros((0, d_in))]
    for lo, hi in _block_bounds(lengths):
        xb = C.Tensor(x0[lo:hi].copy())
        ob = conv1d(xb, w_ref, b_ref)
        C.backward(tsum(C.scale(ob, g[lo:hi])))  # one sweep per block, in order
        outs.append(ob.data)
        gxs.append(_grad(xb))
    assert_close(out.data, np.concatenate(outs))
    assert_close(_grad(x), np.concatenate(gxs))
    assert_close(_grad(w), _grad(w_ref))
    assert_close(_grad(b), _grad(b_ref))


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(sum),
       rows=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_softmax_blocks_equal_per_block_softmax(lengths, rows, seed):
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    u0, g = rng.normal(scale=3.0, size=(rows, n)), rng.normal(size=(rows, n))
    u = C.Tensor(u0)
    out = C.softmax(u, lengths)
    C.backward(tsum(C.scale(out, g)))

    outs, grads = [], []
    for lo, hi in _block_bounds(lengths):
        ub = C.Tensor(u0[:, lo:hi].copy())
        ob = C.softmax(ub)
        C.backward(tsum(C.scale(ob, g[:, lo:hi].copy())))
        outs.append(ob.data)
        grads.append(_grad(ub))
    assert np.array_equal(out.data, np.concatenate(outs, axis=1))
    assert np.array_equal(u.grad, np.concatenate(grads, axis=1))


def test_block_lengths_must_cover_the_axis():
    x = C.Tensor(np.ones((2, 5)))
    for lengths in ([2, 2], [3, 3], [6, -1]):
        for op in (C.softmax, agg.per_document_attention):
            with pytest.raises(C.ComputeError, match="do not cover"):
                op(x, lengths)


def test_dropout_eval_mode_is_identity():
    x = C.Tensor(np.arange(6.0).reshape(2, 3))
    out = C.dropout(x, 0.5)
    assert_allclose(out.data, x.data)


def test_dropout_expectation_monte_carlo():
    rng = np.random.default_rng(18)
    x = C.Tensor(np.full((200,), 2.0))
    total = np.zeros(200)
    trials = 500
    for _ in range(trials):
        total += C.dropout(x, 0.8, rng.random(200)).data
    mean = total.mean() / trials
    assert abs(mean - 2.0) < 0.02  # inverted scaling keeps the expectation


def test_dropout_zero_or_scaled():
    rng = np.random.default_rng(19)
    out = C.dropout(C.Tensor(np.ones(1000)), 0.8, rng.random(1000)).data
    vals = set(np.round(out, 12))
    assert vals <= {0.0, round(1 / 0.8, 12)}


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(20)
    x = C.Tensor(np.ones(50))
    out = C.dropout(x, 0.5, rng.random(50))
    C.backward(tsum(out))
    assert_allclose(x.grad, out.data)  # grad is the same mask/scale


def test_compose_embedding_routes_grad_to_mask_rows():
    base = np.arange(12.0).reshape(4, 3)
    mv = C.Tensor([9.0, 9.0, 9.0])
    table = C.compose_embedding(base, mv, [1, 3])
    assert_allclose(table.data[1], mv.data)
    assert_allclose(table.data[0], base[0])
    weights = np.arange(12.0).reshape(4, 3)
    C.backward(tsum(C.scale(table, weights)))
    assert_allclose(mv.grad, weights[1] + weights[3])


def test_backward_accumulates_through_shared_node():
    a = C.Tensor([3.0, -1.0])
    b = C.scale(a, 2.0)                              # 2a, both slots' vector
    R = C.Tensor([[1.0, 2.0]])
    out = tsum(S.score_tokens(R, [b, b]))            # 2 R(2a), d/da = 4 R[0]
    C.backward(out)
    assert_allclose(a.grad, [4.0, 8.0])


def test_backward_requires_scalar():
    a = C.Tensor(np.ones(3))
    with pytest.raises(C.ComputeError):
        C.backward(C.relu(a))


def test_deep_chain_no_recursion_limit():
    x = C.Tensor(1.0)
    out = x
    for _ in range(10000):
        out = C.scale(out, -1.0)       # an even number of sign flips
    C.backward(out)
    assert float(x.grad) == 1.0


def reference_adam(params, grads, lr, steps, b1=0.9, b2=0.999, eps=1e-8, l2=0.0):
    """Straight-line Adam used as the oracle."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(x) for k, x in params.items()}
    out = {k: x.copy() for k, x in params.items()}
    for t in range(1, steps + 1):
        for k in params:
            g = grads[k] + l2 * out[k]
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            out[k] -= lr * (m[k] / (1 - b1 ** t)) / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
    return out


def test_adam_matches_reference_with_l2():
    rng = np.random.default_rng(21)
    init = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}
    grads = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))}
    params = {k: C.Tensor(v.copy()) for k, v in init.items()}
    state = C.AdamState()
    for _ in range(7):
        for k, p in params.items():
            p.zero_grad()
            p.accumulate(grads[k].copy())
        C.adam_step(C.FlatParams(params), state, lr=0.003, l2=0.01)
    expect = reference_adam(init, grads, lr=0.003, steps=7, l2=0.01)
    for k in init:
        assert_allclose(params[k].data, expect[k], atol=1e-12)


def test_adam_first_step_size_is_lr():
    # with bias correction the first update has magnitude ~lr regardless of g
    p = C.Tensor(np.array([5.0]))
    p.accumulate(np.array([1e-3]))
    C.adam_step(C.FlatParams({"p": p}), C.AdamState(), lr=0.1)
    assert abs(float(p.data[0]) - (5.0 - 0.1)) < 1e-4


def test_adam_rejects_nan_grad():
    p = C.Tensor(np.array([1.0]))
    p.grad = np.array([np.nan])
    with pytest.raises(C.ComputeError):
        C.adam_step(C.FlatParams({"p": p}), C.AdamState(), lr=0.1)


def per_tensor_adam_step(params: dict, grads: dict, m: dict, v: dict, t: int, lr: float,
                         l2: float):
    """The per-tensor Adam update that the flat-vector step replaced, in its
    in-place order, with a fresh array for each temporary as the flat step
    made them before its scratch buffers: the reference the flat step's
    parameters and moments must equal bit for bit."""
    b1, b2 = C.ADAM_BETA1, C.ADAM_BETA2
    for name, data in params.items():
        g = grads[name]
        if l2:
            g = g + l2 * data
        m.setdefault(name, np.zeros_like(data))
        v.setdefault(name, np.zeros_like(data))
        step = (1 - b1) * g
        m[name] *= b1
        m[name] += step
        np.multiply(g, g, out=step)
        step *= 1 - b2
        v[name] *= b2
        v[name] += step
        denom = v[name] / (1 - b2 ** t)
        np.sqrt(denom, out=denom)
        denom += C.ADAM_EPS
        np.divide(m[name], 1 - b1 ** t, out=step)
        step *= lr
        step /= denom
        data -= step


@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_flat_adam_equals_the_per_tensor_loop_bit_for_bit(l2):
    rng = np.random.default_rng(23)
    shapes = {"w1": (3, 5, 4), "b1": (4,), "w2": (2, 4, 3), "slot": (3,), "mask": (5,)}
    init = {k: rng.normal(size=s) for k, s in shapes.items()}
    flat = C.FlatParams({k: C.Tensor(x.copy()) for k, x in init.items()})
    want = {k: x.copy() for k, x in init.items()}
    state, m, v = C.AdamState(), {}, {}
    for t in range(1, 51):
        grads = {k: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=s)
                 for k, s in shapes.items()}
        flat.zero_grad()
        for k, p in flat.tensors.items():
            p.accumulate(grads[k])
        C.adam_step(flat, state, lr=0.003, l2=l2)
        per_tensor_adam_step(want, grads, m, v, t, lr=0.003, l2=l2)
        for k, p in flat.tensors.items():
            assert p.data.tobytes() == want[k].tobytes(), (t, k)
        for got, moments in ((state.m, m), (state.v, v)):
            assert got.tobytes() == np.concatenate([moments[k].ravel() for k in shapes]).tobytes()
    assert state.t == 50


def test_adam_step_allocates_no_whole_vector_temporary():
    # 20,800 floats (166 KB) is the reader's default parameter count; after
    # the first step has allocated the state, a step holds at most the
    # finiteness check's bool vector (21 KB), where each float temporary
    # would add 166 KB
    rng = np.random.default_rng(25)
    flat = C.FlatParams({"p": C.Tensor(rng.normal(size=20_800))})
    flat.grad[:] = rng.normal(size=20_800)
    state = C.AdamState()
    C.adam_step(flat, state, lr=0.003, l2=0.01)
    tracemalloc.start()
    try:
        C.adam_step(flat, state, lr=0.003, l2=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    params = {"w": C.Tensor(rng.normal(size=(4, 3))),
              "pi": C.Tensor(rng.normal(size=(8, 5)))}
    path = tmp_path / "model.rac"
    C.save_checkpoint(path, params, seed=17, extra={"slots": ["a", "b"]})
    loaded = C.load_checkpoint(path)
    assert_allclose(loaded["params"]["w"], params["w"].data)
    assert_allclose(loaded["params"]["pi"], params["pi"].data)
    assert loaded["seed"] == 17 and loaded["extra"]["slots"] == ["a", "b"]
    assert set(loaded) == {"params", "seed", "extra"}
    with open(path) as fh:
        assert fh.readline().strip() == "RACv2"
        assert "adam" not in json.load(fh)


def test_checkpoint_with_optimizer_section_still_loads(tmp_path):
    # files written before the optimizer state was dropped carry an "adam" section
    path = tmp_path / "old.rac"
    body = {"params": {"w": {"shape": [2], "data": [1.0, 2.0]}},
            "adam": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "t": 3,
                     "m": {"w": {"shape": [2], "data": [0.1, 0.2]}},
                     "v": {"w": {"shape": [2], "data": [0.3, 0.4]}}},
            "seed": 5, "extra": {}}
    path.write_text("RACv1\n" + json.dumps(body))
    loaded = C.load_checkpoint(path)
    assert_allclose(loaded["params"]["w"], [1.0, 2.0])
    assert loaded["seed"] == 5


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.rac"
    path.write_text("NOPE\n{}")
    with pytest.raises(C.ComputeError):
        C.load_checkpoint(path)


def test_every_compute_op_has_a_caller_in_src():
    """A public function of compute that only tests call belongs in the tests.

    A caller is a call C.name(...) in any module of the package (each imports
    compute as C) or name(...) inside compute itself."""
    tree = ast.parse((SRC / "compute.py").read_text())
    public = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)
              and not f.name.startswith("_")}
    called = set()
    for path in SRC.glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            f = n.func if isinstance(n, ast.Call) else None
            if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "C":
                called.add(f.attr)
            elif isinstance(f, ast.Name) and path.name == "compute.py":
                called.add(f.id)
    assert "softmax" in public and sorted(public - called) == []
