"""Gradient, optimizer, and checkpoint tests for the compute core.

Every differentiable op is checked against central finite differences on
random seeded inputs; dropout is checked against its expectation by Monte
Carlo; Adam against a step-by-step reference implementation.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from clusterreader import compute as C


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


def test_add_mul_chain_grad():
    rng = np.random.default_rng(0)
    a = C.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = C.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_grads(lambda: C.tsum(C.mul(C.add(a, b), a)), [a, b])


def test_scalar_broadcast_grad():
    rng = np.random.default_rng(1)
    a = C.Tensor(rng.normal(size=(5,)), requires_grad=True)
    s = C.Tensor(0.7, requires_grad=True)
    check_grads(lambda: C.tsum(C.mul(a, s)), [a, s])


def test_div_grad():
    rng = np.random.default_rng(2)
    a = C.Tensor(rng.normal(size=(6,)), requires_grad=True)
    b = C.Tensor(rng.uniform(0.5, 2.0, size=(6,)), requires_grad=True)
    check_grads(lambda: C.tsum(C.div(a, b)), [a, b])


def test_matmul_grad_matrix_vector():
    rng = np.random.default_rng(3)
    w = C.Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    x = C.Tensor(rng.normal(size=(6,)), requires_grad=True)
    check_grads(lambda: C.tsum(C.matmul(w, x)), [w, x])


def test_matmul_grad_matrix_matrix():
    rng = np.random.default_rng(4)
    a = C.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = C.Tensor(rng.normal(size=(5, 2)), requires_grad=True)
    check_grads(lambda: C.tsum(C.mul(C.matmul(a, b), C.matmul(a, b))), [a, b])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the nondifferentiable point
    a = C.Tensor(x, requires_grad=True)
    check_grads(lambda: C.tsum(C.relu(a)), [a])


def test_sigmoid_grad_and_stability():
    rng = np.random.default_rng(6)
    a = C.Tensor(rng.normal(size=(9,)), requires_grad=True)
    check_grads(lambda: C.tsum(C.mul(C.sigmoid(a), a)), [a])
    # extreme logits must not overflow
    big = C.sigmoid(C.Tensor([800.0, -800.0]))
    assert_allclose(big.data, [1.0, 0.0], atol=1e-12)


def test_log_grad_and_domain():
    rng = np.random.default_rng(7)
    a = C.Tensor(rng.uniform(0.2, 3.0, size=(5,)), requires_grad=True)
    check_grads(lambda: C.tsum(C.log(a)), [a])
    with pytest.raises(C.ComputeError):
        C.log(C.Tensor([1.0, 0.0]))


def test_softmax_vector_grad_and_simplex():
    rng = np.random.default_rng(8)
    a = C.Tensor(rng.normal(size=(6,)), requires_grad=True)
    w = rng.normal(size=(6,))
    check_grads(lambda: C.tsum(C.scale(C.softmax(a), w)), [a])
    p = C.softmax(a).data
    assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


def test_softmax_rows_grad():
    rng = np.random.default_rng(9)
    a = C.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = rng.normal(size=(4, 5))
    check_grads(lambda: C.tsum(C.scale(C.softmax(a), w)), [a])
    assert_allclose(C.softmax(a).data.sum(axis=1), np.ones(4), atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(8,))
    assert_allclose(C.softmax(C.Tensor(x)).data, C.softmax(C.Tensor(x + 123.0)).data, atol=1e-12)


def test_segment_pool_max_grad_routes_to_argmax():
    a = C.Tensor([[0.3, 2.0, -1.0, 2.0]], requires_grad=True)
    out = C.segment_pool(a, [[0, 1, 2, 3]], take_max=[True])
    C.backward(C.tsum(out))
    assert_allclose(a.grad, [[0.0, 1.0, 0.0, 0.0]])  # first of the tied maxima
    assert out.data.tolist() == [[2.0]]


def test_segment_pool_sum_and_weighted_grads():
    rng = np.random.default_rng(15)
    a = C.Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    segments = [[4, 0], [], [6, 2, 5]]
    weights = rng.uniform(0.0, 2.0, size=7)
    g = rng.normal(size=(3, 3))
    check_grads(lambda: C.tsum(C.scale(C.segment_pool(a, segments), g)), [a])
    a.zero_grad()
    check_grads(lambda: C.tsum(C.scale(C.segment_pool(a, segments, weights), g)), [a])
    out = C.segment_pool(a, segments, weights).data
    for k, seg in enumerate(segments):
        assert np.array_equal(out[:, k], [(a.data[s, seg] * weights[seg]).sum()
                                          for s in range(3)])


def test_segment_pool_rejects_bad_groups():
    a = C.Tensor(np.zeros((2, 3)))
    with pytest.raises(C.ComputeError):
        C.segment_pool(a, [[3]])
    with pytest.raises(C.ComputeError):
        C.segment_pool(a, [[]], take_max=[True])


def test_axis_total_grad():
    rng = np.random.default_rng(16)
    a = C.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(3, 4))
    for axis in (0, 1):
        a.zero_grad()
        check_grads(lambda: C.tsum(C.scale(C.axis_total(a, axis), w)), [a])
    assert_allclose(C.axis_total(a, 1).data[:, 2], a.data.sum(axis=1))


def test_clamp_grad_pass_through_inside():
    a = C.Tensor([0.2, -0.5, 1.5], requires_grad=True)
    out = C.tsum(C.clamp(a, 0.0, 1.0))
    C.backward(out)
    assert_allclose(out.data, 0.2 + 0.0 + 1.0)
    assert_allclose(a.grad, [1.0, 0.0, 0.0])


def test_take_and_take_pairs_grads():
    rng = np.random.default_rng(11)
    a = C.Tensor(rng.normal(size=(7,)), requires_grad=True)
    idx = [1, 4, 4, 0]
    check_grads(lambda: C.tsum(C.take(a, idx)), [a])
    m = C.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check_grads(lambda: C.tsum(C.take_pairs(m, [0, 2, 2], [1, 3, 3])), [m])


def test_take_rows_grad():
    rng = np.random.default_rng(18)
    m = C.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = rng.normal(size=(5, 3))
    check_grads(lambda: C.tsum(C.scale(C.take(m, [2, 0, 2, 3, 1]), w)), [m])


def test_take_out_of_range():
    a = C.Tensor(np.arange(3.0))
    with pytest.raises(C.ComputeError):
        C.take(a, [3])


def test_slices_and_concat_grads():
    rng = np.random.default_rng(12)
    a = C.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    b = C.Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def build():
        top = C.rows_slice(a, 0, 3)
        both = C.concat_rows([top, b])
        wide = C.concat_cols([both, both])
        return C.tsum(C.mul(wide, wide))

    check_grads(build, [a, b])


def test_cols_slice_grad():
    rng = np.random.default_rng(13)
    a = C.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    check_grads(lambda: C.tsum(C.cols_slice(a, 1, 4)), [a])


def test_stack_grad():
    xs = [C.Tensor(0.5, requires_grad=True), C.Tensor(-1.0, requires_grad=True)]
    out = C.tsum(C.mul(C.stack(xs), C.stack(xs)))
    C.backward(out)
    assert_allclose([float(x.grad) for x in xs], [1.0, -2.0])
    rng = np.random.default_rng(17)
    rows = [C.Tensor(rng.normal(size=4), requires_grad=True) for _ in range(3)]
    w = rng.normal(size=(3, 4))
    check_grads(lambda: C.tsum(C.scale(C.stack(rows), w)), rows)


def test_transpose_grad():
    rng = np.random.default_rng(14)
    a = C.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    w = rng.normal(size=(5, 3))
    check_grads(lambda: C.tsum(C.scale(C.transpose(a), w)), [a])


def test_conv1d_matches_direct_computation():
    # width 3 on 4 tokens: out[i] = sum_k w[k] . x[i+k-1] with zero pads
    x = np.arange(8.0).reshape(4, 2)
    w = np.zeros((3, 2, 1))
    w[0, 0, 0] = 1.0   # taps left neighbor's first feature
    w[1, 1, 0] = 2.0   # taps own second feature
    out = C.conv1d(C.Tensor(x), C.Tensor(w), C.Tensor([0.5]))
    expect = np.array([[0 + 2 * 1 + 0.5], [0 + 2 * 3 + 0.5], [2 + 2 * 5 + 0.5], [4 + 2 * 7 + 0.5]])
    assert_allclose(out.data, expect)


def test_conv1d_same_padding_lengths():
    rng = np.random.default_rng(15)
    for width in (1, 2, 3, 5, 10):
        for n in (1, 2, 7):
            x = C.Tensor(rng.normal(size=(n, 3)))
            w = C.Tensor(rng.normal(size=(width, 3, 4)))
            b = C.Tensor(rng.normal(size=(4,)))
            assert C.conv1d(x, w, b).shape == (n, 4)


def test_conv1d_grads():
    rng = np.random.default_rng(16)
    x = C.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w = C.Tensor(rng.normal(size=(5, 3, 2)), requires_grad=True)
    b = C.Tensor(rng.normal(size=(2,)), requires_grad=True)
    weights = rng.normal(size=(6, 2))
    check_grads(lambda: C.tsum(C.scale(C.conv1d(x, w, b), weights)), [x, w, b])


def test_conv1d_wide_kernel_grads():
    rng = np.random.default_rng(17)
    x = C.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    w = C.Tensor(rng.normal(size=(10, 2, 3)), requires_grad=True)  # kernel wider than input
    b = C.Tensor(rng.normal(size=(3,)), requires_grad=True)
    check_grads(lambda: C.tsum(C.conv1d(x, w, b)), [x, w, b])


def test_dropout_eval_mode_is_identity():
    x = C.Tensor(np.arange(6.0).reshape(2, 3))
    out = C.dropout(x, 0.5, training=False)
    assert_allclose(out.data, x.data)


def test_dropout_expectation_monte_carlo():
    rng = np.random.default_rng(18)
    x = C.Tensor(np.full((200,), 2.0))
    total = np.zeros(200)
    trials = 500
    for _ in range(trials):
        total += C.dropout(x, 0.8, training=True, rng=rng).data
    mean = total.mean() / trials
    assert abs(mean - 2.0) < 0.02  # inverted scaling keeps the expectation


def test_dropout_zero_or_scaled():
    rng = np.random.default_rng(19)
    out = C.dropout(C.Tensor(np.ones(1000)), 0.8, training=True, rng=rng).data
    vals = set(np.round(out, 12))
    assert vals <= {0.0, round(1 / 0.8, 12)}


def test_dropout_grad_masks_match_forward():
    rng = np.random.default_rng(20)
    x = C.Tensor(np.ones(50), requires_grad=True)
    out = C.dropout(x, 0.5, training=True, rng=rng)
    C.backward(C.tsum(out))
    assert_allclose(x.grad, out.data)  # grad is the same mask/scale


def test_compose_embedding_routes_grad_to_mask_rows():
    base = np.arange(12.0).reshape(4, 3)
    mv = C.Tensor([9.0, 9.0, 9.0], requires_grad=True)
    table = C.compose_embedding(base, mv, [1, 3])
    assert_allclose(table.data[1], mv.data)
    assert_allclose(table.data[0], base[0])
    weights = np.arange(12.0).reshape(4, 3)
    C.backward(C.tsum(C.scale(table, weights)))
    assert_allclose(mv.grad, weights[1] + weights[3])


def test_backward_accumulates_through_shared_node():
    a = C.Tensor(3.0, requires_grad=True)
    b = C.mul(a, a)          # a^2
    out = C.add(b, b)        # 2 a^2, d/da = 4a = 12
    C.backward(out)
    assert_allclose(float(a.grad), 12.0)


def test_backward_requires_scalar():
    a = C.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(C.ComputeError):
        C.backward(C.relu(a))


def test_no_graph_without_requires_grad():
    a = C.Tensor(np.ones((3, 3)))
    out = C.mul(a, a)
    assert out._parents == () and not out.requires_grad


def test_nonfinite_input_rejected():
    with pytest.raises(C.ComputeError):
        C.Tensor([1.0, np.nan])


def test_deep_chain_no_recursion_limit():
    x = C.Tensor(1.0, requires_grad=True)
    out = x
    for _ in range(5000):
        out = C.add(out, x)
    C.backward(out)
    assert float(x.grad) == 5001.0


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
    params = {k: C.Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    state = C.AdamState()
    for _ in range(7):
        for k, p in params.items():
            p.zero_grad()
            p.accumulate(grads[k].copy())
        C.adam_step(params, state, lr=0.003, l2=0.01)
    expect = reference_adam(init, grads, lr=0.003, steps=7, l2=0.01)
    for k in init:
        assert_allclose(params[k].data, expect[k], atol=1e-12)


def test_adam_first_step_size_is_lr():
    # with bias correction the first update has magnitude ~lr regardless of g
    p = C.Tensor(np.array([5.0]), requires_grad=True)
    p.accumulate(np.array([1e-3]))
    C.adam_step({"p": p}, C.AdamState(), lr=0.1)
    assert abs(float(p.data[0]) - (5.0 - 0.1)) < 1e-4


def test_adam_rejects_nan_grad():
    p = C.Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(C.ComputeError):
        C.adam_step({"p": p}, C.AdamState(), lr=0.1)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(22)
    params = {"w": C.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
              "pi": C.Tensor(rng.normal(size=(8, 5)), requires_grad=True)}
    state = C.AdamState(t=3)
    state.m["w"] = rng.normal(size=(4, 3))
    state.v["w"] = rng.uniform(size=(4, 3))
    path = tmp_path / "model.rac"
    C.save_checkpoint(path, params, adam=state, seed=17, extra={"slots": ["a", "b"]})
    loaded = C.load_checkpoint(path)
    assert_allclose(loaded["params"]["w"], params["w"].data)
    assert_allclose(loaded["params"]["pi"], params["pi"].data)
    assert loaded["adam"].t == 3
    assert_allclose(loaded["adam"].m["w"], state.m["w"])
    assert loaded["seed"] == 17 and loaded["extra"]["slots"] == ["a", "b"]
    with open(path) as fh:
        assert fh.readline().strip() == "RACv1"


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.rac"
    path.write_text("NOPE\n{}")
    with pytest.raises(C.ComputeError):
        C.load_checkpoint(path)
