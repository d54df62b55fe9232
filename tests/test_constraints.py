"""Message-passing tests against brute-force enumeration oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from clusterreader import compute as C
from clusterreader import constraints as K
from clusterreader import model as M
from clusterreader.aggregator import NULL_VALUE


def logit(p):
    return math.log(p / (1 - p))


def grid_graph(local):
    """Graph whose sigmoided locals equal the given matrix (no null row)."""
    local = np.asarray(local, dtype=np.float64)
    V, S = local.shape
    phi = np.vectorize(logit)(local)
    return K.ConstraintGraph.from_scores(phi, [f"v{i}" for i in range(V)],
                                         [f"s{j}" for j in range(S)], None)


def oracle_factor_message(mu, i):
    """Exactly-1 factor->variable message by enumerating the other neighbors."""
    others = [j for j in range(len(mu)) if j != i]
    t = f = 0.0
    for bits in itertools.product((0, 1), repeat=len(others)):
        w = 1.0
        for j, b in zip(others, bits):
            w *= mu[j] if b else 1 - mu[j]
        trues = sum(bits)
        if trues == 0:
            t += w
        elif trues == 1:
            f += w
    z = t + f
    return t / z, f / z


def test_bp_graph_zero_phi_and_missing_cells():
    # prediction's S x V score matrix; NaN marks a cell without a score
    g = M.bp_graph(["a", "b"], ["s0", "s1"], np.array([[0.0, np.nan], [0.0, np.nan]]))
    assert g.values == ("a", "b") and g.slots == ("s0", "s1")
    assert_allclose(g.local[0], [0.5, 0.5])
    assert np.all(g.local[1] < 1e-8)  # missing cell pushed to ~0
    assert g.null_row is None


def test_bp_graph_detects_null_row():
    g = M.bp_graph(["a", NULL_VALUE], ["s"], np.array([[0.1, 0.2]]))
    assert g.null_row == 1


def test_init_messages():
    g = grid_graph([[0.5, 0.9]])
    st = K.init_messages(g)
    assert_allclose(st.to_row, [[0.5, 0.9]])
    assert_allclose(st.to_col, st.to_row)  # both outgoing messages identical
    assert_allclose(st.from_row, 0.5)
    assert_allclose(st.from_col, 0.5)


def column_message(mu, i):
    """Message an Exactly-1 factor over the entries of mu sends to entry i."""
    return K.exactly1_all(np.asarray(mu, dtype=np.float64)[:, None], axis=0)[i, 0]


def test_exactly1_message_worked_example():
    t = column_message([0.8, 0.3, 0.1], 0)
    # unnormalized (0.7*0.9, 0.3*0.9 + 0.1*0.7) = (0.63, 0.34)
    assert_allclose([t, 1 - t], [0.63 / 0.97, 0.34 / 0.97], atol=1e-12)
    assert_allclose([t, 1 - t], [0.6495, 0.3505], atol=1e-4)


def test_exactly1_message_uniform_and_singleton():
    assert_allclose(column_message([0.5, 0.5, 0.5], 1), 1 / 3, atol=1e-12)
    assert column_message([0.7], 0) == 1.0


def test_exactly1_message_matches_enumeration():
    # every row and column message of random grids
    rng = np.random.default_rng(70)
    for _ in range(40):
        V, S = (int(k) for k in rng.integers(1, 7, size=2))
        mu = rng.uniform(0.01, 0.99, size=(V, S))
        for axis in (0, 1):
            got = K.exactly1_all(mu, axis=axis)
            for i, j in itertools.product(range(V), range(S)):
                line = mu[:, j] if axis == 0 else mu[i, :]
                target = i if axis == 0 else j
                want = oracle_factor_message(line, target) if line.size > 1 else (1.0, 0.0)
                assert_allclose([got[i, j], 1 - got[i, j]], want, atol=1e-10)


def test_true_mass_closed_form_identity():
    # Z / (1 - mu_i) is algebraically the leave-one-out product
    rng = np.random.default_rng(71)
    for _ in range(50):
        mu = rng.uniform(0.05, 0.95, size=int(rng.integers(2, 7)))
        Z = np.prod(1 - mu)
        for i in range(mu.size):
            loo = np.prod(np.delete(1 - mu, i))
            assert_allclose(Z / (1 - mu[i]), loo, rtol=1e-12)


def test_variable_to_factor():
    # a variable's message to one factor: its local times the other factor's message
    other = column_message([0.8, 0.3, 0.1], 0)
    assert_allclose(K._combine(np.array(0.5), np.array(other)), other, atol=1e-12)
    assert_allclose(K._combine(np.array(0.73), np.array(0.5)), 0.73, atol=1e-12)
    assert K._combine(np.array(1 - 1e-9), np.array(0.4)) > 0.999999


def test_bp_fixed_point_is_stable():
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    st = K.init_messages(g)
    for _ in range(200):
        st = K.bp_iterate(st, g)
    again = K.bp_iterate(st, g)
    for name in ("to_row", "to_col", "from_row", "from_col"):
        assert_allclose(getattr(again, name), getattr(st, name), atol=1e-12)


def test_1x1_grid_pinned_true():
    g = grid_graph([[0.3]])
    b = K.run_bp(g, 1)
    assert b[0, 0] > 1 - 1e-6


def test_beliefs_zero_iterations_are_locals():
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    assert_allclose(K.run_bp(g, 0), g.local, atol=0)
    st = K.init_messages(g)
    assert_allclose(K.beliefs(st, g), g.local, atol=1e-12)


def test_single_row_factor_sharpens_dominant_value():
    # one slot, three values, row factor only: exact marginals by enumeration
    local = np.array([0.8, 0.3, 0.1])
    weights = np.array([local[i] * np.prod(np.delete(1 - local, i)) for i in range(3)])
    exact = weights / weights.sum()  # (0.8811, 0.0944, 0.0245)
    fr = K.exactly1_all(local[:, None], axis=0)[:, 0]
    t = local * fr
    f = (1 - local) * (1 - fr)
    got = t / (t + f)
    assert_allclose(got, exact, atol=1e-12)
    assert got[0] > local[0] and got[1] < local[1] and got[2] < local[2]


def test_2x2_selects_best_permutation():
    local = np.array([[0.9, 0.6], [0.4, 0.2]])
    g = grid_graph(local)
    b = K.run_bp(g, K.CONVERGENCE)
    # the exact best permutation is v0->s0, v1->s1
    assert b[:, 0].argmax() == 0
    assert b[:, 1].argmax() == 1
    marg = K.brute_force_oracle(local)
    assert marg[:, 0].argmax() == 0 and marg[:, 1].argmax() == 1


def test_bp_zero_equals_unconstrained_decode():
    rng = np.random.default_rng(72)
    local = rng.uniform(0.05, 0.95, size=(4, 3))
    g = grid_graph(local)
    assert_allclose(K.run_bp(g, 0), local, atol=1e-9)


def test_duplicate_prediction_broken_by_one_iteration():
    # value A is the slot-wise argmax for both slots; B is a close runner-up
    # in s2; the per-value factor should flip s2 to B after one round
    loc = {"A": {"s1": 0.58, "s2": 0.45}, "B": {"s1": 0.17, "s2": 0.42},
           NULL_VALUE: {"s1": 0.25, "s2": 0.13}}
    phi = [[logit(loc[v][s]) for v in loc] for s in ("s1", "s2")]
    g = M.bp_graph(["A", "B", NULL_VALUE], ["s1", "s2"], np.array(phi))
    b0 = K.run_bp(g, 0)
    picks0 = [g.values[b0[:, j].argmax()] for j in range(2)]
    assert picks0 == ["A", "A"]
    b1 = K.run_bp(g, 1)
    picks1 = [g.values[b1[:, j].argmax()] for j in range(2)]
    assert picks1 == ["A", "B"]


def test_convergence_mode_terminates_on_random_grids():
    rng = np.random.default_rng(73)
    for _ in range(5):
        g = grid_graph(rng.uniform(0.05, 0.95, size=(8, 8)))
        st, delta = K.converge(g)
        assert delta < K.CONV_TOL, "did not converge inside the cap"
        assert st.iteration <= K.CONV_CAP
        assert np.all(np.isfinite(K.beliefs(st, g)))


def test_damping_preserves_fixed_points():
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    st, _ = K.converge(g)
    undamped = K.bp_iterate(st, g, damping=0.0)
    for name in ("to_row", "to_col", "from_row", "from_col"):
        assert_allclose(getattr(undamped, name), getattr(st, name), atol=1e-5)


def test_messages_stay_in_unit_interval():
    rng = np.random.default_rng(74)
    g = grid_graph(rng.uniform(0.01, 0.99, size=(5, 4)))
    st = K.init_messages(g)
    for _ in range(10):
        st = K.bp_iterate(st, g)
        for name in ("to_row", "to_col", "from_row", "from_col"):
            arr = getattr(st, name)
            assert np.all(arr >= 0) and np.all(arr <= 1)
    b = K.beliefs(st, g)
    assert np.all(b >= 0) and np.all(b <= 1)


def test_converged_argmax_matches_best_permutation_usually():
    # Loopy BP is approximate: on grids where two permutations have nearly
    # equal probability its per-slot argmax (like that of the exact
    # marginals) can mix them, so agreement with the single best permutation
    # is required in >= 95% of trials, not all. Locals are sigmoids of
    # dispersed Gaussian scores, the regime a trained scorer produces.
    rng = np.random.default_rng(75)
    hits = 0
    trials = 500
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        local = 1 / (1 + np.exp(-rng.normal(scale=2.0, size=(n, n))))
        best, best_w = None, -1.0
        for perm in itertools.permutations(range(n)):
            x = np.zeros((n, n))
            x[list(perm), range(n)] = 1
            w = float(np.prod(np.where(x == 1, local, 1 - local)))
            if w > best_w:
                best, best_w = perm, w
        b = K.run_bp(grid_graph(local), K.CONVERGENCE)
        if tuple(b[:, j].argmax() for j in range(n)) == best:
            hits += 1
    assert hits >= 0.95 * trials, f"only {hits}/{trials} matched"


def test_brute_force_oracle_1x1_and_2x2():
    assert_allclose(K.brute_force_oracle(np.array([[0.3]])), [[1.0]])
    a, b, c, d = 0.9, 0.6, 0.4, 0.2
    w1 = a * (1 - b) * (1 - c) * d        # v0->s0, v1->s1
    w2 = (1 - a) * b * c * (1 - d)        # v0->s1, v1->s0
    marg = K.brute_force_oracle(np.array([[a, b], [c, d]]))
    assert_allclose(marg, np.array([[w1, w2], [w2, w1]]) / (w1 + w2), atol=1e-12)


def test_brute_force_oracle_rejects_bad_grids():
    with pytest.raises(K.ConstraintError):
        K.brute_force_oracle(np.full((3, 2), 0.5))  # no valid assignment
    with pytest.raises(K.ConstraintError):
        K.brute_force_oracle(np.full((5, 5), 0.5))  # > 20 variables


def test_prediction_record_reads_beliefs_by_slot_and_value():
    g = grid_graph([[0.8], [0.3]])
    table = M.prediction_record("c", g.slots, g.values, K.run_bp(g, 0).T)["scores"]
    assert_allclose(table["s0"]["v0"], 0.8)
    assert_allclose(table["s0"]["v1"], 0.3)


def test_bp_trace_csv(tmp_path):
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    path = tmp_path / "trace.csv"
    K.bp_trace(g, 2, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,value,slot,belief"
    assert len(lines) == 1 + 3 * 4  # header + (iterations+1) * V*S
    first = lines[1].split(",")
    assert first[0] == "0" and abs(float(first[3]) - 0.9) < 1e-9


def test_tensor_bp_matches_numpy_path():
    # the tensor BP runs on the slot x value grid, the transpose of prediction's
    rng = np.random.default_rng(76)
    for null_row in (None, 2):
        for iters in (1, 2, 3):
            local = rng.uniform(0.05, 0.95, size=(3, 4))
            values = ["a", "b", NULL_VALUE] if null_row == 2 else ["a", "b", "c"]
            phi = np.vectorize(logit)(local).T
            g = M.bp_graph(values, [f"s{j}" for j in range(4)], phi)
            want = K.run_bp(g, iters)
            phi = C.Tensor(np.log(local / (1 - local)).T, requires_grad=True)
            got = K.run_bp_tensor(phi, null_row, iters)
            assert np.array_equal(got.data.T, want)


def test_tensor_bp_gradients_flow_and_check():
    rng = np.random.default_rng(77)
    for null_col in (None, 1):
        phi0 = rng.normal(size=(2, 3))
        weights = rng.normal(size=(2, 3))

        def build(phi_t):
            return C.tsum(C.scale(K.run_bp_tensor(phi_t, null_col, 2), weights))

        phi = C.Tensor(phi0.copy(), requires_grad=True)
        C.backward(build(phi))
        assert phi.grad is not None
        num = np.zeros(phi0.size)
        for i in range(phi0.size):
            up, dn = phi0.copy().ravel(), phi0.copy().ravel()
            up[i] += 1e-6
            dn[i] -= 1e-6
            num[i] = (build(C.Tensor(up.reshape(2, 3))).item()
                      - build(C.Tensor(dn.reshape(2, 3))).item()) / 2e-6
        assert_allclose(phi.grad.ravel(), num, atol=1e-5)


def draw_score_grid(data, max_slots=8, max_cols=24, max_phi=8.0):
    """An S x K score grid for run_bp_tensor, maybe with a null column."""
    S = data.draw(st.integers(1, max_slots), label="slots")
    K_ = data.draw(st.integers(1, max_cols), label="columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    null_col = int(rng.integers(K_)) if data.draw(st.booleans(), label="null column") else None
    return rng.uniform(-max_phi, max_phi, size=(S, K_)), null_col


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tensor_bp_forward_is_the_numpy_rounds(data):
    phi, null_col = draw_score_grid(data)
    rounds = data.draw(st.integers(0, 3), label="rounds")
    values = [NULL_VALUE if k == null_col else f"v{k:02d}" for k in range(phi.shape[1])]
    slots = [f"s{j}" for j in range(phi.shape[0])]
    graph = M.bp_graph(values, slots, phi)
    state = K.init_messages(graph)
    for _ in range(rounds):
        state = K.bp_iterate(state, graph)
    got = K.run_bp_tensor(C.Tensor(phi, requires_grad=True), null_col, rounds)
    assert np.array_equal(got.data, K.beliefs(state, graph).T)


def check_tensor_bp_gradient(phi0, null_col, rounds, weights, h=1e-6, rtol=1e-4):
    """run_bp_tensor's gradient of sum(weights * beliefs) is finite and matches
    central differences; returns it."""
    def loss(phi):
        return float((K.run_bp_tensor(C.Tensor(phi), null_col, rounds).data * weights).sum())

    phi = C.Tensor(phi0.copy(), requires_grad=True)
    C.backward(C.tsum(C.scale(K.run_bp_tensor(phi, null_col, rounds), weights)))
    assert np.all(np.isfinite(phi.grad))
    num = np.zeros_like(phi0)
    for idx in np.ndindex(*phi0.shape):
        up, dn = phi0.copy(), phi0.copy()
        up[idx] += h
        dn[idx] -= h
        num[idx] = (loss(up) - loss(dn)) / (2 * h)
    assert_allclose(phi.grad, num, atol=1e-6, rtol=rtol)
    return phi.grad


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_bp_gradient_matches_central_differences(data):
    phi, null_col = draw_score_grid(data, max_slots=5, max_cols=8, max_phi=3.0)
    rounds = data.draw(st.integers(0, 3), label="rounds")
    weights = np.random.default_rng(phi.size).normal(size=phi.shape)
    check_tensor_bp_gradient(phi, null_col, rounds, weights)


def test_tensor_bp_gradient_on_single_variable_factors_and_extreme_scores():
    # a 1-slot or 1-value grid has factors over one variable, whose messages
    # are exactly 1; scores of +-800 saturate the sigmoid without overflow
    rng = np.random.default_rng(78)
    for shape, null_col in (((1, 5), None), ((1, 5), 2), ((4, 1), None), ((4, 1), 0),
                            ((1, 1), None), ((3, 4), 1)):
        for rounds in (1, 2, 3):
            phi = rng.uniform(-3, 3, size=shape)
            check_tensor_bp_gradient(phi, null_col, rounds, rng.normal(size=shape))
    phi = rng.uniform(-3, 3, size=(3, 4))
    phi[0, 1], phi[2, 3] = 800.0, -800.0
    grad = check_tensor_bp_gradient(phi, 1, 2, rng.normal(size=phi.shape))
    assert grad[0, 1] == 0.0 and grad[2, 3] == 0.0
    # scores of +-25 and -30 drive messages within EPS of 0 and 1, so some
    # combines clip and must pass no gradient; 1 - mu loses digits there and
    # central differences are good to about 0.5%
    phi = np.array([[2.835, 25.017, -2.989], [-30.123, 2.932, 0.493]])
    weights = np.array([[-0.098, 0.095, 0.036], [-0.506, 0.594, 0.891]])
    check_tensor_bp_gradient(phi, None, 2, weights, rtol=1e-2)


# ---------------------------------------------------------------------------
# the stacked round against the four-array formulas it replaced

NAMES = ("to_row", "to_col", "from_row", "from_col")


def reference_init(graph):
    local = graph.local
    return {"to_row": local.copy(), "to_col": local.copy(),
            "from_row": np.full_like(local, 0.5), "from_col": np.full_like(local, 0.5)}


def reference_round(msgs, graph, damping=0.0):
    """One BP round with each direction its own array, as written before the stack."""
    local = graph.local

    def exactly1(mu, axis):
        mu = np.clip(mu, K.EPS, 1 - K.EPS)
        ratio = mu / (1 - mu)
        total = ratio.sum(axis=axis, keepdims=True)
        return 1.0 / (1.0 + (total - ratio))

    def combine(other_t):
        t = local * other_t
        f = (1 - local) * (1 - other_t)
        return np.clip(t / (t + f), K.EPS, 1 - K.EPS)

    from_row = exactly1(msgs["to_row"], axis=0)
    from_col = exactly1(msgs["to_col"], axis=1)
    if graph.null_row is not None:
        from_col[graph.null_row, :] = 0.5
    out = {"to_row": combine(from_col), "to_col": combine(from_row),
           "from_row": from_row, "from_col": from_col}
    if damping:
        out = {n: damping * msgs[n] + (1 - damping) * out[n] for n in NAMES}
    return out


def reference_converge(graph):
    msgs, delta = reference_init(graph), np.inf
    for rounds in range(1, K.CONV_CAP + 1):
        new = reference_round(msgs, graph, K.CONV_DAMPING)
        delta = max(np.abs(new[n] - msgs[n]).max() for n in NAMES)
        msgs = new
        if delta < K.CONV_TOL:
            break
    return msgs, rounds, delta


def draw_grid(data, max_phi=8.0, missing=True, min_size=1):
    """A prediction grid of 1-24 values x 1-8 slots, maybe with a null row
    and with cells absent from the score matrix (NaN)."""
    V = data.draw(st.integers(min_size, 24), label="values")
    S = data.draw(st.integers(min_size, 8), label="slots")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = [f"v{i:02d}" for i in range(V)]
    if data.draw(st.booleans(), label="null row"):
        values[int(rng.integers(V))] = NULL_VALUE
    slots = [f"s{j}" for j in range(S)]
    phi = rng.uniform(-max_phi, max_phi, size=(V, S))
    present = rng.random((V, S)) < (0.8 if missing else 1.0)
    return M.bp_graph(values, slots, np.where(present, phi, np.nan).T)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bp_iterate_matches_reference_round_bit_for_bit(data):
    graph = draw_grid(data)
    damping = data.draw(st.sampled_from((0.0, K.CONV_DAMPING)), label="damping")
    state, ref = K.init_messages(graph), reference_init(graph)
    for n in NAMES:
        assert np.array_equal(getattr(state, n), ref[n])
    for r in range(1, data.draw(st.integers(1, 3), label="rounds") + 1):
        state = K.bp_iterate(state, graph, damping)
        ref = reference_round(ref, graph, damping)
        assert state.iteration == r
        for n in NAMES:
            assert np.array_equal(getattr(state, n), ref[n]), n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_converge_matches_reference_round_count_and_delta(data):
    graph = draw_grid(data)
    state, delta = K.converge(graph)
    ref, rounds, ref_delta = reference_converge(graph)
    assert state.iteration == rounds
    assert delta == ref_delta
    for n in NAMES:
        assert np.array_equal(getattr(state, n), ref[n]), n


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_beliefs_lie_in_unit_interval(data):
    # t = local * from_row * from_col never underflows to 0, but a factor over a
    # single variable pins it at exactly 1 and converged grids approach a hard
    # assignment closer than float64 resolves, so 1 itself is reachable
    graph = draw_grid(data)
    iterations = data.draw(st.sampled_from((0, 1, 2, 3, K.CONVERGENCE)), label="iterations")
    b = K.run_bp(graph, iterations)
    assert np.all(np.isfinite(b)) and np.all(b > 0) and np.all(b <= 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_beliefs_strictly_inside_unit_interval_for_fixed_rounds(data):
    # every factor has two or more variables and the locals stay moderate
    graph = draw_grid(data, max_phi=3.0, missing=False, min_size=2)
    b = K.run_bp(graph, data.draw(st.integers(0, 3), label="iterations"))
    assert np.all(b > 0) and np.all(b < 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bp_iterate_leaves_its_input_unchanged(data):
    graph = draw_grid(data)
    state = K.init_messages(graph)
    for _ in range(data.draw(st.integers(0, 2), label="warm rounds")):
        state = K.bp_iterate(state, graph)
    before = state.msgs.copy()
    new = K.bp_iterate(state, graph, data.draw(st.sampled_from((0.0, K.CONV_DAMPING))))
    assert np.array_equal(state.msgs, before)
    assert state.iteration == new.iteration - 1
    assert not np.shares_memory(new.msgs, state.msgs)


def test_message_views_are_read_only():
    st_ = K.init_messages(grid_graph([[0.9, 0.6], [0.4, 0.2]]))
    with pytest.raises(ValueError):
        st_.to_row[0, 0] = 0.1
    assert np.shares_memory(st_.from_col, st_.msgs)


def test_non_finite_message_names_direction_and_round():
    local = np.array([[np.nan, 0.5], [0.4, 0.2]])
    g = K.ConstraintGraph(values=("a", "b"), slots=("s0", "s1"), local=local, null_row=None)
    with pytest.raises(K.ConstraintError, match="non-finite to_row message at iteration 1"):
        K.bp_iterate(K.init_messages(g), g)

