"""Message-passing tests against brute-force enumeration oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linear_sum_assignment

from clusterreader import compute as C
from clusterreader import constraints as K
from clusterreader import model as M
from clusterreader import synth as sy
from clusterreader import training as T
from clusterreader.aggregator import (MODES, NULL_VALUE, AggregationConfig, decode_top1,
                                      rank_values)
from test_compute import tsum


def logit(p):
    return math.log(p / (1 - p))


def grid_graph(local):
    """Graph whose sigmoided locals equal the given matrix (no null row)."""
    local = np.asarray(local, dtype=np.float64)
    V, S = local.shape
    phi = np.vectorize(logit)(local)
    return M.bp_graph([f"v{i}" for i in range(V)], [f"s{j}" for j in range(S)], phi.T)


def converged(graph):
    """The last message state of converged BP on graph."""
    *_, state = K.rounds(graph, K.CONVERGENCE)
    return state


def brute_force_oracle(local, null_row=None):
    """Exact marginals by enumerating every valid assignment of a small grid.

    Every slot selects exactly one value and every value but the null row
    fills at most one slot, which on a square grid with no null row leaves
    the bijections, the support of Exactly-1 value factors there. A grid
    with fewer values than slots and no null row cannot fill every slot, so
    there a slot selects at most one value.
    """
    local = np.asarray(local, dtype=np.float64)
    weight_true = np.zeros(local.shape)
    total = 0.0
    for x, w in _valid_assignments(local, null_row):
        total += w
        weight_true += w * x
    if total <= 0:
        raise K.ConstraintError("no valid assignment has a positive weight")
    return weight_true / total


def _valid_assignments(local, null_row):
    """Each assignment the slot and value factors allow, as (V x S 0/1
    matrix, its weight: the product of local or 1 - local over every cell)."""
    V, S = local.shape
    if V * S > 20:
        raise K.ConstraintError(f"grid {V}x{S} too large for enumeration")
    may_select_none = null_row is None and V < S
    for choice in itertools.product(range(V + may_select_none), repeat=S):
        counts = np.bincount(choice, minlength=V + 1)[:V]   # row V: the slot selects none
        if null_row is not None:
            counts[null_row] = 0
        if np.any(counts > 1):
            continue
        x = np.zeros((V + 1, S))
        x[list(choice), range(S)] = 1.0
        x = x[:V]
        yield x, float(np.prod(np.where(x == 1, local, 1 - local)))


def brute_force_map(local, null_row=None):
    """Each slot's value row in the most probable valid assignment, by enumeration."""
    x, _ = max(_valid_assignments(np.asarray(local, dtype=np.float64), null_row),
               key=lambda xw: xw[1])
    return x.argmax(axis=0)


def map_matching(local, null_row=None):
    """Each slot's value row in the most probable valid assignment, as a
    maximum-weight bipartite matching of slots to values on the log-odds.

    An assignment weighs the product of (1 - local) over the grid times the
    odds of the cells it picks, so its MAP maximizes the picked log-odds.
    Each slot is matched once and each value at most once; the null row is
    offered once per slot, so it may fill them all.
    """
    local = np.asarray(local, dtype=np.float64)
    V, S = local.shape
    columns = [i for i in range(V) if i != null_row] + ([null_row] * S if null_row is not None else [])
    _, picks = linear_sum_assignment((np.log(local) - np.log1p(-local))[columns].T, maximize=True)
    return np.asarray(columns)[picks]


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


def test_bp_graph_reads_masses_as_locals():
    # a value-level grid's pooled masses are its locals, clipped into [EPS, 1-EPS]
    scores = np.array([[0.7, 0.0, 0.3], [0.25, 1.0, np.nan]])
    g = M.bp_graph(["a", "b", NULL_VALUE], ["s0", "s1"], scores, masses=True)
    assert_allclose(g.local, [[0.7, 0.25], [K.EPS, 1 - K.EPS], [0.3, K.EPS]], atol=0)
    assert g.null_row == 2
    assert np.array_equal(K.run_bp(g, 0), g.local)


def test_init_messages():
    g = grid_graph([[0.5, 0.9]])
    st = K.init_messages(g)
    assert_allclose(st.to_row, [[0.5, 0.9]])
    assert_allclose(st.to_col, st.to_row)  # both outgoing messages identical
    assert_allclose(st.from_row, 0.5)
    assert_allclose(st.from_col, 0.5)


def exactly1_all(mu: np.ndarray, axis: int) -> np.ndarray:
    """True-mass of Exactly-1 factor->variable messages for every target at
    once, as bp_iterate computes them. mu is the V x S grid of incoming true
    masses; axis=0 treats each column (slot factor across values) as a
    factor, axis=1 each row."""
    return K._factor_messages(K._odds(mu), axis, 1.0)


def column_message(mu, i):
    """Message an Exactly-1 factor over the entries of mu sends to entry i."""
    return exactly1_all(np.asarray(mu, dtype=np.float64)[:, None], axis=0)[i, 0]


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
            got = exactly1_all(mu, axis=axis)
            for i, j in itertools.product(range(V), range(S)):
                line = mu[:, j] if axis == 0 else mu[i, :]
                target = i if axis == 0 else j
                want = oracle_factor_message(line, target) if line.size > 1 else (1.0, 0.0)
                assert_allclose([got[i, j], 1 - got[i, j]], want, atol=1e-10)


def oracle_at_most1_message(mu, i):
    """At-Most-1 factor->variable message by enumerating the other neighbors."""
    others = [j for j in range(len(mu)) if j != i]
    t = f = 0.0
    for bits in itertools.product((0, 1), repeat=len(others)):
        w = 1.0
        for j, b in zip(others, bits):
            w *= mu[j] if b else 1 - mu[j]
        if sum(bits) == 0:
            t += w
            f += w
        elif sum(bits) == 1:
            f += w
    return t / (t + f), f / (t + f)


def test_at_most1_value_messages_match_enumeration():
    # the first round's value-factor messages of grids with a null row or more
    # values than slots, on the locals the variables send first
    rng = np.random.default_rng(79)
    for _ in range(40):
        V = int(rng.integers(1, 7))
        S = int(rng.integers(1, 7))
        null_row = int(rng.integers(V)) if V == S or rng.random() < 0.5 else None
        values = [NULL_VALUE if i == null_row else f"v{i}" for i in range(V)]
        mu = rng.uniform(0.01, 0.99, size=(V, S))
        g = M.bp_graph(values, [f"s{j}" for j in range(S)], mu.T, masses=True)
        assert g.value_constant == 2.0
        got = K.bp_iterate(K.init_messages(g), g).from_col
        for i, j in itertools.product(range(V), range(S)):
            want = (0.5, 0.5) if i == null_row else oracle_at_most1_message(mu[i], j)
            assert_allclose([got[i, j], 1 - got[i, j]], want, atol=1e-12)


def test_value_factor_rule_follows_shape_and_null_row():
    # At-Most-1 wherever a value may fill no slot; Exactly-1 only on a square
    # grid without a null row, whose support is the bijections either way
    rng = np.random.default_rng(80)
    for V, S, null_row, c in ((4, 4, 3, 2.0), (4, 4, None, 1.0), (6, 4, None, 2.0),
                              (6, 4, 5, 2.0), (3, 5, None, 2.0), (1, 1, None, 1.0)):
        values = [NULL_VALUE if i == null_row else f"v{i}" for i in range(V)]
        mu = rng.uniform(0.05, 0.95, size=(V, S))
        g = M.bp_graph(values, [f"s{j}" for j in range(S)], mu.T, masses=True)
        assert g.value_constant == c
        from_col = K.bp_iterate(K.init_messages(g), g).from_col
        if c == 1.0:
            assert_allclose(from_col, exactly1_all(mu, axis=1), atol=1e-15)
        else:
            rest = mu / (1 - mu)
            rest = rest.sum(axis=1, keepdims=True) - rest
            want = np.where(np.arange(V)[:, None] == null_row, 0.5, 1 / (2 + rest))
            assert_allclose(from_col, want, rtol=1e-14)


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

    def combine(local, other_t):
        return K._combine(np.array(local), 1 - np.array(local), np.array(other_t))

    assert_allclose(combine(0.5, other), other, atol=1e-12)
    assert_allclose(combine(0.73, 0.5), 0.73, atol=1e-12)
    assert combine(1 - 1e-9, 0.4) > 0.999999


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
    fr = exactly1_all(local[:, None], axis=0)[:, 0]
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
    marg = brute_force_oracle(local)
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


@pytest.fixture(scope="module")
def predict_corpus_grids():
    """Value-level prediction grids of a small trained model on a fixed
    synthetic corpus of 8-16-document clusters, under every mode."""
    noise = dict(misinformation_rate=0.3, offtopic_rate=0.3, missing_slot_rate=0.2)
    train, _ = sy.generate(sy.SynthConfig(n_clusters=8, seed=31, **noise))
    test, _ = sy.generate(sy.SynthConfig(n_clusters=9, docs_min=8, docs_max=16, seed=32,
                                         split="test", **noise))
    hp = T.Hyperparams(embed_dim=16, width1=3, width2=3, d1=8, r=8, max_epochs=4, seed=5)
    model = T.train(train, [], hp).model
    grids = []
    for mode in MODES:
        config = AggregationConfig(mode=mode)
        for cluster in test:
            index = M.ClusterIndex.build(cluster)
            values, scores = M.prediction_scores(model, index, config)
            grids.append((mode, M.prediction_graph(model, index, config, values, scores)))
    return grids


def test_converge_stops_below_the_cap_on_prediction_grids(predict_corpus_grids):
    for _, graph in predict_corpus_grids:
        assert graph.shape[0] > graph.shape[1] and graph.value_constant == 2.0
        state = converged(graph)
        assert state.iteration < K.CONV_CAP and state.delta < K.CONV_TOL


def test_prediction_locals_are_each_slots_share_of_its_mass(predict_corpus_grids):
    # per-doc sums one softmax per document, so its raw masses run above 1;
    # its locals must still split each slot's mass with no cell clipped at
    # 1 - EPS, or every value a slot scores above 1 would tie
    for mode, graph in predict_corpus_grids:
        assert graph.local.max() < 1 - K.EPS, mode
        slot_mass = graph.local.sum(axis=0)
        assert np.all(slot_mass <= 1 + 1e-9), mode
        if mode in ("sum", "per-doc"):
            assert_allclose(slot_mass, 1.0, atol=1e-9, err_msg=mode)


def test_convergence_mode_terminates_on_random_grids():
    rng = np.random.default_rng(73)
    for _ in range(5):
        g = grid_graph(rng.uniform(0.05, 0.95, size=(8, 8)))
        st = converged(g)
        assert st.delta < K.CONV_TOL, "did not converge inside the cap"
        assert st.iteration <= K.CONV_CAP
        assert np.all(np.isfinite(K.beliefs(st, g)))


def test_damping_preserves_fixed_points():
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    st = converged(g)
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
    assert_allclose(brute_force_oracle(np.array([[0.3]])), [[1.0]])
    a, b, c, d = 0.9, 0.6, 0.4, 0.2
    w1 = a * (1 - b) * (1 - c) * d        # v0->s0, v1->s1
    w2 = (1 - a) * b * c * (1 - d)        # v0->s1, v1->s0
    marg = brute_force_oracle(np.array([[a, b], [c, d]]))
    assert_allclose(marg, np.array([[w1, w2], [w2, w1]]) / (w1 + w2), atol=1e-12)


def test_brute_force_oracle_rejects_bad_grids():
    with pytest.raises(K.ConstraintError):
        brute_force_oracle(np.ones((2, 2)))  # every bijection picks a zero 1 - local
    with pytest.raises(K.ConstraintError):
        brute_force_oracle(np.full((5, 5), 0.5))  # > 20 variables


def test_brute_force_oracle_rectangular_and_null_rows():
    # 3 values x 2 slots: a value may fill no slot; the null row may fill both
    local = np.array([[0.7, 0.6], [0.2, 0.5], [0.4, 0.3]])
    marg = brute_force_oracle(local)
    w = {}
    for a, b in itertools.permutations(range(3), 2):
        x = np.zeros((3, 2))
        x[[a, b], [0, 1]] = 1
        w[a, b] = np.prod(np.where(x == 1, local, 1 - local))
    z = sum(w.values())
    assert_allclose(marg[0, 0], (w[0, 1] + w[0, 2]) / z, atol=1e-12)
    assert_allclose(marg.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(marg.sum(axis=1) <= 1 + 1e-12)
    marg = brute_force_oracle(np.full((2, 3), 0.5), null_row=1)
    assert_allclose(marg.sum(axis=0), 1.0, atol=1e-12)
    assert marg[1].sum() > 1


def test_converged_decode_matches_exact_marginals_on_rectangular_grids():
    # more values than slots, half the grids with a null row, masses drawn
    # per slot as attention would pool them: loopy BP is approximate, so
    # its per-slot argmax must agree with the enumerated marginals' on at
    # least 95% of grids, not all
    rng = np.random.default_rng(81)
    hits = trials = 0
    while trials < 300:
        S = int(rng.integers(2, 4))
        V = int(rng.integers(S + 1, 6))
        if V * S > 20:
            continue
        values = [f"v{i}" for i in range(V - 1)]
        values.append(NULL_VALUE if rng.random() < 0.5 else f"v{V - 1}")
        masses = rng.dirichlet(np.full(V, 0.5), size=S)
        g = M.bp_graph(values, [f"s{j}" for j in range(S)], masses, masses=True)
        exact = brute_force_oracle(g.local, g.null_row)
        beliefs = K.run_bp(g, K.CONVERGENCE)
        hits += np.array_equal(exact.argmax(axis=0), beliefs.argmax(axis=0))
        trials += 1
    assert hits >= 0.95 * trials, f"only {hits}/{trials} matched"


def _random_grid(rng, V, S, null_row, kind):
    """A V x S prediction grid: per-slot attention masses (Dirichlet, read as
    locals) or sigmoids of dispersed Gaussian scores, as mention decodes read."""
    values = [NULL_VALUE if i == null_row else f"v{i}" for i in range(V)]
    slots = [f"s{j}" for j in range(S)]
    if kind == "masses":
        return M.bp_graph(values, slots, rng.dirichlet(np.full(V, 0.5), size=S), masses=True)
    return M.bp_graph(values, slots, rng.normal(scale=2.0, size=(S, V)))


def test_matching_is_the_enumerated_map_on_small_grids():
    # At-Most-1 value rows: the MAP is a maximum-weight bipartite matching
    rng = np.random.default_rng(84)
    trials = 0
    while trials < 300:
        S, V = int(rng.integers(1, 4)), int(rng.integers(1, 7))
        null_row = int(rng.integers(V)) if rng.random() < 0.5 else None
        if V * S > 20 or (null_row is None and V < S):
            continue
        g = _random_grid(rng, V, S, null_row, ("masses", "sigmoid")[trials % 2])
        assert np.array_equal(map_matching(g.local, g.null_row),
                              brute_force_map(g.local, g.null_row)), g.local
        trials += 1


@pytest.mark.parametrize("kind,floor", [("masses", 0.80), ("sigmoid", 0.85)])
def test_converged_top1_agrees_with_map_matching_on_large_grids(kind, floor):
    # 20 values (the last null) x 8 slots, 160 variables, past enumeration.
    # Converged sum-product BP decodes each slot's largest marginal, not the
    # joint MAP, so the two can part. Measured over these 200 grids: 84.1%
    # of slots agree on masses and 89.4% on sigmoids, against 83.4% and
    # 82.4% for the locals' own argmax; the floors leave a margin below that.
    rng = np.random.default_rng(83)
    agree = total = 0
    for _ in range(200):
        g = _random_grid(rng, 20, 8, 19, kind)
        state = converged(g)
        assert state.delta < K.CONV_TOL
        agree += int(np.sum(K.beliefs(state, g).argmax(axis=0) == map_matching(g.local, 19)))
        total += 8
    assert agree >= floor * total, f"{agree}/{total} slots agree with the MAP matching"


def test_fewer_values_than_slots_keeps_the_value_constraint():
    # with no null row and fewer values than slots no assignment fills every
    # slot, so the slot factors are At-Most-1: their first messages match
    # enumeration, and converged BP stays near the enumerated marginals,
    # whose value rows and slot columns each sum to at most 1. Under
    # Exactly-1 slot factors every one of these grids had a value row
    # summing above 1, the largest to 3.7.
    rng = np.random.default_rng(85)
    trials = 0
    while trials < 200:
        S = int(rng.integers(3, 9))
        V = int(rng.integers(2, S))
        if V * S > 20:
            continue
        g = _random_grid(rng, V, S, None, ("masses", "sigmoid")[trials % 2])
        assert (g.slot_constant, g.value_constant) == (2.0, 2.0)
        from_row = K.bp_iterate(K.init_messages(g), g).from_row
        for i, j in itertools.product(range(V), range(S)):
            assert_allclose(from_row[i, j], oracle_at_most1_message(g.local[:, j], i)[0],
                            atol=1e-12)
        exact = brute_force_oracle(g.local)
        assert np.all(exact.sum(axis=1) <= 1 + 1e-12) and np.all(exact.sum(axis=0) <= 1 + 1e-12)
        beliefs = K.run_bp(g, K.CONVERGENCE)
        assert np.all(beliefs.sum(axis=1) <= 1 + 1e-3), beliefs
        assert np.abs(beliefs - exact).max() < 0.1
        trials += 1


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


@pytest.mark.parametrize("iterations", [0, 1, 2, 3, K.CONVERGENCE])
def test_every_caller_runs_the_one_schedule(iterations, tmp_path):
    # run_bp keeps the last state rounds yields, bp_trace every state's
    # beliefs and run_bp_tensor every state, bit for bit
    rng = np.random.default_rng(86)
    path = tmp_path / "trace.csv"
    for V, S, null_row in ((5, 3, 4), (3, 3, None), (2, 4, None), (6, 2, 1)):
        values = [NULL_VALUE if i == null_row else f"v{i}" for i in range(V)]
        slots = [f"s{j}" for j in range(S)]
        masses = rng.dirichlet(np.full(V, 0.5), size=S)
        g = M.bp_graph(values, slots, masses, masses=True)
        states = list(K.rounds(g, iterations))
        assert [state.iteration for state in states] == list(range(len(states)))
        if iterations == K.CONVERGENCE:
            assert states[-1].delta < K.CONV_TOL <= min(state.delta for state in states[:-1])
        else:
            assert len(states) == iterations + 1
        b = K.run_bp(g, iterations)
        assert np.array_equal(b, K.beliefs(states[-1], g))
        if iterations == 0:
            assert np.array_equal(b, g.local)
        K.bp_trace(g, iterations, path)
        rows = path.read_text().splitlines()[1:]
        assert rows == [f"{state.iteration},{v},{s},{K.beliefs(state, g)[i, j]:.10f}"
                        for state in states for i, v in enumerate(values)
                        for j, s in enumerate(slots)]
        if iterations != K.CONVERGENCE:
            assert np.array_equal(K.run_bp_tensor(C.Tensor(masses), g, iterations).data.T, b)
        else:   # its backward has no damping term
            with pytest.raises(K.ConstraintError, match="fixed number of undamped rounds"):
                K.run_bp_tensor(C.Tensor(masses), g, iterations)


def test_a_negative_count_raises_from_every_caller(tmp_path):
    g = grid_graph([[0.9, 0.6], [0.4, 0.2]])
    path = tmp_path / "trace.csv"
    for call in (lambda: list(K.rounds(g, -1)), lambda: K.run_bp(g, -1),
                 lambda: K.bp_trace(g, -1, path),
                 lambda: K.run_bp_tensor(C.Tensor(g.local.T), g, -1)):
        with pytest.raises(K.ConstraintError, match="negative iteration count -1"):
            call()
    assert not path.exists()


def mass_grid(masses, null_col=None):
    """The V x S mass grid of an S x K score array, as training builds it:
    column null_col, if any, is the null value."""
    values = [NULL_VALUE if k == null_col else f"v{k:02d}" for k in range(masses.shape[1])]
    return M.bp_graph(values, [f"s{j}" for j in range(masses.shape[0])], masses, masses=True)


def test_tensor_bp_matches_numpy_path():
    # the tensor BP runs prediction's rounds on the grid it is given and
    # returns the beliefs in the score tensor's slot x value layout
    rng = np.random.default_rng(76)
    for null_col in (None, 2):
        for iters in (1, 2, 3):
            masses = rng.uniform(0.05, 0.95, size=(4, 3))
            g = mass_grid(masses, null_col)
            got = K.run_bp_tensor(C.Tensor(masses), g, iters)
            assert np.array_equal(got.data.T, K.run_bp(g, iters))


def test_tensor_bp_gradients_flow_and_check():
    rng = np.random.default_rng(77)
    for null_col in (None, 1):
        masses0 = rng.uniform(0.05, 0.95, size=(2, 3))
        weights = rng.normal(size=(2, 3))

        def build(scores):
            grid = mass_grid(scores.data, null_col)
            return tsum(C.scale(K.run_bp_tensor(scores, grid, 2), weights))

        scores = C.Tensor(masses0.copy())
        C.backward(build(scores))
        assert scores.grad is not None
        num = np.zeros(masses0.size)
        for i in range(masses0.size):
            up, dn = masses0.copy().ravel(), masses0.copy().ravel()
            up[i] += 1e-6
            dn[i] -= 1e-6
            num[i] = (build(C.Tensor(up.reshape(2, 3))).item()
                      - build(C.Tensor(dn.reshape(2, 3))).item()) / 2e-6
        assert_allclose(scores.grad.ravel(), num, atol=1e-5)


def draw_mass_grid(data, max_slots=8, max_cols=24, low=0.0, high=1.0):
    """An S x K array of masses in [low, high) for run_bp_tensor, maybe with
    a null column."""
    S = data.draw(st.integers(1, max_slots), label="slots")
    K_ = data.draw(st.integers(1, max_cols), label="columns")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    null_col = int(rng.integers(K_)) if data.draw(st.booleans(), label="null column") else None
    return rng.uniform(low, high, size=(S, K_)), null_col


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tensor_bp_forward_is_the_numpy_rounds(data):
    masses, null_col = draw_mass_grid(data)
    rounds = data.draw(st.integers(0, 3), label="rounds")
    graph = mass_grid(masses, null_col)
    state = K.init_messages(graph)
    for _ in range(rounds):
        state = K.bp_iterate(state, graph)
    got = K.run_bp_tensor(C.Tensor(masses), graph, rounds)
    assert np.array_equal(got.data, K.beliefs(state, graph).T)


def check_tensor_bp_gradient(masses0, null_col, rounds, weights, h=1e-6, rtol=1e-4):
    """run_bp_tensor's gradient of sum(weights * beliefs) is finite, matches
    central differences wherever the clip leaves a mass alone and is 0 where
    it does not; returns it."""
    def loss(masses):
        return float((K.run_bp_tensor(C.Tensor(masses), mass_grid(masses, null_col),
                                      rounds).data * weights).sum())

    scores = C.Tensor(masses0.copy())
    beliefs = K.run_bp_tensor(scores, mass_grid(masses0, null_col), rounds)
    C.backward(tsum(C.scale(beliefs, weights)))
    assert np.all(np.isfinite(scores.grad))
    num = np.zeros_like(masses0)
    inside = (masses0 > K.EPS) & (masses0 < 1 - K.EPS)
    for idx in zip(*np.nonzero(inside)):
        up, dn = masses0.copy(), masses0.copy()
        up[idx] += h
        dn[idx] -= h
        num[idx] = (loss(up) - loss(dn)) / (2 * h)
    assert_allclose(scores.grad, num, atol=1e-6, rtol=rtol)
    return scores.grad


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tensor_bp_gradient_matches_central_differences(data):
    masses, null_col = draw_mass_grid(data, max_slots=5, max_cols=8, low=0.05, high=0.95)
    rounds = data.draw(st.integers(0, 3), label="rounds")
    weights = np.random.default_rng(masses.size).normal(size=masses.shape)
    check_tensor_bp_gradient(masses, null_col, rounds, weights)


def test_tensor_bp_gradient_on_single_variable_factors_and_extreme_scores():
    # a 1-slot or 1-value grid has factors over one variable, whose messages
    # are exactly 1; masses of 0 and 1 sit at the clip bounds and pass no gradient
    rng = np.random.default_rng(78)
    for shape, null_col in (((1, 5), None), ((1, 5), 2), ((4, 1), None), ((4, 1), 0),
                            ((1, 1), None), ((3, 4), 1)):
        for rounds in (1, 2, 3):
            masses = rng.uniform(0.05, 0.95, size=shape)
            check_tensor_bp_gradient(masses, null_col, rounds, rng.normal(size=shape))
    masses = rng.uniform(0.05, 0.95, size=(3, 4))
    masses[0, 1], masses[2, 3] = 1.0, 0.0
    grad = check_tensor_bp_gradient(masses, 1, 2, rng.normal(size=masses.shape))
    assert grad[0, 1] == 0.0 and grad[2, 3] == 0.0
    # masses within 1e-11 and 1e-13 of 1 and 0 drive messages within EPS of 0
    # and 1, so some combines clip and must pass no gradient; 1 - mu loses
    # digits there and central differences are good to about 0.5%
    phi = np.array([[2.835, 25.017, -2.989], [-30.123, 2.932, 0.493]])
    weights = np.array([[-0.098, 0.095, 0.036], [-0.506, 0.594, 0.891]])
    check_tensor_bp_gradient(1 / (1 + np.exp(-phi)), None, 2, weights, rtol=1e-2)


# ---------------------------------------------------------------------------
# the stacked round against the four-array formulas it replaced

NAMES = ("to_row", "to_col", "from_row", "from_col")


def reference_init(graph):
    local = graph.local
    return {"to_row": local.copy(), "to_col": local.copy(),
            "from_row": np.full_like(local, 0.5), "from_col": np.full_like(local, 0.5)}


def reference_round(msgs, graph, damping=0.0):
    """One BP round with each direction its own array.

    A value factor is At-Most-1, so its all-false assignment adds the
    leave-one-out product to the false mass a second time, except on a
    square grid with no null row, where it is Exactly-1. A slot factor is
    Exactly-1, except on a grid with fewer values than slots and no null
    row, where it is At-Most-1. The null row has no value factor and reads
    0.5.
    """
    local = graph.local
    V, S = local.shape
    value_may_fill_none = graph.null_row is not None or V != S
    slot_may_select_none = graph.null_row is None and V < S

    def factor(mu, axis, may_select_none):
        mu = np.clip(mu, K.EPS, 1 - K.EPS)
        ratio = mu / (1 - mu)
        others = ratio.sum(axis=axis, keepdims=True) - ratio
        return 1.0 / (others + (2.0 if may_select_none else 1.0))

    def combine(other_t):
        t = local * other_t
        f = (1 - local) * (1 - other_t)
        return np.clip(t / (t + f), K.EPS, 1 - K.EPS)

    from_row = factor(msgs["to_row"], 0, slot_may_select_none)
    from_col = factor(msgs["to_col"], 1, value_may_fill_none)
    if graph.null_row is not None:
        from_col[graph.null_row, :] = 0.5
    out = {"to_row": combine(from_col), "to_col": combine(from_row),
           "from_row": from_row, "from_col": from_col}
    if damping:
        out = {n: damping * msgs[n] + (1 - damping) * out[n] for n in NAMES}
    return out


def reference_converge(graph, damping=0.0):
    """Converged BP with each direction its own array: rounds at damping
    until the first round whose delta is not below the previous round's,
    K.CONV_DAMPING after it."""
    msgs, delta = reference_init(graph), np.inf
    for rounds in range(1, K.CONV_CAP + 1):
        new = reference_round(msgs, graph, damping)
        previous, delta = delta, max(np.abs(new[n] - msgs[n]).max() for n in NAMES)
        msgs = new
        if delta < K.CONV_TOL:
            break
        if delta >= previous:
            damping = K.CONV_DAMPING
    return msgs, rounds, delta


def damped_converge(graph):
    """The earlier schedule of converged BP: K.CONV_DAMPING from the first round."""
    return reference_converge(graph, K.CONV_DAMPING)


def reference_beliefs(msgs, graph):
    """K.beliefs of a reference message dict."""
    stack = np.stack([msgs[n] for n in ("to_row", "to_col", "from_col", "from_row")])
    return K.beliefs(K.MessageState(msgs=stack), graph)


def draw_grid(data, max_phi=8.0, missing=True, min_size=1):
    """A prediction grid of 1-24 values x 1-8 slots, or a square one of up to
    8, maybe with a null row and with cells absent from the score matrix (NaN)."""
    if data.draw(st.booleans(), label="square"):
        V = S = data.draw(st.integers(min_size, 8), label="values and slots")
    else:
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
    state = converged(graph)
    ref, rounds, ref_delta = reference_converge(graph)
    assert state.iteration == rounds
    assert state.delta == ref_delta
    for n in NAMES:
        assert np.array_equal(getattr(state, n), ref[n]), n


def test_undamped_start_keeps_the_damped_decode_in_fewer_rounds(predict_corpus_grids):
    # prediction grids do not cycle, so the undamped rounds reach the fixed
    # point that damping from the first round approaches more slowly
    rounds = damped_rounds = 0
    for mode, graph in predict_corpus_grids:
        state = converged(graph)
        ref, ref_rounds, _ = damped_converge(graph)
        assert state.iteration <= ref_rounds, mode
        rounds += state.iteration
        damped_rounds += ref_rounds
        b, ref_b = K.beliefs(state, graph), reference_beliefs(ref, graph)
        assert_allclose(b, ref_b, rtol=0, atol=1e-5, err_msg=mode)
        values = list(graph.values)
        assert decode_top1(b.T, values) == decode_top1(ref_b.T, values), mode
        assert rank_values(b.T, values) == rank_values(ref_b.T, values), mode
    assert rounds <= 0.6 * damped_rounds, (rounds, damped_rounds)


def test_a_grid_that_cycles_undamped_converges_once_damping_starts():
    g = grid_graph([[0.51, 0.36, 0.95], [0.33, 0.21, 0.84], [0.78, 0.65, 0.91]])
    assert g.null_row is None and g.value_constant == 1.0
    undamped = list(K.rounds(g, K.CONV_CAP))
    assert min(state.delta for state in undamped[1:]) > K.CONV_TOL
    states = list(K.rounds(g, K.CONVERGENCE))
    # round 4 moves the messages more than round 3, so damping starts at round 5
    assert [state.delta for state in states[1:5]] == [state.delta for state in undamped[1:5]]
    assert states[4].delta >= states[3].delta
    assert np.array_equal(states[5].msgs, K.bp_iterate(states[4], g, K.CONV_DAMPING).msgs)
    assert states[-1].iteration == 35 and states[-1].delta < K.CONV_TOL
    ref, ref_rounds, _ = damped_converge(g)
    assert ref_rounds == 34
    assert_allclose(K.beliefs(states[-1], g), reference_beliefs(ref, g), rtol=0, atol=1e-5)


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
def test_zero_rounds_give_the_locals_exactly(data):
    # run_bp has no zero-round branch: the initial state's beliefs are the
    # locals bit for bit, clipped and missing cells included
    graph = draw_grid(data, max_phi=30.0)
    assert np.array_equal(K.run_bp(graph, 0), graph.local)


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

