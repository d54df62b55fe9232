"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The aggregation benchmark trains three models and takes about half a
minute; everything else is seconds.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from clusterreader import constraints as K
from clusterreader import corpus as cp
from clusterreader import model as M
from clusterreader import scorer as S
from clusterreader import synth as sy
from clusterreader import training as T
from clusterreader.aggregator import NULL_VALUE, AggregationConfig, decode_top1
from clusterreader.evaluation import (EvalInstance, evaluate, instance_from_cluster,
                                      modified_prf, mrr, null_prf, render_report)


def check(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. closed-form Exactly-1 messages vs. enumeration


def _enumerated_message(mu: np.ndarray, target: int):
    """Marginalize the Exactly-1 factor by listing the other variables' states."""
    others = [j for j in range(mu.size) if j != target]
    m = [0.0, 0.0]
    for states in itertools.product((0, 1), repeat=len(others)):
        w = 1.0
        for j, x in zip(others, states):
            w *= mu[j] if x else 1 - mu[j]
        for xi in (0, 1):
            if xi + sum(states) == 1:
                m[xi] += w
    z = m[0] + m[1]
    return m[1] / z, m[0] / z


def test_exactly1_messages_match_enumeration():
    # every row and every column message of random V x S grids
    rng = np.random.default_rng(2901)
    t0 = time.perf_counter()
    worst_msg = 0.0
    worst_ident = 0.0
    checked = 0
    for k in range(1, 9):
        for _ in range(3):
            mu = rng.uniform(0.05, 0.95, size=(k, int(rng.integers(1, 9))))
            for axis in (0, 1):
                got = K.exactly1_all(mu, axis=axis)
                lines = mu.T if axis == 0 else mu
                for j, line in enumerate(lines):
                    for i in range(line.size):
                        t = got[i, j] if axis == 0 else got[j, i]
                        want = _enumerated_message(line, i)
                        worst_msg = max(worst_msg, abs(t - want[0]), abs(1 - t - want[1]))
                        ident = abs(np.prod(1 - line) / (1 - line[i])
                                    - np.prod(np.delete(1 - line, i)))
                        worst_ident = max(worst_ident, ident)
                        checked += 1
    elapsed = time.perf_counter() - t0
    check("exactly-1 factor messages",
          worst_msg < 1e-10 and worst_ident < 1e-12 and elapsed < 1.0,
          f"max message err {worst_msg:.2e}, identity err {worst_ident:.2e}, "
          f"{checked} grid messages, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. loopy BP vs. brute-force enumeration on small square grids


def _best_permutation(local: np.ndarray):
    """Independent oracle: highest-probability one-to-one assignment."""
    V, S_ = local.shape
    best, best_w = None, -1.0
    for perm in itertools.permutations(range(V), S_):
        x = np.zeros((V, S_))
        x[list(perm), range(S_)] = 1.0
        w = float(np.prod(np.where(x == 1, local, 1 - local)))
        if w > best_w:
            best, best_w = perm, w
    return best


def test_bp_decode_matches_oracle_on_small_grids():
    rng = np.random.default_rng(1453)
    trials, hits = 200, 0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        phi = rng.normal(0.0, 2.0, size=(n, n))
        values = [f"v{i}" for i in range(n)]
        slots = [f"s{j}" for j in range(n)]
        graph = M.bp_graph(values, slots, phi.T)
        beliefs = K.run_bp(graph, K.CONVERGENCE)
        decode = tuple(int(np.argmax(beliefs[:, j])) for j in range(n))
        if decode == _best_permutation(graph.local):
            hits += 1
    rate = hits / trials

    # zero iterations must leave the sigmoided locals untouched
    phi = np.array([[0.3, 1.7, 4.0], [2.2, 0.0, 5.5], [1.1, 0.4, 3.3]])
    graph = M.bp_graph([f"v{i}" for i in range(3)], [f"s{j}" for j in range(3)], phi.T)
    exact = np.array_equal(K.run_bp(graph, 0), 1.0 / (1.0 + np.exp(-phi)))

    check("constraint decoding vs brute force",
          rate >= 0.95 and exact,
          f"oracle agreement {hits}/{trials} = {rate:.1%}, zero-iteration exact: {exact}")


# ---------------------------------------------------------------------------
# 3. duplicate suppression by one constraint round


def test_one_bp_round_separates_duplicate_winners():
    def logit(p):
        return math.log(p / (1 - p))

    phi = np.array([[logit(0.58), logit(0.17)],
                    [logit(0.45), logit(0.42)]])     # slots s1, s2 x values A, B
    graph = M.bp_graph(["A", "B"], ["s1", "s2"], phi)
    raw = decode_top1(K.run_bp(graph, 0).T, graph.values)
    once = decode_top1(K.run_bp(graph, 1).T, graph.values)
    check("duplicate suppression",
          raw == ["A", "A"] and once == ["A", "B"],
          f"raw decode {raw} -> one round {once}")


# ---------------------------------------------------------------------------
# 4. normalization invariants on random and synthetic clusters


def _random_cluster(rng, cid: str) -> cp.Cluster:
    values = ["alpha", "beta", "gamma"]
    docs = []
    for d in range(3):
        tokens = tuple(f"w{rng.integers(0, 40)}" for _ in range(10))
        spots = sorted(rng.choice(10, size=2, replace=False).tolist())
        mentions = tuple(cp.Mention(sentence=0, start=int(k), end=int(k) + 1,
                                    value_id=str(rng.choice(values)))
                         for k in spots)
        docs.append(cp.Document(doc_id=f"{cid}-d{d}", order_index=d,
                                sentences=(tokens,), mentions=mentions))
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = (str(rng.choice(values)),)
    cluster = cp.Cluster(cluster_id=cid, split="train", gold=gold,
                         candidate_values=tuple(values), documents=tuple(docs))
    cp.validate_cluster(cluster)
    return cluster


def test_attention_and_mass_normalization():
    rng = np.random.default_rng(77)
    clusters = [_random_cluster(rng, f"r{i}") for i in range(5)]
    synth_clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=3, misinformation_rate=0.2, offtopic_rate=0.25,
        missing_slot_rate=0.3, seed=9))
    clusters += synth_clusters

    hp = T.Hyperparams(embed_dim=12, width1=3, width2=2, d1=4, r=4)
    vocab = [t for c in clusters for d in c.documents for t in d.flat_tokens()]
    model = M.init_model(vocab, hp, np.random.default_rng(3))
    config = AggregationConfig(mode="sum")

    worst_attn = worst_mass = 0.0
    for cluster in clusters:
        index = M.ClusterIndex.build(cluster)
        R = model.representations(index)
        attention = S.attend(model.token_scores(R, model.scoring_slots()))
        worst_attn = max(worst_attn, float(np.abs(attention.data.sum(axis=1) - 1.0).max()))
        _, scores = M.prediction_scores(model, index, config)
        worst_mass = max(worst_mass, float(np.abs(scores.sum(axis=1) - 1.0).max()))
    check("normalization invariants",
          worst_attn < 1e-9 and worst_mass < 1e-9,
          f"max |attention sum - 1| {worst_attn:.1e}, "
          f"max |mention + null mass - 1| {worst_mass:.1e}, "
          f"{len(clusters)} clusters")


# ---------------------------------------------------------------------------
# 5. analytic gradients vs. central finite differences


def _grad_check_cluster() -> cp.Cluster:
    d0 = cp.Document(
        doc_id="g0", order_index=0,
        sentences=(("officials", "said", "fifty", "people", "died", "here"),
                   ("the", "acme", "jet", "crashed")),
        mentions=(cp.Mention(sentence=0, start=2, end=3, value_id="fifty",
                             entity_type="number"),
                  cp.Mention(sentence=1, start=7, end=8, value_id="acme",
                             entity_type="airline")))
    d1 = cp.Document(
        doc_id="g1", order_index=1,
        sentences=(("acme", "flight", "down", "fifty", "dead"),),
        mentions=(cp.Mention(sentence=0, start=0, end=1, value_id="acme",
                             entity_type="airline"),
                  cp.Mention(sentence=0, start=3, end=4, value_id="fifty",
                             entity_type="number")))
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = ("fifty",)
    gold["Operator"] = ("acme",)
    return cp.Cluster(cluster_id="gradcheck", split="train", gold=gold,
                      candidate_values=("fifty", "acme"), documents=(d0, d1))


def test_gradient_fidelity():
    cluster = _grad_check_cluster()
    n_tokens = sum(d.n_tokens for d in cluster.documents)
    hp = T.Hyperparams(embed_dim=8, width1=3, width2=2, d1=4, r=4,
                       keep_prob=1.0, seed=13)
    t0 = time.perf_counter()
    report = T.gradient_check(hp, cluster, tol=float("inf"))
    elapsed = time.perf_counter() - t0
    worst = max(report.values())
    check("gradient fidelity",
          worst < 1e-4 and elapsed < 10.0 and n_tokens <= 30,
          f"max relative error {worst:.2e} over {len(report)} parameters, "
          f"{n_tokens} tokens, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. aggregation mechanism benchmark on the committed noisy corpus

# Committed baseline (seeds below, this configuration): RAC-sum 95.0 F1,
# topic reweighting 96.9, max aggregation 29.1, best mention-level decode 88.9.
COMMITTED = {"rac_sum": 0.950, "rac_topic": 0.969,
             "rac_max": 0.291, "mention_best": 0.889}

BENCH_NOISE = dict(misinformation_rate=0.3, offtopic_rate=0.3, missing_slot_rate=0.2)


def _bench_hp(mode: str, loss_mode: str) -> T.Hyperparams:
    return T.Hyperparams(embed_dim=32, width1=3, width2=3, d1=8, r=8,
                         lr=0.002, l2=0.01, keep_prob=0.75, seed=11,
                         aggregation=AggregationConfig(mode=mode),
                         loss_mode=loss_mode, max_epochs=100, patience=12)


def test_aggregation_benchmark():
    t0 = time.perf_counter()
    train_raw, _ = sy.generate(sy.SynthConfig(
        n_clusters=40, seed=101, split="train", **BENCH_NOISE))
    test_clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=20, seed=202, split="test", **BENCH_NOISE))
    instances = [instance_from_cluster(c) for c in test_clusters]
    train_clusters, dev_clusters = cp.split_dev(train_raw)

    def test_f1(model, config, decode=None):
        records = M.predict_clusters(model, test_clusters, config,
                                     mention_decode=decode)
        return evaluate(instances, M.predictions_map(records)).score_f1

    sum_state = T.train(train_clusters, dev_clusters, _bench_hp("sum", "value_level"))
    # max aggregation trains best under the light-regularization recipe
    # (stronger settings drive it to all-null decoding)
    max_hp = T.Hyperparams(embed_dim=32, width1=3, width2=3, d1=8, r=8,
                           lr=0.01, l2=0.001, keep_prob=0.8, seed=11,
                           aggregation=AggregationConfig(mode="max"),
                           loss_mode="value_level", max_epochs=30, patience=12)
    max_state = T.train(train_clusters, [], max_hp)
    mention_state = T.train(train_clusters, dev_clusters,
                            _bench_hp("sum", "mention_level"))

    sum_f1 = test_f1(sum_state.model, AggregationConfig(mode="sum"))
    topic_f1 = test_f1(sum_state.model, AggregationConfig(mode="topic"))
    max_f1 = test_f1(max_state.model, AggregationConfig(mode="max"))
    mention_best = max(test_f1(mention_state.model, AggregationConfig(mode="sum"),
                               decode=d) for d in ("none", "max", "sum"))
    elapsed = time.perf_counter() - t0

    drift = max(abs(sum_f1 - COMMITTED["rac_sum"]),
                abs(topic_f1 - COMMITTED["rac_topic"]),
                abs(max_f1 - COMMITTED["rac_max"]),
                abs(mention_best - COMMITTED["mention_best"]))
    check("aggregation mechanism benchmark",
          sum_f1 >= max_f1 + 0.05 and sum_f1 >= mention_best + 0.05
          and topic_f1 >= sum_f1 and elapsed < 600 and drift < 0.02,
          f"sum {100 * sum_f1:.1f} / topic {100 * topic_f1:.1f} / "
          f"max {100 * max_f1:.1f} / mention-best {100 * mention_best:.1f}, "
          f"drift from committed {100 * drift:.1f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. null scoring mechanism


def test_null_mechanism():
    train_clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=12, missing_slot_rate=0.5, seed=31, split="train"))
    test_clusters, _ = sy.generate(sy.SynthConfig(
        n_clusters=8, missing_slot_rate=0.5, seed=32, split="test"))
    instances = [instance_from_cluster(c) for c in test_clusters]
    hp = T.Hyperparams(embed_dim=16, width1=3, width2=3, d1=4, r=4,
                       lr=0.01, l2=0.001, keep_prob=1.0, seed=5, max_epochs=8)
    state = T.train(train_clusters, [], hp)

    with_null = evaluate(instances, M.predictions_map(
        M.predict_clusters(state.model, test_clusters, AggregationConfig(mode="sum"))))
    no_null_records = M.predict_clusters(
        state.model, test_clusters, AggregationConfig(mode="sum", null_enabled=False))
    without_null = evaluate(instances, M.predictions_map(no_null_records))
    never_abstains = all(v is not None for r in no_null_records
                         for v in r["predictions"].values())

    check("null scoring mechanism",
          with_null.null_p > 0 and with_null.null_r > 0 and with_null.null_f1 > 0
          and without_null.null_r == 0.0 and never_abstains,
          f"null-enabled P/R/F1 {100 * with_null.null_p:.1f}/"
          f"{100 * with_null.null_r:.1f}/{100 * with_null.null_f1:.1f}, "
          f"null-disabled recall {without_null.null_r}")


# ---------------------------------------------------------------------------
# 8. evaluation harness arithmetic on hand-built fixtures


def test_evaluation_exactness():
    slots = ("a", "b", "c")
    inst = EvalInstance(cluster_id="q", candidates=frozenset("uvwxyz"),
                        mentioned=frozenset("xyz"),
                        gold={"a": ("x",), "b": ("y",), "c": ("z",)})
    rankings = {"q": {"a": ["x", "w"],
                      "b": ["w", "y"],
                      "c": ["w", "v", "u", "z"]}}
    got_mrr = mrr([inst], rankings, slots=slots)
    mrr_ok = abs(got_mrr - 0.5833333333) < 1e-6

    # unfindable gold values leave the recall denominator entirely
    findab = EvalInstance(cluster_id="f", candidates=frozenset({"x", "y"}),
                          mentioned=frozenset({"x"}),
                          gold={"a": ("x",), "b": ("y",)})
    p1, r1, _ = modified_prf([findab], {"f": {"a": "x", "b": None}}, slots=("a", "b"))
    findable_ok = (p1, r1) == (1.0, 1.0)

    # any member of the gold set earns full recall for its slot
    multi = EvalInstance(cluster_id="m", candidates=frozenset({"x", "y"}),
                         mentioned=frozenset({"x", "y"}),
                         gold={"a": ("x", "y")})
    p2, r2, f2 = modified_prf([multi], {"m": {"a": "y"}}, slots=("a",))
    anyof_ok = (p2, r2, f2) == (1.0, 1.0, 1.0)

    # combined report arithmetic on a two-slot miss pattern
    mixed = EvalInstance(cluster_id="x", candidates=frozenset({"x", "y"}),
                         mentioned=frozenset({"x", "y"}),
                         gold={"a": ("x",), "b": ("y",), "c": ()})
    p3, r3, f3 = modified_prf([mixed], {"x": {"a": "x", "b": "x", "c": None}},
                              slots=("a", "b", "c"))
    mixed_ok = (p3, r3) == (0.5, 0.5) and abs(f3 - 0.5) < 1e-12

    # null class: 2 predicted nulls, 1 of them gold-null, 2 gold nulls
    nuller = EvalInstance(cluster_id="n", candidates=frozenset({"x"}),
                          mentioned=frozenset({"x"}),
                          gold={"a": ("x",), "b": (), "c": ()})
    np_, nr, _ = null_prf([nuller], {"n": {"a": None, "b": None, "c": "x"}},
                          slots=("a", "b", "c"))
    null_ok = (np_, nr) == (0.5, 0.5)

    check("evaluation harness exactness",
          mrr_ok and findable_ok and anyof_ok and mixed_ok and null_ok,
          f"mrr [1,2,4] -> {got_mrr:.7f}, findability {(p1, r1)}, "
          f"any-of {(p2, r2)}, mixed {(p3, r3)}, nulls {(np_, nr)}")


# ---------------------------------------------------------------------------
# 9. optional end-to-end run on a real plane-crash corpus


def test_real_corpus_end_to_end():
    """Gated on PLANE_CRASH_CORPUS: a directory holding train.ndjson and
    test.ndjson (dev.ndjson optional) in the cluster record format."""
    root = os.environ.get("PLANE_CRASH_CORPUS")
    if not root:
        check("real-corpus end-to-end", True,
              "skipped: PLANE_CRASH_CORPUS not set")
        return
    train_clusters = cp.load_clusters(os.path.join(root, "train.ndjson"))
    dev_path = os.path.join(root, "dev.ndjson")
    if os.path.exists(dev_path):
        dev_clusters = cp.load_clusters(dev_path)
    else:
        train_clusters, dev_clusters = cp.split_dev(train_clusters)
    test_clusters = cp.load_clusters(os.path.join(root, "test.ndjson"))
    instances = [instance_from_cluster(c) for c in test_clusters]

    sum_state = T.train(train_clusters, dev_clusters, _bench_hp("sum", "value_level"))
    mention_state = T.train(train_clusters, dev_clusters,
                            _bench_hp("sum", "mention_level"))

    def report_for(model, config, decode=None):
        records = M.predict_clusters(model, test_clusters, config,
                                     mention_decode=decode)
        return evaluate(instances, M.predictions_map(records),
                        M.rankings_map(records))

    rows = {
        "rac-sum": report_for(sum_state.model, AggregationConfig(mode="sum")),
        "rac-topic": report_for(sum_state.model, AggregationConfig(mode="topic")),
        "mention-cnn": report_for(mention_state.model,
                                  AggregationConfig(mode="sum"), decode="sum"),
    }
    print()
    for label, rep in rows.items():
        print(render_report(rep, label=label))
    print()
    print(render_report(rows["rac-sum"], label="rac-sum", per_slot=True))
    gap = rows["rac-sum"].score_f1 - rows["mention-cnn"].score_f1
    check("real-corpus end-to-end", True,
          f"rac-sum F1 {100 * rows['rac-sum'].score_f1:.1f} vs mention-cnn "
          f"{100 * rows['mention-cnn'].score_f1:.1f} (informative gap {100 * gap:+.1f})")


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
