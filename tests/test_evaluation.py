"""Metric tests: modified P/R/F1, null scoring, MRR, per-slot counts."""

import numpy as np
import pytest

from clusterreader import evaluation as ev
from clusterreader.aggregator import NULL_VALUE
from clusterreader.corpus import EVAL_SLOTS


def inst(cid="c0", gold=None, cands=("A", "B", "C"), mentioned=("A", "B", "C")):
    return ev.EvalInstance(cluster_id=cid, gold=gold or {},
                           candidates=frozenset(cands), mentioned=frozenset(mentioned))


S2 = ("s1", "s2")


def test_any_of_gold_full_recall():
    i = inst(gold={"s1": ("A", "B")})
    p, r, f1 = ev.modified_prf([i], {"c0": {"s1": "A"}}, slots=("s1",))
    assert (p, r, f1) == (1.0, 1.0, 1.0)
    p, r, f1 = ev.modified_prf([i], {"c0": {"s1": "B"}}, slots=("s1",))
    assert r == 1.0


def test_unfindable_gold_excluded_from_recall():
    # gold value never mentioned: pair leaves the recall denominator
    i = inst(gold={"s1": ("A",), "s2": ("Z",)}, cands=("A", "B", "Z"), mentioned=("A", "B"))
    p, r, _ = ev.modified_prf([i], {"c0": {"s1": "A", "s2": None}}, slots=S2)
    assert r == 1.0  # only s1 is findable
    assert p == 1.0


def test_null_prediction_is_abstention():
    i = inst(gold={"s1": ("A",)})
    p, r, f1 = ev.modified_prf([i], {"c0": {"s1": None}}, slots=("s1",))
    assert (p, r, f1) == (0.0, 0.0, 0.0)  # no precision denominator, recall missed


def test_wrong_prediction_costs_precision():
    i = inst(gold={"s1": ("A",), "s2": ()})
    p, r, _ = ev.modified_prf([i], {"c0": {"s1": "A", "s2": "B"}}, slots=S2)
    assert p == 0.5 and r == 1.0


def test_prediction_outside_candidates_rejected():
    i = inst(gold={"s1": ("A",)}, cands=("A",))
    with pytest.raises(ev.EvaluationError):
        ev.modified_prf([i], {"c0": {"s1": "Q"}}, slots=("s1",))


def test_recall_monotone_in_gold_growth():
    rng = np.random.default_rng(80)
    for _ in range(20):
        preds = {"c0": {s: rng.choice(["A", "B", "C"]) for s in S2}}
        small = inst(gold={"s1": ("A",), "s2": ("B",)})
        grown = inst(gold={"s1": ("A", "C"), "s2": ("B", "A")})
        _, r1, _ = ev.modified_prf([small], preds, slots=S2)
        _, r2, _ = ev.modified_prf([grown], preds, slots=S2)
        assert r2 >= r1


def test_null_prf_examples():
    gold = {"s1": (), "s2": ("A",)}
    never_null = {"c0": {"s1": "A", "s2": "A"}}
    assert ev.null_prf([inst(gold=gold)], never_null, slots=S2) == (0.0, 0.0, 0.0)
    exact = {"c0": {"s1": None, "s2": "A"}}
    assert ev.null_prf([inst(gold=gold)], exact, slots=S2) == (1.0, 1.0, 1.0)
    two_nulls = inst(gold={"s1": (), "s2": ()})
    half = ev.null_prf([two_nulls], {"c0": {"s1": None, "s2": "A"}}, slots=S2)
    assert half[1] == 0.5


def test_mrr_direct_formula():
    insts = [inst(cid=f"c{k}", gold={"s1": ("A",)}) for k in range(3)]
    rankings = {"c0": {"s1": ["A", "B"]},
                "c1": {"s1": ["B", "A"]},
                "c2": {"s1": ["B", "C", NULL_VALUE, "A"]}}
    got = ev.mrr(insts, rankings, slots=("s1",))
    assert abs(got - (1 + 0.5 + 0.25) / 3) < 1e-12


def test_mrr_all_first_and_absent():
    i = inst(gold={"s1": ("A",)})
    assert ev.mrr([i], {"c0": {"s1": ["A"]}}, slots=("s1",)) == 1.0
    assert ev.mrr([i], {"c0": {"s1": ["B", "C"]}}, slots=("s1",)) == 0.0
    assert ev.mrr([i], {}, slots=("s1",)) == 0.0  # empty ranking contributes 0


def test_mrr_gold_null_ranks_null_marker():
    i = inst(gold={"s1": ()})
    assert ev.mrr([i], {"c0": {"s1": ["A", NULL_VALUE]}}, slots=("s1",)) == 0.5


def test_mrr_counts_all_cluster_slot_pairs():
    # second cluster has no gold anywhere: its pairs still divide the mean
    a = inst(cid="a", gold={"s1": ("A",)})
    b = inst(cid="b", gold={})
    rankings = {"a": {"s1": ["A"], "s2": ["A"]}, "b": {"s1": ["A"], "s2": ["A"]}}
    got = ev.mrr([a, b], rankings, slots=S2)
    # a/s1 -> 1.0; a/s2, b/s1, b/s2 are gold-null and NULL is never ranked
    assert abs(got - 0.25) < 1e-12


def test_mrr_ignores_order_below_first_hit():
    i = inst(gold={"s1": ("A",)})
    r1 = ev.mrr([i], {"c0": {"s1": ["B", "A", "C", NULL_VALUE]}}, slots=("s1",))
    r2 = ev.mrr([i], {"c0": {"s1": ["B", "A", NULL_VALUE, "C"]}}, slots=("s1",))
    assert r1 == r2


def test_per_slot_report_counts():
    i1 = inst(cid="c1", gold={"s1": ("A",), "s2": ("B",)})
    i2 = inst(cid="c2", gold={"s1": ("C",)})
    preds = {"c1": {"s1": "A", "s2": "C"}, "c2": {"s1": "C"}}
    out = ev.per_slot_report([i1, i2], preds, slots=S2)
    assert out["s1"] == (2, 2)
    assert out["s2"] == (0, 1)


def test_per_slot_report_default_has_eight_rows():
    out = ev.per_slot_report([inst()], {"c0": {}})
    assert tuple(out) == EVAL_SLOTS
    assert all(v == (0, 0) for v in out.values())


def test_f1_symmetry_and_zero():
    assert ev.f1_score(0.4, 0.8) == ev.f1_score(0.8, 0.4)
    assert ev.f1_score(0.0, 0.9) == 0.0
    assert abs(ev.f1_score(0.5, 0.5) - 0.5) < 1e-12


def test_micro_average_equivalence():
    # computing over two instance lists jointly equals computing over the
    # concatenated pair outcomes (micro averaging)
    rng = np.random.default_rng(81)
    insts, preds = [], {}
    for k in range(6):
        gold = {s: (("A",) if rng.random() < 0.6 else ()) for s in S2}
        insts.append(inst(cid=f"c{k}", gold=gold))
        preds[f"c{k}"] = {s: rng.choice(["A", "B", None]) for s in S2}
    p, r, _ = ev.modified_prf(insts, preds, slots=S2)
    prec_pairs, rec_pairs = [], []
    for i in insts:
        for s in S2:
            pred = preds[i.cluster_id][s]
            if pred is not None:
                prec_pairs.append(pred in i.gold_set(s))
            if i.findable(s):
                rec_pairs.append(pred is not None and pred in i.gold_set(s))
    assert abs(p - (np.mean(prec_pairs) if prec_pairs else 0.0)) < 1e-12
    assert abs(r - (np.mean(rec_pairs) if rec_pairs else 0.0)) < 1e-12


def test_evaluate_and_render(tmp_path):
    i = inst(gold={"Fatalities": ("A",), "Crew": ()},
             cands=("A", "B"), mentioned=("A",))
    preds = {"c0": {"Fatalities": "A", "Crew": None}}
    rankings = {"c0": {"Fatalities": ["A", "B", NULL_VALUE],
                       "Crew": [NULL_VALUE, "A", "B"]}}
    report = ev.evaluate([i], preds, rankings)
    assert report.score_f1 == 1.0 and report.null_f1 == 1.0
    assert report.n_queries == 8
    assert report.per_slot["Fatalities"] == (1, 1)
    text = ev.render_report(report, label="rac-sum", per_slot=True)
    assert "rac-sum" in text.splitlines()[1]
    assert any(line.startswith("Fatalities") for line in text.splitlines())
    parsed = report.as_dict()
    assert parsed["score"]["f1"] == 1.0
    assert parsed["per_slot"]["Fatalities"] == {"correct": 1, "findable": 1}


def test_instance_from_cluster():
    from clusterreader import corpus as cp
    m = cp.Mention(sentence=0, start=0, end=1, value_id="A")
    doc = cp.Document(doc_id="d", order_index=0, sentences=(("A", "word"),), mentions=(m,))
    cluster = cp.Cluster(cluster_id="c", split="test", gold={"Crew": ("A",)},
                         candidate_values=("A", "B"), documents=(doc,))
    i = ev.instance_from_cluster(cluster)
    assert i.mentioned == frozenset({"A"})
    assert i.findable("Crew")
    assert not i.findable("Operator")
