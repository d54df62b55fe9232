"""Cluster-level extraction metrics.

The scoring protocol follows the template-filling conventions for noisy
distant supervision: a slot earns full recall when the predicted value is
any member of the gold set, recall is only demanded where some gold value is
actually findable (mentioned somewhere in the cluster), and predictions must
come from the cluster's candidate set. Null predictions are scored
separately with NULL as the positive class, and mean reciprocal rank is
taken over every (cluster, slot) query.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .aggregator import NULL_VALUE
from .corpus import EVAL_SLOTS, Cluster


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class EvalInstance:
    """What evaluation needs to know about one cluster."""

    cluster_id: str
    gold: dict                  # slot -> tuple of acceptable value_ids
    candidates: frozenset
    mentioned: frozenset        # value_ids with at least one mention

    def gold_set(self, slot: str) -> set:
        return set(self.gold.get(slot, ()))

    def findable(self, slot: str) -> bool:
        return bool(self.gold_set(slot) & self.mentioned)


def instance_from_cluster(cluster: Cluster) -> EvalInstance:
    mentioned = frozenset(m.value_id for d in cluster.documents for m in d.mentions)
    return EvalInstance(cluster_id=cluster.cluster_id, gold=dict(cluster.gold),
                        candidates=frozenset(cluster.candidate_values), mentioned=mentioned)


def f1_score(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _check_prediction(inst: EvalInstance, slot: str, pred):
    if pred is not None and pred not in inst.candidates:
        raise EvaluationError(
            f"cluster {inst.cluster_id} slot {slot!r}: prediction {pred!r} outside candidate set")


def modified_prf(instances, predictions, slots=EVAL_SLOTS):
    """Precision over non-null predictions, recall over findable slots only.

    predictions: {cluster_id: {slot: value_id or None}}. A findable slot
    earns full recall when the prediction is any member of its gold set.
    """
    prec_num = prec_den = rec_num = rec_den = 0
    for inst in instances:
        preds = predictions.get(inst.cluster_id, {})
        for slot in slots:
            pred = preds.get(slot)
            _check_prediction(inst, slot, pred)
            gold = inst.gold_set(slot)
            if pred is not None:
                prec_den += 1
                if pred in gold:
                    prec_num += 1
            if inst.findable(slot):
                rec_den += 1
                if pred is not None and pred in gold:
                    rec_num += 1
    p = prec_num / prec_den if prec_den else 0.0
    r = rec_num / rec_den if rec_den else 0.0
    return p, r, f1_score(p, r)


def null_prf(instances, predictions, slots=EVAL_SLOTS):
    """P/R/F1 with the null value as the positive class."""
    predicted = correct = gold_null = 0
    for inst in instances:
        preds = predictions.get(inst.cluster_id, {})
        for slot in slots:
            pred = preds.get(slot)
            is_gold_null = not inst.gold_set(slot)
            gold_null += is_gold_null
            if pred is None:
                predicted += 1
                if is_gold_null:
                    correct += 1
    p = correct / predicted if predicted else 0.0
    r = correct / gold_null if gold_null else 0.0
    return p, r, f1_score(p, r)


def mrr(instances, rankings, slots=EVAL_SLOTS) -> float:
    """Mean reciprocal rank of the first correct value over all |C|*|S| queries.

    rankings: {cluster_id: {slot: [value_id or NULL_VALUE, best first]}}.
    Gold-null queries count the rank of NULL_VALUE; queries whose targets
    never appear contribute 0.
    """
    total = 0.0
    queries = 0
    for inst in instances:
        ranked = rankings.get(inst.cluster_id, {})
        for slot in slots:
            queries += 1
            targets = inst.gold_set(slot) or {NULL_VALUE}
            for rank, value in enumerate(ranked.get(slot, ()), start=1):
                if value in targets:
                    total += 1.0 / rank
                    break
    return total / queries if queries else 0.0


def per_slot_report(instances, predictions, slots=EVAL_SLOTS) -> dict:
    """Per slot: (number predicted correctly, number of findable pairs)."""
    out = {slot: [0, 0] for slot in slots}
    for inst in instances:
        preds = predictions.get(inst.cluster_id, {})
        for slot in slots:
            if not inst.findable(slot):
                continue
            out[slot][1] += 1
            pred = preds.get(slot)
            if pred is not None and pred in inst.gold_set(slot):
                out[slot][0] += 1
    return {slot: (c, f) for slot, (c, f) in out.items()}


@dataclass
class EvalReport:
    score_p: float
    score_r: float
    score_f1: float
    null_p: float
    null_r: float
    null_f1: float
    mrr: float
    per_slot: dict = field(default_factory=dict)
    n_clusters: int = 0
    n_queries: int = 0

    def as_dict(self) -> dict:
        return {
            "score": {"p": self.score_p, "r": self.score_r, "f1": self.score_f1},
            "nulls": {"p": self.null_p, "r": self.null_r, "f1": self.null_f1},
            "mrr": self.mrr,
            "per_slot": {s: {"correct": c, "findable": f} for s, (c, f) in self.per_slot.items()},
            "clusters": self.n_clusters,
            "queries": self.n_queries,
        }


def evaluate(instances, predictions, rankings=None, slots=EVAL_SLOTS) -> EvalReport:
    instances = list(instances)
    p, r, f1 = modified_prf(instances, predictions, slots)
    np_, nr, nf1 = null_prf(instances, predictions, slots)
    rank_score = mrr(instances, rankings, slots) if rankings is not None else 0.0
    return EvalReport(score_p=p, score_r=r, score_f1=f1,
                      null_p=np_, null_r=nr, null_f1=nf1, mrr=rank_score,
                      per_slot=per_slot_report(instances, predictions, slots),
                      n_clusters=len(instances), n_queries=len(instances) * len(slots))


def load_predictions(path):
    """Read a `predict` output file: ({cluster_id: predictions}, rankings).

    rankings is {cluster_id: {slot: ranked values}} when the first record
    has them, in which case every record must, and None otherwise.
    """
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise EvaluationError(f"{path}: expected a list of prediction records")
    with_rankings = bool(records) and isinstance(records[0], dict) and "rankings" in records[0]
    fields = ("predictions", "rankings") if with_rankings else ("predictions",)
    predictions, rankings = {}, {}
    for n, rec in enumerate(records, start=1):
        if not isinstance(rec, dict) or "cluster_id" not in rec:
            raise EvaluationError(f"{path}: record {n} has no cluster_id")
        cid = rec["cluster_id"]
        for name in fields:
            if not isinstance(rec.get(name), dict):
                raise EvaluationError(f"{path}: cluster {cid}: {name!r} missing or not an object")
        if cid in predictions:
            raise EvaluationError(f"{path}: duplicate cluster_id {cid!r}")
        for slot, pred in rec["predictions"].items():
            if pred is not None and not isinstance(pred, str):
                raise EvaluationError(f"{path}: cluster {cid} slot {slot!r}: "
                                      f"prediction {pred!r} is not a string or null")
        predictions[cid] = rec["predictions"]
        if with_rankings:
            for slot, ranked in rec["rankings"].items():
                if not isinstance(ranked, list) or not all(isinstance(v, str) for v in ranked):
                    raise EvaluationError(f"{path}: cluster {cid} slot {slot!r}: "
                                          f"ranking {ranked!r} is not a list of strings")
            rankings[cid] = rec["rankings"]
    return predictions, rankings if with_rankings else None


def render_report(report: EvalReport, label: str = "model", per_slot: bool = False) -> str:
    """Aligned-column text: score and null P/R/F1 plus MRR, one row per model."""
    head = f"{'system':<24} {'P':>6} {'R':>6} {'F1':>6}   {'nP':>6} {'nR':>6} {'nF1':>6}   {'MRR':>6}"
    row = (f"{label:<24} {100 * report.score_p:6.1f} {100 * report.score_r:6.1f} "
           f"{100 * report.score_f1:6.1f}   {100 * report.null_p:6.1f} {100 * report.null_r:6.1f} "
           f"{100 * report.null_f1:6.1f}   {report.mrr:6.3f}")
    lines = [head, row]
    if per_slot:
        lines.append("")
        lines.append(f"{'slot':<16} {'correct':>8} {'findable':>9}")
        for slot, (c, f) in report.per_slot.items():
            lines.append(f"{slot:<16} {c:>8} {f:>9}")
    return "\n".join(lines)
