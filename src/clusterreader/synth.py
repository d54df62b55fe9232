"""Synthetic plane-crash news clusters with a controllable noise model.

Three noise channels, mirroring what makes real clusters hard: early
documents asserting a wrong value in a perfectly characteristic context
(misinformation), digressions into a different crash carrying its own
flight number and facts (off-topic), and slots the cluster never states
(gold nulls). A provenance sidecar records the role of every mention so
tests can assert exact counts instead of eyeballing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import corpus as cp


class SynthError(ValueError):
    pass


# Small per-slot lexicons of characteristic context words. Values are
# mentioned next to these; the encoder only ever sees the context because
# mention tokens are masked.
CONTEXTS = {
    "Aircraft Type": ("aircraft", "jet", "airframe", "model"),
    "Crash Site": ("crashed", "down", "near", "wreckage"),
    "Crew": ("crew", "aboard", "staffed", "cockpit"),
    "Fatalities": ("killed", "died", "dead", "fatalities"),
    "Injuries": ("injured", "hurt", "wounded", "hospital"),
    "Operator": ("operated", "airline", "carrier", "flown"),
    "Passengers": ("passengers", "carrying", "manifest", "travellers"),
    "Survivors": ("survived", "survivors", "rescued", "alive"),
}

FILLER_WORDS = (
    "the", "a", "officials", "said", "today", "report", "press", "briefing",
    "update", "scene", "morning", "evening", "local", "media", "statement",
    "authorities", "confirmed", "earlier", "sources", "according",
)

SLOT_TYPES = {
    "Aircraft Type": "aircraft",
    "Crash Site": "location",
    "Crew": "number",
    "Fatalities": "number",
    "Injuries": "number",
    "Operator": "airline",
    "Passengers": "number",
    "Survivors": "number",
}

_SLOT_PREFIX = {
    "Aircraft Type": "ac",
    "Crash Site": "loc",
    "Crew": "crew",
    "Fatalities": "fat",
    "Injuries": "inj",
    "Operator": "op",
    "Passengers": "pax",
    "Survivors": "sur",
}

POOL_SIZE = 12
VALUE_POOLS = {s: tuple(f"{_SLOT_PREFIX[s]}{i}" for i in range(POOL_SIZE))
               for s in cp.EVAL_SLOTS}
FLIGHT_POOL = tuple(f"flt{i}" for i in range(POOL_SIZE))

PROVENANCE_LABELS = ("correct", "wrong", "offtopic")


@dataclass(frozen=True)
class SynthConfig:
    n_clusters: int = 20
    docs_min: int = 4
    docs_max: int = 8
    misinformation_rate: float = 0.0
    offtopic_rate: float = 0.0
    missing_slot_rate: float = 0.0
    incidental_rate: float = 0.35
    seed: int = 0
    split: str = "train"

    def __post_init__(self):
        for name in ("misinformation_rate", "offtopic_rate", "missing_slot_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SynthError(f"{name} must be in [0,1], got {rate}")
        if self.incidental_rate < 0:
            raise SynthError("incidental_rate must be non-negative")
        if not 1 <= self.docs_min <= self.docs_max:
            raise SynthError("docs_per_cluster range must satisfy 1 <= min <= max")
        if self.n_clusters < 1:
            raise SynthError("n_clusters must be positive")


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


class _DocBuilder:
    """Accumulates sentences plus planned mentions with sentence-local positions."""

    def __init__(self):
        self.sentences = []
        self.planned = []   # (sentence_idx, pos, value, etype, flight, topical, label, slot, incidental)

    def add(self, tokens, mention=None):
        self.sentences.append(tuple(tokens))
        if mention is not None:
            self.planned.append((len(self.sentences) - 1,) + mention)

    def finish(self, doc_id, order_index, dateline):
        starts, at = [], 0
        for s in self.sentences:
            starts.append(at)
            at += len(s)
        mentions, prov = [], []
        for (si, pos, value, etype, flight, topical, label, slot, incidental) in self.planned:
            g = starts[si] + pos
            mentions.append(cp.Mention(sentence=si, start=g, end=g + 1,
                                       value_id=value, entity_type=etype,
                                       is_flight_number=flight,
                                       is_topical_flight=topical))
            prov.append({"doc": doc_id, "start": g, "end": g + 1,
                         "value_id": value, "label": label, "slot": slot,
                         "incidental": incidental})
        mentions.sort(key=lambda m: (m.start, m.end))
        doc = cp.Document(doc_id=doc_id, order_index=order_index,
                          sentences=tuple(self.sentences),
                          mentions=tuple(mentions), dateline=dateline)
        return doc, prov


def _context_sentence(rng, lexicon, value):
    w = [_pick(rng, lexicon) for _ in range(2)]
    return [_pick(rng, FILLER_WORDS), w[0], value, w[1]], 2


def _filler_sentence(rng, length=None):
    n = int(length or rng.integers(4, 7))
    return [_pick(rng, FILLER_WORDS) for _ in range(n)]


def _generate_cluster(cid, split, config, rng):
    n_docs = int(rng.integers(config.docs_min, config.docs_max + 1))

    # the cluster's own event, a consistent wrong story, and one shared
    # off-topic event, all drawing distinct values per slot
    choice = {s: rng.choice(POOL_SIZE, size=3, replace=False) for s in cp.EVAL_SLOTS}
    gold_value = {s: VALUE_POOLS[s][choice[s][0]] for s in cp.EVAL_SLOTS}
    wrong_value = {s: VALUE_POOLS[s][choice[s][1]] for s in cp.EVAL_SLOTS}
    off_value = {s: VALUE_POOLS[s][choice[s][2]] for s in cp.EVAL_SLOTS}
    fi = rng.choice(POOL_SIZE, size=2, replace=False)
    flight, off_flight = FLIGHT_POOL[fi[0]], FLIGHT_POOL[fi[1]]

    gold = {s: () if rng.random() < config.missing_slot_rate else (gold_value[s],)
            for s in cp.EVAL_SLOTS}
    stated = [s for s in cp.EVAL_SLOTS if gold[s]]

    # misinformation hits an exact number of documents per slot, biased
    # toward early coverage; off-topic digressions hit an exact number of
    # documents, uniformly
    n_wrong = int(config.misinformation_rate * n_docs)
    early = np.arange(n_docs, 0, -1, dtype=float)
    early /= early.sum()
    wrong_docs = {s: set(rng.choice(n_docs, size=n_wrong, replace=False, p=early).tolist())
                  for s in stated}
    n_off = int(config.offtopic_rate * n_docs)
    off_docs = set(rng.choice(n_docs, size=n_off, replace=False).tolist())

    docs, prov = [], []
    for i in range(n_docs):
        b = _DocBuilder()
        lead = ["flight", flight, _pick(rng, FILLER_WORDS), _pick(rng, FILLER_WORDS)]
        b.add(lead, (1, flight, "other", True, True, "correct", None, False))

        body = []
        for s in stated:
            wrong_here = i in wrong_docs[s]
            value = wrong_value[s] if wrong_here else gold_value[s]
            toks, pos = _context_sentence(rng, CONTEXTS[s], value)
            body.append((toks, (pos, value, SLOT_TYPES[s], False, False,
                                "wrong" if wrong_here else "correct", s, False)))
        n_inc = int(config.incidental_rate) + \
            (1 if rng.random() < config.incidental_rate % 1 else 0)
        for _ in range(n_inc if stated else 0):
            s = stated[int(rng.integers(len(stated)))]
            toks = _filler_sentence(rng, length=4)
            pos = int(rng.integers(len(toks) + 1))
            toks.insert(pos, gold_value[s])
            body.append((toks, (pos, gold_value[s], SLOT_TYPES[s], False, False,
                                "correct", s, True)))
        body.append((_filler_sentence(rng), None))
        for j in rng.permutation(len(body)):
            toks, mention = body[int(j)]
            b.add(toks, mention)

        if i in off_docs:
            digression = ["meanwhile", "reports", "flight", off_flight, "elsewhere"]
            b.add(digression, (3, off_flight, "other", True, False,
                               "offtopic", None, False))
            for s in rng.choice(cp.EVAL_SLOTS, size=2, replace=False):
                toks, pos = _context_sentence(rng, CONTEXTS[s], off_value[s])
                b.add(toks, (pos, off_value[s], SLOT_TYPES[s], False, False,
                             "offtopic", s, False))

        doc, doc_prov = b.finish(f"{cid}-d{i}", i, f"2015-03-{10 + i:02d}")
        docs.append(doc)
        for rec in doc_prov:
            rec["cluster"] = cid
        prov.extend(doc_prov)

    candidates = {m.value_id for d in docs for m in d.mentions}
    candidates.update(v for vals in gold.values() for v in vals)
    cluster = cp.Cluster(cluster_id=cid, split=split, gold=gold,
                         candidate_values=tuple(sorted(candidates)),
                         documents=tuple(docs))
    cp.validate_cluster(cluster)
    return cluster, prov


def generate(config: SynthConfig):
    """(clusters, provenance records); deterministic per config.seed."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_clusters)
    clusters, prov = [], []
    for i, child in enumerate(children):
        cid = f"{config.split}{i:03d}"
        cluster, records = _generate_cluster(cid, config.split, config,
                                             np.random.default_rng(child))
        clusters.append(cluster)
        prov.extend(records)
    return clusters, prov


def save_provenance(path, records):
    with open(path, "w") as fh:
        json.dump(records, fh, indent=0)
        fh.write("\n")


def load_provenance(path):
    with open(path) as fh:
        return json.load(fh)


def oracle_stats(records) -> dict:
    """Per-slot mention counts by provenance label (exact, from the log)."""
    out = {s: {label: 0 for label in PROVENANCE_LABELS} for s in cp.EVAL_SLOTS}
    for rec in records:
        if rec["slot"] is not None:
            out[rec["slot"]][rec["label"]] += 1
    return out
