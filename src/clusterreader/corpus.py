"""News-cluster data model: loading, validation, splitting, topicality.

A cluster is a set of news documents about one event, annotated with value
mentions and distant-supervision gold labels per slot. The on-disk format is
newline-delimited JSON, one object per cluster; token indices are document
global and sentence boundaries assign sentence ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

# 15 template slots; the first 8 carry gold labels and are scored.
EVAL_SLOTS = (
    "Aircraft Type",
    "Crash Site",
    "Crew",
    "Fatalities",
    "Injuries",
    "Operator",
    "Passengers",
    "Survivors",
)
AUX_SLOTS = (
    "Cause",
    "Crash Date",
    "Departure Site",
    "Destination Site",
    "Flight Number",
    "Registration",
    "Route",
)
SLOTS = EVAL_SLOTS + AUX_SLOTS

ENTITY_TYPES = ("number", "date", "airline", "aircraft", "location", "other")
SPLITS = ("train", "dev", "test")

MAX_CLUSTER_DOCS = 200


class CorpusError(ValueError):
    """Malformed record or violated data invariant."""


@dataclass(frozen=True)
class Mention:
    """One occurrence of a normalized value in a document.

    start/end are document-global token indices, half-open; sentence is the
    id of the sentence containing the span.
    """

    sentence: int
    start: int
    end: int
    value_id: str
    entity_type: str = "other"
    is_flight_number: bool = False
    is_topical_flight: bool = False


@dataclass(frozen=True)
class Document:
    doc_id: str
    order_index: int
    sentences: tuple  # tuple of tuples of token strings
    mentions: tuple   # tuple of Mention, sorted by start
    dateline: str | None = None

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def sentence_starts(self) -> list[int]:
        starts, at = [], 0
        for s in self.sentences:
            starts.append(at)
            at += len(s)
        return starts

    def flat_tokens(self) -> list[str]:
        return [t for s in self.sentences for t in s]


@dataclass(frozen=True)
class Cluster:
    cluster_id: str
    split: str
    gold: dict            # slot name -> tuple of value_id (empty tuple = null)
    candidate_values: tuple
    documents: tuple


def _validate_document(doc: Document, candidates: set, where: str):
    n = doc.n_tokens
    starts = doc.sentence_starts()
    prev_end = 0
    last_start = -1
    for m in doc.mentions:
        if not m.value_id:
            raise CorpusError(f"{where}: empty value_id in mention")
        if not (0 <= m.start < m.end <= n):
            raise CorpusError(f"{where}: mention span [{m.start},{m.end}) outside document of {n} tokens")
        if m.start < prev_end:
            raise CorpusError(f"{where}: overlapping mention spans at token {m.start}")
        if m.start < last_start:
            raise CorpusError(f"{where}: mentions not sorted by start")
        if not (0 <= m.sentence < len(doc.sentences)):
            raise CorpusError(f"{where}: mention sentence {m.sentence} out of range")
        s_lo = starts[m.sentence]
        s_hi = s_lo + len(doc.sentences[m.sentence])
        if not (s_lo <= m.start and m.end <= s_hi):
            raise CorpusError(f"{where}: mention span crosses sentence {m.sentence} boundary")
        if m.entity_type not in ENTITY_TYPES:
            raise CorpusError(f"{where}: unknown entity_type {m.entity_type!r}")
        if m.value_id not in candidates:
            raise CorpusError(f"{where}: mention value {m.value_id!r} not in candidate_values")
        prev_end = m.end
        last_start = m.start


def validate_cluster(cluster: Cluster):
    if cluster.split not in SPLITS:
        raise CorpusError(f"cluster {cluster.cluster_id}: bad split {cluster.split!r}")
    if len(cluster.documents) > MAX_CLUSTER_DOCS:
        raise CorpusError(f"cluster {cluster.cluster_id}: {len(cluster.documents)} documents exceeds cap")
    cands = set(cluster.candidate_values)
    for slot in cluster.gold:
        if slot not in SLOTS:
            raise CorpusError(f"cluster {cluster.cluster_id}: unknown slot {slot!r}")
    for doc in cluster.documents:
        _validate_document(doc, cands, f"cluster {cluster.cluster_id} doc {doc.doc_id}")


def _cluster_from_record(rec: dict) -> Cluster:
    docs = []
    for d in rec["documents"]:
        mentions = tuple(sorted(
            (Mention(sentence=int(m["sentence"]), start=int(m["start"]), end=int(m["end"]),
                     value_id=str(m["value_id"]), entity_type=m.get("entity_type", "other"),
                     is_flight_number=bool(m.get("is_flight_number", False)),
                     is_topical_flight=bool(m.get("is_topical_flight", False)))
             for m in d.get("mentions", [])),
            key=lambda m: (m.start, m.end)))
        docs.append(Document(
            doc_id=str(d["doc_id"]), order_index=int(d["order_index"]),
            sentences=tuple(tuple(s) for s in d["sentences"]),
            mentions=mentions, dateline=d.get("dateline")))
    docs.sort(key=lambda d: d.order_index)
    return Cluster(
        cluster_id=str(rec["cluster_id"]), split=rec["split"],
        gold={slot: tuple(vals) for slot, vals in rec.get("gold", {}).items()},
        candidate_values=tuple(rec["candidate_values"]),
        documents=tuple(docs))


def load_clusters(path) -> list[Cluster]:
    """Read newline-delimited cluster records, cap at 200 docs, validate.

    Cluster ids must be unique within the file.
    """
    clusters = []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                cluster = _cluster_from_record(rec)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise CorpusError(f"{path}: record {lineno}: {exc}") from exc
            if len(cluster.documents) > MAX_CLUSTER_DOCS:
                cluster = replace(cluster, documents=cluster.documents[:MAX_CLUSTER_DOCS])
            try:
                validate_cluster(cluster)
            except CorpusError as exc:
                raise CorpusError(f"{path}: record {lineno}: {exc}") from exc
            if cluster.cluster_id in seen:
                raise CorpusError(f"{path}: record {lineno}: duplicate cluster_id "
                                  f"{cluster.cluster_id!r}")
            seen.add(cluster.cluster_id)
            clusters.append(cluster)
    return clusters


def cluster_to_record(cluster: Cluster) -> dict:
    return {
        "cluster_id": cluster.cluster_id,
        "split": cluster.split,
        "gold": {slot: list(vals) for slot, vals in cluster.gold.items()},
        "candidate_values": list(cluster.candidate_values),
        "documents": [
            {
                "doc_id": d.doc_id,
                "order_index": d.order_index,
                **({"dateline": d.dateline} if d.dateline else {}),
                "sentences": [list(s) for s in d.sentences],
                "mentions": [
                    {"sentence": m.sentence, "start": m.start, "end": m.end,
                     "value_id": m.value_id, "entity_type": m.entity_type,
                     "is_flight_number": m.is_flight_number,
                     "is_topical_flight": m.is_topical_flight}
                    for m in d.mentions
                ],
            }
            for d in cluster.documents
        ],
    }


def save_clusters(path, clusters):
    with open(path, "w") as fh:
        for c in clusters:
            fh.write(json.dumps(cluster_to_record(c)) + "\n")


def split_dev(train_clusters, extra_dev_clusters: int = 0):
    """Move every fifth document of each training cluster into a dev twin.

    Documents at positions 4, 9, 14, ... (0-based) leave the training
    cluster and form a dev cluster sharing the gold labels. When
    extra_dev_clusters > 0, the remaining training documents are also
    round-robined into that many additional dev clusters (copies; the
    originals stay in train) to enlarge the development set.
    """
    train_out, dev_out = [], []
    for cluster in train_clusters:
        if cluster.split != "train":
            train_out.append(cluster)
            continue
        held, kept = [], []
        for pos, doc in enumerate(cluster.documents):
            (held if pos % 5 == 4 else kept).append(doc)
        train_out.append(replace(cluster, documents=tuple(kept)))
        if held:
            dev_out.append(replace(cluster, cluster_id=cluster.cluster_id + "/dev",
                                   split="dev", documents=tuple(held)))
        for j in range(extra_dev_clusters):
            group = tuple(kept[j::extra_dev_clusters])
            if group:
                dev_out.append(replace(cluster, cluster_id=f"{cluster.cluster_id}/dev+{j}",
                                       split="dev", documents=group))
    return train_out, dev_out


def segment_topicality(doc: Document, topical_flight_values=frozenset()) -> list[bool]:
    """Per-sentence on-topic flags from the flight-number discourse rule.

    A document starts on topic. A sentence containing a flight-number
    mention of some other flight flips the discourse off topic, that
    sentence included; a sentence mentioning the topical flight resets it,
    again inclusively.
    """
    by_sentence: dict[int, list[Mention]] = {}
    for m in doc.mentions:
        if m.is_flight_number:
            by_sentence.setdefault(m.sentence, []).append(m)
    flags = []
    on_topic = True
    for sid in range(len(doc.sentences)):
        hits = by_sentence.get(sid, ())
        if any(m.is_topical_flight or m.value_id in topical_flight_values for m in hits):
            on_topic = True
        elif hits:
            on_topic = False
        flags.append(on_topic)
    return flags
