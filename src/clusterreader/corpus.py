"""News-cluster data model: loading, validation, splitting, topicality.

A cluster is a set of news documents about one event, annotated with value
mentions and distant-supervision gold labels per slot. The on-disk format is
newline-delimited JSON, one object per cluster; token indices are document
global and sentence boundaries assign sentence ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

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


class Mention(NamedTuple):
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


_REQUIRED = object()


def _all_strings(items) -> bool:
    """Whether every item is a string; str.join checks each one's type in C,
    several times faster than a Python-level test per token."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _interned(strings, intern) -> tuple:
    """strings as a tuple of the load's shared copies; map runs intern (a
    dict's setdefault) in C, with no Python frame per string."""
    return tuple(map(intern, strings, strings))


# The JSON type a record field takes, by the name its error message gives it.
_KINDS = {
    "an integer": lambda v: type(v) is int,       # no bool, no float
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "a string or null": lambda v: v is None or type(v) is str,
    "a list": lambda v: type(v) is list,
    "a list of strings": lambda v: type(v) is list and _all_strings(v),
    "a list of token lists": lambda v: (type(v) is list and set(map(type, v)) <= {list}
                                        and _all_strings(chain.from_iterable(v))),
    "an object": lambda v: type(v) is dict,
}


def _field(obj, key: str, kind: str, where: str, default=_REQUIRED):
    """obj[key], which must be of the named _KINDS entry; a missing key
    takes default, or fails when there is none."""
    if type(obj) is not dict:
        raise CorpusError(f"{where}: expected an object, got {json.dumps(obj)[:60]}")
    if key not in obj:
        if default is _REQUIRED:
            raise CorpusError(f"{where}: missing field {key!r}")
        return default
    if not _KINDS[kind](obj[key]):
        raise CorpusError(f"{where}: field {key!r} must be {kind}, got {json.dumps(obj[key])[:60]}")
    return obj[key]


_MENTION_FIELDS = (("sentence", "an integer", _REQUIRED), ("start", "an integer", _REQUIRED),
                   ("end", "an integer", _REQUIRED), ("value_id", "a string", _REQUIRED),
                   ("entity_type", "a string", "other"),
                   ("is_flight_number", "true or false", False),
                   ("is_topical_flight", "true or false", False))
_MENTION_TYPES = (int, int, int, str, str, bool, bool)


def _mention_from_record(m, where: str, i: int, intern) -> Mention:
    """Mention i of a document, its fields in Mention's order; a corpus holds
    many, so the well-typed case is one comparison of their types and one
    tuple, and only a mismatch goes field by field to name the culprit."""
    try:
        values = (m["sentence"], m["start"], m["end"], m["value_id"],
                  m.get("entity_type", "other"), m.get("is_flight_number", False),
                  m.get("is_topical_flight", False))
    except (KeyError, TypeError):   # a missing field, or m no object
        values = ()
    if tuple(map(type, values)) != _MENTION_TYPES:
        for key, kind, default in _MENTION_FIELDS:
            _field(m, key, kind, f"{where} mention {i}", default)
    # tuple.__new__ skips Mention.__new__'s argument parsing
    sentence, start, end, value_id, entity_type, flight, topical = values
    return tuple.__new__(Mention, (sentence, start, end, intern(value_id, value_id),
                                   intern(entity_type, entity_type), flight, topical))


def _document_from_record(d, where: str, intern) -> Document:
    doc_id = _field(d, "doc_id", "a string", where)
    where = f"{where} doc {doc_id}"
    mentions = [_mention_from_record(m, where, i, intern)
                for i, m in enumerate(_field(d, "mentions", "a list", where, []))]
    return Document(
        doc_id=doc_id, order_index=_field(d, "order_index", "an integer", where),
        sentences=tuple([_interned(s, intern)
                         for s in _field(d, "sentences", "a list of token lists", where)]),
        mentions=tuple(sorted(mentions, key=attrgetter("start", "end"))),
        dateline=_field(d, "dateline", "a string or null", where, None))


def _cluster_from_record(rec, intern) -> Cluster:
    cluster_id = _field(rec, "cluster_id", "a string", "cluster")
    where = f"cluster {cluster_id}"
    gold = _field(rec, "gold", "an object", where, {})
    docs = [_document_from_record(d, where, intern)
            for d in _field(rec, "documents", "a list", where)]
    docs.sort(key=attrgetter("order_index"))
    return Cluster(
        cluster_id=cluster_id, split=_field(rec, "split", "a string", where),
        gold={slot: _interned(_field(gold, slot, "a list of strings", f"{where} gold"), intern)
              for slot in gold},
        candidate_values=_interned(_field(rec, "candidate_values", "a list of strings", where),
                                   intern),
        documents=tuple(docs))


def load_clusters(path) -> list[Cluster]:
    """Read newline-delimited cluster records, cap at 200 docs, validate.

    Cluster ids must be unique within the file. A corpus repeats its
    tokens, value ids and entity types many times over, so each one that
    passed its type check is replaced by the load's first string equal to
    it: the clusters hold one string per distinct one. The table lives for
    this call only; a process-wide one would keep a dropped corpus's
    strings alive and grow with every load.
    """
    clusters = []
    seen = set()
    intern = {}.setdefault      # intern(s, s): the load's first string equal to s
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                cluster = _cluster_from_record(json.loads(line), intern)
            except (ValueError, RecursionError) as exc:   # CorpusError, malformed or too deep JSON
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
                **({"dateline": d.dateline} if d.dateline is not None else {}),
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


def split_dev(train_clusters):
    """Move every fifth document of each training cluster into a dev twin.

    Documents at positions 4, 9, 14, ... (0-based) leave the training
    cluster and form a dev cluster sharing the gold labels.
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
    return train_out, dev_out


def segment_topicality(doc: Document) -> list[bool]:
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
        if any(m.is_topical_flight for m in hits):
            on_topic = True
        elif hits:
            on_topic = False
        flags.append(on_topic)
    return flags
