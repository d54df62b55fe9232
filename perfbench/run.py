"""clusterreader benchmark: training and prediction driven through the library.

    python3 perfbench/run.py --workload train-sum --seed 1 --seconds 50 --trace 0

Runs from the root of a checkout and imports the program from its ``src/``.
It calls what ``clusterreader train`` and ``clusterreader predict`` call:
``corpus.load_clusters``, ``training.train``, ``training.save_model`` /
``load_model``, ``model.predict_clusters`` and ``evaluation.evaluate``. One
process, BLAS pinned to one thread. Inputs are synthetic corpora generated
from ``--seed`` and written as NDJSON; the program only sees those files and
checkpoints.

Workloads (why each was chosen):

* ``train-sum``: ``training.train`` with the default (the paper's tuned)
  hyperparameters: sum aggregation, value-level loss, no BP in the loss. The
  path users train on; time is spread over backward, pooling and the CNN.
  No constraint layer and no inference run, so it is the bypass workload
  for BP and inference-only changes.
* ``train-bp``: the same with ``bp_train_iters=2``: the only workload with
  the differentiable BP (``run_bp_tensor``) on the gradient path. It is not
  declared in BENCHMARK.json: on a 2-vCPU shared machine its step time
  swung by up to a third between runs, wider than any bound; run it with
  ``sweep.py``.
* ``predict-conv``: a saved checkpoint predicts larger clusters (8-16 docs)
  with converged BP, one cluster per call from one caller (a closed loop).
  The inference path: forward only, plus 38-73 BP rounds per cluster.

``--trace 0`` prints the end-to-end metrics. One unit is one cluster: a
training step (timed between successive returns of ``compute.adam_step``)
or one prediction call. ``cluster_ms.p50``/``.p95`` are percentiles over the
corpus's clusters of each cluster's median unit time, and ``clusters_per_s``
is the reciprocal of their mean; the per-cluster median keeps the machine's
transient slowdowns out. ``setup_s`` is the median of repeated set-ups
(load the corpus, then init the model or load the checkpoint). ``mrr`` is
the mean reciprocal rank on held-out clusters, scored after the timed
phase; the modified F1 is printed beside it but is no JSON metric, because
it can be 0: train-bp's model predicts null for every slot.

``--trace 1`` alternates untraced units and units with spans around each
layer's functions (see ``spans.py``) and prints per-layer self time per
unit, counters, the time no span covers and the tracing overhead. Layers
a workload does not run read 0.

Every run checks the program's outputs: a training step fails when its
loss is not finite or BP beliefs leave [0,1]; a prediction record fails when
it lacks a scoring slot, names a value outside the cluster's candidates,
has beliefs outside [0,1], or differs from the cluster's earlier
prediction. Failures go to stderr and count into ``failed``; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("train-sum", "train-bp", "predict-conv")
NOISE = dict(misinformation_rate=0.3, offtopic_rate=0.3, missing_slot_rate=0.2)
# corpora as (fewest docs, most docs, clusters per doc count): every doc
# count gets the same number of clusters, so that the mix of cluster sizes,
# which sets the step time, does not change with the seed
TRAIN_CORPUS = (4, 8, 16)
EVAL_CORPUS = (4, 8, 16)
PREDICT_CORPUS = (8, 16, 8)
CHECKPOINT_CORPUS = (4, 8, 8)
TRAIN_EPOCHS = 4            # epoch budget of one training.train call
CHECKPOINT_SEED = 101       # seed of the predict-conv checkpoint's corpus
CHECKPOINT_EPOCHS = 10
SETUP_REPEATS = 15
MIN_UNITS = 20              # untraced steps a run measures at the least

# layers each workload must exercise; a traced run fails if one records
# no calls while any of its functions still exists
REQUIRED = {
    "train-sum": ["compute.backward", "compute.adam", "encoder.embed", "encoder.encode",
                  "scorer.attend", "model.index", "model.forward", "aggregator.pool",
                  "training.loss"],
    "predict-conv": ["encoder.embed", "encoder.encode", "scorer.attend", "model.index",
                     "model.forward", "aggregator.pool", "aggregator.decode",
                     "constraints.bp"],
}
REQUIRED["train-bp"] = REQUIRED["train-sum"] + ["constraints.bp_tensor"]

END_TO_END = {
    "setup_s": "s", "clusters_per_s": "1/s", "cluster_ms.p50": "ms",
    "cluster_ms.p95": "ms", "mrr": "fraction", "peak_rss_mb": "MB",
}
PER_LAYER = {f"{layer}_ms": "ms" for layer in LAYERS}
PER_LAYER.update({
    "compute.graph_nodes": "count", "compute.tensors": "count",
    "compute.grad_tensors": "count", "constraints.rounds": "count",
    "constraints.dup_slots_before": "count", "constraints.dup_slots_after": "count",
    "corpus.load_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.bytes": "bytes",
    "unattributed_ms": "ms", "trace_overhead": "ratio",
})

clock = time.perf_counter


class Deadline(Exception):
    """Raised from the step hook to end a training call when time is up."""


def import_program():
    """Import clusterreader from this checkout's src/, never from elsewhere."""
    if not (SRC / "clusterreader" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'clusterreader'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import clusterreader
    if Path(clusterreader.__file__).resolve().parent != (SRC / "clusterreader").resolve():
        print(f"perfbench: imported clusterreader from {clusterreader.__file__}",
              file=sys.stderr)
        sys.exit(2)
    from clusterreader import (aggregator, compute, constraints, corpus, evaluation,
                               model, synth, training)
    return argparse.Namespace(aggregator=aggregator, compute=compute,
                              constraints=constraints, corpus=corpus,
                              evaluation=evaluation, model=model, synth=synth,
                              training=training)


def write_corpus(cr, path, seed: int, role: int, split: str, shape):
    """Synthetic NDJSON corpus with the benchmark noise, stratified by doc count."""
    lo, hi, per_count = shape
    clusters = []
    for docs in range(lo, hi + 1):
        part_seed = int(np.random.SeedSequence([seed, role, docs]).generate_state(1)[0])
        part, _ = cr.synth.generate(cr.synth.SynthConfig(
            n_clusters=per_count, docs_min=docs, docs_max=docs, seed=part_seed,
            split=split, **NOISE))
        clusters += [dataclasses.replace(c, cluster_id=f"{split}{docs:02d}-{i:02d}")
                     for i, c in enumerate(part)]
    cr.corpus.save_clusters(path, clusters)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "clusterreader").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    h.update(f"{CHECKPOINT_CORPUS}{CHECKPOINT_SEED}{CHECKPOINT_EPOCHS}".encode())
    return h.hexdigest()[:16]


def prepared_checkpoint(cr) -> Path:
    """A train-sum checkpoint for predict-conv, cached per program source."""
    path = WORK / "cache" / f"checkpoint-{source_digest()}.json"
    if path.is_file():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        corpus_path = Path(tmp) / "train.ndjson"
        write_corpus(cr, corpus_path, CHECKPOINT_SEED, 0, "train", CHECKPOINT_CORPUS)
        hp = cr.training.Hyperparams(max_epochs=CHECKPOINT_EPOCHS)
        state = cr.training.train(cr.corpus.load_clusters(corpus_path), [], hp)
        staged = Path(tmp) / "checkpoint.json"
        cr.training.save_model(staged, state.model, hp)
        os.replace(staged, path)
    return path


# ---------------------------------------------------------------------------
# output checks


class Checks:
    """Counts attempted and failed units and reports every failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def unit(self, problems: list, where: str):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {where}: {p}", file=sys.stderr)

    def record(self, rec, cluster, slots, bp: bool, earlier=None):
        problems = []
        preds = rec.get("predictions") or {}
        if rec.get("cluster_id") != cluster.cluster_id:
            problems.append(f"record for {rec.get('cluster_id')!r}")
        for slot in slots:
            if slot not in preds:
                problems.append(f"slot {slot} missing")
            elif preds[slot] is not None and preds[slot] not in cluster.candidate_values:
                problems.append(f"slot {slot} value {preds[slot]!r} not a candidate")
        if bp:
            bad = [v for vals in rec.get("scores", {}).values() for v in vals.values()
                   if not 0.0 <= v <= 1.0]
            if bad:
                problems.append(f"{len(bad)} BP beliefs outside [0,1]")
        if earlier is not None and earlier["predictions"] != preds:
            problems.append("prediction differs from the earlier call")
        self.unit(problems, f"prediction {cluster.cluster_id}")


def top_values(table: dict, null_value) -> list:
    """Each slot's best value, ties broken as decode_top1 breaks them."""
    return [min(scores.items(), key=lambda kv: (-kv[1], kv[0] == null_value, kv[0]))[0]
            for scores in table.values()]


def dup_slots(winners, null_value=None) -> int:
    """Slots whose value also wins another slot."""
    real = [w for w in winners if w != null_value and w is not None]
    return sum(1 for w in real if real.count(w) > 1)


def score(cr, clusters, records):
    """Quality on held-out clusters; prints the modified F1, which is not a
    JSON metric because it can be 0 (train-bp predicts null everywhere)."""
    E = cr.evaluation
    quality = E.evaluate([E.instance_from_cluster(c) for c in clusters],
                         cr.model.predictions_map(records), cr.model.rankings_map(records))
    print(f"f1 {quality.score_f1} fraction")
    return quality


def cluster_times(samples) -> dict:
    """Timing metrics from (cluster_id, seconds) samples of untraced units.

    Each cluster's median time is taken first, so that a transient slowdown
    of the machine does not reach the figures; p50 and p95 are over those
    per-cluster medians, and clusters_per_s is the reciprocal of their mean.
    """
    per_cluster = defaultdict(list)
    for cluster_id, wall in samples:
        per_cluster[cluster_id].append(wall)
    medians = 1e3 * np.array([statistics.median(w) for w in per_cluster.values()])
    p50, p95 = np.percentile(medians, [50, 95])
    return {"clusters_per_s": 1e3 / float(medians.mean()),
            "cluster_ms.p50": float(p50), "cluster_ms.p95": float(p95)}


# ---------------------------------------------------------------------------
# workloads


def run_train(cr, args, tmp: Path, tracer: Tracer, checks: Checks, bp_iters: int) -> dict:
    T = cr.training
    train_path, eval_path = tmp / "train.ndjson", tmp / "eval.ndjson"
    write_corpus(cr, train_path, args.seed, 0, "train", TRAIN_CORPUS)
    write_corpus(cr, eval_path, args.seed, 1, "test", EVAL_CORPUS)
    hp = T.Hyperparams(max_epochs=TRAIN_EPOCHS, bp_train_iters=bp_iters)

    load_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        clusters = cr.corpus.load_clusters(train_path)
        t1 = clock()
        vocab = [t for c in clusters for d in c.documents for t in d.flat_tokens()]
        cr.model.init_model(vocab, hp, np.random.default_rng(hp.seed))
        setup_times.append(clock() - t0)
        load_times.append(t1 - t0)
    eval_clusters = cr.corpus.load_clusters(eval_path)

    # untraced steps as (cluster_id, seconds)
    phase = {"prev": None, "cluster": None, "untraced": [], "steps": 0, "deadline": math.inf}
    bad = {"loss": 0, "beliefs": 0}

    def after_adam(result, _args):
        now = clock()
        if phase["prev"] is not None:
            wall = now - phase["prev"]
            if tracer.active:
                tracer.commit(wall)
            else:
                phase["untraced"].append((phase["cluster"], wall))
        tracer.discard()
        phase["steps"] += 1
        problems = []
        if bad["loss"]:
            problems.append("loss is not finite")
        if bad["beliefs"]:
            problems.append("BP beliefs outside [0,1]")
        checks.unit(problems, f"training step {phase['steps']}")
        bad["loss"] = bad["beliefs"] = 0
        if now >= phase["deadline"] and len(phase["untraced"]) >= MIN_UNITS:
            raise Deadline
        # a traced run alternates traced and untraced steps, so that drift
        # in machine speed does not enter the tracing overhead
        tracer.active = bool(args.trace) and not tracer.active
        phase["prev"] = clock()

    def before_loss(loss_args):
        phase["cluster"] = loss_args[1].cluster_id

    def after_loss(loss, _args):
        if loss is not None and not math.isfinite(loss.item()):
            bad["loss"] += 1

    def after_bp(beliefs, _args):
        if not np.all((beliefs.data >= 0.0) & (beliefs.data <= 1.0)):
            bad["beliefs"] += 1

    hooks = {"compute:adam_step": (None, after_adam),
             "training:cluster_loss": (before_loss, after_loss),
             "constraints:run_bp_tensor": (None, after_bp)}
    present = install(cr, tracer, hooks, args.trace)

    def train_call(deadline):
        phase["prev"], phase["deadline"] = None, deadline
        try:
            return T.train(clusters, [], hp)
        except Deadline:
            return None
        except T.DivergenceError as exc:
            checks.unit([str(exc)], "training step")
            raise SystemExit(report(checks, {}, args.trace))

    # the first call always completes: its model is the one scored
    t_start = clock()
    first = train_call(math.inf)
    while clock() < t_start + args.seconds:
        train_call(t_start + args.seconds)
    tracer.active = False

    records = cr.model.predict_clusters(first.model, eval_clusters, hp.aggregation)
    slots = first.model.scoring_slots()
    for rec, cluster in zip(records, eval_clusters):
        checks.record(rec, cluster, slots, bp=False)
    quality = score(cr, eval_clusters, records)

    ckpt = tmp / "model.json"
    T.save_model(ckpt, first.model, hp)
    t0 = clock()
    loaded, config, _ = T.load_model(ckpt)
    ckpt_load_s = clock() - t0
    reloaded = cr.model.predict_clusters(loaded, eval_clusters, config)
    for rec, earlier, cluster in zip(reloaded, records, eval_clusters):
        checks.record(rec, cluster, slots, bp=False, earlier=earlier)

    if args.trace:
        return traced_metrics(tracer, args.workload, present, phase["untraced"],
                              corpus_load_ms=1e3 * statistics.median(load_times),
                              ckpt_load_ms=1e3 * ckpt_load_s, ckpt_bytes=ckpt.stat().st_size)
    return {"setup_s": statistics.median(setup_times), **cluster_times(phase["untraced"]),
            "mrr": quality.mrr, "peak_rss_mb": peak_rss_mb()}


def run_predict(cr, args, tmp: Path, tracer: Tracer, checks: Checks) -> dict:
    T, K = cr.training, cr.constraints
    ckpt = prepared_checkpoint(cr)
    corpus_path = tmp / "predict.ndjson"
    write_corpus(cr, corpus_path, args.seed, 2, "test", PREDICT_CORPUS)

    load_times, ckpt_times, setup_times = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        clusters = cr.corpus.load_clusters(corpus_path)
        t1 = clock()
        model, config, _ = T.load_model(ckpt)
        t2 = clock()
        load_times.append(t1 - t0)
        ckpt_times.append(t2 - t1)
        setup_times.append(t2 - t0)

    null_value = cr.aggregator.NULL_VALUE

    def before_graph(graph_args):
        t0 = clock()
        winners = top_values(graph_args[0], null_value)
        tracer.count("constraints.dup_slots_before", dup_slots(winners, null_value))
        tracer.exclude(clock() - t0)

    def before_round(_args):
        tracer.count("constraints.rounds")

    hooks = {"constraints:build_graph": (before_graph, None),
             "constraints:bp_iterate": (before_round, None)} if args.trace else {}
    present = install(cr, tracer, hooks, args.trace)
    slots = model.scoring_slots()
    first: dict = {}
    latencies = []      # untraced calls of the timed loop

    def call(i):
        cluster = clusters[i % len(clusters)]
        tracer.discard()
        t0 = clock()
        rec = cr.model.predict_clusters(model, [cluster], config,
                                        bp_iterations=K.CONVERGENCE)[0]
        wall = clock() - t0
        if not tracer.active:
            latencies.append((cluster.cluster_id, wall))
        else:
            tracer.count("constraints.dup_slots_after",
                         dup_slots(rec["predictions"].values()))
            tracer.commit(wall)
        checks.record(rec, cluster, slots, bp=True, earlier=first.get(cluster.cluster_id))
        first.setdefault(cluster.cluster_id, rec)

    t_start = clock()
    if args.trace:
        # whole passes over the corpus, alternately untraced and traced
        while True:
            for traced in (False, True):
                tracer.active = traced
                for i in range(len(clusters)):
                    call(i)
            if clock() >= t_start + args.seconds:
                break
        tracer.active = False
    else:
        while clock() < t_start + args.seconds or not latencies:
            call(len(latencies))
        timed = list(latencies)
        for i in range(len(timed), len(clusters)):   # score every cluster
            call(i)

    records = [first[c.cluster_id] for c in clusters]
    quality = score(cr, clusters, records)
    if args.trace:
        return traced_metrics(tracer, args.workload, present, latencies,
                              corpus_load_ms=1e3 * statistics.median(load_times),
                              ckpt_load_ms=1e3 * statistics.median(ckpt_times),
                              ckpt_bytes=ckpt.stat().st_size)
    return {"setup_s": statistics.median(setup_times), **cluster_times(timed),
            "mrr": quality.mrr, "peak_rss_mb": peak_rss_mb()}


# ---------------------------------------------------------------------------
# tracing


def install(cr, tracer: Tracer, hooks: dict, trace: int) -> dict:
    """Wrap the hooked functions always, and every layer function when tracing."""
    if trace:
        tracer.count_tensors(cr.compute.Tensor)

        def before_backward(bw_args):
            t0 = clock()
            tracer.count("compute.graph_nodes", graph_size(bw_args[0]))
            tracer.exclude(clock() - t0)

        hooks = {**hooks, "compute:backward": (before_backward, None)}
    return tracer.install_layers(hooks, all_layers=bool(trace))


def graph_size(loss) -> int:
    seen, todo = set(), [loss]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(getattr(node, "_parents", ()))
    return len(seen)


def traced_metrics(tracer: Tracer, workload: str, present: dict, untraced: list,
                   corpus_load_ms: float, ckpt_load_ms: float, ckpt_bytes: int) -> dict:
    calls = tracer.calls()
    for layer in REQUIRED[workload]:
        if not present[layer]:
            print(f"perfbench: span {layer} absent: none of {LAYERS[layer]} exists",
                  file=sys.stderr)
        elif calls[layer] == 0:
            print(f"perfbench: FAILED trace: span {layer} recorded no calls on {workload}",
                  file=sys.stderr)
            raise SystemExit(1)
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"trace-{workload}.json", "w") as fh:
        json.dump({"fields": ["unit", "span", "parent", "layer", "start", "end"],
                   "spans": tracer.spans}, fh)
    out = {name: 0.0 for name in PER_LAYER}
    out.update(tracer.per_unit())
    traced_s = (tracer.wall - tracer.totals["excluded"]) / max(tracer.units, 1)
    untraced_s = statistics.fmean(wall for _, wall in untraced)
    out.update({"corpus.load_ms": corpus_load_ms, "checkpoint.load_ms": ckpt_load_ms,
                "checkpoint.bytes": ckpt_bytes, "trace_overhead": traced_s / untraced_s - 1.0})
    print(f"traced units: {tracer.units}; calls per span: {calls}")
    return {name: out[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(checks: Checks, metrics: dict, trace: int) -> int:
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    rate = checks.failed / max(checks.attempted, 1)
    print(f"error_rate {rate} ({checks.failed} failed of {checks.attempted} units)")
    correct = checks.failed == 0 and checks.attempted > 0 and set(metrics) == set(units)
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cr = import_program()
    WORK.mkdir(exist_ok=True)
    tracer, checks = Tracer(), Checks()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.workload == "predict-conv":
            metrics = run_predict(cr, args, Path(tmp), tracer, checks)
        else:
            metrics = run_train(cr, args, Path(tmp), tracer, checks,
                                bp_iters=2 if args.workload == "train-bp" else 0)
    for target in tracer.absent:
        print(f"perfbench: {target} absent from the program", file=sys.stderr)
    return report(checks, metrics, args.trace)


if __name__ == "__main__":
    sys.exit(main())
