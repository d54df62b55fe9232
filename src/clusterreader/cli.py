"""Command-line pipeline: generate data, train, predict, evaluate, diagnose.

Exit codes: 0 ok, 2 missing or unreadable input file, 3 invalid data or
configuration, 4 divergence during training. Every command logs its
resolved configuration and seed to stderr so runs can be reproduced from
the log alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from . import compute as C
from . import constraints as K
from . import corpus as cp
from . import encoder as E
from . import model as M
from . import synth as sy
from . import training as T
from .aggregator import MODES, AggregationConfig, AggregationError
from .evaluation import evaluate, instance_from_cluster, load_predictions, render_report

EXIT_MISSING = 2
EXIT_INVALID = 3
EXIT_DIVERGED = 4
MODE_HELP = f"aggregation mode: {', '.join(MODES)}"


def parse_config_file(path) -> dict:
    """Flat key = value lines; # comments; quotes optional on values."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise T.TrainingError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip().strip("'\"")
    return out


def parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise T.TrainingError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def log(msg: str):
    print(f"[clusterreader] {msg}", file=sys.stderr)


def parse_bp(raw: str, flag: str = "--bp"):
    """A round count in ASCII digits or 'conv', from predict's --bp or
    bp-trace's --iterations."""
    if raw == K.CONVERGENCE:
        return K.CONVERGENCE
    if raw.isascii() and raw.isdigit():
        return int(raw)
    raise K.ConstraintError(
        f"{flag} expects a non-negative iteration count or 'conv', got {raw!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    config = sy.SynthConfig(
        n_clusters=args.clusters, docs_min=args.docs_min, docs_max=args.docs_max,
        misinformation_rate=args.misinformation, offtopic_rate=args.offtopic,
        missing_slot_rate=args.missing, incidental_rate=args.incidental,
        seed=args.seed, split=args.split)
    log(f"synth config: {config}")
    clusters, provenance = sy.generate(config)
    cp.save_clusters(args.out, clusters)
    prov_path = args.provenance or f"{args.out}.provenance.json"
    sy.save_provenance(prov_path, provenance)
    log(f"wrote {len(clusters)} clusters to {args.out}, provenance to {prov_path}")
    return 0


def resolve_hyperparams(args, embed_width: int | None = None) -> T.Hyperparams:
    """Settings from --config, then --set and the flags. embed_width, the
    width of the --embeddings table, is the embed_dim: a set embed_dim of
    another width is refused."""
    settings = {}
    if args.config:
        settings.update(parse_config_file(args.config))
    settings.update(parse_overrides(args.set))
    asked = [f.name for f in fields(AggregationConfig) if f.name in settings]
    if args.aggregation is not None:
        settings["mode"] = args.aggregation
        asked.insert(0, "--aggregation")
    if args.seed is not None:
        settings["seed"] = str(args.seed)
    hp = T.hyperparams_from_dict(settings)
    if hp.bp_train_iters > 0:
        asked.append("bp_train_iters")
    refuse_mention_level_aggregation(asked, hp.loss_mode)
    if embed_width is None:
        return hp
    if "embed_dim" in settings and hp.embed_dim != embed_width:
        raise T.TrainingError(f"embed_dim={hp.embed_dim} does not match the "
                              f"{embed_width}-wide vectors of {args.embeddings}")
    return replace(hp, embed_dim=embed_width)


def refuse_mention_level_aggregation(asked, loss_mode: str):
    """A mention-level model classifies mentions and pools no attention, so
    no aggregation setting, nor BP in the loss, which runs on the pooled
    masses, would reach it (asked: the flags and keys given)."""
    if asked and loss_mode == "mention_level":
        raise T.TrainingError(f"{asked[0]} does not apply to loss_mode=mention_level: "
                              "a mention-level model pools no attention")


def load_for_prediction(args):
    """The checkpoint's model, its aggregation with --aggregation's mode,
    and the mention decode prediction uses by default."""
    model, config, loss_mode = T.load_model(args.checkpoint)
    if args.aggregation is not None:
        refuse_mention_level_aggregation(["--aggregation"], loss_mode)
        config = replace(config, mode=args.aggregation)
    return model, config, T.default_mention_decode(loss_mode)


def cmd_train(args) -> int:
    table = E.load_embeddings(args.embeddings) if args.embeddings else None
    hp = resolve_hyperparams(args, None if table is None else table.dim)
    log(f"train config: {hp}")
    log(f"seed: {hp.seed}")
    train_clusters = cp.load_clusters(args.corpus)
    if args.dev:
        dev_clusters = cp.load_clusters(args.dev)
    elif args.auto_dev:
        train_clusters, dev_clusters = cp.split_dev(train_clusters)
    else:
        dev_clusters = []
    log(f"{len(train_clusters)} train / {len(dev_clusters)} dev clusters")

    lines = []

    def epoch_log(msg):
        lines.append(msg)
        log(msg)

    state = T.train(train_clusters, dev_clusters, hp, table=table, log=epoch_log)
    T.save_model(args.checkpoint, state.model, hp)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    tail = f", best dev F1 {state.best_dev_metric:.4f}" if dev_clusters else ""
    log(f"checkpoint written to {args.checkpoint} ({state.epoch} epochs{tail})")
    return 0


def cmd_predict(args) -> int:
    model, config, default_decode = load_for_prediction(args)
    if args.mention_decode and default_decode is None:
        raise T.TrainingError("--mention-decode needs a loss_mode=mention_level checkpoint: "
                              "a value-level model's slot vectors were trained for attention")
    decode = args.mention_decode or default_decode
    bp = parse_bp(args.bp)
    log(f"predict config: aggregation={config} bp={bp} mention_decode={decode}")
    clusters = cp.load_clusters(args.corpus)
    records = M.predict_clusters(model, clusters, config, bp_iterations=bp,
                                 mention_decode=decode)
    records.sort(key=lambda r: r["cluster_id"])
    with open(args.out, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    log(f"wrote predictions for {len(records)} clusters to {args.out}")
    return 0


def cmd_eval(args) -> int:
    clusters = cp.load_clusters(args.gold)
    predictions, rankings = load_predictions(args.pred)
    instances = [instance_from_cluster(c) for c in clusters]
    log(f"eval: {len(instances)} clusters, {len(predictions)} prediction records")
    report = evaluate(instances, predictions, rankings)
    print(render_report(report, label=args.label, per_slot=args.per_slot))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1)
            fh.write("\n")
    return 0


def cmd_bp_trace(args) -> int:
    iterations = parse_bp(args.iterations, "--iterations")
    model, config, decode = load_for_prediction(args)
    log(f"bp-trace config: aggregation={config} iterations={iterations} "
        f"mention_decode={decode}")
    clusters = cp.load_clusters(args.corpus)
    wanted = [c for c in clusters if c.cluster_id == args.cluster_id] \
        if args.cluster_id else clusters[:1]
    if not wanted:
        raise cp.CorpusError(f"cluster {args.cluster_id!r} not found in {args.corpus}")
    cluster = wanted[0]
    index = M.ClusterIndex.build(cluster)
    if not index.groups:
        raise cp.CorpusError(f"cluster {cluster.cluster_id} has no mentions to trace")
    values, scores = M.prediction_scores(model, index, config, decode)
    graph = M.prediction_graph(model, index, config, values, scores, decode)
    rounds = K.bp_trace(graph, iterations, args.out)
    log(f"wrote a {rounds}-round belief trace for {cluster.cluster_id} to {args.out}")
    return 0


def cmd_grad_check(args) -> int:
    hp = T.Hyperparams(embed_dim=8, width1=3, width2=2, d1=4, r=4,
                       keep_prob=1.0, seed=args.seed if args.seed is not None else 13)
    cluster = _tiny_cluster()
    log(f"grad-check config: e={hp.embed_dim} r={hp.r} "
        f"tokens={sum(d.n_tokens for d in cluster.documents)}")
    report = T.gradient_check(hp, cluster)
    worst = max(report, key=report.get)
    print(f"max relative error {report[worst]:.3e} (worst parameter: {worst})")
    return 0


def _tiny_cluster() -> cp.Cluster:
    d0 = cp.Document(
        doc_id="t0", order_index=0,
        sentences=(("officials", "said", "fifty", "people", "died", "here"),
                   ("the", "acme", "jet", "crashed")),
        mentions=(cp.Mention(sentence=0, start=2, end=3, value_id="fifty",
                             entity_type="number"),
                  cp.Mention(sentence=1, start=7, end=8, value_id="acme",
                             entity_type="airline")))
    d1 = cp.Document(
        doc_id="t1", order_index=1,
        sentences=(("acme", "flight", "down", "fifty", "dead"),),
        mentions=(cp.Mention(sentence=0, start=0, end=1, value_id="acme",
                             entity_type="airline"),
                  cp.Mention(sentence=0, start=3, end=4, value_id="fifty",
                             entity_type="number")))
    gold = {s: () for s in cp.EVAL_SLOTS}
    gold["Fatalities"] = ("fifty",)
    gold["Operator"] = ("acme",)
    cluster = cp.Cluster(cluster_id="tiny", split="train", gold=gold,
                         candidate_values=("fifty", "acme"), documents=(d0, d1))
    cp.validate_cluster(cluster)
    return cluster


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterreader",
        description="Event slot extraction from noisy news clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", default=None)
    p.add_argument("--clusters", type=int, default=20)
    p.add_argument("--docs-min", type=int, default=4)
    p.add_argument("--docs-max", type=int, default=8)
    p.add_argument("--misinformation", type=float, default=0.0)
    p.add_argument("--offtopic", type=float, default=0.0)
    p.add_argument("--missing", type=float, default=0.0)
    p.add_argument("--incidental", type=float, default=0.35)
    p.add_argument("--split", default="train", choices=cp.SPLITS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--auto-dev", action="store_true",
                   help="hold out every fifth document as dev clusters")
    p.add_argument("--config", default=None, help="key = value settings file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a setting (repeatable; wins over --config)")
    p.add_argument("--aggregation", default=None,
                   help=f"{MODE_HELP}; not with loss_mode=mention_level")
    p.add_argument("--embeddings", default=None,
                   help="pretrained embedding text file (token v1 ... ve)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None, help="write per-epoch loss/dev-F1 lines here")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode a corpus with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--aggregation", default=None,
                   help=f"{MODE_HELP}; default: the checkpoint's mode (its null_enabled is "
                        "kept either way); not for a mention_level checkpoint")
    p.add_argument("--bp", default="0", help="constraint iterations: 0, 1, 2, ... or conv")
    p.add_argument("--mention-decode", choices=("none", "max", "sum"), default=None,
                   help="default: sum; only for a mention_level checkpoint")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--label", default="model")
    p.add_argument("--per-slot", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bp-trace", help="dump per-iteration constraint beliefs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--cluster-id", default=None)
    p.add_argument("--iterations", default="2", help="BP rounds: 0, 1, 2, ... or conv")
    p.add_argument("--aggregation", default=None,
                   help=f"{MODE_HELP}; as for predict; a mention_level checkpoint traces "
                        "its sum decode")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bp_trace)

    p = sub.add_parser("grad-check", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_grad_check)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        log(f"missing or unreadable file: {exc}")
        return EXIT_MISSING
    except T.DivergenceError as exc:
        log(f"training diverged: {exc}")
        return EXIT_DIVERGED
    except (cp.CorpusError, sy.SynthError, AggregationError, K.ConstraintError,
            C.ComputeError, T.TrainingError, T.GradientCheckError,
            ValueError) as exc:
        log(f"invalid input: {exc}")
        return EXIT_INVALID


def main():
    # an overflowing forward ends in one "invalid input" line; numpy's
    # floating-point warnings, each with its source line, would come first
    with np.errstate(all="ignore"):
        sys.exit(run())


if __name__ == "__main__":
    main()
