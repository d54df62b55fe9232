"""Span tracer that wraps clusterreader's layer functions from outside.

Nothing under ``src/`` is edited: each target function is replaced, in
every clusterreader module that holds a reference to it, by a wrapper that
records a span (layer, start, end, parent) while the tracer is active. A
function imported by name into another module (``from .constraints import
run_bp_tensor``) is therefore wrapped where its caller looks it up.

Self time of a span is its duration minus the time its child spans cover.
Spans and counters are collected per unit of work (one training step or
one predicted cluster); run.py commits or discards each unit.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

PACKAGE = "clusterreader"

# layer -> functions whose self time it owns, as "module:qualname".
LAYERS = {
    "compute.backward": ["compute:backward"],
    "compute.adam": ["compute:adam_step"],
    "encoder.embed": ["encoder:embed_cluster"],
    "encoder.encode": ["encoder:encode"],
    "scorer.attend": ["scorer:score_tokens", "scorer:attend"],
    "model.index": ["model:ClusterIndex.build"],
    "model.forward": ["model:ReaderModel.value_scores", "model:ReaderModel.representations",
                      "model:ReaderModel.token_scores", "model:ReaderModel.mention_slot_logits",
                      "model:float_table", "model:predict_cluster", "model:predict_clusters"],
    "aggregator.pool": ["aggregator:group_mention_scores", "aggregator:aggregate_max",
                        "aggregator:aggregate_sum", "aggregator:null_score",
                        "aggregator:per_document_attention", "aggregator:weights_for"],
    "aggregator.decode": ["aggregator:decode_top1"],
    "training.loss": ["training:cluster_loss", "training:value_loss", "training:mention_loss"],
    "constraints.bp_tensor": ["constraints:run_bp_tensor"],
    "constraints.bp": ["constraints:build_graph", "constraints:run_bp",
                       "constraints:bp_iterate", "constraints:beliefs_as_table"],
}


class Tracer:
    """In-memory spans, per-unit self times and counters."""

    def __init__(self):
        self.active = False
        self.stack = []            # open spans: [span_id, layer, start, child_time]
        self.spans = []            # (unit, span_id, parent_id, layer, start, end)
        self.next_id = 0
        self.absent = []           # targets that no longer exist
        self.bucket = self._empty()
        self.totals = self._empty()
        self.units = 0             # committed units; also the id of the open one
        self.wall = 0.0

    @staticmethod
    def _empty():
        return {"self": defaultdict(float), "calls": defaultdict(int),
                "counts": defaultdict(int), "excluded": 0.0}

    # -- units ---------------------------------------------------------------

    def discard(self):
        """Drop what was recorded since the last unit boundary."""
        self.bucket = self._empty()

    def commit(self, wall: float):
        """Close one unit of work that took `wall` seconds untraced-clock."""
        b, t = self.bucket, self.totals
        for key in ("self", "calls", "counts"):
            for name, v in b[key].items():
                t[key][name] += v
        t["excluded"] += b["excluded"]
        self.wall += wall
        self.units += 1
        self.bucket = self._empty()

    def count(self, name: str, n: int = 1):
        if self.active:
            self.bucket["counts"][name] += n

    def exclude(self, seconds: float):
        """Time the benchmark itself spent inside a unit (not the program's);
        it counts toward no span's self time."""
        self.bucket["excluded"] += seconds
        if self.stack:
            self.stack[-1][3] += seconds

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer: str, fn, before=None, after=None):
        """Wrapper recording a span; before(args) and after(result, args) run
        outside the span and are never timed as the program's work."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if not tracer.active:
                result = fn(*args, **kwargs)
            else:
                span_id = tracer.next_id
                tracer.next_id += 1
                parent = tracer.stack[-1][0] if tracer.stack else -1
                frame = [span_id, layer, clock(), 0.0]
                tracer.stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    tracer.stack.pop()
                    dur = end - frame[2]
                    tracer.bucket["self"][layer] += dur - frame[3]
                    tracer.bucket["calls"][layer] += 1
                    if tracer.stack:
                        tracer.stack[-1][3] += dur
                    tracer.spans.append((tracer.units, span_id, parent, layer, frame[2], end))
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def install(self, layer: str, target: str, before=None, after=None) -> bool:
        """Replace `target` ("module:qualname") everywhere callers find it.

        Returns False, and records the target as absent, when it no longer
        exists in the program.
        """
        modname, qualname = target.split(":")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            self.absent.append(target)
            return False
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            self.absent.append(target)
            return False
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(self.wrap(layer, raw.__func__, before, after)))
            return True
        wrapped = self.wrap(layer, raw, before, after)
        if isinstance(owner, type):
            setattr(owner, name, wrapped)
            return True
        for modname_, module in list(sys.modules.items()):
            if modname_ == PACKAGE or modname_.startswith(PACKAGE + "."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
        return True

    def install_layers(self, hooks: dict, all_layers: bool) -> dict:
        """Wrap the functions in LAYERS: all of them, or only those with hooks.

        hooks maps a target to its (before, after) pair. Returns, per layer,
        whether any of its functions still exists.
        """
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        present = {}
        for layer, targets in LAYERS.items():
            installed = [self.install(layer, t, *hooks.get(t, (None, None)))
                         for t in targets if all_layers or t in hooks]
            present[layer] = any(installed)
        return present

    def count_tensors(self, tensor_cls):
        """Count Tensor constructions, and those that record a backward closure."""
        init = tensor_cls.__init__
        tracer = self

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.active:
                counts = tracer.bucket["counts"]
                counts["compute.tensors"] += 1
                if getattr(obj, "_backward", None) is not None:
                    counts["compute.grad_tensors"] += 1

        tensor_cls.__init__ = counting_init

    def per_unit(self) -> dict:
        """Self time (ms) and counts per committed unit, plus what is left over."""
        n = max(self.units, 1)
        t = self.totals
        out = {f"{layer}_ms": 1e3 * t["self"].get(layer, 0.0) / n for layer in LAYERS}
        out.update({name: v / n for name, v in t["counts"].items()})
        attributed = sum(t["self"].get(layer, 0.0) for layer in LAYERS)
        out["unattributed_ms"] = 1e3 * (self.wall - t["excluded"] - attributed) / n
        return out

    def calls(self) -> dict:
        return {layer: self.totals["calls"].get(layer, 0) for layer in LAYERS}
