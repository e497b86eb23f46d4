"""Outside-in tracing of the cusa layers.

Nothing under src/ knows about tracing. For the length of one traced
operation, every hooked function is replaced by a wrapper under each
module attribute a caller can look it up by (its defining module and
every module that imported it by name), and the originals are put back
afterwards. A wrapper records a span: name, start, end, parent span and
operation id. Counters are taken at the same boundaries from arguments
and results, so work counts are measured where the work happens.

Layers are the src/cusa modules that user commands reach: cli, dataio,
synthetic, trainer, model, softlabels, losses, mathops and metrics.
gradcheck and errors are on no benchmark workload.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "dataio", "synthetic", "trainer", "model", "softlabels",
          "losses", "mathops", "metrics")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    op_id: int


@dataclass(frozen=True)
class Hook:
    """One function to wrap.

    name is the span name, "<layer>.<function>". module is the defining
    module relative to the package, attr the attribute path inside it
    ("Class.method" for a method). A hook with span=False records no
    span; it counts calls per enclosing span instead, for helpers too
    small to time without distorting their callers.
    """

    name: str
    module: str
    attr: str
    span: bool = True


HOOKS = (
    Hook("cli.main", "cli", "main"),
    Hook("dataio.read_features", "dataio", "read_features"),
    Hook("dataio.read_pairs", "dataio", "read_pairs"),
    Hook("dataio.read_relevance", "dataio", "read_relevance"),
    Hook("dataio.write_features", "dataio", "write_features"),
    Hook("dataio.save_checkpoint", "dataio", "save_checkpoint"),
    Hook("dataio.load_checkpoint", "dataio", "load_checkpoint"),
    Hook("synthetic.synth_generate", "synthetic", "synth_generate"),
    Hook("synthetic.generate", "synthetic", "generate"),
    Hook("trainer.train", "trainer", "train"),
    Hook("trainer.make_batches", "trainer", "make_batches"),
    Hook("trainer.adam_step", "trainer", "adam_step"),
    Hook("trainer.log_write", "trainer", "TrainLog.write"),
    Hook("model.forward", "model", "forward"),
    Hook("model.backward", "model", "backward"),
    Hook("model.embed", "model", "embed_images"),
    Hook("model.embed", "model", "embed_texts"),
    Hook("model.projection", "model", "_project_normalize", span=False),
    Hook("softlabels.build_batch_targets", "softlabels", "build_batch_targets"),
    Hook("losses.batch_loss_and_grads", "losses", "batch_loss_and_grads"),
    Hook("mathops.kl_rows_raw", "mathops", "kl_rows_raw"),
    Hook("mathops.row_softmax_with_log", "mathops", "row_softmax_with_log"),
    Hook("metrics.evaluate_cross_modal", "metrics", "evaluate_cross_modal"),
    Hook("metrics.rank_by_similarity", "metrics", "rank_by_similarity"),
    Hook("metrics.recall_at_k", "metrics", "recall_at_k"),
    Hook("metrics.r_precision", "metrics", "r_precision"),
    Hook("metrics.map_at_r", "metrics", "map_at_r"),
)


class Tracer:
    """Spans and counters of one operation, kept in memory."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[Span] = []
        self.calls: Counter = Counter()  # (counted hook, enclosing span name) -> calls
        self.tally: Counter = Counter()  # work counts taken by observers
        self.batches: list = []  # index arrays returned by trainer.make_batches
        self.observer_errors: set = set()
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name) -> None:
        enclosing = self.spans[self._stack[-1]].name if self._stack else None
        self.calls[(name, enclosing)] += 1


# Observers turn a hooked call's arguments and result into work counts.
# They read shapes and sizes only, so they add little to the caller's time.

def _observe_rows(tracer, args, result):
    tracer.tally["dataio.read_features.rows"] += int(result.features.shape[0])


def _observe_relevance(tracer, args, result):
    tracer.tally["dataio.read_relevance.bytes"] += os.path.getsize(args[0])


def _observe_bundle(tracer, args, result):
    tracer.tally["synthetic.bytes_written"] += sum(os.path.getsize(p) for p in result.values())


def _observe_batches(tracer, args, result):
    tracer.batches.extend(result)


def _observe_targets(tracer, args, result):
    tracer.tally["softlabels.teacher_entries"] += int(result.p_i2i.size + result.p_t2t.size)


def _observe_ranking(tracer, args, result):
    nq, ng = np.shape(args[0])
    tracer.tally["metrics.queries"] += nq
    tracer.tally["metrics.ranked_entries"] += nq * ng


OBSERVERS = {
    "dataio.read_features": _observe_rows,
    "dataio.read_relevance": _observe_relevance,
    "synthetic.synth_generate": _observe_bundle,
    "trainer.make_batches": _observe_batches,
    "softlabels.build_batch_targets": _observe_targets,
    "metrics.rank_by_similarity": _observe_ranking,
}


def _span_wrapper(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            try:
                observe(tracer, args, result)
            except Exception:  # a changed return type must not stop the run
                tracer.observer_errors.add(name)
        return result

    return traced


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return counted


def package_modules(package: str) -> dict:
    """Loaded modules of a package, keyed relative to it ("" is the package)."""
    prefix = package + "."
    return {("" if name == package else name[len(prefix):]): mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(prefix))}


def _resolve(hook: Hook, modules: dict):
    """(owner, attribute, original) for a hook, or None when it is absent."""
    owner = modules.get(hook.module)
    *path, last = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, last, None) if owner is not None else None
    if not callable(original):
        return None
    return owner, last, original


@contextmanager
def installed(tracer: Tracer, modules: dict, hooks=HOOKS):
    """Wrap every hook for the body of the with-block; yields the absent ones.

    A hook whose module or attribute no longer exists is reported as
    absent and skipped, so renaming a function never breaks the run.
    """
    patches = []
    absent = []
    try:
        for hook in hooks:
            found = _resolve(hook, modules)
            if found is None:
                absent.append(f"{hook.module}.{hook.attr}")
                continue
            owner, last, original = found
            make = _span_wrapper if hook.span else _count_wrapper
            wrapper = make(tracer, hook.name, original)
            if "." in hook.attr:
                sites = [(owner, last)]
            else:
                sites = [(mod, attr) for mod in modules.values()
                         for attr, value in list(vars(mod).items()) if value is original]
            for site, attr in sites:
                patches.append((site, attr, original))
                setattr(site, attr, wrapper)
        yield absent
    finally:
        for site, attr, original in reversed(patches):
            setattr(site, attr, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [(s.end - s.start) - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


SELF_TIMES = (
    "dataio.read_features", "dataio.read_pairs", "dataio.read_relevance",
    "dataio.write_features", "dataio.save_checkpoint", "dataio.load_checkpoint",
    "synthetic.generate", "synthetic.synth_generate",
    "trainer.train", "trainer.adam_step", "trainer.make_batches", "trainer.log_write",
    "model.forward", "model.backward", "model.embed",
    "softlabels.build_batch_targets",
    "losses.batch_loss_and_grads",
    "mathops.kl_rows_raw", "mathops.row_softmax_with_log",
    "metrics.evaluate_cross_modal", "metrics.rank_by_similarity",
    "metrics.recall_at_k", "metrics.r_precision", "metrics.map_at_r",
)
CALL_COUNTS = ("mathops.kl_rows_raw", "mathops.row_softmax_with_log")
TALLIES = ("dataio.read_features.rows", "dataio.read_relevance.bytes",
           "synthetic.bytes_written", "softlabels.teacher_entries",
           "metrics.queries", "metrics.ranked_entries")


def _distinct_share(batches) -> float:
    """Distinct (i, j) index pairs over all batch x batch entries."""
    if not batches:
        return 0.0
    n = 1 + max(int(np.max(b)) for b in batches)
    seen = np.zeros((n, n), dtype=bool)
    computed = 0
    for b in batches:
        seen[np.ix_(b, b)] = True
        computed += len(b) * len(b)
    return int(seen.sum()) / computed


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced operation.

    Layers or functions that did not run read 0: a workload that never
    reaches a layer spends no time in it.
    """
    own = self_times(tracer.spans)
    self_s, calls, total_s = Counter(), Counter(), Counter()
    for span, t in zip(tracer.spans, own):
        self_s[span.name] += t
        calls[span.name] += 1
        total_s[span.name] += span.end - span.start

    out = {f"{layer}.self_s": float(sum(t for name, t in self_s.items()
                                        if name.startswith(layer + ".")))
           for layer in LAYERS}
    out.update({f"{name}.self_s": float(self_s[name]) for name in SELF_TIMES})
    out.update({f"{name}.calls": calls[name] for name in CALL_COUNTS})
    out.update({name: tracer.tally[name] for name in TALLIES})

    steps = len(tracer.batches)
    out["trainer.steps"] = steps
    out["trainer.step_us"] = 1e6 * total_s["trainer.train"] / steps if steps else 0.0
    in_forward = tracer.calls[("model.projection", "model.forward")]
    in_backward = tracer.calls[("model.projection", "model.backward")]
    run = in_forward + in_backward
    out["model.forward_useful_ratio"] = in_forward / run if run else 0.0
    out["softlabels.teacher_useful_ratio"] = _distinct_share(tracer.batches)
    return out
