"""Per-layer tracing from outside the program.

The tracer replaces every module-level binding of each layer's public
functions inside the ``simulcut`` package with a wrapper that records a span
(name, parent span, start, end).  Functions imported by name into other
modules are found by identity, so each of their bindings is wrapped too; a
function that no longer exists is skipped and its span stays absent.  Span
stacks are kept per thread, and a span that opens on an empty stack in a
worker thread gets the innermost open span of the installing thread as its
parent (that thread is blocked in ``run_bench`` waiting for the pool).

Self time: the spans of a pass are swept once; every instant is shared
equally among the open spans that have no open child, in any thread.  Every
CLI call is one ``cli.main`` span, so the self times of a pass add up to the
time spent inside its calls, and whatever no deeper layer covers (argparse,
file I/O) is ``cli.main``'s own.  The benchmark's work between calls is in no
span and is not counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: layer module -> public functions traced in it
LAYERS = {
    "cli": ("main",),
    "instances": ("parse_instance", "serialize_instance", "generate"),
    "model": ("partition_counts", "rainbow_count"),
    "estimator": ("specs_for",),
    "derandomize": ("derandomize",),
    "mc": ("mc_partition", "check_report", "random_assignment"),
    "report": ("instance_digest", "render_report", "parse_report", "recheck"),
    "bench": ("execute_run", "run_bench"),
}
#: family classes whose validating __post_init__ is traced as model.family_init
FAMILY_CLASSES = ("GraphFamily", "HypergraphFamily")
FAMILY_SPAN = "model.family_init"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + (FAMILY_SPAN,)


def _unclocked_len(report_text: str) -> int:
    """Length of a rendered report without its `wall-ms` clock line, which varies run to run."""
    return sum(len(ln) + 1 for ln in report_text.splitlines() if not ln.startswith("wall-ms "))


#: span name -> hook(args, result) giving (counter, amount) pairs, from public outputs only
_HOOKS = {
    "instances.parse_instance": lambda a, res: [("instances.parse_instance.bytes", len(a[0]))],
    "report.render_report": lambda a, res: [("report.render_report.bytes", _unclocked_len(res))],
    "estimator.specs_for": lambda a, res: [("estimator.specs.count", len(res))],
    "derandomize.derandomize": lambda a, res: [
        ("derandomize.term_evals", a[0].n * res.assignment.k * len(a[1]))],
    "mc.mc_partition": lambda a, res: [("mc.tries", res.tries_used), ("mc.runs", 1)],
}


class Tracer:
    """Install with ``with Tracer() as t:``; spans and counters accumulate until reset()."""

    def __init__(self):
        self.spans: list[list] = []       # [name, parent span or None, start_ns, end_ns, depth]
        self.counts: list[tuple[str, int]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = [name, parent, time.perf_counter_ns(), 0, parent[4] + 1 if parent else 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                tracer.counts.extend(hook(args, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self._main_stack = self._stack()
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"simulcut.{layer}")
            except ModuleNotFoundError:     # a layer merged away: its spans stay absent
                continue
        package = [mod for name, mod in list(sys.modules.items())
                   if name == "simulcut" or name.startswith("simulcut.")]
        for layer, module in modules.items():
            for fn_name in LAYERS[layer]:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                name = f"{layer}.{fn_name}"
                traced = self._wrap(name, original, _HOOKS.get(name))
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, traced)
        model = importlib.import_module("simulcut.model")
        for cls_name in FAMILY_CLASSES:
            cls = getattr(model, cls_name, None)
            original = cls.__dict__.get("__post_init__") if cls is not None else None
            if original is not None:
                self._patch(cls, "__post_init__", self._wrap(FAMILY_SPAN, original, None))
        return self

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def self_times(spans) -> tuple[dict, dict, dict]:
    """(self seconds, inclusive seconds, calls) per span name.

    Every instant is split equally among the open spans with no open child;
    instants that no span covers are not counted.
    """
    events = []
    for span in spans:
        events.append((span[2], 1, span[4], id(span), span))
        events.append((span[3], 0, -span[4], id(span), span))
    events.sort(key=lambda ev: ev[:4])   # ends before starts; parents open first, close last
    busy = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    open_children: dict[int, int] = {}
    leaves: dict[int, list] = {}
    prev = None
    for t, is_start, _, key, span in events:
        if leaves and t > prev:
            share = (t - prev) / len(leaves) / 1e9
            for leaf in leaves.values():
                busy[leaf[0]] += share
        prev = t
        parent = span[1]
        pkey = id(parent) if parent is not None and id(parent) in open_children else None
        if is_start:
            open_children[key] = 0
            leaves[key] = span
            if pkey is not None:
                open_children[pkey] += 1
                leaves.pop(pkey, None)
        else:
            del open_children[key]
            leaves.pop(key, None)
            calls[span[0]] += 1
            inclusive[span[0]] += (span[3] - span[2]) / 1e9
            if pkey is not None:
                open_children[pkey] -= 1
                if open_children[pkey] == 0:
                    leaves[pkey] = parent
    return busy, inclusive, calls


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """(timings, counters) of one traced pass; counters do not depend on the clock."""
    busy, inclusive, calls = self_times(tracer.spans)
    counts = defaultdict(int)
    for key, amount in tracer.counts:
        counts[key] += amount
    counters = {f"{name}.calls": calls.get(name, 0) for name in SPAN_NAMES}
    for key in ("instances.parse_instance.bytes", "report.render_report.bytes",
                "estimator.specs.count", "derandomize.term_evals", "mc.tries"):
        counters[key] = counts[key]
    counters["mc.accept_ratio"] = counts["mc.runs"] / counts["mc.tries"] if counts["mc.tries"] else 0.0
    timings = {f"{name}.busy_s": busy.get(name, 0.0) for name in SPAN_NAMES}
    parse_s = inclusive.get("instances.parse_instance", 0.0)
    timings["instances.parse_instance.mb_per_s"] = (
        counters["instances.parse_instance.bytes"] / 1e6 / parse_s if parse_s else 0.0)
    evals = counters["derandomize.term_evals"]
    timings["derandomize.us_per_term_eval"] = (
        timings["derandomize.derandomize.busy_s"] * 1e6 / evals if evals else 0.0)
    timings["trace.pass_s"] = sum(busy.values())
    return timings, counters
