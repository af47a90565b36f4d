"""Single-run driver and the benchmark suite harness.

A suite is a JSON file: {"runs": [{...}, ...]} where each entry gives a
generator, a method, a guarantee, and a repetition count:

    {
      "name": "thm1-gnm40",
      "reps": 100,
      "generator": {"kind": "gnm", "n": 40, "m": 200, "ell": 2},
      "method": "derand",            // or "mc"
      "theorem": "thm1",             // thm1 | thm2 | thm3 | hyp
      "k": 2,                        // optional
      "epsilon": null,               // optional (thm3)
      "balanced": false,             // optional (mc only)
      "slack": null,                 // optional balance slack
      "order": "natural",            // optional (derand)
      "max_tries": 64,               // optional (mc)
      "seed": 1000                   // rep j uses seed + j
    }

The file holds no other top-level field.  The entry's option fields are
passed to `RunOptions` by name, so an omitted one takes `RunOptions`'
default.  Every field's name and JSON type, the generator's parameters
(`check_generator`), every setting that `RunOptions` refuses, as it
refuses flags and report lines, and every one that the generator's member
count and uniformity rule out (`settle`: k under thm1 and hyp, thm3's
epsilon) are checked before any run starts.
A run's name, "run<i>" by default, names its reports in the output
directory, so it must be a file name that no earlier run has.
Rep j generates its instance with seed+j and, for mc, samples with the
same seed+j, so a suite is a pure function of its file.  `execute_run`
resolves the guarantee once per run and reports what the engine's own
`evaluate` returned, so each assignment is counted once.
Reps run serially and are folded in (run, rep) order.  A rep whose
report fails, an mc run's best attempt, counts as mc exhausted: a descent
that would end below a threshold raises inside `derandomize` instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .derandomize import derandomize
from .guarantee import settle
from .mc import mc_partition
from .instances import check_generator, generate, write_text
from .report import RunOptions, RunReport, instance_digest, render_report


def execute_run(family, opts: RunOptions) -> RunReport:
    """Run one method on one instance and report the `Assignment` and count
    section its engine returns; a descent's result goes on ``descent``, unrendered."""
    guarantee, resolved = opts.resolve(family)
    start = time.perf_counter()
    if opts.method == "mc":
        result = mc_partition(family, guarantee, seed=opts.seed)
        engine = dict(tries=result.tries_used)
    else:
        result = derandomize(family, guarantee, order=opts.order)
        engine = dict(initial_estimator=result.initial_value,
                      final_estimator=result.final_value, descent=result)
    wall_ms = (time.perf_counter() - start) * 1000
    return RunReport(digest=instance_digest(family), r=getattr(family, "r", None),
                     options=resolved, assignment=result.assignment, cut_report=result.report,
                     wall_ms=wall_ms, **engine)


@dataclass
class SuiteRun:
    name: str
    reps: int
    generator: dict
    options: RunOptions


# field -> (check, what it must be); JSON booleans are not integers here,
# and RunOptions checks the values of its own fields
_FIELD_TYPES = {
    "reps": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "max_tries": (lambda v: type(v) is int, "an integer"),
    "k": (lambda v: v is None or type(v) is int, "an integer or null"),
    "epsilon": (lambda v: v is None or type(v) in (int, float), "a number or null"),
    "slack": (lambda v: v is None or type(v) in (int, float), "a number or null"),
    "balanced": (lambda v: type(v) is bool, "true or false"),
}


def load_suite(path) -> list[SuiteRun]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or not isinstance(data.get("runs", []), list):
        raise ValueError('a suite must be a JSON object with a "runs" list')
    for key in data:
        if key != "runs":
            raise ValueError(f"suite: unknown field {key!r}")
    runs, names = [], {}
    known = {"name", "reps", "generator", *(f.name for f in fields(RunOptions))}
    for i, entry in enumerate(data.get("runs", [])):
        if not isinstance(entry, dict):
            raise ValueError(f"suite run {i}: not a JSON object")
        if "generator" not in entry:
            raise ValueError(f"suite run {i}: missing field 'generator'")
        gen = entry["generator"]
        if not isinstance(gen, dict) or "kind" not in gen:
            raise ValueError(f'suite run {i}: "generator" must be a JSON object with a "kind"')
        for key in entry:
            if key not in known:
                raise ValueError(f"suite run {i}: unknown field {key!r}")
        for key in gen:
            if key not in ("kind", "n", "m", "ell", "r", "degree"):
                raise ValueError(f"suite run {i}: unknown generator parameter {key!r}")
        for name, (ok, what) in _FIELD_TYPES.items():
            if name in entry and not ok(entry[name]):
                raise ValueError(f"suite run {i}: field {name!r} must be {what}, "
                                 f"got {entry[name]!r}")
        options = {}
        for f in fields(RunOptions):
            if f.name in entry:
                options[f.name] = entry[f.name]
            elif f.default is MISSING:
                raise ValueError(f"suite run {i}: missing field {f.name!r}")
        options["theorem"] = str(options["theorem"])
        # the run's reports are <name>-<rep>.report in --out-dir
        name = entry.get("name", f"run{i}")
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            raise ValueError(f"suite run {i}: field 'name' must be a file name, got {name!r}")
        if name in names:
            raise ValueError(f"suite run {i}: name {name!r} repeats the name of run {names[name]}")
        names[name] = i
        try:
            members, r = check_generator(**gen)
            opts = RunOptions(**options)
            settle(opts.theorem, opts.k, opts.epsilon, ell=members, r=r)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"suite run {i}: {exc}") from None
        runs.append(SuiteRun(name, entry.get("reps", 1), dict(gen), opts))
    if not runs:
        raise ValueError("suite has no runs")
    return runs


@dataclass
class StatAggregate:
    constraints: int = 0
    failures: int = 0
    min_margin: float | None = None
    sum_margin: float = 0.0

    def add(self, margin: float, passed: bool):
        self.constraints += 1
        if not passed:
            self.failures += 1
        self.sum_margin += margin
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin


@dataclass
class BenchResult:
    stats: dict = field(default_factory=dict)      # (name, stat) -> StatAggregate
    timings: dict = field(default_factory=dict)    # name -> [wall_ms]
    tries: dict = field(default_factory=dict)      # name -> [tries]
    exhausted: int = 0
    runs: int = 0

    def render(self) -> str:
        lines = []
        header = f"{'run':<24}{'stat':<14}{'rows':>6}{'fail':>6}{'min-margin':>14}{'mean-margin':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for (name, stat), agg in sorted(self.stats.items()):
            mean = agg.sum_margin / agg.constraints if agg.constraints else 0.0
            lines.append(f"{name:<24}{stat:<14}{agg.constraints:>6}{agg.failures:>6}"
                         f"{agg.min_margin:>14.4f}{mean:>14.4f}")
        lines.append("")
        header = f"{'run':<24}{'reps':>6}{'p50-ms':>10}{'p90-ms':>10}{'max-ms':>10}  tries(p50/max)"
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(self.timings):
            walls = sorted(self.timings[name])
            p50 = _percentile(walls, 0.50)
            p90 = _percentile(walls, 0.90)
            tr = sorted(self.tries.get(name, []))
            tries_txt = f"{_percentile(tr, 0.5):.0f}/{tr[-1]}" if tr else "-"
            lines.append(f"{name:<24}{len(walls):>6}{p50:>10.2f}{p90:>10.2f}"
                         f"{walls[-1]:>10.2f}  {tries_txt}")
        lines.append("")
        failures = sum(agg.failures for agg in self.stats.values())
        lines.append(f"total runs {self.runs}, failed constraint rows {failures}, "
                     f"mc exhausted {self.exhausted}")
        return "\n".join(lines)


def _percentile(sorted_vals, q: float) -> float:
    idx = min(len(sorted_vals) - 1, int(round(q * (len(sorted_vals) - 1))))
    return float(sorted_vals[idx])


def run_bench(suite, out_dir=None, echo=None) -> BenchResult:
    """Execute a suite serially and aggregate margins, failures, and timings;
    rep results are folded in (run, rep) order."""
    result = BenchResult()
    out_path = Path(out_dir) if out_dir else None
    if out_path:
        out_path.mkdir(parents=True, exist_ok=True)

    for run in suite:
        for rep in range(run.reps):
            seed = run.options.seed + rep
            rr = execute_run(generate(**run.generator, seed=seed), replace(run.options, seed=seed))
            result.runs += 1
            if out_path:
                write_text(out_path / f"{run.name}-{rep}.report", render_report(rr))
            if not rr.passed:       # only an mc run returns a failing report
                result.exhausted += 1
            for c in rr.cut_report.constraints:
                key = (run.name, c.stat.split("(")[0])   # rows group by shape, not by class
                agg = result.stats.setdefault(key, StatAggregate())
                agg.add(c.margin, c.passed)
            result.timings.setdefault(run.name, []).append(rr.wall_ms)
            if rr.tries is not None:
                result.tries.setdefault(run.name, []).append(rr.tries)
            if echo:
                echo(f"{run.name} rep {rep}: "
                     f"{'pass' if rr.passed else 'FAIL'} ({rr.wall_ms:.1f} ms)")
    return result
