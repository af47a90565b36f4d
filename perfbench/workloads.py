"""The four workloads: which instance files each one writes and which CLI calls make one pass.

Every instance is generated from the workload seed through the program's own
``gen`` subcommand, so the program only ever sees instance files.  A pass is
the fixed list of calls that the timed loop repeats: ``partition`` then
``verify`` for every job, and for ``suite-small`` one ``bench --jobs 2`` call
per suite run before its jobs.  All calls run in-process through
``simulcut.cli.main``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
BENCH_JOBS = 2


@dataclass(frozen=True)
class Instance:
    name: str
    gen: tuple[str, ...]          # arguments of `simulcut gen`, without --seed/--out


@dataclass(frozen=True)
class Job:
    instance: str
    options: tuple[str, ...]      # arguments of `simulcut partition` after the file
    mc: bool = False              # takes the workload seed as --seed


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    instances: tuple[Instance, ...]
    jobs: tuple[Job, ...]
    suite: str | None = None      # suite template next to this file, run by `bench`


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mc-io",
        instances=(
            Instance("gnm", ("gnm", "--n", "5000", "--m", "2000", "--ell", "16")),
            Instance("hyp", ("runiform", "--n", "3000", "--m", "8000", "--r", "3", "--ell", "2")),
        ),
        jobs=(
            Job("gnm", ("--method", "mc", "--theorem", "1"), mc=True),
            Job("gnm", ("--method", "mc", "--theorem", "2", "--k", "4"), mc=True),
            Job("hyp", ("--method", "mc", "--theorem", "hyp"), mc=True),
        ),
    ),
    Workload(
        name="derand-graph",
        instances=(
            Instance("gnm", ("gnm", "--n", "1000", "--m", "4000", "--ell", "4")),
            Instance("bd", ("bounded-degree", "--n", "1500", "--degree", "2", "--ell", "1")),
        ),
        jobs=(
            Job("gnm", ("--method", "derand", "--theorem", "1")),
            Job("gnm", ("--method", "derand", "--theorem", "2", "--k", "4")),
            Job("bd", ("--method", "derand", "--theorem", "3", "--k", "3")),
        ),
    ),
    Workload(
        name="derand-hyp",
        instances=(
            Instance("sparse", ("runiform", "--n", "70", "--m", "200", "--r", "3", "--ell", "2")),
            Instance("dense", ("runiform", "--n", "22", "--m", "110", "--r", "3", "--ell", "2")),
        ),
        jobs=(
            Job("sparse", ("--method", "derand", "--theorem", "hyp")),
            Job("dense", ("--method", "derand", "--theorem", "hyp")),
            Job("dense", ("--method", "derand", "--theorem", "hyp", "--order", "degree")),
        ),
    ),
    Workload(
        name="suite-small",
        instances=(),
        jobs=(),
        suite="suite_small.json",
    ),
)}

# suite-small also times single CLI calls on the rep-0 instances of these suite runs
SUITE_JOB_RUNS = ("hyp-mc", "thm2-mc-balanced", "thm1-derand")


# On a shared 2-core virtual machine the CPU speed drifts by up to +-30% within
# seconds (a fixed pure-Python loop takes 80 to 140 ms), so durations are scaled
# to a reference speed: the time of a fixed parse-like loop, taken around each
# call, against CAL_REF_S.
CAL_REF_S = 0.0035
CAL_REPEATS = 3
_CAL_TEXT = "\n".join(f"{i % 997} {i * 7 % 991}" for i in range(5000))


def calibrate() -> float:
    """Seconds that a fixed parse-like pure-Python loop takes now: the fastest of
    CAL_REPEATS runs, since a preemption only ever slows a run down."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        seen, edges = set(), []
        for line in _CAL_TEXT.splitlines():
            a, b = line.split()
            edge = (int(a), int(b))
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        edges.sort()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedScale:
    """Factor that turns a duration into one at the reference speed.  Each call
    to next() covers the interval since the previous call, calibrating at both ends."""

    def __init__(self):
        self.last = self.first = calibrate()
        self.samples = [self.first]

    def next(self) -> float:
        now = calibrate()
        self.samples.append(now)
        scale = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        return scale

    def ratio(self) -> float:
        """Median calibration time over the reference time: above 1, a slow host."""
        return statistics.median(self.samples) / CAL_REF_S


def call(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns (exit code, seconds, captured stdout)."""
    from simulcut import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()        # every call starts from the same collector state
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass, with the (report, instance) files whose reports it checks."""

    kind: str                     # partition | verify | bench
    argv: tuple[str, ...]
    outputs: tuple[tuple[Path, Path], ...]


@dataclass
class Op:
    """One call as it ran: exit code, seconds, factor to the reference speed, stdout."""

    call: Call
    code: int
    seconds: float
    scale: float
    stdout: str


@dataclass
class Plan:
    """A workload bound to a seed and a work directory: the concrete files and calls."""

    workload: Workload
    seed: int
    work: Path
    gen_calls: list[list[str]] = field(default_factory=list)
    suites: dict[Path, str] = field(default_factory=dict)     # suite files to write
    calls: list[Call] = field(default_factory=list)            # one pass, in order


def plan(workload: Workload, seed: int, work: Path, here: Path) -> Plan:
    p = Plan(workload, seed, work)
    inst_dir, rep_dir = work / "instances", work / "reports"
    paths = {}
    for i, inst in enumerate(workload.instances):
        path = inst_dir / f"{inst.name}.instance"
        paths[inst.name] = path
        p.gen_calls.append(["gen", *inst.gen, "--seed", str(seed * 1000 + i), "--out", str(path)])
    jobs = []
    for j, job in enumerate(workload.jobs):
        seed_args = ["--seed", str(seed)] if job.mc else []
        jobs.append((paths[job.instance], [*job.options, *seed_args], rep_dir / f"job{j}.report"))
    if workload.suite:
        # one suite file and one bench call per suite run, so that each call is
        # short enough for the calibration on its two sides to track the host
        suite = json.loads((here / workload.suite).read_text(encoding="utf-8"))
        for i, run in enumerate(suite["runs"]):
            run["seed"] = seed * 1000 + 100 * i
            gen = dict(run["generator"])
            kind = gen.pop("kind")
            flags = [a for key, val in gen.items() for a in (f"--{key}", str(val))]
            outputs = []
            for rep in range(run["reps"]):
                path = inst_dir / f"{run['name']}-{rep}.instance"
                p.gen_calls.append(["gen", kind, *flags, "--seed", str(run["seed"] + rep),
                                    "--out", str(path)])
                outputs.append((rep_dir / "bench" / f"{run['name']}-{rep}.report", path))
            suite_path = work / f"suite-{run['name']}.json"
            p.suites[suite_path] = json.dumps({"runs": [run]}, indent=1)
            p.calls.append(Call("bench", ("bench", str(suite_path), "--jobs", str(BENCH_JOBS),
                                          "--out-dir", str(rep_dir / "bench")), tuple(outputs)))
            if run["name"] in SUITE_JOB_RUNS:
                jobs.append((inst_dir / f"{run['name']}-0.instance", _run_flags(run),
                             rep_dir / f"{run['name']}-0.report"))
    for instance, options, report in jobs:
        files = ((report, instance),)
        p.calls.append(Call("partition", ("partition", str(instance), *options,
                                          "--out", str(report)), files))
        p.calls.append(Call("verify", ("verify", str(report), "--instance", str(instance)), files))
    return p


def _run_flags(run: dict) -> list[str]:
    """`partition` flags equivalent to rep 0 of a suite run."""
    flags = ["--method", run["method"], "--theorem", run["theorem"].removeprefix("thm"),
             "--seed", str(run["seed"])]
    if run.get("k") is not None:
        flags += ["--k", str(run["k"])]
    if run.get("balanced"):
        flags.append("--balanced")
    return flags


def write_inputs(p: Plan, speed: SpeedScale | None = None) -> float:
    """Generate and write every instance file and suite file of a plan; returns the
    time of the `gen` calls, at the reference speed when `speed` is given."""
    (p.work / "instances").mkdir(parents=True, exist_ok=True)
    (p.work / "reports").mkdir(parents=True, exist_ok=True)
    for path, text in p.suites.items():
        path.write_text(text, encoding="utf-8")
    if speed is not None:
        speed.next()
    total = 0.0
    for argv in p.gen_calls:
        code, secs, _ = call(argv)
        if code != 0:
            raise RuntimeError(f"instance generation failed: simulcut {' '.join(argv)}")
        total += secs * (speed.next() if speed else 1.0)
    return total


def run_pass(p: Plan, speed: SpeedScale | None = None) -> list[Op]:
    """One pass of the workload: every call of the plan, in order.

    With `speed`, each call is calibrated on both sides and its Op carries the
    factor to the reference speed; without it (a traced pass) the factor is 1.
    """
    if speed is not None:
        speed.next()
    ops = []
    for c in p.calls:
        code, secs, out = call(list(c.argv))
        ops.append(Op(c, code, secs, speed.next() if speed else 1.0, out))
    return ops


def timed_edges(p: Plan) -> tuple[tuple[str, ...], int]:
    """The kinds of call that edges_per_s times (bench on a suite workload, else
    partition and verify) and the member edges they partition in one pass."""
    kinds = ("bench",) if p.workload.suite else ("partition", "verify")
    edges = sum(instance_edges(inst) for c in p.calls if c.kind == kinds[0]
                for _, inst in c.outputs)
    return kinds, edges


def instance_edges(path: Path) -> int:
    """Total member edges of an instance file, from its `edges <m>` block headers."""
    total = 0
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("edges "):
                total += int(line.split()[1])
    return total
