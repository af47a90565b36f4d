"""Closed-loop benchmark of the simulcut CLI, end to end and per layer.

One caller in one process drives ``simulcut.cli.main(argv)`` in-process on
instance files generated from the workload seed, one call after the other.

    python3 perfbench/run.py --workload mc-io --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names and units come from
BENCHMARK.json at the repository root.  See README.md next to this file.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
MIN_TRACED_PASSES = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"workload seed (default {workloads.DEFAULT_SEED}; "
                         f"held-out seed {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def normalized(text: str) -> str:
    """Report text without its engine-only `wall-ms` clock line."""
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("wall-ms "))


class Outputs:
    """Checks every output of the loop: the first occurrence of each report fully
    and independently, every later one for byte equality with it."""

    def __init__(self):
        self.reference: dict[Path, tuple[str, bool]] = {}
        self.fracs: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def report_ok(self, report: Path, instance: Path) -> bool:
        text = normalized(report.read_text(encoding="utf-8"))
        if report not in self.reference:
            problems, fracs = check.check_report(text, instance.read_text(encoding="utf-8"))
            self.problems += [f"{report.name}: {p}" for p in problems]
            self.fracs += fracs
            self.reference[report] = (text, not problems)
        ref_text, ref_ok = self.reference[report]
        return ref_ok and text == ref_text

    def account(self, ops: list[workloads.Op]) -> None:
        for op in ops:
            kind, outputs = op.call.kind, op.call.outputs
            if kind == "bench":
                reps = len(outputs)
                self.attempted += reps
                want = f"total runs {reps}, failed constraint rows 0, mc exhausted 0"
                if op.code != 0 or not op.stdout.rstrip().endswith(want):
                    self.failed += reps
                    self.problems.append(f"{' '.join(op.call.argv[:2])} exited {op.code}: "
                                         f"{op.stdout[-200:]!r}")
                else:
                    self.failed += sum(not self.report_ok(r, i) for r, i in outputs)
                continue
            self.attempted += 1
            if kind == "partition":
                ok = op.code == 0 and self.report_ok(*outputs[0])
            else:
                ok = op.code == 0 and op.stdout.startswith("report verified")
            if not ok:
                self.failed += 1
                self.problems.append(f"{kind} {outputs[0][0].name} exited {op.code}")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((SRC / "simulcut").rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, traced: bool, import_s: float) -> dict:
    wl = workloads.WORKLOADS[name]
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    out = Outputs()
    speed = workloads.SpeedScale()
    setups = []
    part_ms, verify_ms, rates = [], [], []
    pass_s = {False: [], True: []}      # calls' time per pass, untraced and traced
    layer_runs = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            p = workloads.plan(wl, seed, work, HERE)
            gen_s = workloads.write_inputs(p, speed)
            warm = workloads.run_pass(p, speed)
            setups.append(gen_s + sum(op.seconds * op.scale for op in warm))
            out.account(warm)
        setup_s = import_s * workloads.CAL_REF_S / speed.first + statistics.median(setups)

        timed_kinds, edges = workloads.timed_edges(p)
        tracer = layertrace.Tracer()
        deadline = time.perf_counter() + seconds
        while True:
            if traced and len(pass_s[False]) > len(pass_s[True]):
                tracer.reset()
                speed.next()
                with tracer:
                    ops = workloads.run_pass(p)
                scale = speed.next()
                pass_s[True].append(sum(op.seconds for op in ops) * scale)
                timings, counters = layertrace.layer_metrics(tracer)
                layer_runs.append(({key: val / scale if key.endswith("_per_s") else val * scale
                                    for key, val in timings.items()}, counters))
            else:
                ops = workloads.run_pass(p, speed)
                pass_s[False].append(sum(op.seconds * op.scale for op in ops))
                part_ms += [op.seconds * op.scale * 1e3 for op in ops if op.call.kind == "partition"]
                verify_ms += [op.seconds * op.scale * 1e3 for op in ops if op.call.kind == "verify"]
                rates.append(edges / sum(op.seconds * op.scale for op in ops
                                         if op.call.kind in timed_kinds))
            out.account(ops)
            if time.perf_counter() >= deadline and (
                    not traced or len(pass_s[True]) >= MIN_TRACED_PASSES):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):      # still in use by another run
            (HERE / "_work").rmdir()

    speed_note = (f"scaled to reference speed; the calibration loop took "
                  f"{speed.ratio():.3f}x its reference time (median)")
    if traced:
        counters = layer_runs[0][1]
        if any(run[1] != counters for run in layer_runs[1:]):
            out.problems.append("work counters differ between traced passes of one seed")
        result = {key: statistics.median(run[0][key] for run in layer_runs)
                  for key in layer_runs[0][0]}
        result.update(counters)
        result["trace.overhead_frac"] = (statistics.median(pass_s[True])
                                         / statistics.median(pass_s[False]) - 1)
        result["code.src_lines"] = src_lines()
        notes = {"trace.overhead_frac": f"{len(pass_s[True])} traced vs "
                                        f"{len(pass_s[False])} untraced passes",
                 "trace.pass_s": speed_note}
        return {"values": result, "notes": notes, "outputs": out}

    tail_ms, tail_pct = tail(part_ms)
    result = {
        "edges_per_s": statistics.median(rates),
        "partition_ms_p50": statistics.median(part_ms),
        "partition_ms_tail": tail_ms,
        "verify_ms_p50": statistics.median(verify_ms),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "margin_frac_mean": statistics.fmean(out.fracs),
    }
    notes = {
        "edges_per_s": f"median of {len(rates)} passes; {speed_note}",
        "partition_ms_p50": f"of {len(part_ms)} partition calls",
        "partition_ms_tail": f"p{tail_pct:.1f} of {len(part_ms)} partition calls",
        "verify_ms_p50": f"of {len(verify_ms)} verify calls",
        "setup_s": f"import + median of {SETUP_REPEATS} set-ups (gen and warm-up calls)",
    }
    return {"values": result, "notes": notes, "outputs": out}


def emit(name: str, traced: bool, run: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    out: Outputs = run["outputs"]
    values, notes = run["values"], run["notes"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {name}: {'per-layer' if traced else 'end-to-end'} metrics")
    for m in wanted:
        note = notes.get(m["name"])
        print(f"  {m['name']:<42} {values[m['name']]:>16.6g} {m['unit']:<8} "
              f"({m['better']} is better{'; ' + note if note else ''})")
    print(f"  {'failed_frac':<42} {out.failed / max(out.attempted, 1):>16.6g} ratio    "
          f"(lower is better; {out.failed} of {out.attempted} operations)")
    for problem in out.problems[:20]:
        print(f"  problem: {problem}")
    correct = out.failed == 0 and not out.problems
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simulcut" / "__init__.py").is_file():
        print(f"error: no simulcut sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import simulcut

    if Path(simulcut.__file__).resolve().parent != (SRC / "simulcut").resolve():
        print(f"error: imported simulcut from {simulcut.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    traced = bool(args.trace)
    run = run_workload(args.workload, args.seed, args.seconds, traced, import_s)
    return emit(args.workload, traced, run)


if __name__ == "__main__":
    sys.exit(main())
