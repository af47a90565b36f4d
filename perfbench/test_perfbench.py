"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def traced_pass(p: workloads.Plan):
    tracer = layertrace.Tracer()
    with tracer:
        ops = workloads.run_pass(p)
    return ops, layertrace.layer_metrics(tracer), sum(op.seconds for op in ops)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_traced_runs_on_one_seed_give_identical_counters(name, tmp_path):
    counters = []
    for attempt in range(2):
        p = workloads.plan(workloads.WORKLOADS[name], 3, tmp_path / str(attempt), HERE)
        workloads.write_inputs(p)
        ops, (timings, counts), wall = traced_pass(p)
        assert all(op.code == 0 for op in ops)
        counters.append(counts)
        busy = sum(timings[f"{s}.busy_s"] for s in layertrace.SPAN_NAMES)
        assert busy == pytest.approx(timings["trace.pass_s"])
        assert busy == pytest.approx(wall, rel=0.02)      # the calls' own time, span by span
        assert min(timings.values()) >= 0
    assert counters[0] == counters[1]
    assert counters[0]["cli.main.calls"] == len(ops)


def test_every_report_of_a_pass_passes_the_independent_check(tmp_path):
    p = workloads.plan(workloads.WORKLOADS["suite-small"], 4, tmp_path, HERE)
    workloads.write_inputs(p)
    out = run.Outputs()
    out.account(workloads.run_pass(p))
    assert out.problems == [] and out.failed == 0
    reports = {r for c in p.calls for r, _ in c.outputs}
    reps = sum(len(c.outputs) for c in p.calls if c.kind == "bench")
    singles = sum(c.kind != "bench" for c in p.calls)
    assert out.attempted == reps + singles
    assert set(out.reference) == reports and len(reports) == reps + singles // 2


def _one_report(tmp_path, theorem_args):
    inst, rep = tmp_path / "g.instance", tmp_path / "g.report"
    workloads.call(["gen", "gnm", "--n", "40", "--m", "120", "--ell", "2", "--seed", "5",
                    "--out", str(inst)])
    code, _, _ = workloads.call(["partition", str(inst), *theorem_args, "--out", str(rep)])
    assert code == 0
    return rep.read_text(), inst.read_text()


@pytest.mark.parametrize("args", [("--theorem", "1"), ("--theorem", "2", "--k", "3"),
                                  ("--theorem", "2", "--k", "3", "--method", "mc", "--balanced")])
def test_checker_rejects_corrupted_reports(tmp_path, args):
    report, instance = _one_report(tmp_path, args)
    problems, fracs = check.check_report(report, instance)
    assert problems == [] and len(fracs) == 2

    lines = report.splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("assignment "))
    labels = lines[at].split()
    labels[1] = "1" if labels[1] == "0" else "0"
    flipped = lines[:at] + [" ".join(labels) + "\n"] + lines[at + 1:]
    assert check.check_report("".join(flipped), instance)[0]

    row = next(i for i, ln in enumerate(lines) if ln.startswith("constraint graph=0"))
    bumped = lines[row].replace("count=", "count=1", 1)
    assert check.check_report("".join(lines[:row] + [bumped] + lines[row + 1:]), instance)[0]

    assert check.check_report(report.replace("result pass", "result fail"), instance)[0]
    assert check.check_report(report, instance.replace("\n", "\n\n", 1) + "# x\n")[0]


def test_tail_keeps_ten_samples_above_it():
    value, pct = run.tail([float(x) for x in range(100)])
    assert value == 89.0 and pct == 90.0


def test_a_removed_binding_gives_an_absent_span(monkeypatch, tmp_path):
    monkeypatch.setitem(layertrace.LAYERS, "report", ("no_such_function", "render_report"))
    tracer = layertrace.Tracer()
    with tracer:
        workloads.call(["gen", "star", "--n", "6", "--out", str(tmp_path / "s.instance")])
        workloads.call(["partition", str(tmp_path / "s.instance"), "--theorem", "1"])
    names = {span[0] for span in tracer.spans}
    assert "report.render_report" in names
    assert not any("no_such_function" in n for n in names)
