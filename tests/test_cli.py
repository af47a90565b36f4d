"""Command-line driver: flows, report round-trips, exit codes."""

import argparse
import builtins
import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import simulcut
from simulcut.cli import main
from simulcut.instances import write_text
from simulcut.report import parse_report

@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.instance"
    assert main(["gen", "disjoint-cycles", "--n", "5", "--out", str(path)]) == 0
    return path


def test_gen_writes_instance(tmp_path, capsys):
    assert main(["gen", "gnm", "--n", "8", "--m", "10", "--ell", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graphs 2 vertices 8\n")


def test_gen_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a", tmp_path / "b"
    for p in (p1, p2):
        assert main(["gen", "gnm", "--n", "20", "--m", "50", "--seed", "7",
                     "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_bad_params_exit_2(capsys):
    assert main(["gen", "gnm", "--n", "5", "--m", "100"]) == 2
    assert "error:" in capsys.readouterr().err


def test_partition_derand_report(c5_file, tmp_path, capsys):
    report_path = tmp_path / "run.report"
    code = main(["partition", str(c5_file), "--theorem", "1",
                 "--method", "derand", "--out", str(report_path)])
    assert code == 0
    rr = parse_report(report_path.read_text())
    assert rr.options.method == "derand" and rr.options.theorem == "thm1"
    assert rr.passed
    assert all(c >= 1 for c in rr.cut_report.member_counts)
    assert rr.descent_steps == 5


def test_partition_mc_deterministic(c5_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        p = tmp_path / name
        assert main(["partition", str(c5_file), "--theorem", "1", "--method", "mc",
                     "--seed", "5", "--out", str(p)]) == 0
        # wall time necessarily differs between runs
        outs.append("\n".join(ln for ln in p.read_text().splitlines()
                              if not ln.startswith("wall-ms")))
    assert outs[0] == outs[1]


def test_partition_trace(c5_file, capsys):
    assert main(["partition", str(c5_file), "--theorem", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    steps = [ln for ln in out.splitlines() if ln.startswith("step ")]
    assert len(steps) == 5
    for line in steps:
        # step v=<vertex> class=<c> keys=<k0>,<k1>: the chosen class's key is 0
        _, vertex, chosen, keys = line.split()
        keys = [int(x) for x in keys.removeprefix("keys=").split(",")]
        assert vertex.startswith("v=") and len(keys) == 2 and min(keys) == 0
        assert keys[int(chosen.removeprefix("class="))] == 0


def test_partition_mc_exhaustion_exit_1(c5_file, tmp_path):
    # impossible balance demand forces exhaustion; report carries best attempt
    p = tmp_path / "fail.report"
    code = main(["partition", str(c5_file), "--theorem", "1", "--method", "mc",
                 "--balanced", "--slack", "1e-9", "--max-tries", "4",
                 "--seed", "1", "--out", str(p)])
    assert code == 1
    rr = parse_report(p.read_text())
    assert not rr.passed
    assert rr.tries == 4


def test_partition_contract_errors_exit_2(c5_file, capsys, tmp_path):
    # balanced only makes sense for mc
    assert main(["partition", str(c5_file), "--theorem", "1", "--balanced"]) == 2
    # epsilon out of range
    assert main(["partition", str(c5_file), "--theorem", "3", "--epsilon", "0.5"]) == 2
    # theorem 3 degree precondition on a star
    star = tmp_path / "star.instance"
    assert main(["gen", "star", "--n", "11", "--out", str(star)]) == 0
    assert main(["partition", str(star), "--theorem", "3"]) == 2
    err = capsys.readouterr().err
    assert "max degree" in err
    # hyp on a graph instance
    assert main(["partition", str(c5_file), "--theorem", "hyp"]) == 2


def test_epsilon_echoed_only_where_read(c5_file, tmp_path, capsys):
    # only thm3 reads epsilon, so a thm2 run's report carries no epsilon
    # line; a report that has one (as older ones do) reads back, and does
    # not verify, as its options resolve to no epsilon
    report = tmp_path / "run.report"
    assert main(["partition", str(c5_file), "--theorem", "2", "--epsilon", "0.1",
                 "--out", str(report)]) == 0
    text = report.read_text()
    assert "\nepsilon " not in text
    assert parse_report(text).options.epsilon is None
    older = tmp_path / "older.report"
    older.write_text(text.replace("\nk 2\n", "\nk 2\nepsilon 0.1\n"))
    assert parse_report(older.read_text()).options.epsilon == 0.1
    capsys.readouterr()
    assert main(["verify", str(older), "--instance", str(c5_file)]) == 2
    assert capsys.readouterr().err == ("mismatch: epsilon lines differ: report 'epsilon 0.1', "
                                       "recomputed none\n")


@pytest.mark.parametrize("argv", [
    ["partition", "C5", "--theorem", "1", "--method", "mc", "--seed", "-1"],
    ["gen", "gnm", "--n", "8", "--m", "10", "--seed", "-1"],
], ids=["partition-mc", "gen-gnm"])
def test_negative_seed_exit_2(c5_file, capsys, argv):
    argv = [str(c5_file) if arg == "C5" else arg for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_partition_hypergraph(tmp_path):
    inst = tmp_path / "h.instance"
    assert main(["gen", "runiform", "--n", "15", "--m", "25", "--r", "3",
                 "--seed", "2", "--out", str(inst)]) == 0
    rep = tmp_path / "h.report"
    assert main(["partition", str(inst), "--theorem", "hyp", "--out", str(rep)]) == 0
    rr = parse_report(rep.read_text())
    assert rr.kind == "hypergraphs" and rr.r == 3 and rr.options.k == 3
    assert rr.passed


def test_verify_round_trip(c5_file, tmp_path, capsys):
    rep = tmp_path / "v.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    assert main(["verify", str(rep), "--instance", str(c5_file)]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_detects_tamper(c5_file, tmp_path, capsys):
    rep = tmp_path / "v.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    tampered = [ln.replace("count=2", "count=3") if ln.startswith("constraint graph=0") else ln
                for ln in lines]
    assert tampered != lines
    bad = tmp_path / "bad.report"
    bad.write_text("\n".join(tampered) + "\n")
    assert main(["verify", str(bad), "--instance", str(c5_file)]) == 2
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("n 5", "n 999", "error: report line 'n 999' is not as written: want 'n 5'"),
    ("ell 2", "ell 7", "error: report line 'ell 7' is not as written: want 'ell 2'"),
    ("r 3", "r 4", "mismatch: r lines differ: report 'r 4', recomputed 'r 3'"),
    ("r 3", None, "error: report line 'kind hypergraphs' is not as written: want 'kind graphs'"),
    (None, "r 2", "error: report line 'kind graphs' is not as written: want 'kind hypergraphs'"),
], ids=["n 5-n 999", "ell 2-ell 7", "r 3-r 4", "r 3-None", "None-r 2"])
def test_verify_checks_n_ell_r_lines(c5_file, tmp_path, capsys, old, new, message):
    # the n, ell and kind lines are written for the assignment, the member
    # lines and the r line, and a report whose lines do not agree is refused
    # as not written that way; an r line that contradicts the instance is
    # one mismatch. The graph report has no r line, the hypergraph report one
    hyper = "r 3" in (old, new)
    inst = c5_file
    if hyper:
        inst = tmp_path / "h.instance"
        assert main(["gen", "runiform", "--n", "5", "--m", "4", "--r", "3", "--ell", "2",
                     "--out", str(inst)]) == 0
    rep = tmp_path / "v.report"
    assert main(["partition", str(inst), "--theorem", "hyp" if hyper else "1",
                 "--out", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    if old is None:
        lines.insert(lines.index("ell 2") + 1, new)
    else:
        lines[lines.index(old)] = new
    bad = tmp_path / "bad.report"
    bad.write_text("\n".join(ln for ln in lines if ln is not None) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == message + "\n"


REQUIRED_FIELDS = ("instance-sha256", "kind", "n", "ell", "method", "theorem", "k",
                   "assignment")
CONSTRAINT_KEYS = ("graph", "stat", "count", "threshold", "margin", "pass")


@pytest.mark.parametrize("dropped", REQUIRED_FIELDS + tuple(f"{k}=" for k in CONSTRAINT_KEYS))
def test_verify_missing_field_exit_2(c5_file, tmp_path, capsys, dropped):
    rep = tmp_path / "v.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    lines = rep.read_text().splitlines()
    if dropped.endswith("="):
        kept = [" ".join(tok for tok in ln.split() if not tok.startswith(dropped))
                for ln in lines]
    else:
        kept = [ln for ln in lines if ln.split(" ", 1)[0] != dropped]
    assert kept != lines
    bad = tmp_path / "bad.report"
    bad.write_text("\n".join(kept) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(c5_file)]) == 2
    err = capsys.readouterr().err
    if dropped.endswith("="):
        # constraint tokens are read by position: a row one token short is
        # refused naming its line
        assert err.startswith("error: report line 'constraint "), err
    elif dropped in ("kind", "n", "ell"):
        # read off the report's other lines, and so written there
        assert err.startswith("error: report line '") and f"want '{dropped} " in err, err
    else:
        assert err == f"error: report has no {dropped!r}\n"


BIG = 99999999999999999999     # a vertex index beyond int64
MOST = 2**63 - 1                # the largest vertex count a header may give


@pytest.mark.parametrize("text", [
    f"graphs 1 vertices {MOST}\nedges 2\n0 1\n0 {BIG}\n",
    f"graphs 1 vertices {MOST}\nedges 2\n0  1\n0 {BIG}  \n",     # not canonical
    f"hypergraphs 1 vertices {MOST} uniformity 3\nedges 2\n0 1 2\n0 1 {BIG}\n",
], ids=["graph", "graph-scanned", "hypergraph"])
def test_index_beyond_int64_names_its_line(c5_file, tmp_path, capsys, text):
    inst = tmp_path / "big.instance"
    inst.write_text(text)
    rep = tmp_path / "c5.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    for argv in (["partition", str(inst), "--theorem", "1"],
                 ["verify", str(rep), "--instance", str(inst)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ") and "Traceback" not in err, err


def test_verify_detects_wrong_instance(c5_file, tmp_path):
    rep = tmp_path / "v.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    other = tmp_path / "other.instance"
    assert main(["gen", "gnm", "--n", "5", "--m", "5", "--ell", "2",
                 "--out", str(other)]) == 0
    assert main(["verify", str(rep), "--instance", str(other)]) == 2


def test_verify_large_k_line_is_rejected_without_k_squared_work(tmp_path, capsys):
    # a thm2 report whose k line says 500: counting its assignment must not
    # touch all 500**2 label cells (that took 75 MB), only those edges land in
    inst, rep = tmp_path / "g.instance", tmp_path / "g.report"
    assert main(["gen", "gnm", "--n", "30", "--m", "100", "--ell", "2",
                 "--out", str(inst)]) == 0
    assert main(["partition", str(inst), "--theorem", "2", "--out", str(rep)]) == 0
    text = rep.read_text()
    assert "\nk 2\n" in text
    rep.write_text(text.replace("\nk 2\n", "\nk 500\n"))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["verify", str(rep), "--instance", str(inst)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    err = capsys.readouterr().err
    assert err == "mismatch: report has 2 class-size lines for k 500\n"


@pytest.mark.parametrize("text", [
    f"graphs 1 vertices {BIG}\nedges 0\n",
    f"graphs 1 vertices {MOST + 1}\nedges 0\n",
    f"# a comment\ngraphs 1  vertices {BIG}\nedges 0\n",      # not canonical: line 2
    f"hypergraphs 1 vertices {BIG} uniformity 3\nedges 0\n",
])
def test_header_vertex_count_beyond_int64_names_its_line(c5_file, tmp_path, capsys, text):
    # no run can hold such a vertex set: rejected at the header, before any
    # per-vertex list is built
    inst = tmp_path / "huge.instance"
    inst.write_text(text)
    line = 2 if text.startswith("#") else 1
    rep = tmp_path / "c5.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    for argv in (["partition", str(inst), "--theorem", "1", "--method", "derand"],
                 ["partition", str(inst), "--theorem", "1", "--method", "mc"],
                 ["verify", str(rep), "--instance", str(inst)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: n must be below 2**63, got "), err


@pytest.mark.parametrize("argv, message", [
    (["gnm", "--n", "5000000000", "--m", "1"], "vertex pairs, which must be below 2**63"),
    (["gnm", "--n", str(2**63), "--m", "1"], "n must be below 2**63"),
    (["runiform", "--n", str(2**64), "--m", "1", "--r", "3"], "n must be below 2**63"),
], ids=["gnm-pairs", "gnm-n", "runiform-n"])
def test_gen_vertex_count_beyond_int64_exit_2(capsys, argv, message):
    assert main(["gen", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_out_of_memory_exit_2(c5_file, capsys, monkeypatch):
    def exhausted(family, opts):
        raise MemoryError

    monkeypatch.setattr(simulcut.cli, "execute_run", exhausted)
    assert main(["partition", str(c5_file), "--theorem", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err, err


@pytest.mark.parametrize("method", ["mc", "derand"])
def test_vertex_count_past_the_address_space_is_out_of_memory(tmp_path, capsys, monkeypatch,
                                                              method):
    # n labels of 8 bytes overflow the address space: both engines refuse
    # before sizing any per-vertex storage, with the same message
    def per_vertex_work(*args):
        raise AssertionError("the descent ordered the vertices of a too-large instance")

    monkeypatch.setattr(sys.modules["simulcut.derandomize"], "resolve_order", per_vertex_work)
    inst = tmp_path / "most.instance"
    inst.write_text(f"graphs 1 vertices {MOST}\nedges 0\n")
    tracemalloc.start()
    try:
        assert main(["partition", str(inst), "--theorem", "1", "--method", method]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    err = capsys.readouterr().err
    assert err == "error: out of memory: the instance is too large for the memory available\n"


def test_class_count_past_the_address_space_is_out_of_memory(c5_file, capsys, monkeypatch):
    # k classes of 8 bytes overflow the address space: the descent refuses
    # before it orders the vertices or builds a term's per-class lists
    def per_vertex_work(*args):
        raise AssertionError("the descent ordered the vertices under a too-large k")

    monkeypatch.setattr(sys.modules["simulcut.derandomize"], "resolve_order", per_vertex_work)
    tracemalloc.start()
    try:
        assert main(["partition", str(c5_file), "--theorem", "2", "--k", str(2**62),
                     "--method", "derand", "--out", os.devnull]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    err = capsys.readouterr().err
    assert err == "error: out of memory: the instance is too large for the memory available\n"


@pytest.mark.parametrize("r", ["99999999999999999999", "3000000000", "4", "1"])
def test_uniformity_off_2_to_n_names_line_1(c5_file, tmp_path, capsys, r):
    inst = tmp_path / "wide.instance"
    inst.write_text(f"hypergraphs 1 vertices 3 uniformity {r}\nedges 0\n")
    rep = tmp_path / "c5.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(rep)]) == 0
    for argv in (["partition", str(inst), "--theorem", "hyp"],
                 ["verify", str(rep), "--instance", str(inst)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 1: uniformity must be in 2..n = 3, got {r}\n", err


@pytest.mark.parametrize("token", ["1_0", "+3"])
@pytest.mark.parametrize("text, line, what", [
    ("graphs {} vertices 12\nedges 1\n0 1\n", 1, "ell"),
    ("graphs 1 vertices {}\nedges 1\n0 1\n", 1, "n"),
    ("hypergraphs 1 vertices 12 uniformity {}\nedges 1\n0 1 2\n", 1, "r"),
    ("graphs 1 vertices 12\nedges {}\n0 1\n", 2, "edge count"),
    ("graphs 1 vertices 12\nedges 2\n0 1\n{} 2\n", 4, "vertex index"),
], ids=["ell", "n", "r", "edge-count", "vertex-index"])
def test_integers_are_a_sign_and_decimal_digits(tmp_path, capsys, token, text, line, what):
    # int() alone reads 1_0 as 10 and +3 as 3
    inst = tmp_path / "signed.instance"
    inst.write_text(text.format(token))
    theorem = "hyp" if text.startswith("hyper") else "1"
    assert main(["partition", str(inst), "--theorem", theorem]) == 2
    captured = capsys.readouterr()
    assert captured == ("", f"error: line {line}: {what} must be an integer, got {token!r}\n")


LONG = "9" * 5000    # more digits than int() converts by default


@pytest.mark.parametrize("text, line, what", [
    (f"graphs 1 vertices {LONG}\nedges 0\n", 1, "n"),
    (f"graphs 1 vertices 4\nedges {LONG}\n0 1\n", 2, "edge count"),
    (f"hypergraphs 1 vertices 4 uniformity {LONG}\nedges 0\n", 1, "r"),
    (f"# a comment\ngraphs 1 vertices {LONG}\nedges 0\n", 2, "n"),
    (f"# a comment\ngraphs 1 vertices 4\nedges {LONG}\n0 1\n", 3, "edge count"),
    (f"graphs 1 vertices 4\nedges 1\n0 {LONG}\n", 3, "vertex index"),
], ids=["header", "edges", "uniformity", "header-after-comment", "edges-after-comment",
        "vertex-index"])
def test_integers_have_at_most_20_digits(tmp_path, capsys, text, line, what):
    # the message names the line and quotes the first 40 characters of the token
    inst = tmp_path / "long.instance"
    inst.write_text(text)
    theorem = "hyp" if text.startswith("hyper") else "1"
    assert main(["partition", str(inst), "--theorem", theorem]) == 2
    captured = capsys.readouterr()
    assert captured == ("", f"error: line {line}: {what} must have at most 20 digits, got "
                            f"{'9' * 40!r}... (5000 characters)\n")


def test_verify_mc_balanced_report(c5_file, tmp_path):
    rep = tmp_path / "b.report"
    assert main(["partition", str(c5_file), "--theorem", "1", "--method", "mc",
                 "--balanced", "--seed", "2", "--out", str(rep)]) == 0
    assert main(["verify", str(rep), "--instance", str(c5_file)]) == 0


def test_oracle_maxcut(tmp_path, capsys):
    inst = tmp_path / "c5-single.instance"
    assert main(["gen", "gnm", "--n", "5", "--m", "5", "--seed", "1",
                 "--out", str(inst)]) == 0
    assert main(["oracle", str(inst), "--objective", "maxcut"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max-cut ")


def test_oracle_counterexample_feasibility(c5_file, capsys):
    code = main(["oracle", str(c5_file), "--objective", "simultaneous",
                 "--thresholds", "3,3"])
    assert code == 1
    assert "feasible no" in capsys.readouterr().out
    code = main(["oracle", str(c5_file), "--objective", "simultaneous",
                 "--thresholds", "2,2"])
    assert code == 0


@pytest.mark.parametrize("flag, value", [
    ("--thresholds", "nan,nan"), ("--thresholds", "1,,2"), ("--thresholds", "inf,1"),
    ("--thresholds", "1,2,"), ("--centers", "inf,1"), ("--centers", "1,nan"),
    ("--centers", ",1,2"),
])
def test_oracle_refuses_empty_or_non_finite_entries(c5_file, capsys, flag, value):
    code = main(["oracle", str(c5_file), "--objective", "simultaneous", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {flag} needs finite numbers, got {value!r}\n"


def test_oracle_edwards(c5_file, capsys):
    assert main(["oracle", str(c5_file), "--objective", "edwards"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok=yes") == 2


def test_oracle_size_guard(tmp_path, capsys):
    inst = tmp_path / "big.instance"
    assert main(["gen", "gnm", "--n", "40", "--m", "100", "--out", str(inst)]) == 0
    assert main(["oracle", str(inst), "--objective", "maxcut"]) == 2
    assert "limit" in capsys.readouterr().err


ORACLE_INSTANCES = {
    "one": ["gnm", "--n", "9", "--m", "16", "--ell", "1", "--seed", "4"],
    "two": ["gnm", "--n", "9", "--m", "14", "--ell", "2", "--seed", "7"],
}

# (instance, oracle flags): exit code and stdout
ORACLE_PINS = [
    (("one", "--objective maxcut"), 0, "max-cut 12\nassignment 0 1 1 0 0 0 1 0 1\n"),
    (("one", "--objective maxcut --k 3"), 0, "max-cut 15\nassignment 0 2 2 2 1 1 1 0 0\n"),
    (("one", "--objective simultaneous"), 0,
     "best-min-margin 4.0\nassignment 0 1 1 0 0 0 1 0 1\n"),
    (("two", "--objective simultaneous"), 0,
     "best-min-margin 2.0\nassignment 0 1 1 0 1 0 1 0 0\n"),
    (("two", "--objective simultaneous --k 3"), 0,
     "best-min-margin 5.0\nassignment 0 1 1 0 2 0 2 1 0\n"),
    (("two", "--objective simultaneous --centers 5,8.5"), 0,
     "best-min-margin 2.5\nassignment 0 1 1 0 1 0 0 1 0\n"),
    (("one", "--objective simultaneous --centers -1"), 0,
     "best-min-margin 13.0\nassignment 0 1 1 0 0 0 1 0 1\n"),
    (("two", "--objective simultaneous --thresholds 9,9"), 0,
     "feasible yes\nassignment 0 1 1 0 1 0 1 0 0\n"),
    (("two", "--objective simultaneous --thresholds 10,10"), 1, "feasible no\n"),
    (("two", "--objective simultaneous --thresholds 12,12 --k 3"), 0,
     "feasible yes\nassignment 0 1 1 0 2 0 2 1 0\n"),
    (("one", "--objective simultaneous --thresholds 12"), 0,
     "feasible yes\nassignment 0 1 1 0 0 0 1 0 1\n"),
    (("one", "--objective simultaneous --thresholds 13"), 1, "feasible no\n"),
    (("one", "--objective edwards"), 0,
     "edwards graph=0 maxcut=12 bound=9.294727086450068 ok=yes\n"),
    (("two", "--objective edwards"), 0,
     "edwards graph=0 maxcut=11 bound=8.203768226591832 ok=yes\n"
     "edwards graph=1 maxcut=11 bound=8.203768226591832 ok=yes\n"),
]


@pytest.mark.parametrize("case, code, out", ORACLE_PINS,
                         ids=["-".join(case).replace(" ", "") for case, *_ in ORACLE_PINS])
def test_oracle_output_pinned(tmp_path, capsys, case, code, out):
    name, flags = case
    inst = tmp_path / name
    assert main(["gen", *ORACLE_INSTANCES[name], "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(inst), *flags.split()]) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("flags, message", [
    ("--objective edwards --k 5", "edwards does not read --k"),
    ("--objective edwards --centers 1,1", "edwards does not read --centers"),
    ("--objective edwards --thresholds 3,3", "edwards does not read --thresholds"),
    ("--objective maxcut --centers 1", "maxcut does not read --centers"),
    ("--objective maxcut --thresholds 3", "maxcut does not read --thresholds"),
    ("--objective simultaneous --centers 100,100 --thresholds 3,3",
     "a feasibility check (--thresholds) does not read --centers"),
])
def test_oracle_refuses_flags_its_objective_does_not_read(c5_file, capsys, flags, message):
    # as gen refuses a parameter its kind does not read, nothing is printed
    # but the one error line
    assert main(["oracle", str(c5_file), *flags.split()]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_oracle_maxcut_needs_one_graph(tmp_path, capsys):
    inst = tmp_path / "two"
    assert main(["gen", *ORACLE_INSTANCES["two"], "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(inst), "--objective", "maxcut"]) == 2
    assert capsys.readouterr() == ("", "error: maxcut objective expects a single graph\n")


def test_bench_suite(tmp_path, capsys):
    suite = {
        "runs": [
            {"name": "derand-small", "reps": 3,
             "generator": {"kind": "gnm", "n": 16, "m": 30, "ell": 2},
             "method": "derand", "theorem": "1", "seed": 50},
            {"name": "mc-small", "reps": 3,
             "generator": {"kind": "gnm", "n": 16, "m": 30, "ell": 2},
             "method": "mc", "theorem": "1", "seed": 50},
        ]
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out_dir = tmp_path / "reports"
    assert main(["bench", str(path), "--out-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "failed constraint rows 0" in out
    assert len(list(out_dir.glob("*.report"))) == 6
    # written reports verify against regenerated instances
    gen_path = tmp_path / "regen.instance"
    assert main(["gen", "gnm", "--n", "16", "--m", "30", "--ell", "2",
                 "--seed", "51", "--out", str(gen_path)]) == 0
    assert main(["verify", str(out_dir / "derand-small-1.report"),
                 "--instance", str(gen_path)]) == 0


def test_bench_thm3_star_surfaces_precondition(tmp_path, capsys):
    suite = {"runs": [{"name": "bad", "reps": 1,
                       "generator": {"kind": "star", "n": 11},
                       "method": "derand", "theorem": "3", "seed": 0}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", str(path)]) == 2
    assert "max degree" in capsys.readouterr().err


def test_bench_counts_exhausted_mc_reps(tmp_path, capsys):
    # disjoint-cycles --n 5 is the C5 pair: no class of 5 vertices is
    # within 1e-9 of n/2, so each rep's 2 tries end in a failing report
    suite = {"runs": [{"name": "tight", "reps": 3,
                       "generator": {"kind": "disjoint-cycles", "n": 5},
                       "method": "mc", "theorem": "1", "balanced": True, "slack": 1e-9,
                       "max_tries": 2}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", str(path), "--verbose"]) == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[-1] == "total runs 3, failed constraint rows 6, mc exhausted 3"
    rows = {tuple(ln.split()[:2]): ln.split()[2:4] for ln in out if ln.startswith("tight ")}
    assert rows[("tight", "balance")] == ["6", "6"] and rows[("tight", "crossing")] == ["6", "0"]
    echoed = captured.err.splitlines()
    assert [ln.partition(" (")[0] for ln in echoed] == [f"tight rep {j}: FAIL" for j in range(3)]


def test_bench_jobs_parallel_same_totals(tmp_path, capsys):
    suite = {"runs": [{"name": "par", "reps": 4,
                       "generator": {"kind": "gnm", "n": 12, "m": 20, "ell": 1},
                       "method": "derand", "theorem": "1", "seed": 9}]}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", str(path), "--jobs", "3"]) == 0
    out = capsys.readouterr().out
    assert "total runs 4" in out and "failed constraint rows 0" in out


def _unclocked(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("wall-ms ")]


@pytest.mark.parametrize("old,new", [("x" * 500 + "\n", "short\n"), ("ab\n", "longer text\n" * 40)],
                         ids=["longer-to-shorter", "shorter-to-longer"])
def test_write_text_overwrites_in_place(tmp_path, old, new):
    path = tmp_path / "out"
    path.write_bytes(old.encode())
    path.chmod(0o600)
    inode = path.stat().st_ino
    write_text(path, new)
    assert path.read_bytes() == new.encode()
    assert path.stat().st_ino == inode and stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_text_error_leaves_no_old_bytes(tmp_path, monkeypatch):
    # the first write takes 10 bytes, the second fails: only those 10 remain
    path = tmp_path / "out"
    path.write_text("result pass\n" * 100)
    real_write, calls = os.write, []

    def short_then_full_disk(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[:10])

    with monkeypatch.context() as m:
        m.setattr(os, "write", short_then_full_disk)
        with pytest.raises(OSError, match="No space left"):
            write_text(path, "k 2\nclass-size 0 3\n")
    assert len(calls) == 2
    assert path.read_bytes() == b"k 2\nclass-"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_write_text_new_file_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_text(tmp_path / "new", "text\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new").stat().st_mode) == 0o666 & ~umask


def test_symlinked_out_rewrites_its_target(c5_file, tmp_path):
    target, link = tmp_path / "target.report", tmp_path / "link.report"
    target.write_text("stale\n" * 1000)
    link.symlink_to(target)
    assert main(["partition", str(c5_file), "--theorem", "1", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert main(["verify", str(target), "--instance", str(c5_file)]) == 0


def test_out_to_dev_null_and_stdout(c5_file, tmp_path, capsys):
    argv = ["partition", str(c5_file), "--theorem", "1", "--out"]
    assert main([*argv, os.devnull]) == 0
    assert main([*argv, str(tmp_path / "file.report")]) == 0
    capsys.readouterr()
    assert main([*argv, "-"]) == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("wall-ms ")]
    assert printed == _unclocked(tmp_path / "file.report")


def test_partition_reads_the_instance_from_stdin(c5_file, tmp_path, capsys, monkeypatch):
    assert main(["partition", str(c5_file), "--theorem", "1", "--out",
                 str(tmp_path / "file.report")]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(c5_file.read_text()))
    capsys.readouterr()
    assert main(["partition", "-", "--theorem", "1"]) == 0
    printed = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("wall-ms ")]
    assert printed == _unclocked(tmp_path / "file.report")


_TWO_GRAPHS = "graphs 2 vertices 3\nedges 1\n0 1\nedges 1\n1 2\n"
_SUITE_RUN = {"generator": {"kind": "gnm", "n": 8, "m": 10}, "method": "mc"}


@pytest.mark.parametrize("argv, text, message", [
    (["partition", "--theorem", "1"], "graphs 1 vertex 5\nedges 0\n",
     "line 1: expected 'graphs <ell> vertices <n>'"),
    (["partition", "--theorem", "hyp"], "hypergraphs 1 vertices 5 uniform 3\nedges 0\n",
     "line 1: expected 'hypergraphs <ell> vertices <n> uniformity <r>'"),
    (["partition", "--theorem", "1"], "graphs 0 vertices 5\n",
     "line 1: ell must be >= 1, got 0"),
    (["partition", "--theorem", "1"], "graphs 1 vertices -5\nedges 0\n",
     "line 1: n must be >= 0, got -5"),
    (["partition", "--theorem", "1"], "graphs 2 vertices 5\nedges 1\n0 1\n",
     "member 1: expected 'edges <m>' but the file ended"),
    (["oracle", "--objective", "maxcut"], "hypergraphs 1 vertices 4 uniformity 3\nedges 1\n0 1 2\n",
     "oracle objectives operate on graph families"),
    (["oracle", "--objective", "simultaneous", "--centers", "1"], _TWO_GRAPHS,
     "--centers needs 2 comma-separated values, got 1"),
    (["bench"], json.dumps({"runs": []}), "suite has no runs"),
    (["bench"], json.dumps({"runs": [_SUITE_RUN]}), "suite run 0: missing field 'theorem'"),
], ids=["graphs-header", "hypergraphs-header", "ell-0", "n-negative", "member-missing",
        "oracle-hypergraphs", "centers-count", "suite-no-runs", "suite-no-theorem"])
def test_input_diagnostics_exit_2(tmp_path, capsys, argv, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    capsys.readouterr()
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_no_output_write_truncates(c5_file, tmp_path, monkeypatch):
    # an O_TRUNC open of an existing file costs an ext4 flush on close
    writes = []
    real_os_open, real_open = os.open, io.open

    def os_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):
            writes.append((Path(path).name, bool(flags & os.O_TRUNC)))
        return real_os_open(path, flags, *args, **kwargs)

    def py_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and any(c in mode for c in "wax+"):
            writes.append((Path(file).name, "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"runs": [{"name": "s", "reps": 2, "method": "derand",
                                           "generator": {"kind": "gnm", "n": 9, "m": 12},
                                           "theorem": "1"}]}))
    for name in ("gen.instance", "run.report", "s-0.report", "s-1.report"):
        (tmp_path / name).write_text("stale\n" * 1000)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(io, "open", py_open)
    monkeypatch.setattr(builtins, "open", py_open)
    assert main(["gen", "gnm", "--n", "8", "--m", "10", "--out",
                 str(tmp_path / "gen.instance")]) == 0
    assert main(["partition", str(c5_file), "--theorem", "1", "--out",
                 str(tmp_path / "run.report")]) == 0
    assert main(["bench", str(suite), "--out-dir", str(tmp_path)]) == 0
    assert sorted(writes) == [("gen.instance", False), ("run.report", False),
                              ("s-0.report", False), ("s-1.report", False)]


def test_bench_rerun_into_same_dir_equals_fresh_dir(tmp_path):
    def suite(n, m):
        path = tmp_path / f"suite-{n}.json"
        path.write_text(json.dumps({"runs": [
            {"name": name, "reps": 3, "method": method, "theorem": "2", "k": 3, "seed": 4,
             "generator": {"kind": "gnm", "n": n, "m": m, "ell": 2}}
            for name, method in (("d", "derand"), ("m", "mc"))]}))
        return str(path)

    again, fresh = tmp_path / "again", tmp_path / "fresh"
    # the first run's reports are longer than the second's, then the same again
    for out_dir, suites in ((again, (suite(40, 90), suite(12, 20), suite(12, 20))),
                            (fresh, (suite(12, 20),))):
        for path in suites:
            assert main(["bench", path, "--out-dir", str(out_dir)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert len(names) == 6 and sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert _unclocked(again / name) == _unclocked(fresh / name)
        assert (again / name).read_text().endswith("\nresult pass\n")


def test_main_reuses_one_parser_and_carries_no_state(c5_file, tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    simulcut.cli.build_parser.cache_clear()

    def report(name, *flags):
        out = tmp_path / name
        assert main(["partition", str(c5_file), "--theorem", "1", *flags, "--out", str(out)]) == 0
        return [ln for ln in out.read_text().splitlines() if not ln.startswith("wall-ms ")]

    plain = {method: report(f"{method}-plain", "--method", method) for method in ("mc", "derand")}
    assert len(built) == 6      # the root parser and one per subcommand, on the first call
    assert "balanced yes" in report("mc-set", "--method", "mc", "--balanced", "--seed", "7",
                                    "--order", "degree")
    assert "order degree" in report("derand-set", "--method", "derand", "--order", "degree")
    # a later call without the flags sees none of them
    for method in ("mc", "derand"):
        assert report(f"{method}-again", "--method", method) == plain[method]

    capsys.readouterr()
    with pytest.raises(SystemExit) as usage:
        main(["partition", str(c5_file), "--theorem", "7"])
    assert usage.value.code == 2
    assert "argument --theorem: invalid choice: '7'" in capsys.readouterr().err
    assert main(["verify", str(tmp_path / "mc-plain"), "--instance", str(c5_file)]) == 0

    # --help writes to the stdout of the moment, not the one of the first call
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as done:
            main(["partition", "--help"])
        assert done.value.code == 0
        assert out.getvalue().startswith("usage: simulcut partition ")
    assert len(built) == 6


def test_python_dash_m_runs_the_cli():
    src = str(Path(simulcut.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "simulcut", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "partition" in done.stdout


def _one_run(**fields):
    """A suite whose second run is a valid one with these fields changed."""
    run = {"generator": {"kind": "gnm", "n": 8, "m": 10}, "method": "mc", "theorem": "1"}
    return {"runs": [dict(run), {**run, **fields}]}


BAD_FIELDS = [
    (dict(balanced="no"), "field 'balanced' must be true or false, got 'no'"),
    (dict(balanced=1), "field 'balanced' must be true or false, got 1"),
    (dict(seed=1.5), "field 'seed' must be an integer, got 1.5"),
    (dict(seed=True), "field 'seed' must be an integer, got True"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(k="3"), "field 'k' must be an integer or null, got '3'"),
    (dict(slack="2"), "field 'slack' must be a number or null, got '2'"),
    (dict(epsilon=[0.1]), "field 'epsilon' must be a number or null, got [0.1]"),
    (dict(method="derand", order="sideways"),
     "unknown order 'sideways': expected 'natural' or 'degree'"),
    (dict(reps="x"), "field 'reps' must be an integer >= 1, got 'x'"),
    (dict(reps=0), "field 'reps' must be an integer >= 1, got 0"),
    (dict(max_tries=None), "field 'max_tries' must be an integer, got None"),
    (dict(max_tries=0), "max_tries must be >= 1, got 0"),
    # settings that are wrong on any instance are caught before the first run
    (dict(k=1), "k must be >= 2, got 1"),
    (dict(slack=0), "balance_slack must be > 0 and finite, got 0"),
    # and so are those that only the generator's member count and r rule out
    (dict(k=3), "thm1 partitions into exactly 2 classes, got k=3"),
    (dict(generator={"kind": "runiform", "n": 8, "m": 10, "r": 3}, theorem="hyp", k=4),
     "rainbow partitions use k == r == 3, got k=4"),
    (dict(theorem="hyp"), "kind 'hyp' needs a hypergraph family"),
    (dict(theorem="3", epsilon=0.5),
     "epsilon must satisfy 0 < eps <= 1/(9*ell^2*k^4) = 0.00694444 (ell=1, k=2); got 0.5"),
    (dict(generator={"kind": "disjoint-cycles", "n": 7}, theorem="3", k=2, epsilon=0.002),
     "epsilon must satisfy 0 < eps <= 1/(9*ell^2*k^4) = 0.00173611 (ell=2, k=2); got 0.002"),
    # a generator that ignores ell builds its own member count, whatever ell says
    (dict(generator={"kind": "disjoint-cycles", "n": 7, "ell": 0}, k=3),
     "thm1 partitions into exactly 2 classes, got k=3"),
    # and so are the generator's own parameters, with generate's messages
    (dict(generator={"kind": "gnm", "n": 8, "m": 29}),
     "gnm needs 0 <= m <= n(n-1)/2 = 28, got m=29"),
    (dict(generator={"kind": "gnm", "n": None, "m": 10}), "n must be an integer, got None"),
    (dict(generator={"kind": "gnm", "n": 8, "m": 10, "ell": None}),
     "ell must be an integer, got None"),
    (dict(generator={"kind": "bounded-degree", "n": 9}),
     "bounded-degree needs an even degree >= 2, got None"),
    (dict(generator={"kind": "bounded-degree", "n": 9, "degree": 3}),
     "bounded-degree needs an even degree >= 2, got 3"),
    (dict(generator={"kind": "runiform", "n": 8, "m": 10}, theorem="hyp"),
     "runiform needs r and m"),
    (dict(generator={"kind": "runiform", "n": 6, "m": 21, "r": 3}, theorem="hyp"),
     "m=21 exceeds the 20 distinct 3-subsets of 6 vertices"),
    (dict(generator={"kind": "gnm", "n": "8", "m": 10}), "n must be an integer, got '8'"),
    (dict(generator={"kind": "runiform", "n": 8, "m": -4, "r": 3}, theorem="hyp"),
     "runiform needs m >= 0, got m=-4"),
    # unknown names are refused, not ignored or passed on
    (dict(balance=True), "unknown field 'balance'"),
    (dict(generator={"kind": "gnm", "n": 8, "m": 10, "bogus": 1}),
     "unknown generator parameter 'bogus'"),
    # and so are the parameters a generator kind never reads
    (dict(generator={"kind": "star", "n": 5, "m": 3}), "star does not read m"),
    # a run's name names its reports in --out-dir: run 0's is "run0" by default
    (dict(name="run0"), "name 'run0' repeats the name of run 0"),
    (dict(name="../x"), "field 'name' must be a file name, got '../x'"),
    (dict(name=".."), "field 'name' must be a file name, got '..'"),
    (dict(name=""), "field 'name' must be a file name, got ''"),
    (dict(name=7), "field 'name' must be a file name, got 7"),
]


@pytest.mark.parametrize("suite,message", [
    ([], "a suite must be a JSON object"),
    ({"runs": [{"generator": {"n": 8, "m": 10}, "method": "mc", "theorem": "1"}]},
     'suite run 0: "generator" must be a JSON object with a "kind"'),
    ({"runs": [["gnm", 8, 10]]}, "suite run 0: not a JSON object"),
    ({"runs": [{"method": "mc", "theorem": "1"}]}, "suite run 0: missing field 'generator'"),
    ({"runs": 5}, 'a suite must be a JSON object with a "runs" list'),
    ({"runs": {"a": 1}}, 'a suite must be a JSON object with a "runs" list'),
    ({"runz": [{"generator": {"kind": "gnm", "n": 8, "m": 10}, "method": "mc", "theorem": "1"}]},
     "suite: unknown field 'runz'"),
] + [(_one_run(**fields), "suite run 1: " + message) for fields, message in BAD_FIELDS],
    ids=["top-level-list", "generator-without-kind", "run-not-object", "run-without-generator",
         "runs-not-list", "runs-object", "unknown-top-level-field"]
    + ["-".join(f"{k}={v!r}" for k, v in fields.items()) for fields, _ in BAD_FIELDS])
def test_bench_malformed_suite_exit_2(tmp_path, capsys, suite, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out = tmp_path / "out"
    out.mkdir()
    # --verbose echoes every rep: the error must come before any run, and
    # no report is written
    assert main(["bench", str(path), "--verbose", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert list(out.iterdir()) == []
