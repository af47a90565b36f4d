"""Run-report text: render and parse are inverse on every kind of report,
a report is read only as it is written, thresholds agree bit for bit, whole
reports and resolved guarantees are pinned by digest, `verify` checks the
result line, and it survives corrupted reports."""

import hashlib
import math
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simulcut import Assignment, GraphFamily, epsilon_cap, evaluate, resolve
from simulcut.bench import execute_run
from simulcut.cli import main
from simulcut.instances import _quoted, generate, serialize_instance
from simulcut.report import (THEOREM_TOKENS, RunOptions, RunReport, instance_digest,
                             parse_report, recheck, render_report)

from helpers import c5_pair, paper_threshold

INSTANCES = {
    "1": dict(kind="gnm", n=30, m=80, ell=2),
    "2": dict(kind="gnm", n=30, m=80, ell=2),
    "3": dict(kind="bounded-degree", n=300, degree=2, ell=1),
    "hyp": dict(kind="runiform", n=20, m=40, r=3, ell=2),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(INSTANCES)), st.sampled_from(["mc", "derand"]),
       st.integers(min_value=0, max_value=10 ** 6), st.booleans(), st.integers(2, 4))
def test_render_parse_render_is_identity(theorem, method, seed, balanced, k):
    family = generate(**INSTANCES[theorem], seed=seed)
    opts = RunOptions(method=method, theorem=theorem,
                      k={"2": k, "3": 2}.get(theorem), seed=seed,
                      balanced=balanced and method == "mc",
                      max_tries=1 if seed % 3 == 0 else 64)
    rr = execute_run(family, opts)
    text = render_report(rr)
    assert render_report(parse_report(text)) == text


def test_balance_slack_and_epsilon_lines():
    # balance-slack is written only for a balanced run, and both it and
    # epsilon are written as floats whatever number type the report holds
    family = generate(**INSTANCES["1"], seed=1)
    for balanced in (False, True):
        opts = RunOptions(method="mc", theorem="1", slack=50.0, balanced=balanced)
        rr = execute_run(family, opts)
        assert ("\nbalance-slack 50.0\n" in render_report(rr)) == balanced
    text = render_report(replace(rr, options=replace(rr.options, epsilon=Fraction(1, 4),
                                                     slack=50)))
    assert "\nepsilon 0.25\n" in text and "\nbalance-slack 50.0\n" in text


def test_assignment_line_writes_every_label_in_decimal():
    # labels come from a table of the k classes, or are written by str when
    # there are fewer vertices than classes (labels past n, as k = 11 > n = 4)
    family = generate(**INSTANCES["2"], seed=3)
    rr = execute_run(family, RunOptions(method="derand", theorem="2", k=3))
    small = generate(kind="gnm", n=4, m=3, ell=1, seed=3)
    few = execute_run(small, RunOptions(method="derand", theorem="2", k=11))
    for run, labels in ((rr, rr.assignment.labels), (rr, (0, 2, 1) * 10), (rr, (2,) * 30),
                        (few, few.assignment.labels), (few, (10, 0, 7, 4))):
        k = run.options.k
        text = render_report(replace(run, assignment=Assignment(labels, k)))
        assert f"\nassignment {' '.join(str(x) for x in labels)}\n" in text
        assert render_report(parse_report(text)) == text


def _closed_form(family, theorem, k, graph, stat):
    """The row's threshold straight from the README formula."""
    return paper_threshold(theorem, family.m[graph], ell=family.ell, k=k, stat=stat,
                           eps=epsilon_cap(family.ell, k),
                           delta2=family.delta2[graph] if theorem == "hyp" else 0)


# gen bounded-degree --n 294 --degree 2: the thm3 bound mu - sqrt(normalizer)
# computed from the penalty term differs from the README formula in the last bit
AGREEMENT = [
    (dict(kind="gnm", n=60, m=300, ell=2), "1", None),
    (dict(kind="gnm", n=60, m=300, ell=2), "2", 3),
    (dict(kind="bounded-degree", n=294, degree=2, ell=1), "3", 2),
    (dict(kind="runiform", n=30, m=60, r=3, ell=2), "hyp", None),
]


@pytest.mark.parametrize("method", ["mc", "derand"])
@pytest.mark.parametrize("gen, theorem, k", AGREEMENT)
def test_thresholds_agree_bit_for_bit(gen, theorem, k, method):
    family = generate(**gen, seed=0)
    name = THEOREM_TOKENS[theorem]
    guarantee = resolve(family, name, k=k)
    want = [repr(_closed_form(family, name, guarantee.k, spec.graph, spec.stat))
            for spec, _, _ in guarantee.rows]
    assert [repr(thr) for _, thr, _ in guarantee.rows] == want
    rr = execute_run(family, RunOptions(method=method, theorem=theorem, k=k))
    assert [repr(c.threshold) for c in rr.cut_report.constraints] == want
    text = render_report(rr)
    rendered = [tok.split("=", 1)[1] for ln in text.splitlines() if ln.startswith("constraint ")
                for tok in ln.split() if tok.startswith("threshold=")]
    assert rendered == want
    assert recheck(parse_report(text), family) == []


def test_thm3_cap_echoed_as_a_float_decides_as_the_run_did():
    # ell=3, k=2: the default eps is 1/1296, whose float rounds down, and
    # eps^(1/4) = 1/6 makes within's threshold m/4 - m/6 = m/12 exactly; a
    # class holding exactly m/12 inner edges passes in the run and in verify
    m = 1296
    matching = tuple((2 * i, 2 * i + 1) for i in range(m))
    family = GraphFamily(n=2 * m, graphs=(matching,) * 3)
    cap = epsilon_cap(3, 2)
    assert Fraction(float(cap)) < cap
    assert resolve(family, "thm3", k=2, eps=float(cap)).eps == cap
    assignment = Assignment(tuple([0] * 216 + [1] * 800 + [0, 1] * (m - 508)), 2)
    report = evaluate(family, assignment, resolve(family, "thm3", k=2))
    rows = {c.stat: (c.count, c.passed) for c in report.constraints if c.graph == 0}
    assert rows == {"pair(0,1)": (788, True), "within(0)": (m // 12, True),
                    "within(1)": (400, True)}
    opts = RunOptions(method="mc", theorem="thm3", k=2, epsilon=float(cap))
    rr = RunReport(digest=instance_digest(family), options=opts, assignment=assignment,
                   cut_report=report, tries=1)
    assert recheck(parse_report(render_report(rr)), family) == []


@pytest.fixture
def c5_reports(tmp_path):
    """The C5 pair's instance, a passing mc report and a failing one: a
    balance slack no odd class size meets (the run exits 1)."""
    inst = tmp_path / "c5.instance"
    inst.write_text(serialize_instance(c5_pair()))
    run = ["partition", str(inst), "--method", "mc", "--theorem", "1", "--out"]
    assert main(run + [str(tmp_path / "pass.report")]) == 0
    assert main(run + [str(tmp_path / "fail.report"), "--balanced", "--slack", "1e-9",
                       "--max-tries", "4"]) == 1
    return inst, tmp_path


@pytest.mark.parametrize("name, flipped", [("fail", "pass"), ("pass", "fail")])
def test_verify_compares_the_result_line(c5_reports, capsys, name, flipped):
    # the result line alone flipped is not what the report's rows render
    # to; flipped with every pass token, the report reads back as written,
    # and the recomputed constraint and result lines refuse it
    inst, where = c5_reports
    report = where / f"{name}.report"
    assert main(["verify", str(report), "--instance", str(inst)]) == 0
    text = report.read_text()
    assert text.endswith(f"\nresult {name}\n")
    flipped_text = text.replace(f"\nresult {name}\n", f"\nresult {flipped}\n")
    bad = where / "flipped.report"
    bad.write_text(flipped_text)
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == (f"error: report line 'result {flipped}' is not as "
                                       f"written: want 'result {name}'\n")
    token = "yes" if flipped == "pass" else "no"
    bad.write_text(re.sub(r" pass=\w+$", f" pass={token}", flipped_text, flags=re.M))
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("mismatch: constraint lines differ: report 'constraint "), err
    assert err[-1] == (f"mismatch: result lines differ: report 'result {flipped}', "
                       f"recomputed 'result {name}'")


@pytest.mark.parametrize("old, new, message", [
    ("result fail\n", "", "report line none is not as written: want 'result fail'"),
    ("result fail\n", "result maybe\n",
     "report line 'result maybe' is not as written: want 'result fail'"),
    ("max-tries 4\n", "max-tries 0\n", "max_tries must be >= 1, got 0"),
], ids=["no-result", "bad-result", "max-tries-0"])
def test_verify_refuses_result_and_max_tries_lines(c5_reports, capsys, old, new, message):
    # a report's max-tries line is passed on as it is, so 0 is refused by
    # the same check as --max-tries 0, not read as the default
    inst, where = c5_reports
    bad = where / "edited.report"
    bad.write_text((where / "fail.report").read_text().replace(old, new))
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


MUTANT_VALUES = ["", "x", "-1", "0", "nan", "inf", "1e400", "thm9", "hypergraphs"]
# the run keys in render order, and for those that some report lacks, a
# value a run of another guarantee or engine writes there
RUN_KEYS = ("instance-sha256", "kind", "n", "ell", "r", "method", "theorem", "k", "epsilon",
            "balanced", "balance-slack", "order", "seed", "max-tries", "tries", "descent-steps",
            "initial-estimator", "final-estimator", "assignment")
INSERTED = {"epsilon": "0.001", "balance-slack": "50.0", "r": "3", "order": "natural",
            "seed": "4", "tries": "1", "descent-steps": "30"}
# the lines verify reads but cannot recompute without re-running, and the
# values each may hold: any such value in written form verifies, and
# every other changed line is refused
UNCHECKED = {
    "seed": lambda v: int(v) >= 0,
    "max-tries": lambda v: int(v) >= 1,
    "tries": lambda v: int(v) >= 1,
    "initial-estimator": lambda v: isinstance(float(v), float),
    "final-estimator": lambda v: isinstance(float(v), float),
    "wall-ms": lambda v: 0 <= float(v) < math.inf,
}


def _unchecked(key: str, value: str) -> bool:
    try:
        return UNCHECKED[key](value)
    except (KeyError, ValueError):
        return False


@pytest.fixture(scope="module")
def rendered_reports(tmp_path_factory):
    """Instance path and report lines of all four guarantees, one of them balanced mc."""
    where = tmp_path_factory.mktemp("reports")
    runs = [("1", "mc", True), ("2", "derand", False), ("3", "mc", False),
            ("hyp", "derand", False)]
    out = []
    for theorem, method, balanced in runs:
        family = generate(**INSTANCES[theorem], seed=4)
        inst = where / f"{theorem}.instance"
        inst.write_text(serialize_instance(family))
        opts = RunOptions(method=method, theorem=theorem, k={"2": 3}.get(theorem),
                          balanced=balanced, seed=4)
        rr = execute_run(family, opts)
        assert rr.passed
        out.append((inst, render_report(rr).splitlines()))
    return where, out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10 ** 6),
       st.sampled_from(["drop", "value", "key", "copy", "copy-value", "insert"]),
       st.sampled_from(MUTANT_VALUES), st.integers(0, 10 ** 6))
def test_verify_mutated_report_exits_0_or_2(rendered_reports, which, line, how, value, token):
    # a copy of line i goes before it, as it is or with its value replaced;
    # every line has a known key, so a report holding a copy does not
    # verify, and neither does one with a changed line that verify checks,
    # or one given a run line it lacks, where render_report would write it.
    # A dropped line may leave a report that verifies, and any report that
    # verifies is in the form render_report writes
    where, reports = rendered_reports
    inst, original = reports[which]
    lines = list(original)
    i = line % len(lines)
    key, _, rest = lines[i].partition(" ")
    if how == "insert":
        lacking = [k for k in INSERTED if not any(ln.startswith(k + " ") for ln in lines)]
        key = lacking[token % len(lacking)]
        later = RUN_KEYS[RUN_KEYS.index(key) + 1:]
        i = next(i for i, ln in enumerate(lines) if ln.partition(" ")[0] in later)
        lines.insert(i, f"{key} {INSERTED[key]}")
    elif how == "drop":
        del lines[i]
    elif how == "key" and key == "constraint":
        tokens = rest.split()
        j = token % len(tokens)
        tokens[j] = tokens[j].partition("=")[0] + "=" + value
        lines[i] = "constraint " + " ".join(tokens)
    elif how == "copy":
        lines.insert(i, lines[i])
    elif how == "copy-value":
        lines.insert(i, f"{key} {value}")
    else:
        lines[i] = f"{key} {value}"
    text = "\n".join(lines) + "\n"
    bad = where / "mutant.report"
    bad.write_text(text)
    code = main(["verify", str(bad), "--instance", str(inst)])
    changed = lines != original and not _unchecked(key, value)
    refused = how in ("copy", "copy-value", "insert") or how != "drop" and changed
    assert code == 2 if refused else code in (0, 2)
    if code == 0:
        assert render_report(parse_report(text)) == text


@pytest.mark.parametrize("k", [4, 1_000_000])
def test_verify_rejects_a_k_its_class_sizes_do_not_match(rendered_reports, capsys, k):
    # the 30-vertex thm2 report has 3 class-size lines; nothing is counted
    # for the k line's classes, and the message does not list k sizes
    where, reports = rendered_reports
    inst, lines = reports[1]
    lines = [f"k {k}" if ln.startswith("k ") else ln for ln in lines]
    bad = where / "bad-k.report"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == f"mismatch: report has 3 class-size lines for k {k}\n"


# (line prefix, token after which an "x" is inserted): one value of each
# line shape in the thm3 mc report; a yes/no value is read as whether it
# is "yes", the n line is not read (n is the assignment's length), and no
# parser takes any of the others
BAD_VALUES = [("n ", "n "), ("k ", "k "), ("seed ", "seed "), ("epsilon ", "epsilon "),
              ("class-size 1 ", "class-size 1 "), ("member 0 ", "crossing "),
              ("constraint ", "count="), ("assignment ", "assignment "),
              ("balanced ", "balanced "), ("constraint ", "pass=")]


@pytest.mark.parametrize("prefix, token", BAD_VALUES,
                         ids=[p.split()[0] + ("-pass" if t == "pass=" else "")
                              for p, t in BAD_VALUES])
def test_verify_bad_value_names_its_line(rendered_reports, capsys, prefix, token):
    where, reports = rendered_reports
    inst, lines = reports[2]
    lines = list(lines)
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = lines[i].replace(token, token + "x", 1)
    bad = where / "bad-value.report"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    if token in ("balanced ", "pass=", "n "):
        # read as "no", and then refused as not the line written for "no";
        # the n line is refused as not the line written for 300 labels
        said = lines[i].rsplit(" ", 1)[1]
        want = {"pass=": "pass=no", "balanced ": "no", "n ": "300"}[token]
        assert err.startswith(f"error: report line '{prefix.split()[0]} "), err
        assert f" {said}' is not as written: want '" in err and err.endswith(f" {want}'\n"), err
    else:
        # the line is quoted cut to its start, so one bad label of a long
        # assignment line does not quote all of it
        assert err.startswith(f"error: report line {_quoted(lines[i])}: "), err


@pytest.fixture(scope="module")
def edit_runs(tmp_path_factory):
    """`gen gnm --n 40 --m 100 --ell 2` and `gen bounded-degree --n 294
    --degree 2`, and the text of a derand report on them by guarantee:
    thm1 and thm2 (k=3) on gnm, and thm3 (k=2) on bounded-degree; and
    "thm1-mc", an mc thm1 report on gnm."""
    where = tmp_path_factory.mktemp("edit-runs")
    gens = {"gnm": ["gnm", "--n", "40", "--m", "100", "--ell", "2"],
            "bd": ["bounded-degree", "--n", "294", "--degree", "2"]}
    for name, argv in gens.items():
        assert main(["gen", *argv, "--out", str(where / f"{name}.instance")]) == 0
    runs = {"thm1": ("gnm", ["1"]), "thm2": ("gnm", ["2", "--k", "3"]),
            "thm3": ("bd", ["3", "--k", "2"]), "thm1-mc": ("gnm", ["1", "--method", "mc"])}
    out = {}
    for run, (name, theorem) in runs.items():
        inst, report = where / f"{name}.instance", where / f"{run}.report"
        assert main(["partition", str(inst), "--theorem", *theorem, "--out", str(report)]) == 0
        out[run] = inst, report.read_text()
    return out


@pytest.fixture
def gnm_report(edit_runs):
    """`gen gnm --n 40 --m 100 --ell 2`, and the text of its thm1 derand report."""
    return edit_runs["thm1"]


def _before(line: str, extra: str):
    """An edit that puts `extra` right before the report's line starting `line`."""
    def edit(text):
        assert f"\n{line}" in text
        return text.replace(f"\n{line}", f"\n{extra}\n{line}", 1)
    return edit


def _without(key: str):
    """An edit that drops the report's line with this key."""
    def edit(text):
        assert f"\n{key} " in text
        return "".join(ln for ln in text.splitlines(keepends=True)
                       if not ln.startswith(f"{key} "))
    return edit


def _member_words(kind: str, word: str):
    """An edit that sets the kind line to `kind` and every member line's word to `word`."""
    def edit(text):
        lines = [f"kind {kind}" if ln.startswith("kind ")
                 else ln.replace(" crossing ", f" {word} ") if ln.startswith("member ") else ln
                 for ln in text.splitlines()]
        return "\n".join(lines) + "\n"
    return edit


FALSE_ROW = "constraint graph=0 stat=crossing count=7 threshold=40.0 margin=-33.0 pass=no"


def _false_row(text):
    """The gnm report with a third, failing row after its two, and its result line to match."""
    return _before("wall-ms", FALSE_ROW)(text).replace("\nresult pass\n", "\nresult fail\n")


# (report edited, edit, verify's stderr or its start), on the gnm thm1
# report unless named: a repeated row that the report's rows and result
# line agree with, which only the recomputed rows refuse, a second copy of
# a known key, a member word that is not the kind's, the kind line and
# member words switched together, which r (none) refuses, a run line that
# the run does not write, a dropped outcome line of each method, and two
# run lines that the options do not resolve to
REFUSED_EDITS = {
    "repeated-row": ("thm1", _false_row,
                     f"mismatch: constraint lines differ: report {FALSE_ROW!r}, recomputed none\n"
                     "mismatch: result lines differ: report 'result fail', "
                     "recomputed 'result pass'\n"),
    "second-result": ("thm1", _before("result pass", "result fail"),
                      "error: report line 'result fail' is not as written: want 'result pass'\n"),
    "second-n": ("thm1", _before("n 40", "n 999"),
                 "error: report line 'n 999' is not as written: want 'n 40'\n"),
    "member-word": ("thm1", _member_words("graphs", "rainbow"),
                    "error: report line 'member 0 rainbow "),
    "switched-kind": ("thm1", _member_words("hypergraphs", "rainbow"),
                      "error: report line 'kind hypergraphs' is not as written: "
                      "want 'kind graphs'\n"),
    "no-descent-steps": ("thm1", _without("descent-steps"),
                         "error: report line 'initial-estimator 0.5' is not as written: "
                         "want 'descent-steps 40'\n"),
    # every run of a method writes its outcome lines
    "no-tries": ("thm1-mc", _without("tries"), "error: report has no 'tries'\n"),
    "no-initial-estimator": ("thm1", _without("initial-estimator"),
                             "error: report has no 'initial-estimator'\n"),
    "no-final-estimator": ("thm1", _without("final-estimator"),
                           "error: report has no 'final-estimator'\n"),
    # only thm3 reads epsilon, and thm3 resolves one when none is given
    "thm2-epsilon": ("thm2", _before("balanced no", "epsilon 5.0"),
                     "mismatch: epsilon lines differ: report 'epsilon 5.0', recomputed none\n"),
    "thm3-no-epsilon": ("thm3", _without("epsilon"),
                        "mismatch: epsilon lines differ: report none, "
                        "recomputed 'epsilon 0.006944444444444444'\n"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_EDITS))
def test_verify_refuses_edited_gnm_report(edit_runs, tmp_path, capsys, case):
    run, edit, err = REFUSED_EDITS[case]
    inst, text = edit_runs[run]
    bad = tmp_path / "edited.report"
    bad.write_text(edit(text))
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    got = capsys.readouterr().err
    assert got == err if err.endswith("\n") else got.startswith(err), got


def test_verify_reads_pass_tokens_strictly(c5_reports, capsys):
    # `maybe` on the failing balance rows is read as no, as the recomputed
    # rows have it, and is refused as not the line written for no
    inst, where = c5_reports
    text = (where / "fail.report").read_text()
    assert text.count(" pass=no\n") == 2
    bad = where / "maybe.report"
    bad.write_text(text.replace(" pass=no\n", " pass=maybe\n"))
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    margin = next(ln for ln in text.splitlines() if ln.endswith(" pass=no")).split()[-2]
    assert capsys.readouterr().err == (
        f"error: report line 'constraint ... {margin} pass=maybe' is not as written: "
        f"want 'constraint ... {margin} pass=no'\n")


def _replace(old: str, new: str):
    """An edit that replaces the first `old` in the report with `new`."""
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


# (edit of the gnm report, the line verify quotes, the line it wants there):
# text that reads to the same values as the report but is not how
# render_report writes them, each refused naming its line
NOT_AS_WRITTEN = {
    "repeated-token": (_replace(" count=51 ", " count=7 count=51 "),
                       "constraint ... count=7 count=51 ...",
                       "constraint ... count=7 threshold=51.0 ..."),
    "plus-sign": (_replace("\nclass-size 0 22\n", "\nclass-size 0 +22\n"),
                  "class-size 0 +22", "class-size 0 22"),
    "underscore": (_replace("\nmember 1 crossing 50\n", "\nmember 1 crossing 5_0\n"),
                   "member ... crossing 5_0", "member ... crossing 50"),
    "plus-label": (_replace("\nassignment 0 ", "\nassignment +0 "),
                   "assignment +0 ...", "assignment 0 ..."),
    "leading-zero": (_replace("\nn 40\n", "\nn 040\n"), "n 040", "n 40"),
    "exponent": (_replace("threshold=40.0", f"threshold={40.0:.17e}"),
                 "constraint ... count=51 threshold=4.00000000000000000e+01 ...",
                 "constraint ... count=51 threshold=40.0 ..."),
    "trailing-space": (_replace("\nk 2\n", "\nk 2 \n"), "k 2 ", "k 2"),
    "moved-line": (_replace("\nkind graphs\nn 40\n", "\nn 40\nkind graphs\n"),
                   "n 40", "kind graphs"),
    "negative-zero": (_replace("margin=11.0", "margin=-0.0"),
                      "constraint ... threshold=40.0 margin=-0.0 ...",
                      "constraint ... threshold=40.0 margin=0.0 ..."),
}


@pytest.mark.parametrize("case", sorted(NOT_AS_WRITTEN))
def test_verify_reads_a_report_only_as_written(gnm_report, tmp_path, capsys, case):
    inst, text = gnm_report
    edit, said, want = NOT_AS_WRITTEN[case]
    bad = tmp_path / "edited.report"
    bad.write_text(edit(text))
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == (f"error: report line {said!r} is not as written: "
                                       f"want {want!r}\n")


def test_a_float_is_never_written_as_negative_zero():
    # no engine computes -0.0, and were one to, its row would be written
    # as 0.0, the form verify reads back
    family = generate(**INSTANCES["1"], seed=1)
    rr = execute_run(family, RunOptions(method="derand", theorem="1"))
    row = replace(rr.cut_report.constraints[0], margin=-0.0)
    cut = replace(rr.cut_report, constraints=(row,) + rr.cut_report.constraints[1:])
    text = render_report(replace(rr, cut_report=cut))
    assert " margin=0.0 " in text and "-0.0" not in text
    assert render_report(parse_report(text)) == text


@pytest.mark.parametrize("at", ["appended", "after-k", "first", "among-rows"])
def test_unknown_report_line_is_ignored(rendered_reports, capsys, at):
    # report lines are additive: a key parse_report does not know changes
    # nothing it reads, wherever it stands, and verify passes
    where, reports = rendered_reports
    for inst, lines in reports:
        text = "\n".join(lines) + "\n"
        extended = list(lines)
        after = {"appended": len(lines), "first": 0,
                 "after-k": next(i for i, ln in enumerate(lines) if ln.startswith("k ")) + 1,
                 "among-rows": next(i for i, ln in enumerate(lines)
                                    if ln.startswith("constraint ")) + 1}
        extended.insert(after[at], "descent-ties 3")
        extended_text = "\n".join(extended) + "\n"
        assert render_report(parse_report(extended_text)) == text
        report = where / "extended.report"
        report.write_text(extended_text)
        assert main(["verify", str(report), "--instance", str(inst)]) == 0


def test_report_without_wall_ms_with_crlf_and_blank_lines_verifies(rendered_reports):
    # wall-ms is optional, and blank lines and CRLF line ends are accepted
    where, reports = rendered_reports
    for inst, lines in reports:
        kept = [ln for ln in lines if not ln.startswith("wall-ms ")]
        assert len(kept) == len(lines) - 1
        rr = parse_report("\n".join(kept) + "\n")
        assert rr.wall_ms is None and render_report(rr) == "\n".join(kept) + "\n"
        report = where / "no-wall-ms.report"
        report.write_bytes(("\r\n\r\n".join(kept) + "\r\n").encode())
        assert main(["verify", str(report), "--instance", str(inst)]) == 0


def _empty_member_family():
    base = generate("gnm", n=20, m=40, ell=1, seed=7)
    return GraphFamily(n=20, graphs=(base.arrays[0], ()))


def _empty_member_thm3_family():
    # max degree 2 <= eps*m = 1460/576 at thm3's default eps for two graphs
    # and k=2; the empty member's pair row is the one a sparse count reaches
    base = generate("bounded-degree", n=1460, degree=2, ell=1, seed=5)
    return GraphFamily(n=1460, graphs=(base.arrays[0], ()))


PIN_FAMILIES = {
    "gnm": lambda: generate("gnm", n=30, m=80, ell=2, seed=5),
    "bd": lambda: generate("bounded-degree", n=300, degree=2, ell=1, seed=5),
    "bd1460": lambda: generate("bounded-degree", n=1460, degree=2, ell=1, seed=5),
    "ru": lambda: generate("runiform", n=20, m=40, r=3, ell=2, seed=5),
    "empty": _empty_member_family,
    "empty3": _empty_member_thm3_family,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (family, method, theorem, k, balanced): sha256 of the rendered report
# without its wall-ms line
REPORT_PINS = [
    (("gnm", "mc", "1", None, False),
     "d68d2c1e839d8b34b029b41dbbf748ad3b6c5bc57a8c375af084fee7937f02d8"),
    (("gnm", "derand", "1", None, False),
     "be12398e0ec8b0679c9d74da91bf54f8fed279d5e2b4c9f194767f42fcd476b9"),
    (("gnm", "mc", "2", 3, False),
     "c2fcfa242822deab28a3d1e9e80e454d0083bb3a65e7e9dae22500af5d176259"),
    (("gnm", "derand", "2", 3, False),
     "ac17b92bee380f3d3d2737ed222e1d85da460140f5d239ec68a5f4c07c560c8f"),
    (("bd", "mc", "3", 2, False),
     "0bd41dc664ec8bb329a3decada05b6e2a9b79fae8b052088be5d3047c66a7b2f"),
    (("bd", "derand", "3", 2, False),
     "8b891bd3afe002c14327c56b44200d670c51b5b2f5e70d2f4c4a6469857d66a3"),
    (("ru", "mc", "hyp", None, False),
     "10680ef3c76461094b3149538da34702d4aafe6e91123fb39dcb21e4da5289bf"),
    (("ru", "derand", "hyp", None, False),
     "da499d756412aa5c16408762e07d1439e43fe45898bb4e465894afed6d627f8b"),
    (("gnm", "mc", "1", None, True),
     "cec153b8f446126b649d262ce0ffabe6dab39d4f6d8f39427b5a288200c6b380"),
    (("empty", "mc", "1", None, False),
     "2c98564df09c2244ac296dce9149e5237ab77ddf74b5cf02fcb726a067f211a0"),
    (("empty", "derand", "1", None, False),
     "aa66f6474397031730acb88d6dbfb6f5eba713f7db02183b550fe673b031ce0a"),
    (("empty", "mc", "2", 3, False),
     "42d8743b701982d137e04e1da252e88bc25e14744a11720a46e942941cd4ad0a"),
    (("empty", "derand", "2", 3, False),
     "2eca64fd80d730a0a9512956bde8066b85b56db9448bb21b01390c3664dcef32"),
    (("empty3", "mc", "3", 2, False),
     "6e3c261a3eca1168cc931c1616dff445633da7b888d8b1a3e9ffc076f0b0a59d"),
    (("empty3", "derand", "3", 2, False),
     "3cf0e2ba355ffc6c674f73d5c861062ae094db45767e753a277fab9d1d3cf4dd"),
]


def _pinned_report(family, method, theorem, k, balanced) -> str:
    opts = RunOptions(method=method, theorem=theorem, k=k, balanced=balanced, seed=3)
    text = render_report(execute_run(PIN_FAMILIES[family](), opts))
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("wall-ms "))


def _pin_ids(pins):
    return ["-".join(map(str, case)) for case, *_ in pins]


@pytest.mark.parametrize("case, digest", REPORT_PINS, ids=_pin_ids(REPORT_PINS))
def test_report_digest_pinned(case, digest):
    assert _sha(_pinned_report(*case)) == digest


# (family, theorem, k, balanced): sha256 of the resolved penalty terms
# (the exact norm2, then each spec's graph, stat, k and part), and of the
# effective settings with every statistic row's graph, stat, display
# threshold and least admitted count
RESOLVE_PINS = [
    (("gnm", "thm1", None, False),
     "71eb4b4ed0df263f3dd610dd93ad7e90431b81be5050b1657ad85e329b47f4ea",
     "7b1818f004f05731722dd7c90b8538e2473b29653be95e0f4fda0868ace6c0aa"),
    (("gnm", "thm2", 3, False),
     "d1228727dfe648f1a9b3e7e286aaa129af08f7df3334a82da20ff5d213748ff3",
     "77e9e7f450b871b9413e70310f30d6bdd9130c7b5987814ad1580d763916eca2"),
    (("gnm", "thm2", 4, True),
     "8dd1d4f59a02c294276cd55aaa1c7fc2e3d08d02436877ba00adb4b9e2130361",
     "a4dbb07ecd239e617dad261b4890052af63c54b5eaef160f5a0064df149e271e"),
    (("bd", "thm3", 2, False),
     "fa19283fe85c9889233b6e074866e017926662f8fc07a231435a77355d17076d",
     "fb06a754dad912c127954e4df2806bb5cab57da9e37bc9930b693f5acc83ee3a"),
    (("bd1460", "thm3", 3, False),
     "67d09ea6dda263d88b95da56a960ffce8498d09333566411e7c97e744848f108",
     "b7cad1496e579297466f3b417fa3bf7bd2a2a0b33b506cab3bfb37ae624fbcf8"),
    (("ru", "hyp", None, False),
     "eb332932d7a0d62a156e40012d000f79ac21dbe9c509a1249a37badfc8e86539",
     "1312b01c2711dc9c003795453e3b5fc8e49de14c42469fb32b247f810cd51565"),
    (("empty", "thm1", None, False),
     "e9e26d1cb0512d5ef8c304e2b9ce75549bd32dbb4c144df59cb08822bd9c5c70",
     "27fca42b053eacbf304afbbf8dfacd0966ab3a915b269260b853e3a46651c2c1"),
    (("empty", "thm2", 3, False),
     "66ad462bc9a5bd7e24e900c32a0efce1470ce35d10da0f894d2c1fab16b71bb3",
     "c1430bac5a67e14d765c0d25ce2e764115b119c3f0c86741ed5284e9d451acd3"),
]


def _least_admitted(bound) -> int:
    """The smallest count a row's `Bound` passes: its exact threshold, rounded up."""
    return next(c for c in range(math.ceil(bound.mean) + 1) if bound.admits(c))


def _pinned_resolve(family, theorem, k, balanced) -> tuple[str, str]:
    g = resolve(PIN_FAMILIES[family](), theorem, k=k, balanced=balanced)
    specs = [(s.graph, s.stat, s.k, s.part) for s in g.specs]
    rows = [(spec.graph, spec.stat, repr(thr), _least_admitted(bound))
            for spec, thr, bound in g.rows]
    return repr((g.norm2, specs)), repr((g.k, repr(g.eps), repr(g.slack), g.max_tries, rows))


@pytest.mark.parametrize("case, specs, rows", RESOLVE_PINS, ids=_pin_ids(RESOLVE_PINS))
def test_resolve_digest_pinned(case, specs, rows):
    got = _pinned_resolve(*case)
    assert (_sha(got[0]), _sha(got[1])) == (specs, rows)


@pytest.fixture(scope="module")
def thm1_reports(tmp_path_factory):
    """`gen gnm --n 60 --m 300 --ell 2 --seed 3`, and the text of its thm1
    report under each method."""
    where = tmp_path_factory.mktemp("thm1")
    inst = where / "gnm.instance"
    assert main(["gen", "gnm", "--n", "60", "--m", "300", "--ell", "2", "--seed", "3",
                 "--out", str(inst)]) == 0
    texts = {}
    for method in ("derand", "mc"):
        report = where / f"{method}.report"
        assert main(["partition", str(inst), "--theorem", "1", "--method", method,
                     "--out", str(report)]) == 0
        texts[method] = report.read_text()
    return inst, texts


# (report, key of the line edited, its new value, verify's stderr): run
# lines that no run writes, each refused by the check that refuses the
# same setting as a flag, as not the line written for the report's other
# lines, or by its comparison with what a run can write
RUN_LINE_EDITS = {
    "method-foo": ("derand", "method", "foo",
                   "error: method must be 'mc' or 'derand', got 'foo'\n"),
    "order-x": ("derand", "order", "x",
                "error: unknown order 'x': expected 'natural' or 'degree'\n"),
    "seed-negative": ("mc", "seed", "-1", "error: seed must be >= 0, got -1\n"),
    # a derand report has an order line where an mc one has its seed
    "mc-as-derand": ("mc", "method", "derand",
                     "error: report line 'seed 0' is not as written: want 'order natural'\n"),
    # a descent takes one step a vertex
    "descent-steps": ("derand", "descent-steps", "3",
                      "error: report line 'descent-steps 3' is not as written: "
                      "want 'descent-steps 60'\n"),
    "tries-negative": ("mc", "tries", "-1",
                       "mismatch: tries -1, an mc run takes 1 to max-tries = 64\n"),
    "tries-above-max": ("mc", "tries", "65",
                        "mismatch: tries 65, an mc run takes 1 to max-tries = 64\n"),
    "wall-ms-nan": ("derand", "wall-ms", "nan",
                    "mismatch: wall-ms nan, a wall time is finite and >= 0\n"),
    "wall-ms-negative": ("mc", "wall-ms", "-1.5",
                         "mismatch: wall-ms -1.5, a wall time is finite and >= 0\n"),
    # only a balanced run resolves a balance slack
    "unbalanced-slack": ("mc", "balanced", "no\nbalance-slack 50.0",
                         "mismatch: balance-slack lines differ: report 'balance-slack 50.0', "
                         "recomputed none\n"),
}


@pytest.mark.parametrize("case", sorted(RUN_LINE_EDITS))
def test_verify_refuses_run_lines_no_run_writes(thm1_reports, tmp_path, capsys, case):
    inst, texts = thm1_reports
    method, key, value, err = RUN_LINE_EDITS[case]
    text, count = re.subn(rf"^{key} .*$", f"{key} {value}", texts[method], count=1, flags=re.M)
    assert count == 1
    bad = tmp_path / "edited.report"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("edit, message", [
    (lambda labels: ["-1"] + labels[1:], "vertex 0: label -1 outside 0..1"),
    (lambda labels: labels[:-1], "report line 'n 60' is not as written: want 'n 59'"),
], ids=["undecided", "one-short"])
def test_verify_refuses_an_assignment_evaluate_refuses(thm1_reports, tmp_path, capsys,
                                                       edit, message):
    # labels in written form that no run writes: Assignment refuses a label
    # outside 0..k-1, and 59 labels are not what the n line is written for
    inst, texts = thm1_reports
    lines = texts["derand"].splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("assignment "))
    lines[i] = " ".join(["assignment"] + edit(lines[i].split()[1:]))
    bad = tmp_path / "edited.report"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(bad), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_bad_label_diagnostic_is_bounded(thm1_reports, tmp_path, capsys):
    # one stray token in a 5000-label assignment line is named, and the
    # line is quoted only at its start
    inst, report = tmp_path / "gnm.instance", tmp_path / "run.report"
    assert main(["gen", "gnm", "--n", "5000", "--m", "2000", "--ell", "16", "--seed", "1",
                 "--out", str(inst)]) == 0
    assert main(["partition", str(inst), "--method", "mc", "--theorem", "2", "--k", "4",
                 "--out", str(report)]) == 0
    report.write_text(report.read_text().replace("\nassignment ", "\nassignment x ", 1))
    capsys.readouterr()
    assert main(["verify", str(report), "--instance", str(inst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report line 'assignment x "), err
    assert err.endswith(" characters): label 'x' is not an integer\n"), err
    assert len(err.encode()) < 200, err
    # a label past int64, which np.fromstring would clamp to 2**63 - 1, is
    # named as written, not as the clamped value
    text = report.read_text().replace("\nassignment x ", "\nassignment ", 1)
    # a lone sign, which np.fromstring would join to the next label, is named
    report.write_text(text.replace("\nassignment ", "\nassignment - ", 1))
    assert main(["verify", str(report), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err.endswith(": label '-' is not an integer\n")
    for big in ("99999999999999999999", "-99999999999999999999", "9" * 5000):
        report.write_text(text.replace("\nassignment ", f"\nassignment {big} ", 1))
        capsys.readouterr()
        assert main(["verify", str(report), "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report line 'assignment ") and err.count("\n") == 1, err
        assert err.endswith(f": label {_quoted(big)} is outside the int64 range\n"), err
        assert len(err.encode()) < 200, err
    # a 5000-character value on a float line, in a float token and on an int
    # line is quoted cut to its start as well, not by float's or int's message
    inst, texts = thm1_reports
    junk = "x" * 5000
    for pattern, edit, what in ((r"^initial-estimator .*$", f"initial-estimator {junk}", "a float"),
                                (r" threshold=\S+ ", f" threshold={junk} ", "a float"),
                                (r"^k .*$", f"k {junk}", "an integer")):
        text, count = re.subn(pattern, edit, texts["derand"], count=1, flags=re.M)
        assert count == 1
        report.write_text(text)
        capsys.readouterr()
        assert main(["verify", str(report), "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report line '") and err.count("\n") == 1, err
        assert err.endswith(f": {_quoted(junk)} is not {what}\n"), err
        assert len(err.encode()) < 200, err
