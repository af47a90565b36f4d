"""Run-report text: render and parse are inverse on every kind of report,
thresholds agree bit for bit, and `verify` survives corrupted reports."""

import pytest
from hypothesis import given, settings, strategies as st

from simulcut import epsilon_cap, resolve, threshold_for
from simulcut.bench import THEOREM_TOKENS, RunOptions, execute_run
from simulcut.cli import main
from simulcut.instances import generate, serialize_instance
from simulcut.report import parse_report, recheck, render_report

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
    rr = execute_run(family, opts).run_report
    text = render_report(rr)
    assert render_report(parse_report(text)) == text


def _closed_form(family, theorem, k, graph, stat):
    """The row's threshold straight from threshold_for."""
    m, ell = family.m[graph], family.ell
    if theorem == "hyp":
        return threshold_for("hyp", m=m, ell=ell, r=family.r, delta2=family.delta2[graph])
    if theorem == "thm3":
        return threshold_for("thm3_" + stat.split("(")[0], m=m, ell=ell, k=k,
                             eps=epsilon_cap(ell, k))
    return threshold_for(theorem, m=m, ell=ell, k=k)


# gen bounded-degree --n 294 --degree 2: the thm3 bound mu - sqrt(normalizer)
# computed from the penalty term differs from threshold_for in the last bit
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
    want = [repr(_closed_form(family, name, guarantee.k, g, stat))
            for g, stat, _ in guarantee.rows]
    assert [repr(thr) for _, _, thr in guarantee.rows] == want
    outcome = execute_run(family, RunOptions(method=method, theorem=theorem, k=k))
    engine = (outcome.derand_result.report if method == "derand"
              else outcome.run_report.cut_report)
    assert [repr(c.threshold) for c in engine.constraints] == want
    text = render_report(outcome.run_report)
    rendered = [tok.split("=", 1)[1] for ln in text.splitlines() if ln.startswith("constraint ")
                for tok in ln.split() if tok.startswith("threshold=")]
    assert rendered == want
    assert recheck(parse_report(text), family) == []


MUTANT_VALUES = ["", "x", "-1", "0", "nan", "inf", "1e400", "thm9", "hypergraphs"]


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
        rr = execute_run(family, opts).run_report
        assert rr.passed
        out.append((inst, render_report(rr).splitlines()))
    return where, out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 10 ** 6), st.sampled_from(["drop", "value", "key"]),
       st.sampled_from(MUTANT_VALUES), st.integers(0, 10 ** 6))
def test_verify_mutated_report_exits_0_or_2(rendered_reports, which, line, how, value, token):
    where, reports = rendered_reports
    inst, lines = reports[which]
    lines = list(lines)
    i = line % len(lines)
    key, _, rest = lines[i].partition(" ")
    if how == "drop":
        del lines[i]
    elif how == "key" and key == "constraint":
        tokens = rest.split()
        j = token % len(tokens)
        tokens[j] = tokens[j].partition("=")[0] + "=" + value
        lines[i] = "constraint " + " ".join(tokens)
    else:
        lines[i] = f"{key} {value}"
    bad = where / "mutant.report"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(bad), "--instance", str(inst)]) in (0, 2)
