"""Run-report text: render and parse are inverse on every kind of report."""

from hypothesis import given, settings, strategies as st

from simulcut.bench import RunOptions, execute_run
from simulcut.instances import generate
from simulcut.report import parse_report, render_report

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
