"""Line-oriented run reports: render, parse, and recheck.

A run report is a stable-order `key value` document carrying everything
needed to audit a partitioning run: instance digest, config echo, the full
assignment, and its count section: class sizes, one count per member and
one constraint row per statistic.  One table, `_FIELDS`, names each leading
line's key, its `RunReport` attribute and its parser; `render_report`
writes from it, and `parse_report` reads with it and accepts a report only
in the form `render_report` writes.  Lines with a key the report does not
know are ignored, so new lines are additive.  Every count is re-derivable
from (instance, assignment): `recheck` resolves the echoed guarantee and
evaluates the assignment with the same `resolve` and `evaluate` the
engines use.  A float is written as the repr (shortest round-trip) of
itself plus 0.0, so never as -0.0, and two count sections are equal as
values exactly when their lines are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .model import Assignment, Constraint, CutReport, HypergraphFamily, UNDECIDED
from .guarantee import MAX_TRIES, evaluate, resolve
from .instances import _QUOTED, serialize_instance, text_sha256


def instance_digest(family) -> str:
    """sha256 of the family's serialized text, the ``instance-sha256`` of its reports.

    A family parsed from text that was already in serialized form recorded
    that text's sha256 (``source_sha256``), which is the same digest; any
    other family is serialized and hashed here.
    """
    return family.source_sha256 or text_sha256(serialize_instance(family))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return repr(x + 0.0)
    return str(x)


@dataclass
class RunReport:
    """One partitioning run, as rendered to/parsed from report text."""

    digest: str
    kind: str
    n: int
    ell: int
    method: str
    theorem: str
    k: int
    assignment: tuple[int, ...]
    cut_report: CutReport
    r: int | None = None
    epsilon: float | None = None
    balanced: bool = False
    balance_slack: float | None = None
    seed: int | None = None
    max_tries: int | None = None
    tries: int | None = None
    order: str | None = None
    descent_steps: int | None = None
    initial_estimator: float | None = None
    final_estimator: float | None = None
    wall_ms: float | None = None
    # a descent's steps (`partition --trace`); never rendered
    trace: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.cut_report.all_pass


# (report key, RunReport attribute, parser) of the leading `key value`
# lines, in render order; None values are not written, and yes/no is "yes"
_FIELDS = (
    ("instance-sha256", "digest", str),
    ("kind", "kind", str),
    ("n", "n", int),
    ("ell", "ell", int),
    ("r", "r", int),
    ("method", "method", str),
    ("theorem", "theorem", str),
    ("k", "k", int),
    ("epsilon", "epsilon", float),
    ("balanced", "balanced", "yes".__eq__),
    ("balance-slack", "balance_slack", float),
    ("order", "order", str),
    ("seed", "seed", int),
    ("max-tries", "max_tries", int),
    ("tries", "tries", int),
    ("descent-steps", "descent_steps", int),
    ("initial-estimator", "initial_estimator", float),
    ("final-estimator", "final_estimator", float),
)
# the assignment line, and wall-ms after the class-size, member and constraint lines
_TRAILING = (("assignment", "assignment",
              lambda text: tuple(np.fromstring(text, dtype=np.int64, sep=" ").tolist())),
             ("wall-ms", "wall_ms", float))
# the `key=value` tokens of a constraint line, in render order, which is
# the order of Constraint's fields
_CONSTRAINT_FIELDS = (("graph", "graph", int), ("stat", "stat", str), ("count", "count", int),
                      ("threshold", "threshold", float), ("margin", "margin", float),
                      ("pass", "passed", "yes".__eq__))
_PARSERS = {key: (attr, parse) for key, attr, parse in _FIELDS + _TRAILING}
# a key is required when its RunReport attribute has no default, and so
# is not an attribute of the class
_REQUIRED = tuple(key for key, (attr, _) in _PARSERS.items() if not hasattr(RunReport, attr))
# every key render_report writes
_KNOWN = {"simulcut-report", "class-size", "member", "constraint", "result", *_PARSERS}


def _count_sections(kind: str, cut: CutReport):
    """The class-size, member and constraint lines of a report, as (name, lines) each."""
    stat = "rainbow" if kind == "hypergraphs" else "crossing"
    return (("class-size", [f"class-size {c} {size}" for c, size in enumerate(cut.class_sizes)]),
            ("member", [f"member {i} {stat} {count}"
                        for i, count in enumerate(cut.member_counts)]),
            ("constraint", [" ".join(["constraint"] + [f"{key}={_fmt(getattr(c, attr))}"
                                                       for key, attr, _ in _CONSTRAINT_FIELDS])
                            for c in cut.constraints]))


def render_report(rr: RunReport) -> str:
    lines = ["simulcut-report 1"]
    add = lines.append
    for key, attr, parse in _FIELDS:
        value = getattr(rr, attr)
        if value is None or (attr == "balance_slack" and not rr.balanced):
            continue
        # a float field is written as a float whatever number type it holds
        add(f"{key} {_fmt(float(value) if parse is float else value)}")
    # each label's string from a table of the classes, at most one per label;
    # a label outside them, as a parsed report may hold, is written by str
    names = {c: str(c) for c in range(min(rr.k, len(rr.assignment)))}
    try:
        add("assignment " + " ".join(map(names.__getitem__, rr.assignment)))
    except KeyError:
        add("assignment " + " ".join(map(str, rr.assignment)))
    for _, section in _count_sections(rr.kind, rr.cut_report):
        lines += section
    if rr.wall_ms is not None:
        add(f"wall-ms {_fmt(round(rr.wall_ms, 3))}")
    add(f"result {'pass' if rr.passed else 'fail'}")
    return "\n".join(lines) + "\n"


def _excerpt(line: str, j: int) -> str:
    """A line quoted around its j-th token and the one before, after its key,
    each cut to _QUOTED characters, `...` for the rest; `none` for "" (no line)."""
    if not line:
        return "none"
    tokens = line.split(" ")
    lo = max(j - 1, 0)
    parts = ((tokens[:1] + ["..."] * (lo > 1) if lo else [])
             + tokens[lo:lo + 2] + ["..."] * (lo + 2 < len(tokens)))
    return repr(" ".join(t if len(t) <= _QUOTED else t[:_QUOTED] + "..." for t in parts))


def parse_report(text: str) -> RunReport:
    """Parse report text, accepted only in the form `render_report` writes.

    Each line with a key the report knows is read leniently, and those
    lines, in order, must equal `render_report` of what was read; the first
    that differs is quoted with the line written there.  Other lines, blank
    ones included, are ignored wherever they stand; CRLF ends are accepted.
    """
    values, rows = {}, {"class-size": [], "member": [], "constraint": []}
    for ln in text.splitlines():
        key, _, rest = ln.partition(" ")
        try:
            if key in _PARSERS:
                values[key] = _PARSERS[key][1](rest)
            elif key == "constraint":
                rows[key].append(Constraint(*[parse(tok.partition("=")[2]) for (_, _, parse), tok
                                              in zip(_CONSTRAINT_FIELDS, rest.split(" "))]))
            elif key in rows:
                rows[key].append(int(rest.rpartition(" ")[2]))
        except (ValueError, TypeError) as exc:  # TypeError: a constraint row too short
            raise ValueError(f"report line {ln!r}: {exc}") from None

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ValueError(f"report has no {missing[0]!r}")
    rr = RunReport(cut_report=CutReport(*map(tuple, rows.values())),
                   **{_PARSERS[key][0]: value for key, value in values.items()})
    written = render_report(rr)
    # the text's known lines, as one string; the text itself when it is as written
    said = text if text == written else "".join(
        ln + "\n" for ln in text.splitlines() if ln.partition(" ")[0] in _KNOWN)
    if said == written:
        return rr
    a, b = next(pair for pair in zip_longest(said.splitlines(), written.splitlines(), fillvalue="")
                if pair[0] != pair[1])
    j = next(j for j, pair in enumerate(zip_longest(a.split(" "), b.split(" ")))
             if pair[0] != pair[1])
    raise ValueError(f"report line {_excerpt(a, j)} is not as written: want {_excerpt(b, j)}")


def recheck(rr: RunReport, family) -> list[str]:
    """Re-derive every checkable line of a report; returns mismatch messages.

    The kind, n, ell and r lines are compared with the instance.  The
    count section is recomputed from (instance, assignment); when it differs
    from the report's, each section whose lines differ gives one message,
    quoting its first differing line on each side, and so does the result.
    Run metadata (tries, timing, estimator values) is not checkable without
    re-running and is ignored.  A k line that its class-size lines do not
    match is rejected before anything is counted, so no work grows with a
    k the report does not back.
    """
    problems: list[str] = []
    digest = instance_digest(family)
    if digest != rr.digest:
        problems.append(f"instance digest mismatch: report says {rr.digest[:12]}.., "
                        f"instance is {digest[:12]}..")
        return problems
    r = family.r if isinstance(family, HypergraphFamily) else None
    for key, said, actual in (("kind", rr.kind, "graphs" if r is None else "hypergraphs"),
                              ("n", rr.n, family.n), ("ell", rr.ell, family.ell), ("r", rr.r, r)):
        if said != actual:
            problems.append(f"{key} differs: report {said}, instance {actual}")
    if len(rr.cut_report.class_sizes) != rr.k:
        problems.append(f"report has {len(rr.cut_report.class_sizes)} class-size lines "
                        f"for k {rr.k}")
        return problems
    if UNDECIDED in rr.assignment:
        problems.append("report assignment is not total")
        return problems
    if len(rr.assignment) != family.n:
        problems.append(f"assignment length {len(rr.assignment)} != n {family.n}")
        return problems
    guarantee = resolve(family, rr.theorem, k=rr.k, eps=rr.epsilon, balanced=rr.balanced,
                        slack=rr.balance_slack,
                        max_tries=MAX_TRIES if rr.max_tries is None else rr.max_tries)
    fresh = evaluate(family, Assignment(rr.assignment, rr.k), guarantee)
    if rr.cut_report == fresh:
        return problems
    for (name, said), (_, want) in zip(_count_sections(rr.kind, rr.cut_report),
                                       _count_sections(rr.kind, fresh)):
        if said != want:
            i = next((i for i, (a, b) in enumerate(zip(said, want)) if a != b),
                     min(len(said), len(want)))
            first = [repr(lines[i]) if i < len(lines) else "none" for lines in (said, want)]
            problems.append(f"{name} lines differ: report {first[0]}, recomputed {first[1]}")
    if rr.passed != fresh.all_pass:
        said, want = ("pass" if passed else "fail" for passed in (rr.passed, fresh.all_pass))
        problems.append(f"result differs: report {said}, recomputed {want}")
    return problems
