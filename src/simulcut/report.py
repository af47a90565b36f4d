"""Line-oriented run reports: render, parse, and recheck.

A run report is a stable-order `key value` document carrying everything
needed to audit a partitioning run: instance digest, config echo, the full
assignment, and its count section: class sizes, one count per member and
one constraint row per statistic.  One table, `_FIELDS`, names each leading
line's key, its `RunReport` attribute and its parser; `render_report`
writes from it, `parse_report` reads with it, a key may appear once, and it
is required when its attribute has no default.  Lines with a key the table
does not know are ignored, so new lines are additive.  Every count is
re-derivable from (instance, assignment): `recheck` resolves the echoed
guarantee and evaluates the assignment with the same `resolve` and
`evaluate` the engines use, and writes the count lines with the same
`_count_sections` as `render_report`.  Floats are rendered with repr
(shortest round-trip), so comparing them is an exact string comparison.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .model import Assignment, Constraint, CutReport, HypergraphFamily, UNDECIDED
from .guarantee import MAX_TRIES, evaluate, resolve
from .instances import serialize_instance, text_sha256


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
        return repr(x)
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
    wall_ms: float = 0.0
    # the `result` line of a parsed report; rendering writes `passed`
    result: str | None = None
    # a descent's steps (`partition --trace`); never rendered
    trace: tuple = field(default=(), repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.cut_report.all_pass


def _yes(text: str) -> bool:
    if text not in ("yes", "no"):
        raise ValueError("want 'yes' or 'no'")
    return text == "yes"


def _pass_or_fail(text: str) -> str:
    if text not in ("pass", "fail"):
        raise ValueError("want 'pass' or 'fail'")
    return text


# (report key, RunReport attribute, parser) of the leading `key value`
# lines, in render order; None values are not written
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
    ("balanced", "balanced", _yes),
    ("balance-slack", "balance_slack", float),
    ("order", "order", str),
    ("seed", "seed", int),
    ("max-tries", "max_tries", int),
    ("tries", "tries", int),
    ("descent-steps", "descent_steps", int),
    ("initial-estimator", "initial_estimator", float),
    ("final-estimator", "final_estimator", float),
)
# the `key value` lines written after the table's, around the per-class,
# per-member and constraint lines
_TRAILING = (("assignment", "assignment", lambda text: tuple(map(int, text.split()))),
             ("wall-ms", "wall_ms", float), ("result", "result", _pass_or_fail))
# the `key=value` tokens of a constraint line, in render order
_CONSTRAINT_FIELDS = (("graph", "graph", int), ("stat", "stat", str), ("count", "count", int),
                      ("threshold", "threshold", float), ("margin", "margin", float),
                      ("pass", "passed", _yes))
_PARSERS = {key: (attr, parse) for key, attr, parse in _FIELDS + _TRAILING}
# a key is required when its RunReport attribute has no default, and so is
# the result line, which `recheck` compares with the recomputed rows
_OPTIONAL = {f.name for f in fields(RunReport) if f.default is not MISSING}
_REQUIRED = tuple(key for key, (attr, _) in _PARSERS.items()
                  if attr not in _OPTIONAL or key == "result")


def _member_stat(kind: str) -> str:
    """The word of the `member` lines of a report's kind."""
    return "rainbow" if kind == "hypergraphs" else "crossing"


def _count_sections(kind: str, cut: CutReport):
    """The class-size, member and constraint lines of a report, as (name, lines) each."""
    stat = _member_stat(kind)
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
    add(f"wall-ms {_fmt(round(rr.wall_ms, 3))}")
    add(f"result {'pass' if rr.passed else 'fail'}")
    return "\n".join(lines) + "\n"


class ReportParseError(ValueError):
    pass


def _require(table: dict, keys, where: str) -> None:
    for key in keys:
        if key not in table:
            raise ReportParseError(f"{where} has no {key!r}")


def parse_report(text: str) -> RunReport:
    """Parse report text; lines with a key the report does not know are ignored,
    and a key it knows may appear once."""
    values: dict[str, object] = {}
    counts: dict[str, list[int]] = {"class-size": [], "member": []}
    member_words: list[tuple[str, str]] = []
    constraints: list[Constraint] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["simulcut-report", "1"]:
        raise ReportParseError("not a simulcut report (bad first line)")
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        try:
            if key in counts:
                tokens = rest.split()
                if len(tokens) != (2 if key == "class-size" else 3):
                    raise ValueError("want 'class-size <class> <size>'" if key == "class-size"
                                     else "want 'member <index> <stat> <count>'")
                if int(tokens[0]) != len(counts[key]):
                    raise ReportParseError(f"{key} lines out of order at {ln!r}")
                counts[key].append(int(tokens[-1]))
                if key == "member":
                    member_words.append((ln, tokens[1]))
            elif key == "constraint":
                kv = dict(tok.partition("=")[::2] for tok in rest.split())
                _require(kv, [name for name, _, _ in _CONSTRAINT_FIELDS],
                         f"constraint line {ln!r}")
                constraints.append(Constraint(
                    **{attr: parse(kv[key]) for key, attr, parse in _CONSTRAINT_FIELDS}))
            elif key in _PARSERS:
                if key in values:
                    raise ValueError(f"repeats key {key!r}")
                values[key] = _PARSERS[key][1](rest)
        except ReportParseError:
            raise
        except ValueError as exc:
            raise ReportParseError(f"report line {ln!r}: {exc}") from None

    _require(values, _REQUIRED, "report")
    stat = _member_stat(values["kind"])
    for ln, word in member_words:
        if word != stat:
            raise ReportParseError(f"report line {ln!r}: want {stat!r} in a "
                                   f"{values['kind']} report")
    cut_report = CutReport(class_sizes=tuple(counts["class-size"]),
                           member_counts=tuple(counts["member"]), constraints=tuple(constraints))
    return RunReport(cut_report=cut_report,
                     **{_PARSERS[key][0]: value for key, value in values.items()})


def recheck(rr: RunReport, family) -> list[str]:
    """Re-derive every checkable line of a report; returns mismatch messages.

    The kind, n, ell and r lines are compared with the instance.  The
    class-size, member and constraint lines are recomputed from (instance,
    assignment), rendered as `render_report` writes them, and compared with
    the report's own, re-rendered, in order: each section that differs gives
    one message, quoting its first differing line on each side.  The result
    line is compared with the recomputed rows.  Run metadata (tries, timing,
    estimator values) is not checkable without re-running and is ignored.
    A k line that its class-size lines do not match is rejected before
    anything is counted, so no work grows with a k the report does not back.
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
    for (name, said), (_, want) in zip(_count_sections(rr.kind, rr.cut_report),
                                       _count_sections(rr.kind, fresh)):
        if said != want:
            i = next((i for i, (a, b) in enumerate(zip(said, want)) if a != b),
                     min(len(said), len(want)))
            first = [repr(lines[i]) if i < len(lines) else "none" for lines in (said, want)]
            problems.append(f"{name} lines differ: report {first[0]}, recomputed {first[1]}")
    result = "pass" if fresh.all_pass else "fail"
    if rr.result != result:
        problems.append(f"result differs: report {rr.result}, recomputed {result}")
    return problems
