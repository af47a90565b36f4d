"""Line-oriented run reports: render, parse, and recheck.

A run report is a stable-order `key value` document carrying everything
needed to audit a partitioning run: instance digest, the run's resolved
`RunOptions` (the one record of its settings, which flags, suites and
reports all build), the full assignment, and its count section.  One
table, `_FIELDS`, names each leading line's key, its `RunReport`
attribute, its parser (none for a line written from the others) and the
method whose runs write it; `render_report` writes from it, and
`parse_report` reads with it and accepts a report only in the form
`render_report` writes.  Lines with a key the report does not know are
ignored, so new lines are additive.  `recheck` compares a report's lines
with those written from the instance, its options as the engines'
`resolve` gives them and the counts their `evaluate` gives.  A float is
written as the repr (shortest round-trip) of itself plus 0.0, so never
as -0.0, and two count sections are equal as values exactly when their
lines are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from operator import attrgetter

import numpy as np

from .derandomize import DerandResult
from .model import Assignment, Constraint, CutReport
from .guarantee import MAX_TRIES, THEOREMS, Guarantee, check_settings, evaluate, resolve
from .instances import _QUOTED, _quoted, serialize_instance, text_sha256

THEOREM_TOKENS = {"1": "thm1", "2": "thm2", "3": "thm3", **{name: name for name in THEOREMS}}


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


@dataclass(frozen=True)
class RunOptions:
    """Everything needed to run one method on one instance, checked as far
    as no instance is needed; ``theorem`` is kept under its name (thm1...)."""

    method: str
    theorem: str
    k: int | None = None
    epsilon: float | None = None
    balanced: bool = False
    slack: float | None = None
    seed: int = 0
    order: str = "natural"
    max_tries: int = MAX_TRIES

    def __post_init__(self):
        if self.method not in ("mc", "derand"):
            raise ValueError(f"method must be 'mc' or 'derand', got {self.method!r}")
        if self.theorem not in THEOREM_TOKENS:
            raise ValueError(f"unknown theorem token {self.theorem!r}")
        object.__setattr__(self, "theorem", THEOREM_TOKENS[self.theorem])
        if self.order not in ("natural", "degree"):
            raise ValueError(f"unknown order {self.order!r}: expected 'natural' or 'degree'")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.balanced and self.method == "derand":
            raise ValueError("balancing is a Monte-Carlo feature; "
                             "the descent does not track class sizes")
        check_settings(self.theorem, k=self.k, slack=self.slack, max_tries=self.max_tries)

    def resolve(self, family) -> tuple[Guarantee, RunOptions]:
        """The guarantee these options ask for on family, and the options with
        its k, epsilon and balance slack (None where it reads none)."""
        g = resolve(family, self.theorem, k=self.k, eps=self.epsilon, balanced=self.balanced,
                    slack=self.slack, max_tries=self.max_tries)
        return g, replace(self, k=g.k, epsilon=None if g.eps is None else float(g.eps),
                          slack=None if g.slack is None else float(g.slack))


@dataclass
class RunReport:
    """One partitioning run, as rendered to/parsed from report text; its
    ``options`` are the settings as its guarantee resolved them, and its
    kind, n, ell and descent steps are read off the fields that fix them."""

    digest: str
    options: RunOptions
    assignment: Assignment
    cut_report: CutReport
    r: int | None = None
    tries: int | None = None
    initial_estimator: float | None = None
    final_estimator: float | None = None
    wall_ms: float | None = None
    # the descent's `DerandResult`, whose steps only `partition --trace`
    # reads; None for mc runs and parsed reports, and never rendered
    descent: DerandResult | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.cut_report.all_pass

    @property
    def kind(self) -> str:
        return "graphs" if self.r is None else "hypergraphs"

    @property
    def n(self) -> int:
        return self.assignment.n

    @property
    def ell(self) -> int:
        return len(self.cut_report.member_counts)

    @property
    def descent_steps(self) -> int | None:   # a descent decides one vertex a step
        return self.assignment.n if self.options.method == "derand" else None


# (report key, RunReport attribute, parser or None for a value not read, the
# method whose runs write it or None for every run) of the leading `key value`
# lines, in render order; None values are not written, and yes/no is "yes"
_FIELDS = (
    ("instance-sha256", "digest", str, None),
    ("kind", "kind", None, None),
    ("n", "n", None, None),
    ("ell", "ell", None, None),
    ("r", "r", int, None),
    ("method", "options.method", str, None),
    ("theorem", "options.theorem", str, None),
    ("k", "options.k", int, None),
    ("epsilon", "options.epsilon", float, None),
    ("balanced", "options.balanced", "yes".__eq__, None),
    ("balance-slack", "options.slack", float, None),
    ("order", "options.order", str, "derand"),
    ("seed", "options.seed", int, "mc"),
    ("max-tries", "options.max_tries", int, "mc"),
    ("tries", "tries", int, "mc"),
    ("descent-steps", "descent_steps", None, "derand"),
    ("initial-estimator", "initial_estimator", float, "derand"),
    ("final-estimator", "final_estimator", float, "derand"),
)
# (key, getter, whether it is written as a float, method) of each _FIELDS line
_WRITTEN = tuple((key, attrgetter(attr), parse is float, method)
                 for key, attr, parse, method in _FIELDS)


def _labels(text: str) -> np.ndarray:
    """The assignment line's labels as an int64 array; the first token that
    is not an integer, or is one outside int64, is named as written."""
    try:
        labels = np.fromstring(text, dtype=np.int64, sep=" ")
    except ValueError:
        labels = None
    # np.fromstring reads "- 1" as one label: one label per token (per space, as written)
    if labels is None or labels.size != text.count(" ") + 1 and labels.size != len(text.split()):
        bad = next((tok for tok in text.split() if not tok.lstrip("+-").isdecimal()), text)
        raise ValueError(f"label {_quoted(bad)} is not an integer")
    # np.fromstring clamps a value outside int64 to an end of it; a token of
    # over 19 significant digits is outside, and int reads any shorter one
    top = np.iinfo(np.int64).max
    if labels.size and (labels.max() == top or labels.min() == -top - 1):
        for tok in text.split():
            digits = tok.lstrip("+-").lstrip("0")
            if len(digits) > 19 or int(digits or 0) > top + tok.startswith("-"):
                raise ValueError(f"label {_quoted(tok)} is outside the int64 range")
    return labels


def _read(parse, value: str):
    """parse(value); a value that int or float refuses is quoted cut by _quoted,
    since their own messages repeat all of it (_labels names its bad token)."""
    try:
        return parse(value)
    except ValueError:
        if parse not in (int, float):
            raise
        what = "an integer" if parse is int else "a float"
        raise ValueError(f"{_quoted(value)} is not {what}") from None


# the assignment line, and wall-ms after the class-size, member and constraint lines
_TRAILING = (("assignment", "assignment", _labels, None), ("wall-ms", "wall_ms", float, None))
# the `key=value` tokens of a constraint line, in render order, which is
# the order of Constraint's fields
_CONSTRAINT_FIELDS = (("graph", "graph", int), ("stat", "stat", str), ("count", "count", int),
                      ("threshold", "threshold", float), ("margin", "margin", float),
                      ("pass", "passed", "yes".__eq__))
# key -> (attribute name, whether it is a RunOptions field, parser) of each line read
_PARSERS = {key: (attr.removeprefix("options."), attr.startswith("options."), parse)
            for key, attr, parse, _ in _FIELDS + _TRAILING if parse}
_REQUIRED = ("instance-sha256", "method", "theorem", "k", "assignment")
# the outcome lines that every run of each method writes
_OUTCOMES = {"mc": ("tries",), "derand": ("initial-estimator", "final-estimator")}
# every key render_report writes, in render order
_KEYS = ("simulcut-report", *(key for key, *_ in _FIELDS), "assignment", "class-size", "member",
         "constraint", "wall-ms", "result")


def _lines(rr: RunReport) -> dict[str, list[str]]:
    """A report's lines by key, all but its assignment line."""
    lines = {"simulcut-report": ["simulcut-report 1"]}
    method = rr.options.method
    for key, get, is_float, writer in _WRITTEN:
        value = get(rr)
        if value is not None and writer in (None, method):
            # a float field is written as a float whatever number type it holds
            lines[key] = [f"{key} {_fmt(float(value) if is_float else value)}"]
    cut, stat = rr.cut_report, "crossing" if rr.r is None else "rainbow"
    lines["class-size"] = [f"class-size {c} {size}" for c, size in enumerate(cut.class_sizes)]
    lines["member"] = [f"member {i} {stat} {count}" for i, count in enumerate(cut.member_counts)]
    lines["constraint"] = [" ".join(["constraint"] + [f"{key}={_fmt(getattr(c, attr))}"
                                                      for key, attr, _ in _CONSTRAINT_FIELDS])
                           for c in cut.constraints]
    if rr.wall_ms is not None:
        lines["wall-ms"] = [f"wall-ms {_fmt(round(rr.wall_ms, 3))}"]
    lines["result"] = [f"result {'pass' if rr.passed else 'fail'}"]
    return lines


def render_report(rr: RunReport) -> str:
    lines = _lines(rr)
    # each label's string from a table of the k classes, unless there are
    # fewer labels than classes: then no table larger than the line
    a = rr.assignment
    names = [str(c) for c in range(a.k)] if a.k <= a.n else None
    lines["assignment"] = ["assignment " + " ".join(map(names.__getitem__ if names else str,
                                                        a.labels))]
    return "\n".join(ln for key in _KEYS for ln in lines.get(key, ())) + "\n"


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


def _require(keys, values):
    missing = [key for key in keys if key not in values]
    if missing:
        raise ValueError(f"report has no {missing[0]!r}")


def parse_report(text: str) -> RunReport:
    """Parse report text, accepted only in the form `render_report` writes.

    Each line with a key the report knows is read leniently, its run lines
    into a `RunOptions`, and those lines, in order, must equal
    `render_report` of what was read; the first that differs is quoted with
    the line written there.  A report as written must still hold the
    outcome lines that every run of its method writes (`tries` for mc, the
    estimators for derand).  Other lines, blank ones included, are ignored
    wherever they stand; CRLF ends are accepted.
    """
    values, rows = {}, {"class-size": [], "member": [], "constraint": []}
    for ln in text.splitlines():
        key, _, rest = ln.partition(" ")
        try:
            if key in _PARSERS:
                values[key] = _read(_PARSERS[key][2], rest)
            elif key == "constraint":
                rows[key].append(Constraint(*[_read(parse, tok.partition("=")[2])
                                              for (_, _, parse), tok
                                              in zip(_CONSTRAINT_FIELDS, rest.split(" "))]))
            elif key in rows:
                rows[key].append(_read(int, rest.rpartition(" ")[2]))
        except (ValueError, TypeError) as exc:  # TypeError: a constraint row too short
            raise ValueError(f"report line {_quoted(ln)}: {exc}") from None

    _require(_REQUIRED, values)
    named = [(_PARSERS[key][:2], value) for key, value in values.items()]
    options = RunOptions(**{name: v for (name, opt), v in named if opt})
    run = {name: v for (name, opt), v in named if not opt}
    # a label outside 0..k-1 is refused here, with Assignment's own message
    run["assignment"] = Assignment(run["assignment"], options.k)
    rr = RunReport(options=options, cut_report=CutReport(*map(tuple, rows.values())), **run)
    written = render_report(rr)
    # the text's known lines, as one string; the text itself when it is as written
    said = text if text == written else "".join(
        ln + "\n" for ln in text.splitlines() if ln.partition(" ")[0] in _KEYS)
    if said == written:     # and then it holds every line its method's runs write
        _require(_OUTCOMES[options.method], values)
        return rr
    a, b = next(pair for pair in zip_longest(said.splitlines(), written.splitlines(), fillvalue="")
                if pair[0] != pair[1])
    j = next(j for j, pair in enumerate(zip_longest(a.split(" "), b.split(" ")))
             if pair[0] != pair[1])
    raise ValueError(f"report line {_excerpt(a, j)} is not as written: want {_excerpt(b, j)}")


def recheck(rr: RunReport, family) -> list[str]:
    """Re-derive every checkable line of a report; returns mismatch messages.

    The report's lines are compared with those written with the instance's
    r, its options as they resolve there and the count section `evaluate`
    recomputes from the shared assignment; each key whose lines differ
    gives one message quoting its first differing line on each side, or
    `none`.  Seed and estimators cannot be checked without re-running,
    tries and wall-ms only against what a run writes, and a k line that its
    class-size lines do not match is rejected before anything is counted.
    """
    digest = instance_digest(family)
    if digest != rr.digest:
        return [f"instance digest mismatch: report says {rr.digest[:12]}.., "
                f"instance is {digest[:12]}.."]
    problems: list[str] = []
    opts = rr.options
    if rr.tries is not None and not 1 <= rr.tries <= opts.max_tries:
        problems.append(f"tries {rr.tries}, an mc run takes 1 to max-tries = {opts.max_tries}")
    if rr.wall_ms is not None and not 0 <= rr.wall_ms < math.inf:
        problems.append(f"wall-ms {_fmt(rr.wall_ms)}, a wall time is finite and >= 0")
    if len(rr.cut_report.class_sizes) != opts.k:
        problems.append(f"report has {len(rr.cut_report.class_sizes)} class-size lines "
                        f"for k {opts.k}")
        return problems
    guarantee, resolved = opts.resolve(family)
    fresh = replace(rr, r=getattr(family, "r", None), options=resolved,
                    cut_report=evaluate(family, rr.assignment, guarantee))
    if fresh == rr:     # equal reports are written as equal lines
        return problems
    said, want = _lines(rr), _lines(fresh)
    for key in _KEYS:
        diff = [p for p in zip_longest(said.get(key, ()), want.get(key, ())) if p[0] != p[1]]
        if diff:
            a, b = ("none" if ln is None else repr(ln) for ln in diff[0])
            problems.append(f"{key} lines differ: report {a}, recomputed {b}")
    return problems
