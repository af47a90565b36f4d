"""Line-oriented run reports: render, parse, and recheck.

A run report is a stable-order `key value` document carrying everything
needed to audit a partitioning run: instance digest, the run's resolved
`RunOptions` (the one record of its settings, which flags, suites and
reports all build), the full assignment, and its count section.  One
table, `_FIELDS`, names each leading line's key, its `RunReport`
attribute, its parser and the method whose runs write it; `render_report`
writes from it, and `parse_report` reads with it and accepts a report only
in the form `render_report` writes.  Lines with a key the report does not
know are ignored, so new lines are additive.  Every count is re-derivable
from (instance, assignment): `recheck` resolves the report's options and
evaluates the assignment with the same `resolve` and `evaluate` the
engines use.  A float is written as the repr (shortest round-trip) of
itself plus 0.0, so never as -0.0, and two count sections are equal as
values exactly when their lines are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from operator import attrgetter

import numpy as np

from .derandomize import DerandResult
from .model import Assignment, Constraint, CutReport, HypergraphFamily
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
    ``options`` are the settings as its guarantee resolved them."""

    digest: str
    kind: str
    n: int
    ell: int
    options: RunOptions
    assignment: Assignment
    cut_report: CutReport
    r: int | None = None
    tries: int | None = None
    descent_steps: int | None = None
    initial_estimator: float | None = None
    final_estimator: float | None = None
    wall_ms: float | None = None
    # the descent's `DerandResult`, whose steps only `partition --trace`
    # reads; None for mc runs and parsed reports, and never rendered
    descent: DerandResult | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.cut_report.all_pass


# (report key, RunReport attribute, parser, the method whose runs write it
# or None for every run) of the leading `key value` lines, in render order;
# None values are not written, and yes/no is "yes"
_FIELDS = (
    ("instance-sha256", "digest", str, None),
    ("kind", "kind", str, None),
    ("n", "n", int, None),
    ("ell", "ell", int, None),
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
    ("descent-steps", "descent_steps", int, "derand"),
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
# key -> (attribute name, whether it is a RunOptions field, parser)
_PARSERS = {key: (attr.removeprefix("options."), attr.startswith("options."), parse)
            for key, attr, parse, _ in _FIELDS + _TRAILING}
_REQUIRED = ("instance-sha256", "kind", "n", "ell", "method", "theorem", "k", "assignment")
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
    method = rr.options.method
    for key, get, is_float, writer in _WRITTEN:
        value = get(rr)
        if value is None or writer and writer != method:
            continue
        # a float field is written as a float whatever number type it holds
        add(f"{key} {_fmt(float(value) if is_float else value)}")
    # each label's string from a table of the k classes, unless there are
    # fewer labels than classes: then no table larger than the line
    a = rr.assignment
    names = [str(c) for c in range(a.k)] if a.k <= a.n else None
    add("assignment " + " ".join(map(names.__getitem__ if names else str, a.labels)))
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

    Each line with a key the report knows is read leniently, its run lines
    into a `RunOptions`, and those lines, in order, must equal
    `render_report` of what was read; the first that differs is quoted with
    the line written there.  Other lines, blank ones included, are ignored
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

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ValueError(f"report has no {missing[0]!r}")
    named = [(_PARSERS[key][:2], value) for key, value in values.items()]
    options = RunOptions(**{name: v for (name, opt), v in named if opt})
    run = {name: v for (name, opt), v in named if not opt}
    # a label outside 0..k-1 is refused here, with Assignment's own message
    run["assignment"] = Assignment(run["assignment"], options.k)
    rr = RunReport(options=options, cut_report=CutReport(*map(tuple, rows.values())), **run)
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

    The kind, n, ell and r lines are compared with the instance, the
    outcome lines with what a run writes (n descent steps, 1 to max-tries
    tries, a finite wall time >= 0), and the balance slack with the one
    the options resolve to.  The count section is recomputed from
    (instance, assignment); when it differs from the report's, each section
    whose lines differ gives one message, quoting its first differing line
    on each side, and so does the result.  The seed and the estimator
    values are not checkable without re-running.  A k line that its
    class-size lines do not match is rejected before anything is counted.
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
    opts = rr.options
    if rr.descent_steps not in (None, family.n):
        problems.append(f"descent-steps {rr.descent_steps}, a descent takes n = {family.n} steps")
    if rr.tries is not None and not 1 <= rr.tries <= opts.max_tries:
        problems.append(f"tries {rr.tries}, an mc run takes 1 to max-tries = {opts.max_tries}")
    if rr.wall_ms is not None and not 0 <= rr.wall_ms < math.inf:
        problems.append(f"wall-ms {_fmt(rr.wall_ms)}, a wall time is finite and >= 0")
    if len(rr.cut_report.class_sizes) != opts.k:
        problems.append(f"report has {len(rr.cut_report.class_sizes)} class-size lines "
                        f"for k {opts.k}")
        return problems
    guarantee, resolved = opts.resolve(family)
    if resolved.slack != opts.slack:
        said, want = ("none" if x is None else _fmt(x) for x in (opts.slack, resolved.slack))
        problems.append(f"balance-slack differs: report {said}, resolved {want}")
    fresh = evaluate(family, rr.assignment, guarantee)
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
