"""Line-oriented run reports: render, parse, and recheck.

A run report is a stable-order `key value` document carrying everything
needed to audit a partitioning run: instance digest, config echo, the full
assignment, and one constraint row per guarantee.  Every count is
re-derivable from (instance, assignment): `recheck` resolves the echoed
guarantee and evaluates the assignment with the same `resolve` and
`evaluate` the engines use, so it recomputes the very same thresholds.
Floats are rendered with repr (shortest round-trip), so re-rendering
recomputed values is an exact string comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Assignment, Constraint, CutReport, HypergraphFamily, UNDECIDED
from .guarantee import evaluate, resolve
from .instances import serialize_instance, text_sha256


def instance_digest(family) -> str:
    """sha256 of the family's serialized text, the ``instance-sha256`` of its reports.

    A family parsed from text that was already in serialized form recorded
    that text's sha256 (``source_sha256``), which is the same digest; any
    other family is serialized and hashed here.
    """
    return family.source_sha256 or text_sha256(serialize_instance(family))


def _fmt(x) -> str:
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

    @property
    def passed(self) -> bool:
        return self.cut_report.all_pass


def render_report(rr: RunReport) -> str:
    lines = ["simulcut-report 1"]
    add = lines.append
    add(f"instance-sha256 {rr.digest}")
    add(f"kind {rr.kind}")
    add(f"n {rr.n}")
    add(f"ell {rr.ell}")
    if rr.r is not None:
        add(f"r {rr.r}")
    add(f"method {rr.method}")
    add(f"theorem {rr.theorem}")
    add(f"k {rr.k}")
    if rr.epsilon is not None:
        add(f"epsilon {_fmt(float(rr.epsilon))}")
    add(f"balanced {'yes' if rr.balanced else 'no'}")
    if rr.balanced and rr.balance_slack is not None:
        add(f"balance-slack {_fmt(float(rr.balance_slack))}")
    if rr.order is not None:
        add(f"order {rr.order}")
    if rr.seed is not None:
        add(f"seed {rr.seed}")
    if rr.max_tries is not None:
        add(f"max-tries {rr.max_tries}")
    if rr.tries is not None:
        add(f"tries {rr.tries}")
    if rr.descent_steps is not None:
        add(f"descent-steps {rr.descent_steps}")
    if rr.initial_estimator is not None:
        add(f"initial-estimator {_fmt(rr.initial_estimator)}")
    if rr.final_estimator is not None:
        add(f"final-estimator {_fmt(rr.final_estimator)}")
    add("assignment " + " ".join(str(x) for x in rr.assignment))
    for c, size in enumerate(rr.cut_report.class_sizes):
        add(f"class-size {c} {size}")
    if rr.kind == "hypergraphs":
        for i, count in enumerate(rr.cut_report.rainbow):
            add(f"member {i} rainbow {count}")
    else:
        for i, count in enumerate(rr.cut_report.crossing):
            add(f"member {i} crossing {count}")
    for c in rr.cut_report.constraints:
        add(f"constraint graph={c.graph} stat={c.stat} count={c.count} "
            f"threshold={_fmt(c.threshold)} margin={_fmt(c.margin)} "
            f"pass={'yes' if c.passed else 'no'}")
    add(f"wall-ms {_fmt(round(rr.wall_ms, 3))}")
    add(f"result {'pass' if rr.passed else 'fail'}")
    return "\n".join(lines) + "\n"


class ReportParseError(ValueError):
    pass


_REQUIRED_FIELDS = ("instance-sha256", "kind", "n", "ell", "method", "theorem", "k",
                    "assignment")
_CONSTRAINT_KEYS = ("graph", "stat", "count", "threshold", "margin", "pass")


def _require(table: dict[str, str], keys: tuple[str, ...], where: str) -> None:
    for key in keys:
        if key not in table:
            raise ReportParseError(f"{where} has no {key!r}")


def parse_report(text: str) -> RunReport:
    fields: dict[str, str] = {}
    class_sizes: list[int] = []
    member_counts: list[int] = []
    constraints: list[Constraint] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["simulcut-report", "1"]:
        raise ReportParseError("not a simulcut report (bad first line)")
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key == "class-size":
            c, size = rest.split()
            if int(c) != len(class_sizes):
                raise ReportParseError(f"class-size lines out of order at {ln!r}")
            class_sizes.append(int(size))
        elif key == "member":
            idx, _stat, count = rest.split()
            if int(idx) != len(member_counts):
                raise ReportParseError(f"member lines out of order at {ln!r}")
            member_counts.append(int(count))
        elif key == "constraint":
            kv = dict(tok.partition("=")[::2] for tok in rest.split())
            _require(kv, _CONSTRAINT_KEYS, f"constraint line {ln!r}")
            constraints.append(Constraint(
                graph=int(kv["graph"]), stat=kv["stat"], count=int(kv["count"]),
                threshold=float(kv["threshold"]), margin=float(kv["margin"]),
                passed=kv["pass"] == "yes"))
        else:
            fields[key] = rest

    def opt(key, conv):
        return conv(fields[key]) if key in fields else None

    _require(fields, _REQUIRED_FIELDS, "report")
    kind = fields["kind"]
    if kind == "hypergraphs":
        crossing: tuple[int, ...] = ()
        rainbow = tuple(member_counts)
    else:
        crossing = tuple(member_counts)
        rainbow = ()
    cut_report = CutReport(
        kind=kind, class_sizes=tuple(class_sizes), crossing=crossing,
        pairs=(), within=(), rainbow=rainbow, constraints=tuple(constraints))
    return RunReport(
        digest=fields["instance-sha256"],
        kind=kind,
        n=int(fields["n"]),
        ell=int(fields["ell"]),
        r=opt("r", int),
        method=fields["method"],
        theorem=fields["theorem"],
        k=int(fields["k"]),
        epsilon=opt("epsilon", float),
        balanced=fields.get("balanced") == "yes",
        balance_slack=opt("balance-slack", float),
        seed=opt("seed", int),
        max_tries=opt("max-tries", int),
        tries=opt("tries", int),
        order=fields.get("order"),
        descent_steps=opt("descent-steps", int),
        initial_estimator=opt("initial-estimator", float),
        final_estimator=opt("final-estimator", float),
        assignment=tuple(int(x) for x in fields["assignment"].split()),
        cut_report=cut_report,
        wall_ms=float(fields.get("wall-ms", "0")),
    )


def recheck(rr: RunReport, family) -> list[str]:
    """Re-derive every checkable line of a report; returns mismatch messages.

    Counts, thresholds, margins, pass flags, class sizes and the digest are
    recomputed from (instance, assignment), and the n, ell and r lines are
    compared with the instance; run metadata (tries, timing, estimator
    values) is not checkable without re-running and is ignored.
    """
    problems: list[str] = []
    digest = instance_digest(family)
    if digest != rr.digest:
        problems.append(f"instance digest mismatch: report says {rr.digest[:12]}.., "
                        f"instance is {digest[:12]}..")
        return problems
    r = family.r if isinstance(family, HypergraphFamily) else None
    for key, said, actual in (("n", rr.n, family.n), ("ell", rr.ell, family.ell), ("r", rr.r, r)):
        if said != actual:
            problems.append(f"{key} differs: report {said}, instance {actual}")
    if UNDECIDED in rr.assignment:
        problems.append("report assignment is not total")
        return problems
    if len(rr.assignment) != family.n:
        problems.append(f"assignment length {len(rr.assignment)} != n {family.n}")
        return problems
    guarantee = resolve(family, rr.theorem, k=rr.k, eps=rr.epsilon, balanced=rr.balanced,
                        slack=rr.balance_slack, max_tries=rr.max_tries or 64)
    fresh = evaluate(family, Assignment(rr.assignment, rr.k), guarantee)
    if fresh.class_sizes != rr.cut_report.class_sizes:
        problems.append(f"class sizes differ: report {rr.cut_report.class_sizes}, "
                        f"recomputed {fresh.class_sizes}")
    if rr.kind == "hypergraphs":
        if fresh.rainbow != rr.cut_report.rainbow:
            problems.append(f"rainbow counts differ: report {rr.cut_report.rainbow}, "
                            f"recomputed {fresh.rainbow}")
    else:
        if fresh.crossing != rr.cut_report.crossing:
            problems.append(f"crossing counts differ: report {rr.cut_report.crossing}, "
                            f"recomputed {fresh.crossing}")
    want = {(c.graph, c.stat): c for c in fresh.constraints}
    got = {(c.graph, c.stat): c for c in rr.cut_report.constraints}
    if set(want) != set(got):
        problems.append(f"constraint rows differ: report has {sorted(got)}, "
                        f"recomputed {sorted(want)}")
    else:
        for key in sorted(want):
            w, g = want[key], got[key]
            if (g.count != w.count or repr(float(g.threshold)) != repr(w.threshold)
                    or repr(float(g.margin)) != repr(w.margin) or g.passed != w.passed):
                problems.append(f"constraint {key} differs: report "
                                f"({g.count}, {g.threshold!r}, {g.passed}), recomputed "
                                f"({w.count}, {w.threshold!r}, {w.passed})")
    return problems
