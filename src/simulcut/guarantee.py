"""One guarantee resolved against one family, and the one evaluator of it.

`resolve` checks a guarantee's settings against an instance and fixes its
effective k, epsilon and balance slack.  `check_settings` holds the checks
that need no instance, and `settle` those that need only its member count
and uniformity, so run options are rejected before any run.  Per
member, one branch per theorem gives the normalizer's part and each
statistic with its threshold and exact `Bound`, computed once by
`threshold_rule`, which owns every threshold's definition.  Each statistic
yields one ``(graph, stat, threshold, bound)`` row and, on a member with
edges, one penalty term for the descent.  `evaluate` counts every member
of an assignment once and decides each row exactly, a statistic by its
`Bound` and a class size in integers, so the engines, the reports and
`verify` agree on every pass and fail; the float threshold and margin are
for display.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Bound,
    Constraint,
    CutReport,
    HypergraphFamily,
    _check_epsilon,
    epsilon_cap,
    partition_counts,
    rainbow_count,
    threshold_rule,
)
from .estimator import DegreePreconditionError, EventSpec, stat_name

THEOREMS = ("thm1", "thm2", "thm3", "hyp")


@dataclass(frozen=True)
class Guarantee:
    """Effective settings, penalty terms and constraint rows of one guarantee.

    ``specs`` are the descent's penalty terms (members with edges only),
    each with normalizer sqrt(``norm2``) * part, norm2 kept exact; ``rows``
    hold ``(graph, stat, threshold, bound)`` for every member, then
    ``(-1, "balance(c)", n/k - slack, None)`` per class when balanced.
    ``max_tries`` bounds the Monte-Carlo tries the slack is sized for.
    """

    k: int
    specs: tuple[EventSpec, ...]
    rows: tuple[tuple[int, str, float, Bound | None], ...]
    norm2: Fraction
    eps: float | Fraction | None = None
    slack: float | None = None
    max_tries: int = 64

    def __post_init__(self):
        object.__setattr__(self, "norm2", Fraction(self.norm2))
        if not self.norm2 > 0:
            raise ValueError(f"norm2 must be > 0, got {self.norm2}")

    def __len__(self) -> int:
        """Number of penalty terms, the descent's work per vertex and class."""
        return len(self.specs)


def check_settings(theorem: str, k: int | None = None, slack: float | None = None,
                   max_tries: int = 64) -> None:
    """Reject the settings of a guarantee that are wrong on any instance."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown kind {theorem!r}; expected one of {THEOREMS}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    if k is not None and k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if slack is not None and not 0 < slack < math.inf:
        raise ValueError(f"balance_slack must be > 0 and finite, got {slack}")


def settle(theorem: str, k: int | None, eps, *, ell: int, r: int | None):
    """Effective k and epsilon on ell members, r-uniform hypergraphs or
    graphs (r None): the checks that need the family's shape, not its edges.

    k defaults to 2; thm1 allows only 2, hyp only r.  thm3's eps defaults to
    1/(9*ell^2*k^4), and any eps must lie in (0, that cap]; an eps whose
    float is the cap's (as a report echoes it) is the exact cap, so a run
    and its `verify` decide every row on the same eps.
    """
    if theorem == "hyp":
        if r is None:
            raise TypeError("kind 'hyp' needs a hypergraph family")
        if k not in (None, r):
            raise ValueError(f"rainbow partitions use k == r == {r}, got k={k}")
        k = r
    elif r is not None:
        raise TypeError(f"kind {theorem!r} needs a graph family")
    elif theorem == "thm1":
        if k not in (None, 2):
            raise ValueError(f"thm1 partitions into exactly 2 classes, got k={k}")
        k = 2
    elif k is None:
        k = 2
    if theorem == "thm3":
        cap = epsilon_cap(ell, k)
        if eps is None or float(eps) == float(cap):
            eps = cap
        _check_epsilon(eps, ell, k)
    return k, eps


def resolve(family, theorem: str, k: int | None = None, eps=None, balanced: bool = False,
            slack: float | None = None, max_tries: int = 64) -> Guarantee:
    """Check a guarantee against a family and fix everything it needs.

    k and eps are fixed by `settle`; thm3 needs max_degree <= eps*m on every
    graph.  A slack of None under ``balanced`` means
    sqrt(n * ln(2*k*ell*max_tries)), which keeps the combined per-try
    probability of any class drifting off n/k below 1/2.

    Penalty terms, each (mu - X)^2 / normalizer, with Var X bounded by var;
    a normalizer is sqrt(norm2) times the spec's ``part`` (in brackets):
      thm1  crossing per graph, normalizer ell/2*[m], var m/4
      thm2  k-way crossing per graph, normalizer 2*ell*[m], var m
      thm3  per (graph, class pair) and (graph, class), normalizer
            sqrt(eps)*[m^2], var 3*max_degree*m <= 3*eps*m^2
      hyp   rainbow per hypergraph, normalizer 2*ell*[w*m], var w*m with
            w = 1 + r*(r-1)*delta2
    The initial estimator is sum(Var X / normalizer), so these budgets keep
    it below 1: 1/2 for thm1, thm2 and hyp, and ell*k(k+1)/2 terms of at
    most 3*sqrt(eps) <= 1/(ell*k^2) each, (k+1)/(2k), for thm3.  A row's
    threshold and `Bound` come from `threshold_rule`: mu - sqrt(normalizer).
    """
    check_settings(theorem, k=k, slack=slack, max_tries=max_tries)
    ell = family.ell
    k, eps = settle(theorem, k, eps, ell=ell,
                    r=family.r if isinstance(family, HypergraphFamily) else None)
    if theorem == "thm3":
        for i in range(ell):
            if family.max_degree[i] > eps * family.m[i]:
                raise DegreePreconditionError(
                    f"graph {i}: max degree {family.max_degree[i]} exceeds "
                    f"eps*m = {float(eps) * family.m[i]:.6g}"
                )
    if balanced and slack is None:
        slack = math.sqrt(family.n * math.log(2 * k * ell * max_tries))
    norm2 = (Fraction(ell * ell, 4) if theorem == "thm1" else eps if theorem == "thm3"
             else 4 * ell * ell)

    specs: list[EventSpec] = []
    rows: list[tuple[int, str, float, Bound | None]] = []
    for i, m in enumerate(family.m):
        # the member's part, and (kind, s, t, threshold, bound) of each statistic
        if theorem in ("thm1", "thm2"):
            part = m
            stats = [("crossing", None, None, *threshold_rule(theorem, m=m, ell=ell, k=k))]
        elif theorem == "thm3":
            part = m * m
            pair = threshold_rule("thm3_pair", m=m, ell=ell, k=k, eps=eps)
            within = threshold_rule("thm3_within", m=m, ell=ell, k=k, eps=eps)
            stats = [("pair", s, t, *pair) for s, t in itertools.combinations(range(k), 2)]
            stats += [("within", s, None, *within) for s in range(k)]
        else:
            delta2 = family.delta2[i]
            part = (1 + k * (k - 1) * delta2) * m
            stats = [("rainbow", None, None,
                      *threshold_rule("hyp", m=m, ell=ell, r=k, delta2=delta2))]
        for kind, s, t, threshold, bound in stats:
            rows.append((i, stat_name(kind, s, t), threshold, bound))
            if m:           # no penalty term on an empty member: its thresholds are <= 0
                specs.append(EventSpec(graph=i, kind=kind, k=k, s=s, t=t, part=part))
    if balanced:
        rows += [(-1, f"balance({c})", family.n / k - slack, None) for c in range(k)]
    return Guarantee(k=k, specs=tuple(specs), rows=tuple(rows), norm2=norm2, eps=eps,
                     slack=slack, max_tries=max_tries)


def evaluate(family, a, guarantee: Guarantee) -> CutReport:
    """Count every member under a total assignment once and check each row.

    Pure in its inputs.  A statistic row passes when its `Bound` admits the
    count, which is count >= threshold decided exactly; a balance row when
    |k*size - n| <= floor(k * slack), slack the exact value of its float.
    """
    k, n = guarantee.k, family.n
    if a.k != k:
        raise ValueError(f"assignment has k={a.k}, guarantee resolves to k={k}")
    if a.n != n:
        raise ValueError(f"assignment has {a.n} labels, family has n={n} vertices")
    limit = None if guarantee.slack is None else math.floor(k * Fraction(guarantee.slack))
    sizes = a.class_sizes()
    counts = {(-1, f"balance({c})"): size for c, size in enumerate(sizes)}
    crossing = pairs = within = rainbow = ()
    hyper = isinstance(family, HypergraphFamily)
    if hyper:
        rainbow = tuple(rainbow_count(rows, a, family.r) for rows in family.arrays)
        counts.update(((i, "rainbow"), x) for i, x in enumerate(rainbow))
    else:
        # every class pair only when rows read them or within counts (thm3), so
        # thm1 and thm2 cost O(m + k) whatever the k
        every_pair = any(row[1].startswith(("pair(", "within(")) for row in guarantee.rows)
        pairs, within, crossing = zip(*(partition_counts(rows, a, every_pair)
                                        for rows in family.arrays))
        for i in range(family.ell):
            counts[i, "crossing"] = crossing[i]
            if every_pair:
                counts.update(((i, f"pair({s},{t})"), x) for (s, t), x in pairs[i].items())
                counts.update(((i, f"within({s})"), x) for s, x in enumerate(within[i]))
    constraints = []
    for graph, stat, threshold, bound in guarantee.rows:
        count = counts[graph, stat]
        if graph < 0:
            margin = guarantee.slack - abs(count - n / k)
            passed = abs(k * count - n) <= limit
        else:
            margin = count - threshold
            passed = bound.admits(count)
        constraints.append(Constraint(graph=graph, stat=stat, count=count,
                                      threshold=threshold, margin=margin, passed=passed))
    return CutReport(
        kind="hypergraphs" if hyper else "graphs",
        class_sizes=sizes,
        crossing=crossing,
        pairs=pairs,
        within=within,
        rainbow=rainbow,
        constraints=tuple(constraints),
    )
