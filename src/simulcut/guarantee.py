"""One guarantee resolved against one family, and the one evaluator of it.

`resolve` checks a guarantee's settings against an instance and fixes its
effective k, epsilon and balance slack.  `check_settings` holds the checks
that need no instance, and `settle` those that need only its member count
and uniformity, so run options are rejected before any run.  Per member,
one branch per theorem gives the normalizer's part and each statistic.
Every statistic is one ``(spec, threshold, bound)`` row: the spec is its
penalty term (mu - X)^2 / normalizer, and the row passes iff that term is
at most 1, which its `Bound` decides exactly from the mean and the squared
normalizer; the float threshold, mu - sqrt(normalizer) from the same mean
and part, is for display.  That branch is the only place that knows a
theorem's formulas.  `evaluate` counts every member of an assignment once
and decides each row, and a class size against the balance slack in
integers, so the engines, the reports and `verify` agree on every pass
and fail.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Bound,
    Constraint,
    CutReport,
    EpsilonRangeError,
    HypergraphFamily,
    epsilon_cap,
    partition_counts,
    rainbow_count,
    stat_mean,
)
from .estimator import DegreePreconditionError, EventSpec

THEOREMS = ("thm1", "thm2", "thm3", "hyp")
#: Default bound on the Monte-Carlo tries, which sizes the default balance slack.
MAX_TRIES = 64


@dataclass(frozen=True)
class Guarantee:
    """Effective settings and constraint rows of one guarantee.

    ``rows`` hold ``(spec, threshold, bound)`` for every statistic of every
    member, in report order; a spec's normalizer is sqrt(``norm2``) *
    part, norm2 kept exact, and an empty member's specs have part 0.
    ``specs``, derived on first read (only the descent and the reference
    estimator read them), are the penalty terms: the specs with part > 0.
    ``slack`` is set only when class sizes are balanced, and `evaluate`
    then adds one balance row per class.  ``max_tries`` bounds the
    Monte-Carlo tries the slack is sized for.
    """

    k: int
    rows: tuple[tuple[EventSpec, float, Bound], ...]
    norm2: Fraction
    eps: float | Fraction | None = None
    slack: float | None = None
    max_tries: int = MAX_TRIES

    def __post_init__(self):
        object.__setattr__(self, "norm2", Fraction(self.norm2))
        if not self.norm2 > 0:
            raise ValueError(f"norm2 must be > 0, got {self.norm2}")
        if self.max_tries < 1:      # mc_partition returns one of its tries
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")

    @functools.cached_property
    def specs(self) -> tuple[EventSpec, ...]:
        return tuple(spec for spec, _, _ in self.rows if spec.part)

    def __len__(self) -> int:
        """Number of penalty terms, the descent's work per vertex and class."""
        return len(self.specs)


def check_settings(theorem: str, k: int | None = None, slack: float | None = None,
                   max_tries: int = MAX_TRIES) -> None:
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
    and its `verify` decide every row on the same eps.  No other theorem
    reads eps, so its effective eps is None.
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
        # compared at float precision: float(cap) may round a hair above the
        # exact rational, and an epsilon echoed through a report must revalidate
        if not 0 < float(eps) <= float(cap):
            raise EpsilonRangeError(
                f"epsilon must satisfy 0 < eps <= 1/(9*ell^2*k^4) = {float(cap):.6g} "
                f"(ell={ell}, k={k}); got {eps!r}"
            )
        return k, eps
    return k, None


def resolve(family, theorem: str, k: int | None = None, eps=None, balanced: bool = False,
            slack: float | None = None, max_tries: int = MAX_TRIES) -> Guarantee:
    """Check a guarantee against a family and fix everything it needs.

    k and eps are fixed by `settle`; thm3 needs max_degree <= eps*m on every
    graph.  The slack is kept only under ``balanced``, where None means
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
    most 3*sqrt(eps) <= 1/(ell*k^2) each, (k+1)/(2k), for thm3.  The
    descent then ends with every term at most 1, and that is each row's
    one pass rule: ``Bound(mu, norm2 * part^2)``, count >= mu -
    sqrt(normalizer).  The row's display threshold is that bound in floats,
    float(mu) - sqrt(h * part) with h = sqrt(norm2) exact (ell/2 for thm1,
    2*ell for thm2 and hyp), and float(mu) - eps^(1/4) * m for thm3; at two
    graphs thm1 reads the paper's m/2 - sqrt(m).
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
    if not balanced:
        slack = None
    elif slack is None:
        slack = math.sqrt(family.n * math.log(2 * k * ell * max_tries))
    # h = sqrt(norm2), exact where it is rational (every theorem but thm3)
    h = Fraction(ell, 2) if theorem == "thm1" else Fraction(2 * ell)
    norm2 = Fraction(eps) if theorem == "thm3" else h * h

    # (kind, classes) of each statistic of a member
    if theorem == "thm3":
        stats = [("pair", tuple(itertools.combinations(range(k), 2))),
                 ("within", tuple((s, None) for s in range(k)))]
    else:
        stats = [("rainbow" if theorem == "hyp" else "crossing", ((None, None),))]
    num, den = norm2.numerator, norm2.denominator
    rows: list[tuple[EventSpec, float, Bound]] = []
    for i, m in enumerate(family.m):
        # part, and root = sqrt(normalizer) in floats
        if theorem == "thm3":
            part = m * m
            root = float(eps) ** 0.25 * m
        else:
            part = (1 + k * (k - 1) * family.delta2[i]) * m if theorem == "hyp" else m
            # float(h * part), correctly rounded, without building a Fraction
            root = math.sqrt(h.numerator * part / h.denominator)
        spread = Fraction(num * part * part, den)
        for kind, classes in stats:
            bound = Bound(stat_mean(kind, m, k), spread)
            threshold = float(bound.mean) - root
            for s, t in classes:
                rows.append((EventSpec(graph=i, kind=kind, k=k, s=s, t=t, part=part),
                             threshold, bound))
    return Guarantee(k=k, rows=tuple(rows), norm2=norm2, eps=eps, slack=slack,
                     max_tries=max_tries)


def evaluate(family, a, guarantee: Guarantee) -> CutReport:
    """Count every member under an assignment once and check each row.

    Pure in its inputs.  A statistic row passes when its `Bound` admits the
    count, which is count >= threshold decided exactly.  With a slack, one
    balance row per class follows, passing when |k*size - n| <= floor(k *
    slack), slack the exact value of its float.
    """
    k, n = guarantee.k, family.n
    if a.k != k:
        raise ValueError(f"assignment has k={a.k}, guarantee resolves to k={k}")
    if a.n != n:
        raise ValueError(f"assignment has {a.n} labels, family has n={n} vertices")
    sizes = a.class_sizes()
    pairs = within = ()
    if isinstance(family, HypergraphFamily):
        members = tuple(rainbow_count(rows, a, family.r) for rows in family.arrays)
    else:
        pairs, within, members = zip(*(partition_counts(rows, a) for rows in family.arrays))
    constraints = []
    for spec, threshold, bound in guarantee.rows:
        g = spec.graph
        count = (pairs[g].get((spec.s, spec.t), 0) if spec.kind == "pair"
                 else within[g][spec.s] if spec.kind == "within" else members[g])
        constraints.append(Constraint(graph=g, stat=spec.stat, count=count, threshold=threshold,
                                      margin=count - threshold, passed=bound.admits(count)))
    if guarantee.slack is not None:
        limit = math.floor(k * Fraction(guarantee.slack))
        constraints += [Constraint(graph=-1, stat=f"balance({c})", count=size,
                                   threshold=n / k - guarantee.slack,
                                   margin=guarantee.slack - abs(size - n / k),
                                   passed=abs(k * size - n) <= limit)
                        for c, size in enumerate(sizes)]
    return CutReport(class_sizes=sizes, member_counts=members, constraints=tuple(constraints))
