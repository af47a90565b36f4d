"""Exact conditional moments of cut statistics under partial labellings.

A partial labelling is a plain sequence with one label per vertex: a class
in 0..k-1, or UNDECIDED for an open vertex.  It exists only here and in the
oracle that checks this module; an `Assignment` is always total.  Every
statistic tracked here is a sum X = sum_e X_e of per-edge indicators over a
uniformly random k-labelling of the undecided vertices:

  crossing   X_e = 1 iff the endpoints of e land in different classes
  pair(s,t)  X_e = 1 iff e has one endpoint in class s and one in class t
  within(s)  X_e = 1 iff both endpoints of e land in class s
  rainbow    X_e = 1 iff the r vertices of hyperedge e cover all r classes

Conditional on the decided labels U, the indicators of vertex-disjoint edges
are independent, and edges sharing vertices become independent once the
shared labels are fixed, so first and second moments have exact closed
forms.  All probabilities are Fractions; `estimator_value` rounds each
exact quadratic once, for display.

The mean mu of a statistic on an m-edge member is `stat_mean(kind, m, k)`,
computed where a penalty term needs it and never stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .model import stat_mean

STAT_KINDS = ("crossing", "pair", "within", "rainbow")

#: Label value marking a vertex whose class has not been decided yet.
UNDECIDED = -1


class EstimatorBudgetError(ValueError):
    """The penalty terms cannot certify success (exact initial estimator >= 1)."""


class DegreePreconditionError(ValueError):
    """A graph's maximum degree exceeds eps * m, breaking the pairwise bound."""


@dataclass(frozen=True)
class EventSpec:
    """One quadratic penalty term ((mu - X)^2 / normalizer) over a statistic.

    The mean is `stat_mean(kind, m, k)` for the member's m edges.  The
    normalizer is sqrt(norm2) * ``part``: ``norm2``, the square of the
    factor that every spec of a guarantee shares, is the `Guarantee`'s, and
    ``part`` is the integer part that depends on the member, so the descent
    can weigh specs by lcm(parts) // part and decide on exact integers; an
    empty member's specs have part 0 and are no penalty term.  A list of
    specs is usable when its initial estimator, sum(Var X / normalizer), is
    below 1, which forces the greedy descent to end with every term at most
    1: every statistic at or above mu - sqrt(normalizer), the guarantee's
    threshold, which the row's `Bound` decides; `derandomize` checks that
    sum exactly.
    """

    graph: int
    kind: str
    k: int
    s: int | None = None
    t: int | None = None
    part: int = 1

    def __post_init__(self):
        if self.kind not in STAT_KINDS:
            raise ValueError(f"unknown statistic kind {self.kind!r}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if not self.part >= 0:
            raise ValueError(f"part must be >= 0, got {self.part}")
        if self.kind == "pair":
            if self.s is None or self.t is None or not 0 <= self.s < self.t < self.k:
                raise ValueError(f"pair statistic needs classes s < t < k, got {self.s}, {self.t}")
        elif self.kind == "within":
            if self.s is None or not 0 <= self.s < self.k:
                raise ValueError(f"within statistic needs a class s < k, got {self.s}")

    @property
    def stat(self) -> str:
        """The name in constraint rows: crossing, pair(s,t), within(s) or rainbow."""
        if self.kind == "pair":
            return f"pair({self.s},{self.t})"
        if self.kind == "within":
            return f"within({self.s})"
        return self.kind


def conditional_edge_prob(edge, labels, spec: EventSpec) -> Fraction:
    """Exact P[X_e = 1 | decided labels], by case analysis on the endpoints."""
    k = spec.k
    if spec.kind == "rainbow":
        seen = 0
        undecided = 0
        for x in edge:
            lab = labels[x]
            if lab == UNDECIDED:
                undecided += 1
            else:
                bit = 1 << lab
                if seen & bit:
                    return Fraction(0)
                seen |= bit
        return Fraction(math.factorial(undecided), k ** undecided)

    u, v = edge
    lu, lv = labels[u], labels[v]
    if spec.kind == "crossing":
        if lu == UNDECIDED or lv == UNDECIDED:
            return Fraction(k - 1, k)
        return Fraction(1) if lu != lv else Fraction(0)
    if spec.kind == "pair":
        s, t = spec.s, spec.t
        if lu == UNDECIDED and lv == UNDECIDED:
            return Fraction(2, k * k)
        if lu == UNDECIDED or lv == UNDECIDED:
            decided = lv if lu == UNDECIDED else lu
            return Fraction(1, k) if decided in (s, t) else Fraction(0)
        return Fraction(1) if (lu, lv) in ((s, t), (t, s)) else Fraction(0)
    # within(s)
    s = spec.s
    if lu == UNDECIDED and lv == UNDECIDED:
        return Fraction(1, k * k)
    if lu == UNDECIDED or lv == UNDECIDED:
        decided = lv if lu == UNDECIDED else lu
        return Fraction(1, k) if decided == s else Fraction(0)
    return Fraction(1) if lu == lv == s else Fraction(0)


def conditional_joint_prob(e1, e2, labels, spec: EventSpec) -> Fraction:
    """Exact E[X_e1 * X_e2 | decided labels] for two distinct edges.

    Disjoint edges factor into the product of their single-edge
    probabilities; edges with shared vertices are averaged over the
    uniform labels of the undecided shared vertices, under which the two
    indicators become conditionally independent.
    """
    if tuple(sorted(e1)) == tuple(sorted(e2)):
        raise ValueError("joint probability needs two distinct edges")
    shared = [x for x in e1 if x in e2]
    p1 = conditional_edge_prob(e1, labels, spec)
    p2 = conditional_edge_prob(e2, labels, spec)
    if not shared:
        return p1 * p2
    open_shared = [w for w in shared if labels[w] == UNDECIDED]
    if not open_shared:
        # shared labels fixed: the remaining endpoints are disjoint, hence independent
        return p1 * p2
    k = spec.k
    scratch = list(labels)
    total = Fraction(0)
    for assigned in itertools.product(range(k), repeat=len(open_shared)):
        for w, c in zip(open_shared, assigned):
            scratch[w] = c
        total += conditional_edge_prob(e1, scratch, spec) * conditional_edge_prob(e2, scratch, spec)
    return total / k ** len(open_shared)


def conditional_moments(edges, labels, spec: EventSpec):
    """Exact (E[X | U], E[X^2 | U]) for one member's statistic under labels U.

    The second moment is assembled from S1 = sum of edge probabilities,
    S2 = sum of their squares, and a correction for edge pairs that share
    vertices; pairs of disjoint edges contribute exactly the product of
    their probabilities.  Cost is O(m * max_degree) per call.
    """
    k = spec.k
    p = [conditional_edge_prob(e, labels, spec) for e in edges]
    s1 = sum(p, Fraction(0))
    s2 = sum((q * q for q in p), Fraction(0))
    ex2 = s1 + s1 * s1 - s2
    inc: list[list[int]] = [[] for _ in labels]     # the edges at each vertex
    for idx, e in enumerate(edges):
        for x in e:
            inc[x].append(idx)

    if spec.kind == "rainbow":
        # each unordered pair of edges sharing at least one vertex, once
        for i, j in {pair for ids in inc for pair in itertools.combinations(ids, 2)}:
            ex2 += 2 * (conditional_joint_prob(edges[i], edges[j], labels, spec) - p[i] * p[j])
        return s1, ex2

    # Graph statistics: distinct edges share at most one vertex, so pair
    # corrections decompose over the shared vertex.  Pairs through a decided
    # vertex are conditionally independent and cancel exactly.
    scratch = list(labels)
    for w in range(len(labels)):
        ids = inc[w]
        if labels[w] != UNDECIDED or len(ids) < 2:
            continue
        t_all = sum((p[i] for i in ids), Fraction(0))
        q_all = sum((p[i] * p[i] for i in ids), Fraction(0))
        joint_w = Fraction(0)
        for c in range(k):
            scratch[w] = c
            t_c = Fraction(0)
            q_c = Fraction(0)
            for i in ids:
                pc = conditional_edge_prob(edges[i], scratch, spec)
                t_c += pc
                q_c += pc * pc
            joint_w += t_c * t_c - q_c
        scratch[w] = UNDECIDED
        ex2 += joint_w / k - (t_all * t_all - q_all)
    return s1, ex2


def term_quadratic(edges, labels, spec: EventSpec) -> Fraction:
    """Exact mu^2 - 2*mu*E[X|U] + E[X^2|U] for one penalty term under labels U."""
    mu = stat_mean(spec.kind, len(edges), spec.k)
    s1, ex2 = conditional_moments(edges, labels, spec)
    return mu * mu - 2 * mu * s1 + ex2


def estimator_value(family, labels, guarantee) -> float:
    """Sum of a guarantee's penalty terms, each exact until divided by sqrt(norm2) * part."""
    root = math.sqrt(guarantee.norm2)
    total = 0.0
    for spec in guarantee.specs:
        quad = term_quadratic(family.arrays[spec.graph].tolist(), labels, spec)
        total += float(quad) / (root * spec.part)
    return total
