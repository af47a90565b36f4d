"""Exhaustive ground truth at desk scale.

Everything here is brute force on purpose: exact optima by enumerating all
partitions, and exact conditional moments by averaging over all completions
of a partial label sequence (one label per vertex, UNDECIDED where open).
These are the independent checks the samplers, the estimator, and the
descent are validated against, so none of them may share code with the
paths they verify.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import itemgetter, sub

from .model import Assignment, GraphFamily
from .estimator import UNDECIDED, EventSpec

#: Hard ceiling on k**n for full enumeration.
ENUMERATION_LIMIT = 10 ** 8

#: Hard ceiling on undecided vertices for completion averaging.
COMPLETION_LIMIT = 12


class SizeLimitError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _gray_enumerate(n_digits: int, k: int):
    """Loopless reflected mixed-radix Gray codes: yields (digit, new_value).

    The implicit first state is all zeros; each yielded step changes exactly
    one digit by +-1.  Yields k**n_digits - 1 steps in total.
    """
    a = [0] * n_digits
    o = [1] * n_digits
    f = list(range(n_digits + 1))
    while True:
        j = f[0]
        f[0] = 0
        if j == n_digits:
            return
        a[j] += o[j]
        yield j, a[j]
        if a[j] == 0 or a[j] == k - 1:
            o[j] = -o[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1


def _enumerate_partitions(family: GraphFamily, k: int):
    """Yield ``(labels, cuts)`` for every partition with vertex 0 pinned, in
    Gray-code order.

    `cuts[i]` is maintained incrementally as the number of crossing edges of
    graph i.  Both lists are updated in place after each yield, so a caller
    copies what it keeps.  Label-symmetric objectives lose nothing by pinning
    vertex 0 to class 0.
    """
    n = family.n
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k ** max(n, 1) > ENUMERATION_LIMIT:
        raise SizeLimitError(
            f"k^n = {k}^{n} exceeds the enumeration limit {ENUMERATION_LIMIT}"
        )
    adj = []
    for edges in family.arrays:
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges.tolist():
            rows[u].append(v)
            rows[v].append(u)
        adj.append(rows)

    labels = [0] * n
    cuts = [0] * family.ell
    yield labels, cuts
    if n <= 1:
        return
    for digit, value in _gray_enumerate(n - 1, k):
        v = digit + 1
        old = labels[v]
        for g, rows in enumerate(adj):
            delta = 0
            for u in rows[v]:
                lu = labels[u]
                delta += (value != lu) - (old != lu)
            cuts[g] += delta
        labels[v] = value
        yield labels, cuts


def enumerate_best(family: GraphFamily, k: int, objective,
                   centers=None, thresholds=None):
    """Exact optimum over all k-partitions, by full enumeration.

    objective:
      "maxcut"       single graph: maximize the crossing count (ell must be 1)
      "simultaneous" maximize min over graphs of (crossing_i - centers[i]);
                     centers defaults to m_i / 2
      "feasible"     first partition with crossing_i >= thresholds[i] for all
                     i, or (None, False) if none exists

    Ties go to the first partition in enumeration order.  Returns
    (Assignment, value); for "feasible" the value is True/False.
    """
    if objective == "maxcut":
        if family.ell != 1:
            raise ValueError("maxcut objective expects a single graph")
        score = itemgetter(0)
    elif objective == "simultaneous":
        if centers is None:
            centers = [m / 2 for m in family.m]
        if len(centers) != family.ell:
            raise ValueError(f"need one center per graph, got {len(centers)}")

        def score(cuts):
            return min(map(sub, cuts, centers))
    elif objective == "feasible":
        if thresholds is None or len(thresholds) != family.ell:
            raise ValueError("feasible objective needs one threshold per graph")
        for labels, cuts in _enumerate_partitions(family, k):
            if all(c >= t for c, t in zip(cuts, thresholds)):
                return Assignment(tuple(labels), k), True
        return None, False
    else:
        raise ValueError(f"unknown objective {objective!r}")
    best = value = None
    for labels, cuts in _enumerate_partitions(family, k):
        x = score(cuts)
        if value is None or x > value:
            best, value = tuple(labels), x
    return Assignment(best, k), value


def max_cut(family: GraphFamily) -> int:
    """Exact max cut of a single graph (k = 2)."""
    return enumerate_best(family, 2, "maxcut")[1]


def _realized_count(labels, edges, spec: EventSpec) -> int:
    kind = spec.kind
    if kind == "crossing":
        return sum(1 for u, v in edges if labels[u] != labels[v])
    if kind == "pair":
        s, t = spec.s, spec.t
        return sum(1 for u, v in edges
                   if (labels[u], labels[v]) in ((s, t), (t, s)))
    if kind == "within":
        s = spec.s
        return sum(1 for u, v in edges if labels[u] == s and labels[v] == s)
    # rainbow
    r = spec.k
    return sum(1 for e in edges if len({labels[x] for x in e}) == r)


def moments_by_completion(edges, labels, spec: EventSpec):
    """Exact (E[X|U], E[X^2|U]) by averaging over every completion of labels U.

    Enumerates all k**u total labellings extending `labels` (u = number of
    UNDECIDED vertices, at most 12) and averages the realized statistic and
    its square.  This is the independent oracle for conditional_moments.
    """
    open_vertices = [v for v, lab in enumerate(labels) if lab == UNDECIDED]
    u = len(open_vertices)
    if u > COMPLETION_LIMIT:
        raise SizeLimitError(
            f"{u} undecided vertices exceed the completion limit {COMPLETION_LIMIT}"
        )
    k = spec.k
    labels = list(labels)
    sum_x = 0
    sum_x2 = 0
    for combo in itertools.product(range(k), repeat=u):
        for w, c in zip(open_vertices, combo):
            labels[w] = c
        x = _realized_count(labels, edges, spec)
        sum_x += x
        sum_x2 += x * x
    total = k ** u
    return Fraction(sum_x, total), Fraction(sum_x2, total)
