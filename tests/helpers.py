"""Shared instance builders for the test suite."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from simulcut import Bound, GraphFamily, Guarantee, HypergraphFamily, UNDECIDED
from simulcut.model import stat_mean


def all_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def random_edges(n, m, rng):
    return tuple(sorted(rng.sample(all_pairs(n), m)))


def random_family(n, ms, seed) -> GraphFamily:
    rng = random.Random(seed)
    return GraphFamily(n=n, graphs=tuple(random_edges(n, m, rng) for m in ms))


def random_hyperfamily(n, r, ms, seed) -> HypergraphFamily:
    rng = random.Random(seed)
    subsets = list(itertools.combinations(range(n), r))
    return HypergraphFamily(
        n=n, r=r, hypergraphs=tuple(tuple(sorted(rng.sample(subsets, m))) for m in ms))


def random_partial(n, k, seed, p_undecided=0.4) -> tuple[int, ...]:
    """Partial labels: each vertex UNDECIDED with probability p_undecided, else a class."""
    rng = random.Random(seed)
    return tuple(UNDECIDED if rng.random() < p_undecided else rng.randrange(k)
                 for _ in range(n))


def cycle_edges(n):
    return tuple(sorted((i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
                        for i in range(n)))


def c5_pair() -> GraphFamily:
    """Two edge-disjoint 5-cycles whose union is the complete graph on 5."""
    step1 = cycle_edges(5)
    step2 = tuple(sorted((min(i, (i + 2) % 5), max(i, (i + 2) % 5)) for i in range(5)))
    return GraphFamily(n=5, graphs=(step1, step2))


def triangle() -> GraphFamily:
    return GraphFamily(n=3, graphs=(((0, 1), (1, 2), (0, 2)),))


def key_unit(guarantee):
    """The unit of a descent's keys as ``(scale, shared)``.

    A key is ``scale`` times a difference of sum(quadratic / part) over the
    guarantee's specs, where scale = lcm(parts) * k^4 (r^(3r) for rainbow);
    the estimator is that sum over ``shared`` = sqrt(norm2), the factor that
    every spec's normalizer shares.  So ``scale * shared`` keys make one
    estimator unit.
    """
    specs, k = guarantee.specs, guarantee.k
    rainbow = bool(specs) and specs[0].kind == "rainbow"
    scale = math.lcm(*(s.part for s in specs)) * (k ** (3 * k) if rainbow else k ** 4)
    return scale, math.sqrt(guarantee.norm2)


def paper_threshold(theorem, m, *, ell, k=2, stat=None, eps=None, delta2=0):
    """One row's certified lower bound, written out from the README table.

    An independent reference for `resolve`'s display thresholds: it uses no
    package code.  ``stat`` names thm3's statistic (``pair...`` or
    ``within...``), ``k`` is hyp's r, and ``eps`` is thm3's epsilon as given.
    """
    if theorem == "thm1":
        return m / 2 - math.sqrt(ell * m / 2)
    if theorem == "thm2":
        return (k - 1) * m / k - math.sqrt(2 * ell * m)
    if theorem == "thm3":
        mean = 2 * m / k ** 2 if stat.startswith("pair") else m / k ** 2
        return mean - float(eps) ** 0.25 * m
    if theorem == "hyp":
        return (math.factorial(k) * m / k ** k
                - math.sqrt(2 * ell * (1 + k * (k - 1) * delta2) * m))
    raise ValueError(f"no formula for {theorem!r}")


def hand_built(fam, k, specs, norm2):
    """A guarantee of hand-built specs, with one row per spec at its certified
    bound mu - sqrt(normalizer): (mu - count)^4 <= norm2 * part^2."""
    rows = []
    for s in specs:
        mu = stat_mean(s.kind, fam.m[s.graph], s.k)
        rows.append((s, float(mu) - math.sqrt(math.sqrt(norm2) * s.part),
                     Bound(mu, Fraction(norm2) * s.part ** 2)))
    return Guarantee(k=k, rows=tuple(rows), norm2=norm2)
