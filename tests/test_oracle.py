"""Exhaustive enumeration: exact optima, the tight cut bound, completion moments."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from simulcut import (
    Assignment,
    GraphFamily,
    SizeLimitError,
    UNDECIDED,
    edwards_bound,
    enumerate_best,
    max_cut,
    moments_by_completion,
    partition_counts,
)
from simulcut.estimator import EventSpec
from simulcut.oracle import _gray_enumerate

from helpers import c5_pair, cycle_edges, random_edges, random_partial, triangle


class TestGrayEnumeration:
    @pytest.mark.parametrize("n_digits,k", [(1, 2), (3, 2), (4, 3), (2, 5), (5, 2)])
    def test_visits_every_tuple_once_with_unit_steps(self, n_digits, k):
        state = [0] * n_digits
        seen = {tuple(state)}
        for digit, value in _gray_enumerate(n_digits, k):
            assert abs(value - state[digit]) == 1
            state[digit] = value
            seen.add(tuple(state))
        assert len(seen) == k ** n_digits


class TestEnumerateBest:
    def test_c5_max_cut(self):
        fam = GraphFamily(n=5, graphs=(cycle_edges(5),))
        assert max_cut(fam) == 4

    def test_triangle_max_cut(self):
        assert max_cut(triangle()) == 2

    def test_c5_pair_counterexample(self):
        fam = c5_pair()
        witness, feasible = enumerate_best(fam, 2, "feasible", thresholds=[3, 3])
        assert not feasible and witness is None
        _, best = enumerate_best(fam, 2, "simultaneous", centers=[0, 0])
        assert best == 2  # some bipartition cuts 2 edges of each cycle, none cuts 3+3

    def test_feasible_returns_witness(self):
        fam = c5_pair()
        witness, feasible = enumerate_best(fam, 2, "feasible", thresholds=[2, 2])
        assert feasible
        assert all(partition_counts(g, witness)[2] >= 2 for g in fam.arrays)

    @pytest.mark.parametrize("k, objective, options, message", [
        (1, "maxcut", {}, "k must be >= 2, got 1"),
        (2, "simultaneous", dict(centers=[1]), "need one center per graph, got 1"),
        (2, "feasible", {}, "feasible objective needs one threshold per graph"),
        (2, "feasible", dict(thresholds=[1, 1, 1]),
         "feasible objective needs one threshold per graph"),
        (2, "best", {}, "unknown objective 'best'"),
    ])
    def test_input_checks(self, k, objective, options, message):
        fam = GraphFamily(n=5, graphs=(cycle_edges(5),)) if objective == "maxcut" else c5_pair()
        with pytest.raises(ValueError) as exc:
            enumerate_best(fam, k, objective, **options)
        assert str(exc.value) == message

    def test_maxcut_needs_single_graph(self):
        with pytest.raises(ValueError):
            enumerate_best(c5_pair(), 2, "maxcut")

    def test_size_guard(self):
        fam = GraphFamily(n=30, graphs=(((0, 1),),))
        with pytest.raises(SizeLimitError):
            enumerate_best(fam, 2, "maxcut")

    def test_matches_naive_enumeration(self):
        # independent recount: iterate all labelings with itertools.product
        rng = random.Random(3)
        for trial in range(10):
            n = rng.randint(2, 7)
            m = rng.randint(0, n * (n - 1) // 2)
            fam = GraphFamily(n=n, graphs=(random_edges(n, m, rng),))
            k = rng.choice([2, 3])
            _, got = enumerate_best(fam, k, "maxcut")
            want = 0
            for labels in itertools.product(range(k), repeat=n):
                cut = sum(1 for u, v in fam.arrays[0] if labels[u] != labels[v])
                want = max(want, cut)
            assert got == want

    def test_label_symmetry(self):
        rng = random.Random(5)
        fam = GraphFamily(n=7, graphs=(random_edges(7, 12, rng), random_edges(7, 9, rng)))
        best_a, value = enumerate_best(fam, 3, "simultaneous")
        perm = [2, 0, 1]
        permuted = Assignment(tuple(perm[x] for x in best_a.labels), 3)
        for i, g in enumerate(fam.arrays):
            _, _, c0 = partition_counts(g, best_a)
            _, _, c1 = partition_counts(g, permuted)
            assert c0 == c1

    def test_relabel_invariance(self):
        rng = random.Random(6)
        for trial in range(6):
            n = rng.randint(3, 7)
            m = rng.randint(1, n * (n - 1) // 2)
            edges = random_edges(n, m, rng)
            fam = GraphFamily(n=n, graphs=(edges,))
            perm = list(range(n))
            rng.shuffle(perm)
            mapped = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                                  for u, v in edges))
            fam2 = GraphFamily(n=n, graphs=(mapped,))
            assert max_cut(fam) == max_cut(fam2)


class TestEdwards:
    def test_triangle_tight(self):
        assert max_cut(triangle()) == edwards_bound(3) == 2.0

    def test_c5(self):
        fam = GraphFamily(n=5, graphs=(cycle_edges(5),))
        assert max_cut(fam) >= edwards_bound(5)
        assert edwards_bound(5) == pytest.approx(2.5 + math.sqrt(0.640625) - 0.125, abs=1e-12)

    def test_random_corpus(self):
        rng = random.Random(8)
        for trial in range(40):
            n = rng.randint(2, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            fam = GraphFamily(n=n, graphs=(random_edges(n, m, rng),))
            assert max_cut(fam) >= edwards_bound(m)


class TestMomentsByCompletion:
    def test_unconditional_anchor(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(2, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = random_edges(n, m, rng)
            spec = EventSpec(graph=0, kind="crossing", k=2)
            if n > 12:
                continue
            s1, ex2 = moments_by_completion(edges, (UNDECIDED,) * n, spec)
            assert s1 == Fraction(m, 2)
            assert ex2 == Fraction(m * (m + 1), 4)

    def test_total_returns_realized(self):
        edges = cycle_edges(5)
        spec = EventSpec(graph=0, kind="crossing", k=2)
        assert moments_by_completion(edges, (0, 1, 0, 1, 1), spec) == (4, 16)

    def test_undecided_guard(self):
        spec = EventSpec(graph=0, kind="crossing", k=2)
        with pytest.raises(SizeLimitError):
            moments_by_completion(((0, 1),), (UNDECIDED,) * 13, spec)

    def test_law_of_total_expectation(self):
        # refining one undecided vertex and averaging reproduces the coarser moments
        rng = random.Random(10)
        for _ in range(15):
            n = rng.randint(2, 8)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = random_edges(n, m, rng)
            k = rng.choice([2, 3])
            spec = EventSpec(graph=0, kind="crossing", k=k)
            labels = random_partial(n, k, rng.randrange(10 ** 6), p_undecided=0.7)
            opens = [v for v, label in enumerate(labels) if label == UNDECIDED]
            if not opens:
                continue
            coarse = moments_by_completion(edges, labels, spec)
            v = opens[0]
            acc1 = Fraction(0)
            acc2 = Fraction(0)
            for c in range(k):
                refined = labels[:v] + (c,) + labels[v + 1:]
                s1, ex2 = moments_by_completion(edges, refined, spec)
                acc1 += s1
                acc2 += ex2
            assert (acc1 / k, acc2 / k) == coarse
