"""Conditional probabilities, conditional moments, and penalty-term specs."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from simulcut import (
    EstimatorBudgetError,
    EventSpec,
    GraphFamily,
    Guarantee,
    UNDECIDED,
    conditional_edge_prob,
    conditional_joint_prob,
    conditional_moments,
    derandomize,
    estimator_value,
    resolve,
)
from simulcut.estimator import stat_mean, term_quadratic
from simulcut.mc import random_assignment, substream
from simulcut.oracle import moments_by_completion

from helpers import (
    c5_pair,
    hand_built,
    paper_threshold,
    random_edges,
    random_family,
    random_hyperfamily,
    random_partial,
)


def crossing_spec(k=2):
    return EventSpec(graph=0, kind="crossing", k=k)


def pair_spec(k, s, t):
    return EventSpec(graph=0, kind="pair", k=k, s=s, t=t)


def within_spec(k, s):
    return EventSpec(graph=0, kind="within", k=k, s=s)


def rainbow_spec(r):
    return EventSpec(graph=0, kind="rainbow", k=r)


class TestEdgeProb:
    def test_crossing_both_undecided(self):
        labels = (UNDECIDED, UNDECIDED)
        assert conditional_edge_prob((0, 1), labels, crossing_spec()) == Fraction(1, 2)

    def test_pair_one_decided(self):
        labels = (0, UNDECIDED, UNDECIDED)
        spec = pair_spec(3, 0, 1)
        assert conditional_edge_prob((0, 1), labels, spec) == Fraction(1, 3)

    def test_pair_one_decided_outside(self):
        labels = (2, UNDECIDED, UNDECIDED)
        spec = pair_spec(3, 0, 1)
        assert conditional_edge_prob((0, 1), labels, spec) == 0

    def test_crossing_same_class(self):
        labels = (1, 1)
        assert conditional_edge_prob((0, 1), labels, crossing_spec(k=4)) == 0

    def test_exhaustive_against_enumeration(self):
        # average the realized indicator over all completions of the two endpoints
        rng = random.Random(3)
        for kind in ("crossing", "pair", "within"):
            for k in (2, 3, 4):
                for lu in [UNDECIDED] + list(range(k)):
                    for lv in [UNDECIDED] + list(range(k)):
                        if kind == "pair":
                            spec = pair_spec(k, 0, min(1, k - 1))
                        elif kind == "within":
                            spec = within_spec(k, rng.randrange(k))
                        else:
                            spec = crossing_spec(k=k)
                        labels = (lu, lv)
                        got = conditional_edge_prob((0, 1), labels, spec)
                        want = moments_by_completion(((0, 1),), labels, spec)[0]
                        assert got == want, (kind, k, lu, lv)

    def test_rainbow_probabilities(self):
        spec = rainbow_spec(3)
        labels = (UNDECIDED,) * 3
        assert conditional_edge_prob((0, 1, 2), labels, spec) == Fraction(6, 27)
        labels = (0, UNDECIDED, UNDECIDED)
        assert conditional_edge_prob((0, 1, 2), labels, spec) == Fraction(2, 9)
        labels = (0, 0, UNDECIDED)
        assert conditional_edge_prob((0, 1, 2), labels, spec) == 0


class TestJointProb:
    def test_shared_vertex_all_undecided_quarter(self):
        labels = (UNDECIDED,) * 3
        spec = crossing_spec()
        assert conditional_joint_prob((0, 1), (1, 2), labels, spec) == Fraction(1, 4)

    def test_disjoint_edges_k_crossing(self):
        for k in (2, 3, 5):
            labels = (UNDECIDED,) * 4
            spec = crossing_spec(k=k)
            got = conditional_joint_prob((0, 1), (2, 3), labels, spec)
            assert got == Fraction((k - 1) ** 2, k * k)

    def test_shared_vertex_decided_still_quarter(self):
        # shared vertex decided, other two undecided: enumerate the 4 completions
        for c in (0, 1):
            labels = (UNDECIDED, c, UNDECIDED)
            spec = crossing_spec()
            got = conditional_joint_prob((0, 1), (1, 2), labels, spec)
            total = Fraction(0)
            for l0, l2 in itertools.product(range(2), repeat=2):
                total += (l0 != c) * (l2 != c)
            assert got == total / 4 == Fraction(1, 4)

    def test_identical_edges_rejected(self):
        labels = (UNDECIDED,) * 2
        with pytest.raises(ValueError):
            conditional_joint_prob((0, 1), (1, 0), labels, crossing_spec())

    def test_randomized_against_completion(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(3, 6)
            k = rng.choice([2, 2, 3])
            e1 = tuple(rng.sample(range(n), 2))
            e2 = tuple(rng.sample(range(n), 2))
            if set(e1) == set(e2):
                continue
            kind = rng.choice(["crossing", "pair", "within"])
            if kind == "pair":
                spec = pair_spec(k, 0, 1)
            elif kind == "within":
                spec = within_spec(k, rng.randrange(k))
            else:
                spec = crossing_spec(k=k)
            labels = random_partial(n, k, rng.randrange(10 ** 6))
            got = conditional_joint_prob(e1, e2, labels, spec)
            # oracle: enumerate completions, average the product of indicators
            from simulcut.oracle import _realized_count
            undecided = [v for v, label in enumerate(labels) if label == UNDECIDED]
            completed = list(labels)
            total = Fraction(0)
            for combo in itertools.product(range(k), repeat=len(undecided)):
                for w, c in zip(undecided, combo):
                    completed[w] = c
                x1 = _realized_count(completed, (e1,), spec)
                x2 = _realized_count(completed, (e2,), spec)
                total += x1 * x2
            assert got == total / k ** len(undecided)


class TestConditionalMoments:
    def test_unconditional_crossing_anchor(self):
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(2, 12)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = random_edges(n, m, rng)
            labels = (UNDECIDED,) * n
            s1, ex2 = conditional_moments(edges, labels, crossing_spec())
            assert s1 == Fraction(m, 2)
            assert ex2 == Fraction(m * (m + 1), 4)

    def test_total_assignment_gives_realized(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(2, 9)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = random_edges(n, m, rng)
            k = rng.randint(2, 4)
            labels = tuple(rng.randrange(k) for _ in range(n))
            spec = crossing_spec(k=k)
            s1, ex2 = conditional_moments(edges, labels, spec)
            x = sum(1 for u, v in edges if labels[u] != labels[v])
            assert s1 == x and ex2 == x * x

    def test_partial_matches_completion_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(2, 11)
            m = rng.randint(0, min(15, n * (n - 1) // 2))
            edges = random_edges(n, m, rng)
            k = rng.choice([2, 2, 3])
            kind = rng.choice(["crossing", "pair", "within"])
            if kind == "pair":
                spec = pair_spec(k, 0, 1)
            elif kind == "within":
                spec = within_spec(k, rng.randrange(k))
            else:
                spec = crossing_spec(k=k)
            labels = random_partial(n, k, rng.randrange(10 ** 6))
            assert (conditional_moments(edges, labels, spec)
                    == moments_by_completion(edges, labels, spec))

    def test_rainbow_matches_completion_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(3, 9)
            r = rng.choice([2, 3])
            cap = min(12, math.comb(n, r))
            hf = random_hyperfamily(n, r, [rng.randint(0, cap)], rng.randrange(10 ** 6))
            edges = hf.arrays[0]
            spec = rainbow_spec(r)
            labels = random_partial(n, r, rng.randrange(10 ** 6))
            assert (conditional_moments(edges, labels, spec)
                    == moments_by_completion(edges, labels, spec))


class TestEstimatorValue:
    def test_two_graph_anchor_half(self):
        fam = c5_pair()
        # normalizer m_i = 5: for two graphs this is the standard bipartition config
        specs = tuple(EventSpec(graph=i, kind="crossing", k=2) for i in range(2))
        labels = (UNDECIDED,) * 5
        guarantee = hand_built(fam, 2, specs, norm2=25)
        assert estimator_value(fam, labels, guarantee) == pytest.approx(0.5, abs=1e-12)

    def test_thm1_initial_half_any_ell(self):
        for ell, seed in ((1, 3), (2, 4), (3, 5)):
            fam = random_family(10, [12] * ell, seed)
            labels = (UNDECIDED,) * 10
            assert (estimator_value(fam, labels, resolve(fam, "thm1"))
                    == pytest.approx(0.5, abs=1e-12))

    def test_thm1_initial_matches_monte_carlo(self):
        # E[(mu - X)^2]/norm estimated by sampling matches the exact value
        fam = random_family(12, [30], 71)
        guarantee = resolve(fam, "thm1")
        spec = guarantee.specs[0]
        labels0 = (UNDECIDED,) * 12
        exact = estimator_value(fam, labels0, guarantee)
        rng = substream(99, 0)
        trials = 4000
        acc = 0.0
        for _ in range(trials):
            a = random_assignment(12, 2, rng)
            x = sum(1 for u, v in fam.arrays[0] if a.labels[u] != a.labels[v])
            acc += float(term_quadratic(fam.arrays[0], a.labels, spec)) / (
                math.sqrt(guarantee.norm2) * spec.part)
        est = acc / trials
        # Var of the estimate is bounded; 4000 samples put 5 sigma well under 0.1
        assert abs(est - exact) < 0.1

    def test_total_at_center_is_zero(self):
        edges = ((0, 1), (1, 2), (2, 3), (0, 3))
        fam = GraphFamily(n=4, graphs=(edges,))
        labels = (0, 0, 1, 1)  # crossing = 2 = mu
        assert estimator_value(fam, labels, resolve(fam, "thm1")) == 0.0


class TestEventSpec:
    def test_normalizer_positive(self):
        # the factor that normalizers share, and a spec's part, are positive
        spec = EventSpec(graph=0, kind="crossing", k=2)
        for norm2 in (0, -1, Fraction(-1, 4)):
            with pytest.raises(ValueError, match="norm2 must be > 0"):
                Guarantee(k=2, rows=(), norm2=norm2)
        # any number is kept exact: a float's own value, not its decimal reading
        assert hand_built(c5_pair(), 2, [spec], norm2=0.1).norm2 == Fraction(0.1)
        # part 0 is an empty member's spec, which is no penalty term
        with pytest.raises(ValueError):
            EventSpec(graph=0, kind="crossing", k=2, part=-1)

    @pytest.mark.parametrize("spec, message", [
        (dict(kind="cut", k=2), "unknown statistic kind 'cut'"),
        (dict(kind="crossing", k=1), "k must be >= 2, got 1"),
        (dict(kind="within", k=3, s=3), "within statistic needs a class s < k, got 3"),
        (dict(kind="within", k=3), "within statistic needs a class s < k, got None"),
    ])
    def test_spec_input_checks(self, spec, message):
        with pytest.raises(ValueError) as exc:
            EventSpec(graph=0, **spec)
        assert str(exc.value) == message

    def test_pair_needs_ordered_classes(self):
        with pytest.raises(ValueError):
            EventSpec(graph=0, kind="pair", k=3, s=2, t=1)

    def test_variance_budget_enforced(self):
        fam = random_family(6, [8], 2)
        # a normalizer below the variance m/4 starts the descent at 2/1.5 >= 1
        bad = (EventSpec(graph=0, kind="crossing", k=2),)
        with pytest.raises(EstimatorBudgetError, match="initial estimator"):
            derandomize(fam, hand_built(fam, 2, bad, norm2=Fraction(9, 4)))

    def test_threshold_equals_mu_minus_sqrt_norm(self):
        # the bound mu - sqrt(normalizer) that each term certifies is the
        # row's threshold up to rounding; the row itself is the README
        # formula's float bit for bit (for thm3 on 294 edges the spec-side
        # float mu - sqrt(sqrt(eps)*m^2) differs from it in the last bit)
        fam = random_family(9, [14, 7], 8)
        cycle = GraphFamily(n=294, graphs=(tuple((i, (i + 1) % 294) for i in range(294)),))
        for family, theorem, k in ((fam, "thm1", None), (fam, "thm2", 3), (cycle, "thm3", 2)):
            guarantee = resolve(family, theorem, k=k)
            rows = {(s.graph, s.stat): thr for s, thr, _ in guarantee.rows}
            assert {(s.graph, s.stat) for s in guarantee.specs} == set(rows)
            for s in guarantee.specs:
                mu = stat_mean(s.kind, family.m[s.graph], s.k)
                normalizer = math.sqrt(guarantee.norm2) * s.part
                assert math.isclose(float(mu) - math.sqrt(normalizer),
                                    rows[s.graph, s.stat], rel_tol=1e-12)
            for (g, stat), thr in rows.items():
                want = paper_threshold(theorem, family.m[g], ell=family.ell, k=guarantee.k,
                                       stat=stat, eps=guarantee.eps)
                assert repr(thr) == repr(want)

    def test_hyp_threshold_matches(self):
        hf = random_hyperfamily(12, 3, [20, 15], 5)
        guarantee = resolve(hf, "hyp")
        assert guarantee.specs == tuple(s for s, _, _ in guarantee.rows)
        for s, thr, _ in guarantee.rows:
            mu = stat_mean("rainbow", hf.m[s.graph], 3)
            normalizer = math.sqrt(guarantee.norm2) * s.part
            assert math.isclose(float(mu) - math.sqrt(normalizer), thr, rel_tol=1e-12)
            want = paper_threshold("hyp", hf.m[s.graph], ell=2, k=3, delta2=hf.delta2[s.graph])
            assert s.stat == "rainbow" and repr(thr) == repr(want)

    def test_empty_members_skipped(self):
        fam = GraphFamily(n=4, graphs=(((0, 1),), ()))
        guarantee = resolve(fam, "thm1")
        assert [s.graph for s in guarantee.specs] == [0]
        assert [(s.graph, s.part) for s, _, _ in guarantee.rows] == [(0, 1), (1, 0)]
        assert len(guarantee) == 1
