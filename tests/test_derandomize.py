"""Conditional-expectation descent: guarantees, invariants, and the engine
checked against the exact Fraction reference of `estimator`."""

import collections
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import random
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from simulcut import (
    EstimatorBudgetError,
    EventSpec,
    GraphFamily,
    HypergraphFamily,
    UNDECIDED,
    derandomize,
    max_cut,
    partition_counts,
    resolve,
)
from simulcut.bench import execute_run
from simulcut.cli import main
from simulcut.report import RunOptions
from simulcut.derandomize import (
    _BipartitionTerm, _build_term, _GraphTerm, _later_lists, _RainbowTerm, resolve_order)
from simulcut.estimator import term_quadratic
from simulcut.instances import generate

from helpers import (c5_pair, cycle_edges, hand_built, key_unit, paper_threshold,
                     random_edges, random_family, random_hyperfamily)


def _exact_value(edges, labels, specs):
    return sum((term_quadratic(edges[s.graph], labels, s) / s.part for s in specs), Fraction(0))


def assert_descent_health(family, guarantee, result):
    """Every step's keys are relative to the lowest minimal class, and their
    means over the classes, summed over the steps, are the exact drop of
    sum(quadratic / part) from all-open labels to the final assignment (the
    averaging identity, telescoped); the estimator ends below 1."""
    k = guarantee.k
    for step in result.trace:
        assert all(isinstance(x, int) and x >= 0 for x in step.keys), step
        assert step.keys.index(0) == step.chosen, step
    edges = [rows.tolist() for rows in family.arrays]
    initial = _exact_value(edges, [UNDECIDED] * family.n, guarantee.specs)
    final = _exact_value(edges, list(result.assignment.labels), guarantee.specs)
    scale, shared = key_unit(guarantee)
    drop = Fraction(sum(sum(step.keys) for step in result.trace), k * scale)
    assert drop == initial - final, (drop, initial, final)
    assert math.isclose(float(initial) / shared, result.initial_value, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(float(final) / shared, result.final_value, rel_tol=1e-9, abs_tol=1e-12)
    assert result.final_value < 1.0


def assert_exact_descent(family, guarantee, result):
    """Replay a descent with the exact Fraction reference.  The initial
    estimator is the reference's float sum, in spec order, of each spec's
    all-open quadratic over its normalizer.  At every step the mean over
    classes of the estimator equals its previous value, the chosen class is
    the lowest exact argmin, and each key is the keys' scale times the
    difference of sum(quadratic / part) from the chosen class's; the
    estimator is that sum over the normalizers' shared factor."""
    specs, k = guarantee.specs, guarantee.k
    scale, shared = key_unit(guarantee)
    edges = [rows.tolist() for rows in family.arrays]
    labels = [UNDECIDED] * family.n
    initial = 0.0
    for x in _initials(edges, labels, specs, shared):       # as the engine sums them
        initial += x
    assert result.initial_value == initial
    prev = _exact_value(edges, labels, specs)
    for step in result.trace:
        values = []
        for c in range(k):
            labels[step.vertex] = c
            values.append(_exact_value(edges, labels, specs))
        best = min(values)
        assert sum(values) / k == prev, step
        assert values.index(best) == step.chosen, step
        assert step.keys == tuple((x - best) * scale for x in values), step
        labels[step.vertex] = step.chosen
        prev = best
    assert math.isclose(float(prev) / shared, result.final_value, rel_tol=1e-9, abs_tol=1e-12)


def _initials(edges, labels, specs, shared):
    """Each spec's float estimator at `labels`: its exact quadratic over its
    normalizer, ``shared`` times its part."""
    return [float(term_quadratic(edges[s.graph], labels, s)) / (shared * s.part) for s in specs]


def _quads(edges, labels, specs):
    """Each spec's exact quadratic at `labels` over k^4 (r^(3r) for rainbow),
    the integers a term's ``quads`` hold."""
    nums = [term_quadratic(edges[s.graph], labels, s)
            * (s.k ** (3 * s.k) if s.kind == "rainbow" else s.k ** 4) for s in specs]
    assert all(num.denominator == 1 for num in nums), nums
    return [num.numerator for num in nums]


def _reference_keys(edges, specs, weights, labels, v):
    """The keys of open vertex v at `labels` from the exact reference: per
    class c, the weighted sum over `specs` (all on one member) of the
    quadratic with v -> c, over k^4 (r^(3r) for rainbow).  A term's keys
    differ from these by what no class changes."""
    k = specs[0].k
    scale = k ** (3 * k) if specs[0].kind == "rainbow" else k ** 4
    keys = []
    for c in range(k):
        labels[v] = c
        num = scale * sum((w * term_quadratic(edges, labels, spec)
                           for spec, w in zip(specs, weights)), Fraction(0))
        assert num.denominator == 1, num
        keys.append(num.numerator)
    labels[v] = UNDECIDED
    return keys


def _summed_reference_keys(edges, specs, labels, v):
    """`_reference_keys` summed over the members of graph `specs`, each spec
    weighed by lcm(parts) // its part, as a term weighs it."""
    lcm = math.lcm(*(spec.part for spec in specs))
    keys = [0] * specs[0].k
    for g in dict.fromkeys(spec.graph for spec in specs):
        on = [(spec, lcm // spec.part) for spec in specs if spec.graph == g]
        keys = list(map(add, keys, _reference_keys(edges[g], *zip(*on), labels, v)))
    return keys


def _relative(keys):
    return [x - keys[0] for x in keys]


class TestGuarantees:
    def test_c5_pair(self):
        fam = c5_pair()
        result = derandomize(fam, resolve(fam, "thm1"))
        assert result.report.all_pass
        for i, edges in enumerate(fam.arrays):
            assert partition_counts(edges, result.assignment)[2] >= 1

    def test_single_c4_beats_bound_oracle_confirms(self):
        fam = GraphFamily(n=4, graphs=(cycle_edges(4),))
        result = derandomize(fam, resolve(fam, "thm1"))
        cut = partition_counts(fam.arrays[0], result.assignment)[2]
        assert cut >= 2 - math.sqrt(2)
        assert cut >= 1
        assert max_cut(fam) == 4

    def test_empty_graphs_trivial(self):
        fam = GraphFamily(n=6, graphs=((), ()))
        result = derandomize(fam, resolve(fam, "thm1"))
        assert result.assignment.labels == (0,) * 6      # every tie to the lowest class
        assert result.initial_value == 0.0
        assert result.final_value == 0.0
        assert [(c.graph, c.count, c.threshold, c.passed) for c in result.report.constraints] \
            == [(0, 0, 0.0, True), (1, 0, 0.0, True)]

    def test_empty_hypergraphs_trivial(self):
        # no member has an edge, so no spec has part > 0: the one term has no
        # member, and every step's keys are r zeros, tied to the lowest class
        fam = HypergraphFamily(n=6, r=3, hypergraphs=((), ()))
        guarantee = resolve(fam, "hyp")
        assert guarantee.specs == ()
        term = _build_term(fam, guarantee.specs, range(6), 3)
        assert type(term) is _RainbowTerm and term.members == [] and term.quads == []
        result = derandomize(fam, guarantee)
        assert result.assignment.labels == (0,) * 6
        assert result.trace == tuple((v, 0, (0, 0, 0)) for v in range(6))
        assert result.initial_value == 0.0
        assert result.final_value == 0.0
        assert [(c.graph, c.count, c.threshold, c.passed) for c in result.report.constraints] \
            == [(0, 0, 0.0, True), (1, 0, 0.0, True)]

    def test_thm1_random_families(self):
        rng = random.Random(2)
        for trial in range(25):
            n = rng.randint(4, 30)
            cap = n * (n - 1) // 2
            ell = rng.randint(1, 3)
            fam = random_family(n, [rng.randint(1, min(80, cap)) for _ in range(ell)], trial)
            guarantee = resolve(fam, "thm1")
            result = derandomize(fam, guarantee)
            assert_descent_health(fam, guarantee, result)
            for i in range(ell):
                thr = paper_threshold("thm1", fam.m[i], ell=ell)
                assert result.report.member_counts[i] >= thr

    def test_thm2_random_families(self):
        rng = random.Random(3)
        for trial in range(15):
            n = rng.randint(4, 24)
            cap = n * (n - 1) // 2
            ell = rng.randint(1, 2)
            k = rng.randint(2, 5)
            fam = random_family(n, [rng.randint(1, min(60, cap)) for _ in range(ell)], trial)
            guarantee = resolve(fam, "thm2", k=k)
            result = derandomize(fam, guarantee)
            assert_descent_health(fam, guarantee, result)
            for i in range(ell):
                thr = paper_threshold("thm2", fam.m[i], ell=ell, k=k)
                assert result.report.member_counts[i] >= thr

    def test_thm3_cycle_instance(self):
        fam = generate("bounded-degree", n=300, degree=2, ell=1, seed=9)
        guarantee = resolve(fam, "thm3", k=2)
        result = derandomize(fam, guarantee)
        assert_descent_health(fam, guarantee, result)
        thr_pair = paper_threshold("thm3", 300, ell=1, k=2, stat="pair", eps=1 / 144)
        thr_within = paper_threshold("thm3", 300, ell=1, k=2, stat="within", eps=1 / 144)
        counts = {c.stat: c.count for c in result.report.constraints}
        assert counts["pair(0,1)"] >= thr_pair
        for s in (0, 1):
            assert counts[f"within({s})"] >= thr_within

    def test_hyp_random(self):
        rng = random.Random(4)
        for trial in range(10):
            n = rng.randint(6, 18)
            r = rng.choice([2, 3])
            cap = min(30, math.comb(n, r))
            hf = random_hyperfamily(n, r, [rng.randint(1, cap)], trial)
            guarantee = resolve(hf, "hyp")
            result = derandomize(hf, guarantee)
            assert_descent_health(hf, guarantee, result)
            thr = paper_threshold("hyp", hf.m[0], ell=1, k=r, delta2=hf.delta2[0])
            assert result.report.member_counts[0] >= thr


class TestEngineEquality:
    """The incremental terms against the naive, from-scratch exact Fraction
    reference of `estimator`: whole descents replayed, and term keys from
    partial states."""

    def test_incremental_equals_naive_graphs(self):
        rng = random.Random(7)
        for trial in range(12):
            n = rng.randint(3, 14)
            cap = n * (n - 1) // 2
            ell = rng.randint(1, 3)
            fam = random_family(n, [rng.randint(0, min(30, cap)) for _ in range(ell)], trial)
            theorem = rng.choice(["thm1", "thm2"])
            k = None if theorem == "thm1" else rng.randint(2, 5)
            guarantee = resolve(fam, theorem, k=k)
            assert_exact_descent(fam, guarantee, derandomize(fam, guarantee))

    def test_incremental_equals_naive_pair_within(self):
        # the exact replay does not need the degree precondition, so hand-build
        # pair/within terms with a loose normalizer on small dense graphs
        rng = random.Random(19)
        for trial in range(8):
            n = rng.randint(4, 12)
            cap = n * (n - 1) // 2
            m = rng.randint(1, cap)
            fam = random_family(n, [m], trial)
            k = rng.randint(2, 4)
            specs = []
            for s in range(k):
                for t in range(s + 1, k):
                    specs.append(EventSpec(graph=0, kind="pair", k=k, s=s, t=t))
            for s in range(k):
                specs.append(EventSpec(graph=0, kind="within", k=k, s=s))
            # normalizer 12 m^2, far above any variance bound
            guarantee = hand_built(fam, k, specs, norm2=144 * m ** 4)
            assert_exact_descent(fam, guarantee, derandomize(fam, guarantee))

    def test_incremental_equals_naive_mixed_member(self):
        # crossing, pair and within specs on one member, the crossing spec
        # first, among them or last: one graph term, one histogram per member
        rng = random.Random(26)
        for trial in range(10):
            n = rng.randint(4, 12)
            cap = n * (n - 1) // 2
            ell = rng.randint(1, 2)
            fam = random_family(n, [rng.randint(1, min(30, cap)) for _ in range(ell)], trial)
            k = rng.randint(2, 4)
            specs = []
            for i, m in enumerate(fam.m):
                classwise = _loose_classwise(i, m, k)
                at = rng.randint(0, len(classwise))
                crossing = dataclasses.replace(classwise[0], kind="crossing", s=None, t=None)
                specs += classwise[:at] + [crossing] + classwise[at:]
            guarantee = hand_built(fam, k, specs, norm2=144)
            result = derandomize(fam, guarantee, order=rng.choice(["natural", "degree"]))
            assert_descent_health(fam, guarantee, result)
            assert_exact_descent(fam, guarantee, result)

    # member sizes keep the exact reference's r^s completion enumeration cheap
    RAINBOW_CAPS = {2: 15, 3: 16, 4: 10, 5: 7}

    def test_incremental_equals_naive_rainbow(self):
        rng = random.Random(8)
        for trial in range(8):
            n = rng.randint(4, 12)
            r = rng.choice([2, 3])
            cap = min(16, math.comb(n, r))
            hf = random_hyperfamily(n, r, [rng.randint(1, cap)], trial)
            guarantee = resolve(hf, "hyp")
            assert_exact_descent(hf, guarantee, derandomize(hf, guarantee))
        # dense members on at most r+5 vertices, where edge pairs share 2..r-1
        # vertices; a loose normalizer admits any delta2
        for r in (2, 3, 4, 5):
            shared = set()
            for trial in range(3):
                n = rng.randint(r + 1, r + 5)
                cap = min(self.RAINBOW_CAPS[r], math.comb(n, r))
                hf = random_hyperfamily(n, r, [rng.randint(1, cap) for _ in range(2)],
                                        100 * r + trial)
                shared.update(len(set(a) & set(b)) for edges in hf.arrays
                              for a, b in itertools.combinations(edges, 2))
                specs = tuple(_loose_rainbow(hf, i) for i in range(2))
                guarantee = hand_built(hf, r, specs, norm2=(50 * r ** r) ** 2)
                for order in ("natural", "degree"):
                    assert_exact_descent(hf, guarantee, derandomize(hf, guarantee, order=order))
            assert set(range(2, r)) <= shared

    def test_rainbow_candidates_from_partial_state(self):
        # a rainbow term's keys are defined at the next vertex of the order it
        # is built for: after every prefix of a random order, each open vertex
        # v is probed by a term over two members of unequal weights, built for
        # prefix + [v] + the rest, after a replay of the prefix with forced
        # classes; the probe's own commit is harmless on that throwaway term
        rng = random.Random(21)
        for r in (2, 3, 4, 5):
            for trial in range(3):
                n = rng.randint(r + 2, r + 5)
                cap = min(self.RAINBOW_CAPS[r], math.comb(n, r))
                hf = random_hyperfamily(n, r, [rng.randint(1, cap), rng.randint(1, cap // 2)],
                                        200 * r + trial)
                specs = (_loose_rainbow(hf, 0), _loose_rainbow(hf, 1))
                weights = [math.lcm(*(spec.part for spec in specs)) // spec.part for spec in specs]
                edges = [rows.tolist() for rows in hf.arrays]
                all_open = _quads(edges, [UNDECIDED] * n, specs)
                prefix = rng.sample(range(n), rng.randint(0, n - 1))
                labels = [UNDECIDED] * n
                for i in range(len(prefix) + 1):
                    rest = [v for v, label in enumerate(labels) if label == UNDECIDED]
                    for v in rest:
                        term = _rainbow_term(hf, specs, weights,
                                             prefix[:i] + [v] + [u for u in rest if u != v])
                        assert term.quads == all_open
                        for u in prefix[:i]:
                            assert term.step(u, labels[u])[1] == labels[u]
                        _assert_vertex_sums(term, edges, labels)
                        want = _summed_reference_keys(edges, specs, labels, v)
                        assert _relative(term.step(v)[0]) == _relative(want), (r, trial, i, v)
                    if i < len(prefix):
                        labels[prefix[i]] = rng.randrange(r)

    def test_rainbow_rows_per_spec(self):
        # two specs on one member that differ only in their part, and one on a
        # second member between them: one term whose first member's keys weigh
        # its quadratic by both weights, equal up to what no class changes to
        # the summed reference keys of the three specs; quads in spec order
        rng = random.Random(23)
        for r in (2, 3, 4):
            n = r + 4
            cap = min(self.RAINBOW_CAPS[r], math.comb(n, r))
            hf = random_hyperfamily(n, r, [cap, cap // 2], 300 + r)
            spec = _loose_rainbow(hf, 0)
            specs = (spec, _loose_rainbow(hf, 1), dataclasses.replace(spec, part=3 * spec.part))
            weights = [math.lcm(*(spec.part for spec in specs)) // spec.part for spec in specs]
            edges = [rows.tolist() for rows in hf.arrays]
            order = rng.sample(range(n), n)
            term = _rainbow_term(hf, specs, weights, order)
            labels = [UNDECIDED] * n
            assert len(term.members) == 2
            assert term.quads == _quads(edges, labels, specs)
            assert term.quads[0] == term.quads[2]
            for v in order:
                want = _summed_reference_keys(edges, specs, labels, v)
                keys, c = term.step(v)
                assert _relative(keys) == _relative(want), (r, v)
                assert c == keys.index(min(keys))
                labels[v] = c

    def test_rainbow_candidates_walk_once_per_vertex(self, monkeypatch):
        # one term over both members: one `step` per vertex yields the r
        # candidates of every member and commits the chosen class to each
        steps, built = collections.Counter(), []
        init, step = _RainbowTerm.__init__, _RainbowTerm.step

        def counted_init(self, *args):
            init(self, *args)
            built.append(self)

        def counted(self, v, c=None):
            steps[v] += 1
            return step(self, v, c)

        monkeypatch.setattr(_RainbowTerm, "__init__", counted_init)
        monkeypatch.setattr(_RainbowTerm, "step", counted)
        hf = generate("runiform", n=22, m=110, r=3, ell=2, seed=1001)
        derandomize(hf, resolve(hf, "hyp"))
        assert len(built) == 1 and len(built[0].members) == 2
        assert steps == {v: 1 for v in range(22)}

    def test_rainbow_pair_shifts_once_per_state(self, monkeypatch):
        # the members of one term share its tables: a two-member descent
        # computes `_pair_shifts` at most once per distinct pair state, and
        # exactly the states that each member alone computes when it replays
        # the same classes; on this dense family the two members meet some of
        # the same states, which one table computes once
        computed = collections.Counter()
        pair_shifts = _RainbowTerm._pair_shifts

        def counted(self, *state):
            computed[state] += 1
            return pair_shifts(self, *state)

        monkeypatch.setattr(_RainbowTerm, "_pair_shifts", counted)
        hf = generate("runiform", n=22, m=110, r=3, ell=2, seed=1001)
        result = derandomize(hf, resolve(hf, "hyp"), order="degree")
        both = set(computed)
        assert both and set(computed.values()) == {1}
        alone = []
        for i in range(2):
            computed.clear()
            term = _rainbow_term(hf, (_loose_rainbow(hf, i),), [1], result.order)
            for step in result.trace:
                term.step(step.vertex, step.chosen)
            alone.append(set(computed))
        assert alone[0] | alone[1] == both
        assert len(alone[0]) + len(alone[1]) > len(both)

    def test_rainbow_pair_sum_after_every_commit(self):
        # the keys hold the pair sum's class-dependent shifts: equal relative
        # keys at each vertex of a random order, and the per-vertex sums follow
        # the labels after every forced class, on dense members where edge
        # pairs share 2..r-1 vertices
        rng = random.Random(24)
        for r in (2, 3, 4, 5):
            shared = set()
            for trial in range(3):
                n = rng.randint(r + 1, r + 5)
                cap = min(self.RAINBOW_CAPS[r], math.comb(n, r))
                hf = random_hyperfamily(n, r, [rng.randint(cap // 2 + 1, cap)], 400 * r + trial)
                edges = hf.arrays[0].tolist()
                shared.update(len(set(a) & set(b)) for a, b in itertools.combinations(edges, 2))
                specs = (_loose_rainbow(hf, 0),)
                order = rng.sample(range(n), n)
                term = _rainbow_term(hf, specs, [1], order)
                labels = [UNDECIDED] * n
                for v in order:
                    want = _reference_keys(edges, specs, [1], labels, v)
                    c = rng.randrange(r)
                    keys, chosen = term.step(v, c)
                    assert chosen == c and _relative(keys) == _relative(want), (r, trial, v)
                    labels[v] = c
                    _assert_vertex_sums(term, [edges], labels)
            assert set(range(2, r)) <= shared

    def test_rainbow_packed_fields_at_a_hub(self):
        # TestPinnedTraces' hyp-hub case: r=4, vertex 0 in every hyperedge and
        # decided last, so its fields and the co-vertex sums through it are the
        # widest; one term over both members replays the pinned descent's
        # classes, and every field of every open slot, unpacked after every
        # step, is its recount
        (kind, params), _, _, order = TestPinnedTraces.CASES["hyp-hub"]
        fam = _case_family(kind, params)
        result = derandomize(fam, resolve(fam, "hyp"), order=order)
        edges = [rows.tolist() for rows in fam.arrays]
        assert all(e[0] == 0 for member in edges for e in member)
        term = _rainbow_term(fam, (_loose_rainbow(fam, 0), _loose_rainbow(fam, 1)), [1, 1], order)
        labels = [UNDECIDED] * fam.n
        for step in result.trace:
            term.step(step.vertex, step.chosen)
            labels[step.vertex] = step.chosen
            _assert_vertex_sums(term, edges, labels)

    def test_rainbow_packed_fields_at_two_hubs(self):
        # TestPinnedTraces' hyp-two-hubs case: vertex 0 comes first in all 998
        # hyperedges {0, 1, x}, so first_near[0] lists vertex 1, of degree
        # D = 998, 998 times: its squared-row fields sum to 998 * 999 * 3!^2,
        # past (r-1) * D * r^(2r), which bounds a sum over one hyperedge's
        # co-vertices, and under the D^2 bound.  Its one spec weighs 1, so the
        # term's own argmin replays the pinned descent; every field and every
        # such sum is its recount after the steps of the hubs and their first
        # co-vertices, then of every 50th vertex and the last
        (kind, params), _, _, order = TestPinnedTraces.CASES["hyp-two-hubs"]
        fam = _case_family(kind, params)
        edges = [fam.arrays[0].tolist()]
        term = _rainbow_term(fam, (_loose_rainbow(fam, 0),), [1], range(fam.n))
        near = sum(term.S[w] for w in term.first_near[0])
        squares = [near >> term.sq_at + o & term.fmask for o in term.offsets]
        assert [near >> o & term.fmask for o in term.offsets] == [998 * 999 * 6] * 3
        assert near >> term.p_at & term.fmask == 998 * 999 * 6
        assert squares == [998 * 999 * 36] * 3
        assert 2 * 998 * 3 ** 6 < squares[0] <= 2 * 998 * 998 * 3 ** 6
        labels = [UNDECIDED] * fam.n
        _assert_vertex_sums(term, edges, labels)
        for v in range(fam.n):
            labels[v] = term.step(v)[1]
            if v < 4 or v % 50 == 0 or v == fam.n - 1:
                _assert_vertex_sums(term, edges, labels)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_member_candidates_from_partial_state(self, k):
        # crossing, every pair and every within statistic of a member: one
        # graph term, with one histogram for all of them; vertices n and
        # n + 1 are isolated, one decided and one open.  A graph term's
        # keys are defined at the next vertex of the order it is built for,
        # so each open vertex v is probed by a term built for the order
        # prefix + [v] + the rest, after a replay of the prefix with forced
        # classes; the probe's own commit is harmless on that throwaway term
        rng = random.Random(40 + k)
        for trial in range(4):
            n = rng.randint(4, 12)
            m = rng.randint(1, min(30, n * (n - 1) // 2))
            edges = tuple(sorted(rng.sample(list(itertools.combinations(range(n), 2)), m)))
            fam = GraphFamily(n=n + 2, graphs=(edges,))
            stats = [("crossing", None, None)]
            stats += [("pair", s, t) for s, t in itertools.combinations(range(k), 2)]
            stats += [("within", s, None) for s in range(k)]
            # parts 1..3 of one shared factor: weights lcm(parts) // part
            parts = [rng.randint(1, 3) for _ in stats]
            specs = [EventSpec(graph=0, kind=kind, k=k, s=s, t=t, part=part)
                     for (kind, s, t), part in zip(stats, parts)]
            all_open = _quads([edges], [UNDECIDED] * (n + 2), specs)
            prefix = rng.sample(range(n), rng.randint(0, n - 1)) + [n]
            labels = [UNDECIDED] * (n + 2)
            for v in prefix:
                labels[v] = rng.randrange(k)
            rest = [v for v, label in enumerate(labels) if label == UNDECIDED]
            for v in rest:
                term = _build_term(fam, specs, prefix + [v] + [u for u in rest if u != v], k)
                assert type(term) is _GraphTerm and term.quads == all_open
                for u in prefix:
                    assert term.step(u, labels[u])[1] == labels[u]
                # a graph key leaves out what no class changes: equal relative keys
                want = _summed_reference_keys([edges], specs, labels, v)
                assert _relative(term.step(v)[0]) == _relative(want), (k, trial, v)

    @pytest.mark.parametrize("order", ["natural", "degree", "permuted"])
    def test_graph_terms_visit_each_edge_once(self, order, monkeypatch):
        # over whole descents, every edge of a graph member sits in exactly one
        # `later` list, at the endpoint the order reaches first, and the
        # member's one per-vertex list's entries other than the vertex's own
        # are read exactly 2m times and written exactly m times in `step`:
        # one read per edge for the keys, and one read and write for the
        # commit.  That list is the packed histogram of a `_GraphTerm` (thm2
        # at k=3 and mixed specs), and the signed label difference of a
        # `_BipartitionTerm` (thm1)
        now = {}
        members = {_GraphTerm: [], _BipartitionTerm: []}

        class Counted(list):
            def __getitem__(self, u):
                if u != now["vertex"]:
                    self.visits["read"] += 1
                return super().__getitem__(u)

            def __setitem__(self, u, x):
                if u != now["vertex"]:
                    self.visits["write"] += 1
                super().__setitem__(u, x)

        def counted_init(term, at):
            # the per-vertex list is entry `at` of each member, after `later`
            init = term.__init__

            def run(self, arrays, specs, weights, rank):
                init(self, arrays, specs, weights, rank)
                for g, member in zip(dict.fromkeys(spec.graph for spec in specs), self.members):
                    member[at] = Counted(member[at])
                    member[at].visits = collections.Counter()
                    members[term].append((arrays[g].tolist(), member[0], member[at]))
            return run

        def counted_step(step):
            def run(self, v, c=None):
                now.update(vertex=v)
                try:
                    return step(self, v, c)
                finally:
                    now.update(vertex=None)
            return run

        for term, at in ((_GraphTerm, 2), (_BipartitionTerm, 1)):
            monkeypatch.setattr(term, "__init__", counted_init(term, at))
            monkeypatch.setattr(term, "step", counted_step(term.step))
        fam = random_family(40, [120, 60, 0], 31)
        mixed = [spec for i, m in enumerate(fam.m) if m
                 for spec in [EventSpec(graph=i, kind="crossing", k=3, part=m * m)]
                 + _loose_classwise(i, m, 3)]
        for guarantee, term in ((resolve(fam, "thm1"), _BipartitionTerm),
                                (resolve(fam, "thm2", k=3), _GraphTerm),
                                (hand_built(fam, 3, mixed, norm2=144), _GraphTerm)):
            for found in members.values():
                found.clear()
            result = derandomize(fam, guarantee, order=(
                random.Random(5).sample(range(40), 40) if order == "permuted" else order))
            rank = {step.vertex: i for i, step in enumerate(result.trace)}
            assert len(members[term]) == 2      # one list per non-empty member
            assert sum(map(len, members.values())) == 2
            for edges, later, h in members[term]:
                kept = [(v, u) for v, nbrs in enumerate(later) for u in nbrs]
                assert all(rank[v] < rank[u] for v, u in kept)
                assert sorted(tuple(sorted(e)) for e in kept) == sorted(map(tuple, edges))
                m = len(edges)
                assert h.visits == {"read": 2 * m, "write": m}, (order, term, h.visits)

    @pytest.mark.parametrize("order", ["natural", "degree", "permuted"])
    def test_rainbow_terms_walk_each_live_edge_once(self, order, monkeypatch):
        # over whole hyp descents, through one term over every member, whose
        # vertex v of the member at position g is slot g*n + v: every hyperedge
        # sits in one slot's first-vertex lists, in the middle lists of its r-2
        # middle slots and in no list of its last slot; inside `step`, every S
        # slot other than v's own is read twice and written once per live
        # (hyperedge, open co-vertex) pair, one read for the keys and one read
        # and write for the commit; and every pair entry joins two hyperedges
        # of one member, with the static s, at least 2, of their shared
        # vertices at or after its vertex
        own = set()
        terms = []

        class Counted(list):
            def __getitem__(self, x):
                if x not in own:
                    self.visits["read"] += 1
                return super().__getitem__(x)

            def __setitem__(self, x, value):
                if x not in own:
                    self.visits["write"] += 1
                super().__setitem__(x, value)

        def counted_init(self, *args):
            init(self, *args)
            self.S = Counted(self.S)
            self.S.visits = collections.Counter()
            terms.append(self)

        def counted_step(self, v, c=None):
            own.update(at + v for at, *_ in self.members)
            try:
                return step(self, v, c)
            finally:
                own.clear()

        init, step = _RainbowTerm.__init__, _RainbowTerm.step
        monkeypatch.setattr(_RainbowTerm, "__init__", counted_init)
        monkeypatch.setattr(_RainbowTerm, "step", counted_step)
        for kind, params in (("runiform", dict(n=22, m=110, r=3, ell=2, seed=1001)),
                             ("runiform", dict(n=40, m=150, r=4, ell=2, seed=7)),
                             ("runiform", dict(n=16, m=60, r=5, ell=1, seed=8)),
                             ("runiform-hub", dict(n=30, m=80, ell=2, seed=13)),
                             ("runiform-unequal", dict(n=40, ms=(150, 60), r=4, seed=14))):
            fam = _case_family(kind, params)
            terms.clear()
            result = derandomize(fam, resolve(fam, "hyp"), order=(
                random.Random(5).sample(range(fam.n), fam.n) if order == "permuted" else order))
            rank = {step.vertex: i for i, step in enumerate(result.trace)}
            labels = result.assignment.labels
            [term] = terms
            n, r = fam.n, term.r
            assert [at for at, *_ in term.members] == [g * n for g in range(len(fam.arrays))]
            # in slots, each member's edges numbered after those of the members before it
            edges = [[g * n + x for x in e]
                     for g, rows in enumerate(fam.arrays) for e in _numbered(rows, rank)]
            firsts, middles = collections.defaultdict(list), collections.defaultdict(list)
            want = collections.Counter()
            for eid, e in enumerate(edges):
                firsts[e[0]].append((eid, e[1:]))
                for p in range(1, r - 1):
                    middles[e[p]].append((eid, e[p + 1:]))
                for p in range(r - 1):
                    taken = [labels[x % n] for x in e[:p]]
                    if len(set(taken)) == len(taken):         # live at e[p]
                        want["read"] += 2 * (r - 1 - p)
                        want["write"] += r - 1 - p
            assert len(term.first_edges) == len(term.multi_at) == len(fam.arrays) * n
            for x in range(len(fam.arrays) * n):
                near = [w for _, later in firsts[x] for w in later]
                assert list(term.first_edges[x]) == [eid for eid, _ in firsts[x]], x
                assert sorted(term.first_near[x]) == sorted(near), x
                assert sorted((eid, [w, *rest]) for eid, w, rest in term.middle[x]) \
                    == middles[x], x
            seen = collections.Counter(
                (x, i, j) for x, entries in enumerate(term.multi_at) for i, j, *_ in entries)
            assert max(seen.values(), default=1) == 1
            for x, entries in enumerate(term.multi_at):
                for i, j, s, in_i, in_j in entries:
                    shared = set(edges[i]) & set(edges[j])
                    assert i < j and (in_i, in_j) == (x in edges[i], x in edges[j])
                    assert s == sum(rank[y % n] >= rank[x % n] for y in shared) >= 2, (x, i, j)
            for i, j in itertools.combinations(range(len(edges)), 2):
                shared = set(edges[i]) & set(edges[j])
                for x in set(edges[i]) | set(edges[j]):
                    if sum(rank[y % n] >= rank[x % n] for y in shared) >= 2:
                        assert (x, i, j) in seen, (x, i, j)
            assert term.S.visits == +want, (order, kind, term.S.visits, want)

    def test_rainbow_pair_state_only_for_multi_shared_pairs(self):
        # a linear hypergraph (delta2 == 1): every overlapping pair shares one
        # vertex, so there is no pair entry; otherwise the entries name exactly
        # the pairs that share two or more vertices
        fano = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
        hf = HypergraphFamily(n=7, r=3, hypergraphs=(fano,))
        assert hf.delta2 == (1,)
        term = _rainbow_term(hf, (_loose_rainbow(hf, 0),), [1], range(7))
        assert not any(term.multi_at)
        rng = random.Random(22)
        for r in (2, 3, 4, 5):
            for trial in range(4):
                n = rng.randint(r + 1, r + 6)
                hf = random_hyperfamily(n, r, [rng.randint(1, math.comb(n, r))], trial)
                order = rng.sample(range(n), n)
                term = _rainbow_term(hf, (_loose_rainbow(hf, 0),), [1], order)
                edges = _numbered(hf.arrays[0], {v: i for i, v in enumerate(order)})
                pairs = {(i, j) for entries in term.multi_at for i, j, *_ in entries}
                assert pairs == {(i, j) for i, j in itertools.combinations(range(len(edges)), 2)
                                 if len(set(edges[i]) & set(edges[j])) >= 2}
                assert len(pairs) <= hf.m[0] * math.comb(r, 2) * (hf.delta2[0] - 1) / 2


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_naive_and_incremental_keys_agree(data):
    # the incremental keys against the naive, from-scratch exact Fraction
    # reference, on every guarantee's statistics (thm3's pair and within
    # terms with a loose normalizer, which needs no degree bound), members of
    # unequal sizes and so unequal weights, isolated vertices and empty
    # members; "mixed" puts a crossing spec at a random place among each
    # member's loose pair and within specs, all read from one histogram
    theorem = data.draw(st.sampled_from(["thm1", "thm2", "thm3", "hyp", "mixed"]),
                        label="theorem")
    n = data.draw(st.integers(3, 10), label="n")
    ell = data.draw(st.integers(1, 3), label="ell")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    order = data.draw(st.sampled_from(["natural", "degree"]), label="order")
    if theorem == "hyp":
        r = data.draw(st.integers(2, 3), label="r")
        ms = data.draw(st.lists(st.integers(0, min(12, math.comb(n, r))),
                                min_size=ell, max_size=ell), label="ms")
        fam = random_hyperfamily(n, r, ms, seed)
        guarantee = resolve(fam, "hyp")
    else:
        ms = data.draw(st.lists(st.integers(0, min(20, n * (n - 1) // 2)),
                                min_size=ell, max_size=ell), label="ms")
        fam = random_family(n, ms, seed)
        k = 2 if theorem == "thm1" else data.draw(st.integers(2, 4), label="k")
        if theorem == "mixed":
            specs = []
            for i, m in enumerate(fam.m):
                if m:
                    classwise = _loose_classwise(i, m, k)
                    at = data.draw(st.integers(0, len(classwise)), label="crossing at")
                    crossing = EventSpec(graph=i, kind="crossing", k=k, part=m * m)
                    specs += classwise[:at] + [crossing] + classwise[at:]
            guarantee = hand_built(fam, k, specs, norm2=144)
        else:
            guarantee = (_loose_pair_within(fam, k) if theorem == "thm3"
                         else resolve(fam, theorem, k=k))
    result = derandomize(fam, guarantee, order=order)
    assert_descent_health(fam, guarantee, result)
    assert_exact_descent(fam, guarantee, result)
    if theorem != "hyp" and guarantee.specs:
        # off the descent's path: the graph term's `step` with a drawn
        # forced class at every vertex, against the reference's keys
        term = _build_term(fam, guarantee.specs, result.order, guarantee.k)
        edges = [rows.tolist() for rows in fam.arrays]
        labels = [UNDECIDED] * fam.n
        for v in result.order:
            want = _summed_reference_keys(edges, guarantee.specs, labels, v)
            c = data.draw(st.integers(0, guarantee.k - 1), label="class")
            keys, chosen = term.step(v, c)
            assert chosen == c and _relative(keys) == _relative(want), (v, keys, want)
            labels[v] = c


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bipartition_keys_equal_the_reference(data):
    # crossing specs alone at k = 2, parts 1..3 so that weights differ, one
    # to three specs on each member, empty members, vertices no edge reaches
    # and a drawn order: at every partial state, with drawn forced classes,
    # the bipartition term's keys are the exact reference's less what no
    # class changes, with class 1's key 0; and a whole descent through it is
    # the descent through a `_GraphTerm` built for the same specs and order
    n = data.draw(st.integers(1, 9), label="n")
    isolated = data.draw(st.integers(0, 2), label="isolated")
    ms = data.draw(st.lists(st.integers(0, min(16, n * (n - 1) // 2)), min_size=1, max_size=3),
                   label="ms")
    rng = random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    edges = [random_edges(n, m, rng) for m in ms]
    fam = GraphFamily(n=n + isolated, graphs=tuple(edges))
    specs = [EventSpec(graph=g, kind="crossing", k=2, part=data.draw(st.integers(1, 3), label="part"))
             for g in range(len(ms)) for _ in range(data.draw(st.integers(1, 3), label="on member"))]
    specs = data.draw(st.permutations(specs), label="specs")
    weights = [math.lcm(*(spec.part for spec in specs)) // spec.part for spec in specs]
    order = data.draw(st.permutations(range(fam.n)), label="order")
    rank = np.empty(fam.n, dtype=np.int64)
    rank[order] = np.arange(fam.n)
    assert type(_build_term(fam, specs, order, 2)) is _BipartitionTerm
    term = _BipartitionTerm(fam.arrays, specs, weights, rank)
    labels = [UNDECIDED] * fam.n
    assert term.quads == _quads(edges, labels, specs)
    for v in order:
        want = _summed_reference_keys(edges, specs, labels, v)
        c = data.draw(st.integers(0, 1), label="class")
        keys, chosen = term.step(v, c)
        assert chosen == c and keys[1] == 0 and _relative(keys) == _relative(want), (v, keys, want)
        labels[v] = c
    # 9 specs of variance at most m/4 under normalizers of at least 10 max(m, 1)
    result = derandomize(fam, hand_built(fam, 2, specs, norm2=(10 * max(*ms, 1)) ** 2), order)
    oracle, steps = _GraphTerm(fam.arrays, specs, weights, rank), []
    for v in order:
        keys, chosen = oracle.step(v)
        best = min(keys)
        steps.append((v, chosen, tuple(x - best for x in keys)))
    assert result.trace == tuple(steps)


def test_step_breaks_ties_to_the_lowest_class():
    # thm1: a vertex whose key difference is 0 goes to class 0, whether all
    # its neighbours are open (the first of the order) or no edge reaches it
    # (vertex 3, after vertex 1 was forced to class 1)
    fam = GraphFamily(n=4, graphs=(((0, 1), (1, 2)), ((0, 2),)))
    specs = resolve(fam, "thm1").specs
    term = _build_term(fam, specs, (0, 1, 3, 2), 2)
    assert type(term) is _BipartitionTerm
    assert term.step(0) == ([0, 0], 0)
    assert term.step(1, 1)[1] == 1
    assert term.step(3) == ([0, 0], 0)
    # k >= 3: vertex 1's one neighbour is decided as 0 and none is open, so
    # classes 1..k-1 share the minimum, above class 0's key, under crossing
    # specs and under pair and within specs alike; it goes to class 1
    fam = GraphFamily(n=2, graphs=(((0, 1),),))
    for k in (3, 4):
        stats = [("pair", s, t) for s, t in itertools.combinations(range(k), 2)]
        stats += [("within", s, None) for s in range(k)]
        for stats in ([("crossing", None, None)], stats):
            specs = [EventSpec(graph=0, kind=kind, k=k, s=s, t=t, part=1) for kind, s, t in stats]
            term = _build_term(fam, specs, (0, 1), k)
            keys, chosen = term.step(0)
            assert chosen == 0 and len(set(keys)) == 1, keys
            keys, chosen = term.step(1)
            want = _summed_reference_keys([fam.arrays[0].tolist()], specs, [0, UNDECIDED], 1)
            assert _relative(keys) == _relative(want), (keys, want)
            assert keys[0] > keys[1] == min(keys) and keys.count(keys[1]) == k - 1, keys
            assert chosen == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_budget_decided_exactly_at_one(data):
    # one member with one spec whose exact initial estimator V / sqrt(norm2),
    # V its quadratic over scale * part, is exactly x: its float sum reads 1.0
    # whatever the x, so only the exact rule tells 1 - 2^-60 from 1 and 1 + 2^-60.
    # k and part are powers of 2 (and r is 2), so V and V^2 are floats
    x = data.draw(st.sampled_from([1 - Fraction(1, 2 ** 60), Fraction(1),
                                   1 + Fraction(1, 2 ** 60)]), label="x")
    kind = data.draw(st.sampled_from(["crossing", "pair", "within", "rainbow"]), label="kind")
    k = 2 if kind == "rainbow" else data.draw(st.sampled_from([2, 4]), label="k")
    n = data.draw(st.integers(k + 1, 8), label="n")
    m = data.draw(st.integers(1, min(12, n * (n - 1) // 2)), label="m")
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    part = data.draw(st.sampled_from([1, 2, 8]), label="part")
    fam = random_hyperfamily(n, k, [m], seed) if kind == "rainbow" else random_family(n, [m], seed)
    s, t = {"pair": (0, k - 1), "within": (k - 1, None)}.get(kind, (None, None))
    spec = EventSpec(graph=0, kind=kind, k=k, s=s, t=t, part=part)
    quad = _quads([fam.arrays[0].tolist()], [UNDECIDED] * n, [spec])[0]
    value = Fraction(quad, (k ** (3 * k) if kind == "rainbow" else k ** 4) * part)
    guarantee = hand_built(fam, k, [spec], norm2=(value / x) ** 2)
    if x < 1:
        result = derandomize(fam, guarantee)
        assert result.initial_value == 1.0
        assert all(c.passed for c in result.report.constraints)
        assert_exact_descent(fam, guarantee, result)
    else:
        with pytest.raises(EstimatorBudgetError, match="initial estimator 1 >= 1"):
            derandomize(fam, guarantee)


def _rainbow_term(fam, specs, weights, order):
    """The rainbow term of ``specs``, one member per graph they name, built
    for the vertex order `order`."""
    rank = np.empty(fam.n, dtype=np.int64)
    rank[list(order)] = np.arange(fam.n)
    return _RainbowTerm(fam.arrays, specs, weights, rank, fam.r)


def _numbered(rows, rank):
    """Each edge's vertices in the order of ``rank`` (v's position), the
    edges numbered as a rainbow term numbers one member's: by their first
    vertex, ties in input order."""
    return sorted((sorted(e, key=rank.__getitem__) for e in rows.tolist()), key=lambda e: e[0])


def _assert_vertex_sums(term, members, labels):
    """The packed sum S of every open slot, recounted from the labels:
    ``members`` lists the edges of the term's members in its order, and
    vertex w of the member at position g is slot g*n + w.  An edge's P is
    A[u][0] and its row A[u][1] on its free colours while its decided
    colours are distinct, and both are 0 once they are not.  S[x] is
    exactly its 2r+1 fields (rows, P, squared rows), each at most D *
    r^(2r) for D the largest degree of any member.  Every field of every
    sum the keys form (a slot's own S, the open slots of every edge and
    each open slot's first_near) stays within the class docstring's bound
    (r-1) * D^2 * r^(2r), so within the field mask, whose width is that
    bound's bit length; no sum carries.  The decided vertices must come
    first in the term's order."""
    r, A, n = term.r, term.A, len(labels)
    edges = [[g * n + w for w in e] for g, member in enumerate(members) for e in member]
    at = collections.defaultdict(list)
    for e in edges:
        for x in e:
            at[x].append(e)
    top = max(map(len, at.values()), default=0)
    bound = (r - 1) * top * top * r ** (2 * r)
    assert term.fmask == (1 << bound.bit_length()) - 1
    offsets = [*term.offsets, term.p_at, *(term.sq_at + o for o in term.offsets)]
    fields = {}
    for x in range(len(members) * n):
        if labels[x % n] != UNDECIDED:
            continue
        ps, rows = [], []
        for e in at[x]:
            taken = [labels[y % n] for y in e if labels[y % n] != UNDECIDED]
            live = len(set(taken)) == len(taken)
            u = r - len(taken)
            ps.append(A[u][0] if live else 0)
            rows.append([A[u][1] if live and c not in taken else 0 for c in range(r)])
        assert max(ps, default=0) <= r ** (r - 1) and max(map(max, rows), default=0) <= r ** r
        want = fields[x] = ([sum(row[c] for row in rows) for c in range(r)] + [sum(ps)]
                            + [sum(row[c] ** 2 for row in rows) for c in range(r)])
        assert max(want) <= top * r ** (2 * r), (x, want)
        assert [term.S[x] >> o & term.fmask for o in offsets] == want, x
        assert term.S[x] == sum(y << o for y, o in zip(want, offsets)), x
    sums = [[x] for x in fields] + [[y for y in e if y in fields] for e in edges]
    sums += [term.first_near[x] for x in fields]
    for xs in sums:
        near = [sum(fields[x][f] for x in xs) for f in range(2 * r + 1)]
        assert max(near, default=0) <= bound, (xs, near)
        assert [sum(term.S[x] for x in xs) >> o & term.fmask for o in offsets] == near, xs


def _loose_rainbow(hf, i):
    """Member i's rainbow spec with part m^2: under norm2 = (50 r^r)^2 its
    normalizer is 50 r^r m^2."""
    return EventSpec(graph=i, kind="rainbow", k=hf.r, part=hf.m[i] ** 2)


class TestPinnedTraces:
    """Digests of whole descents: every step's exact relative keys and the
    initial and final estimator floats, recorded with the exact integer
    keys that replaced summed floats.

    The exact replay checks each key against the reference; these pin the
    whole output, the float estimator values included.
    """

    CASES = {
        "thm1": (("gnm", dict(n=60, m=200, ell=3, seed=1)), "thm1", None, None),
        "thm2": (("gnm", dict(n=50, m=150, ell=2, seed=2)), "thm2", 4, None),
        "thm3": (("bounded-degree", dict(n=1460, degree=2, ell=1, seed=3)), "thm3", 3, None),
        "pair-within": (("gnm", dict(n=40, m=120, ell=2, seed=4)), None, 3, None),
        "hyp": (("runiform", dict(n=30, m=60, r=3, ell=2, seed=5)), "hyp", None, None),
        # most co-vertices share two or more of v's edges: the cross terms run
        "hyp-dense": (("runiform", dict(n=22, m=110, r=3, ell=2, seed=1001)), "hyp", None,
                      "degree"),
        "hyp-r5": (("runiform", dict(n=40, m=120, r=5, ell=1, seed=6)), "hyp", None, None),
        # r=4 with vertex 0 in every hyperedge, decided last: the widest packed
        # fields, and co-vertex sums through them
        "hyp-hub": (("runiform-hub", dict(n=30, m=80, ell=2, seed=13)), "hyp", None,
                    tuple(range(29, -1, -1))),
        # the same family decided first at the hub: every hyperedge starts at 0
        "hyp-hub-first": (("runiform-hub", dict(n=30, m=80, ell=2, seed=13)), "hyp", None, None),
        "hyp-permuted": (("runiform", dict(n=40, m=150, r=4, ell=2, seed=7)), "hyp", None,
                         tuple(random.Random(41).sample(range(40), 40))),
        # r=3, every hyperedge {0, 1, x}: vertex 0's co-vertex fields summed over
        # its hyperedges reach 998 * 998 * 3! + 998 * 3!, and every edge pair
        # shares two vertices
        "hyp-two-hubs": (("two-hubs", dict(n=1000)), "hyp", None, None),
        # members of unequal sizes: the crossing specs weigh by lcm(parts) // part != 1
        "thm1-unequal": (("gnm-unequal", dict(n=60, ms=(200, 120, 90), seed=11)), "thm1", None,
                         None),
        "thm2-unequal": (("gnm-unequal", dict(n=50, ms=(150, 100, 60), seed=12)), "thm2", 3, None),
        # graph terms under orders other than the natural one
        "thm2-degree": (("gnm", dict(n=50, m=150, ell=2, seed=2)), "thm2", 4, "degree"),
        "thm3-reversed": (("bounded-degree", dict(n=1460, degree=2, ell=1, seed=3)), "thm3", 3,
                          tuple(range(1459, -1, -1))),
        "thm1-unequal-permuted": (("gnm-unequal", dict(n=60, ms=(200, 120, 90), seed=11)), "thm1",
                                  None, tuple(random.Random(31).sample(range(60), 60))),
        # crossing specs alone at k = 2 other than thm1's, and thm1 in degree order
        "thm2-k2": (("gnm", dict(n=50, m=150, ell=2, seed=2)), "thm2", 2, None),
        "thm1-degree": (("gnm", dict(n=60, m=200, ell=3, seed=1)), "thm1", None, "degree"),
        # hypergraph members of unequal sizes and largest degrees: the rainbow
        # specs weigh by lcm(parts) // part != 1, and the larger member sets
        # the packed field width
        "hyp-unequal": (("runiform-unequal", dict(n=40, ms=(150, 60), r=4, seed=14)), "hyp", None,
                        None),
    }
    DIGESTS = {
        "thm1": "e8f9f17abc123a15cc0a993f65ffd979e5d55f6c5d74e07f9048f56efeb1e790",
        "thm2": "d4770e9dcfff83f79e9daaeb5a7a6e8250bf4422f0c8c71227d27b68153f3b31",
        "thm3": "aeca44630e9c1721990afd01cf3ce24f777509615d3c2c46bdb328dc611feaad",
        "pair-within": "efe4ec983b3282b6aebaebbdb9c5a9e015cee0bd1f24594e8a3c09e15d5cd536",
        "hyp": "27601f5eb55688275494f8d891d7c2440e47444ad74a8b47161c35f5843857e4",
        "hyp-dense": "ea84c0dcfa003ff4f2aef6b50edc6f39f3d38ed627dbf3331b535354dc0dfbaa",
        "hyp-r5": "8f2e85ed94d6e7e0ec1a74203eefd48806727150e871039b2799044624f9dfa3",
        "hyp-hub": "c5c450670ecb600fbccf69aa3b75054e185b3b395a7555c38ccd675944a6bd9d",
        "hyp-hub-first": "e975d974d8cf681502097a5d32f0331dc040d689603c6cded4dbb0bf46cd5995",
        "hyp-permuted": "3bdf1bee9b11f9756ea2a5b832d320792888317a503d5c6b847d606557ccd4bb",
        "hyp-two-hubs": "04b71a37212d6c3b08f32a700b58d66f8060201e924fa281ab6f5cbe2e3bf578",
        "thm1-unequal": "33d4fd33d55daedf6ebbddb8d55945920519de97beefb8c150abd2c0b626d555",
        "thm2-unequal": "7d4e15f49c878ecaa6799e9cb21b0f5aaa283ce2f226b90398b0f1274c7a33ea",
        "thm2-degree": "c1904ccd21bb3efad6416fa6074e5561fcf2c4a6683727adb343d5db9c4fea2a",
        "thm3-reversed": "cc76265db8c6b4ef3e89abd07cb9677eacd31871c7fa9e66fa24b63cf01fb27b",
        "thm1-unequal-permuted": "f7a39454e105c85e3a090e08f971cda7cfb2ed1f60ab483e356294256a203635",
        "thm2-k2": "60d4de630eb50200287b24959c733785f7b34fbed88070a0eebfce6b7c0d4e5a",
        "thm1-degree": "8d2797b9fb42adea85cb9ddb47a45de87b6446e90c6c389d30602deb2dc2bd79",
        "hyp-unequal": "24d722c4406f0f730c5d99d11d335461961d88187575c7e354f5fe581ce468c6",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trace_digest(self, case):
        (kind, params), theorem, k, order = self.CASES[case]
        fam = _case_family(kind, params)
        # pair-within: every graph's pair and within terms, degrees not bounded
        guarantee = (resolve(fam, theorem, k=k) if theorem else
                     _loose_pair_within(fam, k))
        result = derandomize(fam, guarantee, order=order)
        trace = [(s.vertex, s.chosen, s.keys) for s in result.trace]
        text = repr((result.initial_value, result.final_value, trace))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[case]


def _case_family(kind, params):
    """`generate`'s family; for "gnm-unequal" one gnm member per entry of
    ``ms``, member i drawn with seed + i, and for "runiform-unequal" one
    r-uniform member the same way; for "runiform-hub" a 4-uniform
    family whose every hyperedge is vertex 0 and a 3-uniform hyperedge on
    vertices 1..n-1; for "two-hubs" one 3-uniform member whose hyperedges
    are {0, 1, x} for every other vertex x."""
    if kind == "two-hubs":
        n = params["n"]
        return HypergraphFamily(n=n, r=3, hypergraphs=(tuple((0, 1, x) for x in range(2, n)),))
    if kind == "runiform-hub":
        base = generate("runiform", **dict(params, n=params["n"] - 1, r=3))
        return HypergraphFamily(n=params["n"], r=4, hypergraphs=tuple(
            tuple((0, *(x + 1 for x in e)) for e in rows.tolist()) for rows in base.arrays))
    if kind == "runiform-unequal":
        n, r, seed = params["n"], params["r"], params["seed"]
        return HypergraphFamily(n=n, r=r, hypergraphs=tuple(
            generate("runiform", n=n, m=m, r=r, seed=seed + i).arrays[0]
            for i, m in enumerate(params["ms"])))
    if kind != "gnm-unequal":
        return generate(kind, **params)
    n, seed = params["n"], params["seed"]
    return GraphFamily(n=n, graphs=tuple(generate("gnm", n=n, m=m, seed=seed + i).arrays[0]
                                         for i, m in enumerate(params["ms"])))


def _loose_classwise(i, m, k):
    """Every pair and within spec of member i, which has m > 0 edges, with
    part m^2: under norm2 = 144 their normalizer 12 m^2 is far above any
    variance bound, which needs no degree bound."""
    return ([EventSpec(graph=i, kind="pair", k=k, s=s, t=t, part=m * m)
             for s, t in itertools.combinations(range(k), 2)]
            + [EventSpec(graph=i, kind="within", k=k, s=s, part=m * m) for s in range(k)])


def _loose_pair_within(fam, k):
    specs = [spec for i, m in enumerate(fam.m) if m for spec in _loose_classwise(i, m, k)]
    return hand_built(fam, k, specs, norm2=144)


class TestContracts:
    def test_initial_budget_enforced_at_runtime(self):
        fam = random_family(8, [16], 5)
        # normalizer m/8 makes E[Z] = (m/4)/(m/8) = 2 at the start
        specs = (EventSpec(graph=0, kind="crossing", k=2),)
        with pytest.raises(EstimatorBudgetError, match="initial estimator"):
            derandomize(fam, hand_built(fam, 2, specs, norm2=4))

    def test_mixed_k_rejected(self):
        fam = random_family(6, [5, 5], 6)
        specs = (
            EventSpec(graph=0, kind="crossing", k=2),
            EventSpec(graph=1, kind="crossing", k=3),
        )
        with pytest.raises(ValueError, match="mix"):
            derandomize(fam, hand_built(fam, 2, specs, norm2=2500))

    def test_balanced_guarantee_rejected(self):
        fam = random_family(6, [5], 6)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            derandomize(fam, resolve(fam, "thm1", balanced=True))

    def test_determinism(self):
        fam = random_family(15, [30, 20], 9)
        guarantee = resolve(fam, "thm1")
        r1 = derandomize(fam, guarantee)
        r2 = derandomize(fam, guarantee)
        assert r1.assignment == r2.assignment
        assert r1.trace == r2.trace

    def test_ties_break_to_lowest_class(self):
        # a single isolated edge: both classes for vertex 0 give equal value
        fam = GraphFamily(n=2, graphs=(((0, 1),),))
        result = derandomize(fam, resolve(fam, "thm1"))
        first = result.trace[0]
        assert first.keys == (0, 0)
        assert first.chosen == 0

    def test_float_broken_tie_goes_to_the_lowest_class(self):
        # at vertex 4 both classes give exactly 7/48 in the estimator; summed
        # floats read 0.14583333333333334 and 0.14583333333333331 and took class 1
        fam = generate("gnm", n=8, m=24, ell=2, seed=15)
        guarantee = resolve(fam, "thm1")
        result = derandomize(fam, guarantee)
        step = result.trace[4]
        assert (step.vertex, step.chosen, step.keys) == (4, 0, (0, 0))
        assert_exact_descent(fam, guarantee, result)


class TestVertexOrder:
    def test_orders_all_satisfy(self):
        fam = random_family(18, [40, 30], 10)
        guarantee = resolve(fam, "thm1")
        for order in (None, "natural", "degree", tuple(reversed(range(18)))):
            result = derandomize(fam, guarantee, order=order)
            assert result.report.all_pass

    def test_degree_order_sorts_by_total_degree(self):
        fam = GraphFamily(n=4, graphs=(((0, 1), (0, 2), (0, 3), (1, 2)),))
        order = resolve_order(fam, "degree")
        assert order[0] == 0  # degree 3 first
        deg = [3, 2, 2, 1]
        assert all(deg[order[i]] >= deg[order[i + 1]] for i in range(3))
        # incidences summed over both members: 0:2, 1:1+1, 2:1, 3:1+1, 4:1+1; ties by index
        hf = HypergraphFamily(n=5, r=3, hypergraphs=(((0, 1, 2), (0, 3, 4)), ((3, 1, 4),)))
        assert resolve_order(hf, "degree") == (0, 1, 3, 4, 2)

    def test_bad_order_rejected(self):
        fam = random_family(5, [4], 11)
        with pytest.raises(ValueError, match="permutation"):
            derandomize(fam, resolve(fam, "thm1"), order=(0, 1, 2, 3, 3))

    def test_unknown_order_name_is_quoted(self):
        fam = random_family(5, [4], 11)
        with pytest.raises(ValueError, match="unknown order 'sideways'"):
            derandomize(fam, resolve(fam, "thm1"), order="sideways")
        with pytest.raises(ValueError, match="unknown order 'sideways'"):
            execute_run(fam, RunOptions(method="derand", theorem="1", order="sideways"))

    def test_order_entries_must_be_integers(self):
        fam = random_family(5, [4], 11)
        with pytest.raises(TypeError, match="'float'"):
            resolve_order(fam, (0, 1, 2, 3, 4.0))
        with pytest.raises(TypeError, match="'float'"):
            resolve_order(fam, (0, 1, 2, 3, 7.5))
        assert resolve_order(fam, np.arange(4, -1, -1)) == (4, 3, 2, 1, 0)

    @pytest.mark.parametrize("order, message", [
        ((True, False), "order position 0: True is not a vertex"),
        ((0, np.True_), "order position 1: np.True_ is not a vertex"),
    ])
    def test_order_entries_must_not_be_bools(self, order, message):
        # index reads True as 1, so (True, False) would be the order (1, 0)
        fam = GraphFamily(n=2, graphs=(((0, 1),),))
        with pytest.raises(TypeError) as exc:
            resolve_order(fam, order)
        assert str(exc.value) == message

    def test_trace_records_every_vertex_once(self):
        fam = random_family(9, [12], 12)
        result = derandomize(fam, resolve(fam, "thm1"), order="degree")
        assert sorted(s.vertex for s in result.trace) == list(range(9))


def _later_lists_reference(edges, rank):
    """`_later_lists` with one append per edge, in input order."""
    later = [[] for _ in rank]
    for u, v in edges:
        if rank[u] > rank[v]:
            u, v = v, u
        later[u].append(v)
    return later


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), isolated=st.integers(0, 3),
       ms=st.lists(st.integers(0, 30), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
@example(n=1, isolated=0, ms=[0], seed=0)
def test_later_lists_equal_per_edge_appends(n, isolated, ms, seed):
    # members of edges in shuffled input order, written either way round,
    # beside an "edges 0" member and vertices no edge reaches, under a drawn
    # permutation: the one stable sort lists every vertex's later neighbours
    # in input order, as appending them edge by edge does
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    members = []
    for m in ms:
        edges = rng.sample(pairs, min(m, len(pairs)))
        members.append([(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
    fam = GraphFamily(n=n + isolated, graphs=(*members, ()))
    order = rng.sample(range(fam.n), fam.n)
    rank = np.empty(fam.n, dtype=np.int64)
    rank[order] = np.arange(fam.n)
    for rows in fam.arrays:
        got = _later_lists(rows, rank)
        later = _later_lists_reference(rows.tolist(), rank.tolist())
        # a vertex without later neighbours has the empty tuple, not a slice
        assert got == [nbrs or () for nbrs in later]
        assert all(type(x) is int for x in itertools.chain(*got))


class TestLazyTrace:
    """A descent keeps each vertex's keys; its `DescentStep`s are built only
    when its trace is read, which among the CLI's commands only
    `partition --trace` does."""

    @pytest.fixture
    def built(self, monkeypatch):
        module = importlib.import_module("simulcut.derandomize")
        steps = []

        def counted(*fields):
            steps.append(fields)
            return step_type(*fields)

        step_type = module.DescentStep
        monkeypatch.setattr(module, "DescentStep", counted)
        return steps

    def test_runs_that_do_not_read_the_trace_build_no_step(self, built, tmp_path):
        fam = generate("gnm", n=30, m=80, ell=2, seed=3)
        hf = generate("runiform", n=20, m=40, r=3, ell=2, seed=4)
        derandomize(fam, resolve(fam, "thm2", k=3))
        derandomize(hf, resolve(hf, "hyp"))
        rr = execute_run(fam, RunOptions(method="derand", theorem="1"))
        assert rr.descent_steps == fam.n
        inst = tmp_path / "gnm.instance"
        assert main(["gen", "gnm", "--n", "30", "--m", "80", "--ell", "2", "--out", str(inst)]) == 0
        assert main(["partition", str(inst), "--theorem", "1", "--out", str(tmp_path / "a")]) == 0
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"runs": [
            {"generator": {"kind": "gnm", "n": 20, "m": 40, "ell": 2}, "reps": 2,
             "method": "derand", "theorem": "2", "k": 3},
            {"generator": {"kind": "runiform", "n": 20, "m": 40, "r": 3},
             "method": "derand", "theorem": "hyp"}]}))
        assert main(["bench", str(suite), "--out-dir", str(tmp_path)]) == 0
        assert built == []
        # the one CLI reader builds one step per vertex
        assert main(["partition", str(inst), "--theorem", "1", "--trace", "--out",
                     str(tmp_path / "b")]) == 0
        assert len(built) == fam.n

    @pytest.mark.parametrize("theorem, k, order", [
        ("thm1", None, None), ("thm2", 4, "degree"), ("hyp", None, "degree")])
    def test_trace_is_built_once_from_the_rows(self, built, theorem, k, order):
        fam = (generate("runiform", n=25, m=60, r=3, ell=2, seed=5) if theorem == "hyp"
               else generate("gnm", n=40, m=120, ell=2, seed=5))
        result = derandomize(fam, resolve(fam, theorem, k=k), order=order)
        assert len(result.rows) == fam.n and built == []
        trace = result.trace
        assert result.trace is trace and len(built) == fam.n
        labels = result.assignment.labels
        assert trace == tuple(
            (v, labels[v], tuple(x - min(keys) for x in keys))
            for v, keys in zip(resolve_order(fam, order), result.rows))
        assert all(step.keys[step.chosen] == 0 for step in trace)
