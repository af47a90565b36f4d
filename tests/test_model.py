"""Core instance types, counting operations, and each row's threshold."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simulcut import model
from simulcut import (
    Assignment,
    EpsilonRangeError,
    GraphFamily,
    HypergraphFamily,
    InstanceError,
    UNDECIDED,
    edwards_bound,
    epsilon_cap,
    partition_counts,
    rainbow_count,
    resolve,
)

from helpers import (all_pairs, c5_pair, cycle_edges, paper_threshold, random_family,
                     random_hyperfamily)


class TestInstanceValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InstanceError, match="self-loop"):
            GraphFamily(n=4, graphs=(((3, 3),),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            GraphFamily(n=4, graphs=(((0, 1), (1, 0)),))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InstanceError, match="out of range"):
            GraphFamily(n=3, graphs=(((0, 3),),))

    def test_empty_family_rejected(self):
        with pytest.raises(InstanceError):
            GraphFamily(n=3, graphs=())

    def test_graphs_may_share_edges(self):
        fam = GraphFamily(n=3, graphs=(((0, 1),), ((0, 1), (1, 2))))
        assert fam.m == (1, 2)
        assert fam == GraphFamily(n=3, graphs=(((1, 0),), ((0, 1), (2, 1))))
        assert fam != GraphFamily(n=3, graphs=(((0, 1),), ((0, 1), (0, 2))))

    def test_isolated_vertices_allowed(self):
        fam = GraphFamily(n=10, graphs=(((0, 1),),))
        assert fam.max_degree == (1,) and not (fam.arrays[0] == 9).any()

    def test_max_degree_counts_distinct_indices_when_sparse(self, monkeypatch):
        # one counter per index up to 2*10**7 - 1 would take 160 MB for one edge
        bincount = np.bincount

        def dense_only(x, *args, **kwargs):
            assert len(x) == 0 or x.max() < 10 ** 6, "bincount over a sparse index range"
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", dense_only)
        n = 2 * 10 ** 7
        fam = GraphFamily(n=n, graphs=(((0, n - 1),), ((0, 1), (1, 2), (2, 5)), ()))
        assert fam.max_degree == (1, 2, 0)
        assert GraphFamily(n=n, graphs=(((0, n - 1), (7, n - 1)),)).max_degree == (2,)

    def test_derived_stats(self):
        fam = c5_pair()
        assert fam.ell == 2
        assert fam.m == (5, 5)
        assert fam.max_degree == (2, 2)
        # union of the two cycles is complete on 5 vertices
        first, second = (set(map(tuple, rows.tolist())) for rows in fam.arrays)
        assert first | second == set(all_pairs(5))
        assert not first & second

    def test_hypergraph_uniformity_enforced(self):
        with pytest.raises(InstanceError, match="distinct"):
            HypergraphFamily(n=5, r=3, hypergraphs=(((0, 1, 1),),))

    def test_hypergraph_delta2(self):
        hf = HypergraphFamily(n=5, r=3, hypergraphs=(((0, 1, 2), (0, 1, 3), (2, 3, 4)),))
        assert hf.delta2 == (2,)
        assert hf != HypergraphFamily(n=5, r=3, hypergraphs=(((0, 1, 2), (0, 1, 4), (2, 3, 4)),))

    def test_degree_bounded_by_m(self):
        for seed in range(5):
            fam = random_family(8, [random.Random(seed).randint(0, 20)], seed)
            assert all(d <= m for d, m in zip(fam.max_degree, fam.m))
        hf = random_hyperfamily(8, 3, [10], 3)
        assert all(d <= m for d, m in zip(hf.delta2, hf.m))


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_vectorized_validation_matches_python_loops(r, rnd):
    n = rnd.randint(r, r + 5)
    hf = random_hyperfamily(n, r, [rnd.randint(0, min(20, math.comb(n, r)))],
                            rnd.randrange(10 ** 6))
    incidence = {}
    for e in hf.arrays[0].tolist():
        for x, y in itertools.combinations(e, 2):
            incidence[(x, y)] = incidence.get((x, y), 0) + 1
    assert hf.delta2 == (max(incidence.values(), default=0),)
    # unsorted endpoints are normalized; degrees count both endpoints of every edge
    simple = random_family(n, [rnd.randint(0, min(10, n * (n - 1) // 2))], 0).arrays[0]
    edges = [tuple(rnd.sample(e, 2)) for e in simple.tolist()]
    fam = GraphFamily(n=n, graphs=(tuple(edges),))
    rows = fam.arrays[0]
    assert type(rows) is np.ndarray and rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.shape == (len(edges), 2)
    assert rows.tolist() == [sorted(e) for e in edges]
    degrees = [sum(v in e for e in edges) for v in range(n)]
    assert fam.max_degree == (max(degrees, default=0),)


def test_validation_names_first_bad_edge_in_input_order():
    with pytest.raises(InstanceError, match=r"graph 1: duplicate edge \(0, 2\)") as exc:
        GraphFamily(n=4, graphs=(((0, 1),), ((0, 2), (2, 3), (2, 0), (1, 3), (3, 2))))
    assert (exc.value.member, exc.value.row) == (1, 2)
    with pytest.raises(InstanceError, match=r"self-loop \(1, 1\)"):
        GraphFamily(n=4, graphs=(((0, 1), (1, 1), (0, 1), (0, 9)),))
    with pytest.raises(InstanceError, match=r"out of range in edge \(0, 9\)"):
        GraphFamily(n=4, graphs=(((0, 1), (0, 9), (1, 1)),))
    with pytest.raises(InstanceError, match="every edge must be 2 integer vertex indices") as exc:
        GraphFamily(n=4, graphs=(((0, 1), (1, 2, 3)),))
    assert (exc.value.member, exc.value.row) == (0, None)
    with pytest.raises(InstanceError, match=r"graph 1: .* below 2\*\*63") as exc:
        GraphFamily(n=2**70, graphs=(((0, 1),), ((0, 1), (0, 2**64), (1, -2**64))))
    assert (exc.value.member, exc.value.row) == (1, 1)
    with pytest.raises(InstanceError, match="every edge must be 2"):
        GraphFamily(n=4, graphs=(((),),))
    with pytest.raises(InstanceError, match="hypergraph 0: duplicate edge"):
        HypergraphFamily(n=5, r=3, hypergraphs=(((0, 1, 2), (2, 0, 1)),))


def _incidence_delta2(rows):
    """Pair degree from a dict of vertex-pair incidences, the reference for delta2."""
    incidence = {}
    for e in rows.tolist():
        for x, y in itertools.combinations(e, 2):
            incidence[(x, y)] = incidence.get((x, y), 0) + 1
    return max(incidence.values(), default=0)


def _first_bad(edges, n, width):
    """``(row, message)`` of the InstanceError for one member, or None when it is valid."""
    try:
        model._member_rows(edges, n, width, "member 0", 0)
    except InstanceError as exc:
        return exc.row, str(exc)
    return None


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_key_sort_and_lexsort_fallback_agree(r, rnd):
    n = rnd.randint(r, r + 5)
    rows = random_hyperfamily(n, r, [rnd.randint(1, min(20, math.comb(n, r)))],
                              rnd.randrange(10 ** 6)).arrays[0]
    edges = [rnd.sample(e, r) for e in rows.tolist()]
    for _ in range(rnd.randint(0, 2)):      # copies of earlier rows, endpoints reordered
        j = rnd.randrange(len(edges) + 1)
        edges.insert(j, rnd.sample(rnd.choice(edges[:j] or edges), r))
    with_keys = (_first_bad(edges, n, r), model._pair_degree(rows))
    limit = model._KEY_LIMIT
    try:
        model._KEY_LIMIT = 0            # every row and pair now takes the lexsort path
        fallback = (_first_bad(edges, n, r), model._pair_degree(rows))
    finally:
        model._KEY_LIMIT = limit
    assert with_keys == fallback
    assert with_keys[1] == _incidence_delta2(rows)


def test_large_indices_take_the_lexsort_fallback(monkeypatch):
    calls = []
    lexsort = model._lexicographic_runs
    monkeypatch.setattr(model, "_lexicographic_runs", lambda rows: calls.append(1) or lexsort(rows))
    # (2**32 + 3) ** 2 >= 2**63: graph rows no longer fit one int64 key
    big = 2 ** 32
    assert _first_bad([(0, 1), (1, 2)], 3, 2) is None and not calls
    assert _first_bad([(big, big + 1), (big + 1, big + 2)], big + 3, 2) is None and calls
    assert _first_bad([(big, big + 1), (big + 2, big), (big + 1, big), (big, big + 2)],
                      big + 3, 2) == (2, f"member 0: duplicate edge ({big}, {big + 1})")
    # 7005 ** 5 >= 2**63 for r=5 rows, while their pair keys still fit
    calls.clear()
    low = [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5), (1, 2, 3, 4, 5), (0, 2, 3, 4, 5)]
    high = [tuple(7000 + x for x in e) for e in low]
    assert HypergraphFamily(n=6, r=5, hypergraphs=(low,)).delta2 == (4,) and not calls
    assert HypergraphFamily(n=7006, r=5, hypergraphs=(high,)).delta2 == (4,)
    assert len(calls) == 1
    with pytest.raises(InstanceError) as exc:
        HypergraphFamily(n=7006, r=5, hypergraphs=(high + [high[1][::-1], high[0]],))
    assert (exc.value.member, exc.value.row) == (0, 4)
    assert str(exc.value) == "hypergraph 0: duplicate edge (7000, 7001, 7002, 7003, 7005)"
    # pair keys past 2**63 too: both sorts fall back, delta2 still matches the reference
    calls.clear()
    huge = [tuple(big + x for x in e) for e in low]
    family = HypergraphFamily(n=big + 6, r=5, hypergraphs=(huge,))
    assert family.delta2 == (_incidence_delta2(family.arrays[0]),) == (4,)
    assert len(calls) == 2


@pytest.mark.parametrize("build, error, message", [
    (lambda: GraphFamily(n=-1, graphs=((),)), InstanceError, "negative vertex count -1"),
    (lambda: HypergraphFamily(n=-1, r=2, hypergraphs=((),)), InstanceError,
     "negative vertex count -1"),
    (lambda: HypergraphFamily(n=3, r=4, hypergraphs=((),)), InstanceError,
     "uniformity must be in 2..n = 3, got 4"),
    (lambda: HypergraphFamily(n=3, r=1, hypergraphs=((),)), InstanceError,
     "uniformity must be in 2..n = 3, got 1"),
    (lambda: HypergraphFamily(n=3, r=3, hypergraphs=()), InstanceError,
     "a family needs at least one hypergraph"),
    (lambda: model.stat_mean("cut", 4, 2), ValueError, "unknown statistic kind 'cut'"),
])
def test_input_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


class TestAssignment:
    def test_total_and_partial(self):
        # an Assignment is a partition: a total labelling is kept, and
        # UNDECIDED, the reference's open label, is refused like any label
        # outside 0..k-1; test_first_bad_vertex_named shows it on both the
        # vectorized range test and the int loop
        with pytest.raises(ValueError, match=r"^vertex 2: label -1 outside 0\.\.1$"):
            Assignment((0, 1, UNDECIDED), 2)
        b = Assignment((0, 1, 1), 2)
        assert b.labels == (0, 1, 1)
        assert b.class_sizes() == (1, 2)

    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Assignment((0, 2), 2)
        with pytest.raises(ValueError):
            Assignment((0,), 1)

    @pytest.mark.parametrize("labels, message", [
        ((0, 1, 2, 1), "vertex 2: label 2 outside 0..1"),
        ((1, 0, -2), "vertex 2: label -2 outside 0..1"),
        ((1, 0, 0, 5, -2), "vertex 3: label 5 outside 0..1"),
        ((0, 1, -7, 3), "vertex 2: label -7 outside 0..1"),
        ((0, 2 ** 70, 9), "vertex 1: label 1180591620717411303424 outside 0..1"),
        ((1, UNDECIDED, 0), "vertex 1: label -1 outside 0..1"),
        ((0, 1, UNDECIDED, 2 ** 70), "vertex 2: label -1 outside 0..1"),
    ])
    def test_first_bad_vertex_named(self, labels, message):
        for given_as in (labels, list(labels), np.array(labels, dtype=object)):
            with pytest.raises(ValueError) as exc:
                Assignment(given_as, 2)
            assert str(exc.value) == message

    def test_labels_kept_as_ints_and_array(self):
        a = Assignment(np.array([2, 3, 0, 2, 3, 1]), 4)
        assert a.labels == (2, 3, 0, 2, 3, 1)
        assert all(type(x) is int for x in a.labels)
        assert not a.label_array.flags.writeable
        assert a.label_array.tolist() == list(a.labels)
        assert a.class_sizes() == (1, 1, 2, 2)
        assert type(a.class_sizes()[0]) is int
        assert a == Assignment((2, 3, 0, 2, 3, 1), 4)
        assert Assignment((), 3).class_sizes() == (0, 0, 0)
        with pytest.raises(TypeError):
            Assignment(((0, 1), (1, 0)), 2)

    @pytest.mark.parametrize("labels, message", [
        ((0.5, 1.7), "vertex 0: label 0.5 is not an integer"),
        (("1", "0"), "vertex 0: label '1' is not an integer"),
        ((True, False), "vertex 0: label True is not an integer"),
        ((0, 1, 1.0), "vertex 2: label 1.0 is not an integer"),
    ])
    def test_labels_must_be_integers(self, labels, message):
        # floats, strs and bools would all convert to integer labels; each is
        # refused, as a tuple, a list, a numpy array of its own dtype and,
        # past intp, by the int loop
        for given_as in (labels, list(labels), np.array(labels)):
            with pytest.raises(TypeError, match=r"^vertex \d: label .* is not an integer$"):
                Assignment(given_as, 2)
        with pytest.raises(TypeError) as exc:
            Assignment(labels, 2)
        assert str(exc.value) == message
        # a label past intp ahead of them: the int loop names the same label
        v, rest = message.removeprefix("vertex ").split(":", 1)
        with pytest.raises(TypeError) as exc:
            Assignment((2 ** 70,) + labels, 2 ** 71)
        assert str(exc.value) == f"vertex {int(v) + 1}:{rest}"

    @pytest.mark.parametrize("labels, message", [
        ((0, True), "vertex 1: label True is not an integer"),
        ((0, 1, np.True_), "vertex 2: label np.True_ is not an integer"),
    ])
    def test_bool_among_integer_labels_refused(self, labels, message):
        # numpy reads these sequences as int64; a bool is still no label
        assert np.array(labels).dtype.kind == "i"
        for given_as in (labels, list(labels)):
            with pytest.raises(TypeError) as exc:
                Assignment(given_as, 2)
            assert str(exc.value) == message

    def test_integer_labels_of_every_dtype_kept(self):
        want = (1, 0, 2, 2)
        for given_as in (want, list(want), np.array(want), np.array(want, dtype=np.uint8),
                         np.array(want, dtype=np.int32), np.array(want, dtype=np.uint64),
                         np.array(want, dtype=object), [np.int16(x) for x in want],
                         iter(want), (x for x in want)):
            a = Assignment(given_as, 3)
            assert a.labels == want and all(type(x) is int for x in a.labels)
            assert a.label_array.dtype == np.intp


class TestCounting:
    def test_crossing_c5(self):
        edges = cycle_edges(5)
        a = Assignment((0, 1, 0, 1, 1), 2)
        assert partition_counts(edges, a)[2] == 4

    def test_crossing_path(self):
        edges = ((0, 1), (1, 2))
        a = Assignment((1, 0, 1), 2)
        assert partition_counts(edges, a)[2] == 2

    def test_crossing_single_class(self):
        edges = cycle_edges(6)
        a = Assignment((0,) * 6, 2)
        assert partition_counts(edges, a)[2] == 0

    def test_crossing_requires_total(self):
        # a partial labelling cannot reach partition_counts: Assignment refuses it
        with pytest.raises(ValueError, match=r"^vertex 1: label -1 outside 0\.\.1$"):
            partition_counts(((0, 1),), Assignment((0, UNDECIDED), 2))
        assert partition_counts(((0, 1),), Assignment((0, 1), 2))[2] == 1

    def test_crossing_label_swap_invariant(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 9)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = tuple(rng.sample(all_pairs(n), m))
            labels = tuple(rng.randrange(2) for _ in range(n))
            a = Assignment(labels, 2)
            b = Assignment(tuple(1 - x for x in labels), 2)
            assert partition_counts(edges, a)[2] == partition_counts(edges, b)[2]

    def test_partition_counts_triangle_rainbowish(self):
        edges = ((0, 1), (1, 2), (0, 2))
        a = Assignment((0, 1, 2), 3)
        pairs, within, crossing = partition_counts(edges, a)
        assert all(v == 1 for v in pairs.values())
        assert within == (0, 0, 0)
        assert crossing == 3

    def test_partition_counts_all_in_one_class(self):
        edges = ((0, 1), (1, 2), (0, 2))
        a = Assignment((0, 0, 0), 3)
        pairs, within, crossing = partition_counts(edges, a)
        assert within[0] == 3 and crossing == 0
        assert all(v == 0 for v in pairs.values())

    def test_partition_counts_sum_to_m(self):
        # independent oracle: classify each edge by its endpoint labels
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 10)
            m = rng.randint(0, n * (n - 1) // 2)
            edges = tuple(rng.sample(all_pairs(n), m))
            k = rng.randint(2, 5)
            a = Assignment(tuple(rng.randrange(k) for _ in range(n)), k)
            pairs, within, crossing = partition_counts(edges, a)
            assert sum(pairs.values()) + sum(within) == m
            assert crossing == m - sum(within)
            expect_cross = sum(1 for u, v in edges if a.labels[u] != a.labels[v])
            assert crossing == expect_cross

    def test_rainbow_single_edge(self):
        edges = ((0, 1, 2),)
        assert rainbow_count(edges, Assignment((0, 1, 2), 3), 3) == 1
        assert rainbow_count(edges, Assignment((0, 0, 0), 3), 3) == 0

    def test_rainbow_requires_k_equal_r(self):
        with pytest.raises(ValueError, match="k == r"):
            rainbow_count(((0, 1, 2),), Assignment((0, 1, 0), 2), 3)

    def test_rainbow_complementary_count(self):
        rng = random.Random(23)
        for _ in range(20):
            hf = random_hyperfamily(8, 3, [rng.randint(0, 25)], rng.randrange(10 ** 6))
            edges = hf.arrays[0]
            a = Assignment(tuple(rng.randrange(3) for _ in range(8)), 3)
            missing = sum(1 for e in edges if len({a.labels[x] for x in e}) < 3)
            assert rainbow_count(edges, a, 3) == len(edges) - missing


def _loop_partition_counts(edges, labels, k):
    pairs = {(s, t): 0 for s in range(k) for t in range(s + 1, k)}
    within = [0] * k
    for u, v in edges:
        cu, cv = sorted((labels[u], labels[v]))
        if cu == cv:
            within[cu] += 1
        else:
            pairs[(cu, cv)] += 1
    return pairs, tuple(within), len(edges) - sum(within)


def _assert_python_counts(pairs, within, crossing):
    assert type(pairs) is dict and type(within) is tuple and type(crossing) is int
    assert all(type(x) is int for x in (*pairs.values(), *within))


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=10),
       st.randoms(use_true_random=False))
def test_array_partition_counts_match_python_loop(k, n, rnd):
    # m = 0 is drawn often enough: randint's lower end on small n
    m = rnd.randint(0, min(12, n * (n - 1) // 2))
    fam = random_family(n, [m, rnd.randint(0, n * (n - 1) // 2)], rnd.randrange(10 ** 6))
    a = Assignment(tuple(rnd.randrange(k) for _ in range(n)), k)
    for i in range(fam.ell):
        want = _loop_partition_counts(fam.arrays[i], a.labels, k)
        for edges in (fam.arrays[i], fam.arrays[i].tolist()):
            pairs, *rest = got = partition_counts(edges, a)
            _assert_python_counts(*got)
            # pairs may leave out only the pairs no edge joins, and lists
            # every pair when k*k <= m, where one bincount counts the edges
            assert rest == list(want[1:]) and set(pairs) <= set(want[0])
            assert ({st: x for st, x in pairs.items() if x}
                    == {st: x for st, x in want[0].items() if x})
            assert got == want or k * k > len(edges)
    empty = partition_counts((), a)
    _assert_python_counts(*empty)
    assert empty == ({}, (0,) * k, 0)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_array_rainbow_count_matches_python_loop(r, rnd):
    n = rnd.randint(r, r + 5)
    ms = [0, rnd.randint(0, min(15, math.comb(n, r)))]
    hf = random_hyperfamily(n, r, ms, rnd.randrange(10 ** 6))
    a = Assignment(tuple(rnd.randrange(r) for _ in range(n)), r)
    for i in range(hf.ell):
        want = sum(1 for e in hf.arrays[i] if len({a.labels[x] for x in e}) == r)
        for edges in (hf.arrays[i], hf.arrays[i].tolist()):
            got = rainbow_count(edges, a, r)
            assert type(got) is int and got == want


def _sorted_rainbow_count(edges, a, r):
    """rainbow_count through its per-row sort, the path it keeps for r >= 63."""
    limit = model._MASK_CLASSES
    try:
        model._MASK_CLASSES = 0
        return rainbow_count(edges, a, r)
    finally:
        model._MASK_CLASSES = limit


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_rainbow_mask_equals_sort(r, rnd):
    # half the edges take one vertex per class, so rainbow and other edges both occur
    n = 2 * r
    labels = [v % r for v in range(n)]
    rnd.shuffle(labels)
    by_class = [[v for v in range(n) if labels[v] == c] for c in range(r)]
    edges = set()
    for _ in range(rnd.randint(0, 30)):
        if rnd.random() < 0.5:
            edges.add(tuple(sorted(rnd.choice(vs) for vs in by_class)))
        else:
            edges.add(tuple(sorted(rnd.sample(range(n), r))))
    edges = sorted(edges)
    a = Assignment(tuple(labels), r)
    want = sum(1 for e in edges if len({labels[x] for x in e}) == r)
    assert rainbow_count(edges, a, r) == _sorted_rainbow_count(edges, a, r) == want


def test_rainbow_count_at_and_past_the_mask_width():
    for r in (62, 63):
        n = 2 * r
        a = Assignment(tuple(v % r for v in range(n)), r)
        edges = [tuple(range(r)),                           # classes 0..r-1: rainbow
                 tuple(range(r, n)),                        # rainbow again
                 tuple(range(r - 1)) + (r,),                # class 0 twice
                 tuple(range(1, r)) + (n - 1,)]             # class r-1 twice
        assert rainbow_count(edges, a, r) == _sorted_rainbow_count(edges, a, r) == 2


def test_unsorted_rows_give_the_first_bad_edge_messages():
    cases = [
        ([(1, 0), (2, 2)], 3, 2, (1, "member 0: self-loop (2, 2)")),
        ([(5, 0), (1, 0)], 3, 2, (0, "member 0: endpoint out of range in edge (0, 5), n=3")),
        ([(0, 2), (2, 1), (2, 0)], 3, 2, (2, "member 0: duplicate edge (0, 2)")),
        ([(0, 1, 2), (3, 1, 3)], 4, 3,
         (1, "member 0: edge (1, 3, 3) does not have exactly 3 distinct vertices")),
        ([(2, 1, 0), (0, 2, 1)], 3, 3, (1, "member 0: duplicate edge (0, 1, 2)")),
        ([(0, 1), (-1, 2)], 3, 2, (1, "member 0: endpoint out of range in edge (-1, 2), n=3")),
    ]
    for edges, n, width, want in cases:
        # ascending, descending and mixed copies of the rows name the same edge
        for order in (sorted, lambda e: sorted(e, reverse=True), tuple):
            rows = np.array([order(e) for e in edges], dtype=np.int64)
            assert _first_bad(rows, n, width) == want
            assert rows.flags.writeable


def test_callers_array_is_copied_not_frozen():
    for edges in (np.array([[0, 1], [1, 2]]), np.array([[1, 0], [1, 2]])):
        before = edges.tolist()
        rows = model._member_rows(edges, 3, 2, "member 0", 0)
        assert rows.tolist() == [[0, 1], [1, 2]] and not rows.flags.writeable
        assert edges.flags.writeable and not np.shares_memory(rows, edges)
        edges[0, 0] = 2
        assert rows.tolist() == [[0, 1], [1, 2]] and edges[0, 0] == 2 != before[0][0]


class TestEdwardsBound:
    def test_anchor_values(self):
        assert edwards_bound(1) == pytest.approx(0.75, abs=1e-15)
        assert edwards_bound(3) == pytest.approx(2.0, abs=1e-15)
        assert edwards_bound(10) == pytest.approx(6.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            edwards_bound(-1)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_at_least_half(self, m):
        assert edwards_bound(m) >= m / 2

    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_monotone(self, m):
        assert edwards_bound(m + 1) >= edwards_bound(m)


def _matching(m):
    """m disjoint edges on 2m vertices: max degree 1, so thm3 holds from m >= 1/eps."""
    return np.arange(2 * m, dtype=np.int64).reshape(m, 2)


class TestThresholds:
    """Each row's display threshold, as `resolve` gives it."""

    @staticmethod
    def _thresholds(family, theorem, **kw):
        return {(s.graph, s.stat): thr for s, thr, _ in resolve(family, theorem, **kw).rows}

    def test_thm1_value(self):
        got = self._thresholds(random_family(15, [50, 50], 1), "thm1")
        assert got == {(0, "crossing"): pytest.approx(25 - math.sqrt(50), abs=1e-12),
                       (1, "crossing"): pytest.approx(25 - math.sqrt(50), abs=1e-12)}

    def test_thm2_value(self):
        got = self._thresholds(random_family(20, [90], 2), "thm2", k=3)
        assert got == {(0, "crossing"): pytest.approx(60 - math.sqrt(180), abs=1e-12)}

    def test_thm3_pair_value(self):
        # eps = 1/144 -> eps^(1/4) = 1/sqrt(12)
        got = self._thresholds(GraphFamily(n=2000, graphs=(_matching(1000),)), "thm3",
                               k=2, eps=1 / 144)
        assert got[0, "pair(0,1)"] == pytest.approx(500 - 1000 / math.sqrt(12), abs=1e-9)

    def test_thm3_within_value(self):
        got = self._thresholds(GraphFamily(n=2000, graphs=(_matching(1000),)), "thm3",
                               k=2, eps=1 / 144)
        for s in (0, 1):
            assert got[0, f"within({s})"] == pytest.approx(250 - 1000 / math.sqrt(12), abs=1e-9)

    def test_thm3_epsilon_gate_names_bound(self):
        fam = random_family(6, [4, 4], 3)
        with pytest.raises(EpsilonRangeError, match=r"1/\(9\*ell\^2\*k\^4\)"):
            resolve(fam, "thm3", k=3, eps=0.5)
        cap = epsilon_cap(2, 3)
        with pytest.raises(EpsilonRangeError):
            resolve(fam, "thm3", k=3, eps=float(cap) * 1.01)

    def test_hyp_value(self):
        # 40 disjoint triples, twice: delta2 = 1 on both members
        triples = np.arange(120, dtype=np.int64).reshape(40, 3)
        got = self._thresholds(HypergraphFamily(n=120, r=3, hypergraphs=(triples, triples)),
                               "hyp")
        want = 6 * 40 / 27 - math.sqrt(2 * 2 * (1 + 6) * 40)
        assert got == {(g, "rainbow"): pytest.approx(want, abs=1e-12) for g in (0, 1)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=1, max_value=50))
    def test_thm1_at_least_thm2_at_k2(self, m, ell):
        fam = GraphFamily(n=2 * m, graphs=(_matching(m),) * ell)
        thm1 = self._thresholds(fam, "thm1")
        thm2 = self._thresholds(fam, "thm2", k=2)
        assert thm1.keys() == thm2.keys()
        assert all(thm1[row] >= thm2[row] - 1e-12 for row in thm1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_row_is_the_readme_formula(self, data):
        # all four theorems, thm3 at the default cap and at a float eps below
        # it, hyp members with delta2 >= 2, and any member may be empty
        theorem = data.draw(st.sampled_from(["thm1", "thm2", "thm3", "hyp"]))
        ell = data.draw(st.integers(1, 3))
        seed = data.draw(st.integers(0, 2 ** 32))
        k = eps = None
        if theorem == "hyp":
            k = data.draw(st.integers(3, 4))
            # 7 vertices have 21 pairs, so 8 triples or 4 quadruples share one
            least = 8 if k == 3 else 4
            ms = data.draw(st.lists(st.just(0) | st.integers(least, 35),
                                    min_size=ell, max_size=ell))
            family = random_hyperfamily(7, k, ms, seed)
            assert all(d >= 2 for m, d in zip(family.m, family.delta2) if m)
            want_eps = None
        elif theorem == "thm3":
            k = data.draw(st.integers(2, 3))
            cap = Fraction(1, 9 * ell * ell * k ** 4)
            if data.draw(st.booleans()):
                eps = want_eps = float(cap) * data.draw(st.floats(0.25, 0.99))
            else:
                want_eps = cap
            least = math.ceil(1 / want_eps) + 1     # max degree 1 <= eps * m
            ms = data.draw(st.lists(st.just(0) | st.integers(least, least + 500),
                                    min_size=ell, max_size=ell))
            family = GraphFamily(n=2 * max(ms), graphs=tuple(_matching(m) for m in ms))
        else:
            if theorem == "thm2":
                k = data.draw(st.integers(2, 5))
            ms = data.draw(st.lists(st.just(0) | st.integers(1, 28),
                                    min_size=ell, max_size=ell))
            family = random_family(8, ms, seed)
            want_eps = None
        rows = resolve(family, theorem, k=k, eps=eps).rows
        k = k or 2
        assert len(rows) == ell * (k * (k + 1) // 2 if theorem == "thm3" else 1)
        for spec, threshold, _ in rows:
            want = paper_threshold(theorem, family.m[spec.graph], ell=ell, k=k, stat=spec.kind,
                                   eps=want_eps,
                                   delta2=family.delta2[spec.graph] if theorem == "hyp" else 0)
            assert repr(threshold) == repr(want)
