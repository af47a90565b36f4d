"""Instance text format round-trips and seeded generators."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from simulcut import GraphFamily, HypergraphFamily
from simulcut.instances import (
    InstanceFormatError,
    _canonical_members,
    _family,
    _scan_members,
    generate,
    parse_instance,
    serialize_instance,
)

from helpers import all_pairs, random_family, random_hyperfamily

C5_PAIR_TEXT = """\
# the five-vertex pair of edge-disjoint cycles
graphs 2 vertices 5
edges 5
0 1
1 2
2 3
3 4
0 4
edges 5
0 2
2 4
1 4
1 3
0 3
"""


class TestParse:
    def test_c5_pair_header(self):
        fam = parse_instance(C5_PAIR_TEXT)
        assert isinstance(fam, GraphFamily)
        assert fam.ell == 2 and fam.n == 5
        assert fam.m == (5, 5)

    def test_empty_graph(self):
        fam = parse_instance("graphs 1 vertices 4\nedges 0\n")
        assert fam.m == (0,)

    def test_hypergraph(self):
        text = "hypergraphs 1 vertices 6 uniformity 3\nedges 2\n0 1 2\n3 4 5\n"
        hf = parse_instance(text)
        assert isinstance(hf, HypergraphFamily)
        assert hf.r == 3 and hf.m == (2,)

    def test_comments_and_blanks_ignored(self):
        text = "# c\n\ngraphs 1 vertices 3\n# c\nedges 1\n\n0 1\n# trailing comment\n"
        assert parse_instance(text).m == (1,)

    def test_self_loop_diagnostic(self):
        text = "graphs 1 vertices 5\nedges 1\n3 3\n"
        with pytest.raises(InstanceFormatError, match=r"line 3: .*self-loop"):
            parse_instance(text)

    def test_duplicate_edge_diagnostic(self):
        text = "graphs 1 vertices 5\nedges 2\n0 1\n1 0\n"
        with pytest.raises(InstanceFormatError, match=r"line 4: .*duplicate"):
            parse_instance(text)

    def test_out_of_range_diagnostic(self):
        text = "graphs 1 vertices 3\nedges 1\n0 3\n"
        with pytest.raises(InstanceFormatError, match=r"line 3: .*out of range"):
            parse_instance(text)

    def test_count_mismatch_short_block(self):
        text = "graphs 2 vertices 5\nedges 2\n0 1\nedges 1\n0 2\n"
        with pytest.raises(InstanceFormatError, match="declared 2 edges"):
            parse_instance(text)

    def test_count_mismatch_eof(self):
        text = "graphs 1 vertices 5\nedges 3\n0 1\n"
        with pytest.raises(InstanceFormatError, match="file ended"):
            parse_instance(text)

    def test_trailing_content(self):
        text = "graphs 1 vertices 3\nedges 1\n0 1\n1 2\n"
        with pytest.raises(InstanceFormatError, match="trailing"):
            parse_instance(text)

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError, match="header"):
            parse_instance("widgets 1 vertices 3\n")
        with pytest.raises(InstanceFormatError, match="empty"):
            parse_instance("# nothing here\n")

    def test_index_beyond_int64_is_rejected_not_clamped(self):
        text = ("hypergraphs 1 vertices 100000000000000000000 uniformity 3\n"
                "edges 1\n99999999999999999999 1 2\n")
        with pytest.raises(InstanceFormatError, match="integer vertex indices"):
            parse_instance(text)

    def test_wrong_arity_line(self):
        text = "hypergraphs 1 vertices 6 uniformity 3\nedges 1\n0 1\n"
        with pytest.raises(InstanceFormatError, match="expected 3"):
            parse_instance(text)


class TestRoundTrip:
    def test_graph_family(self):
        rng = random.Random(1)
        for trial in range(15):
            n = rng.randint(0, 12)
            ell = rng.randint(1, 3)
            cap = n * (n - 1) // 2
            fam = random_family(n, [rng.randint(0, cap) for _ in range(ell)], trial)
            assert parse_instance(serialize_instance(fam)) == fam

    def test_hypergraph_family(self):
        rng = random.Random(2)
        for trial in range(10):
            n = rng.randint(4, 10)
            r = rng.choice([2, 3, 4])
            cap = min(12, math.comb(n, r))
            hf = random_hyperfamily(n, r, [rng.randint(0, cap)], trial)
            assert parse_instance(serialize_instance(hf)) == hf

    def test_lf_terminated(self):
        fam = random_family(4, [2], 0)
        text = serialize_instance(fam)
        assert text.endswith("\n") and "\r" not in text


class TestGenerators:
    def test_disjoint_cycles_is_k5(self):
        fam = generate("disjoint-cycles", n=5)
        assert fam.ell == 2 and fam.m == (5, 5)
        union = set(fam.graphs[0]) | set(fam.graphs[1])
        assert union == set(all_pairs(5))
        assert not set(fam.graphs[0]) & set(fam.graphs[1])

    def test_disjoint_cycles_larger_odd(self):
        fam = generate("disjoint-cycles", n=9)
        assert fam.m == (9, 9)
        assert not set(fam.graphs[0]) & set(fam.graphs[1])
        assert fam.max_degree == (2, 2)

    def test_disjoint_cycles_rejects_even(self):
        with pytest.raises(ValueError, match="odd"):
            generate("disjoint-cycles", n=6)

    def test_star(self):
        fam = generate("star", n=11)
        assert fam.m == (10,)
        assert fam.max_degree == (10,)

    def test_gnm_deterministic(self):
        a = serialize_instance(generate("gnm", n=20, m=50, ell=2, seed=7))
        b = serialize_instance(generate("gnm", n=20, m=50, ell=2, seed=7))
        assert a == b
        c = serialize_instance(generate("gnm", n=20, m=50, ell=2, seed=8))
        assert a != c

    def test_gnm_edge_count_and_validity(self):
        fam = generate("gnm", n=10, m=30, ell=3, seed=1)
        assert fam.m == (30, 30, 30)

    def test_gnm_over_dense_rejected(self):
        with pytest.raises(ValueError, match=r"n\(n-1\)/2"):
            generate("gnm", n=5, m=11)

    def test_bounded_degree(self):
        fam = generate("bounded-degree", n=50, degree=4, ell=2, seed=3)
        assert fam.m == (100, 100)
        assert fam.max_degree == (4, 4)
        assert all(d == 4 for deg in fam.degrees for d in deg)

    def test_bounded_degree_needs_even(self):
        with pytest.raises(ValueError, match="even"):
            generate("bounded-degree", n=20, degree=3)

    def test_runiform(self):
        hf = generate("runiform", n=12, m=20, r=3, ell=2, seed=4)
        assert hf.m == (20, 20)
        assert all(len(e) == 3 for h in hf.hypergraphs for e in h)
        again = generate("runiform", n=12, m=20, r=3, ell=2, seed=4)
        assert hf == again

    def test_runiform_too_many_edges(self):
        with pytest.raises(ValueError, match="exceeds"):
            generate("runiform", n=5, m=11, r=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("mystery", n=5)


@st.composite
def families(draw):
    """Graph or r-uniform families with n up to 9, empty members and isolated vertices."""
    r = draw(st.sampled_from([None, 2, 3, 4]))
    width = 2 if r is None else r
    n = draw(st.integers(min_value=0, max_value=9))
    pool = list(itertools.combinations(range(n), width))
    ell = draw(st.integers(min_value=1, max_value=3))
    members = tuple(
        tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=36)) if pool else ())
        for _ in range(ell))
    return _family(n, r, members)


def _derived(fam):
    return (fam.m, fam.delta2) if isinstance(fam, HypergraphFamily) else (
        fam.m, fam.degrees, fam.max_degree)


def _line_by_line(text):
    return _family(*_scan_members(text))


@settings(max_examples=60)
@given(families())
def test_round_trip_property(fam):
    text = serialize_instance(fam)
    back = parse_instance(text)
    assert back == fam and _derived(back) == _derived(fam)
    assert serialize_instance(back) == text


def _decorate(text, rnd):
    """The same rows with comments, blank lines, extra spaces and shuffled endpoints."""
    out = ["# a comment before the header"]
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0].isdigit():
            rnd.shuffle(tokens)
        out.append(" " * rnd.randint(0, 2) + (" " * rnd.randint(1, 3)).join(tokens)
                   + " " * rnd.randint(0, 2))
        if rnd.random() < 0.3:
            out.append(rnd.choice(["", "   ", "# comment", "\t# indented comment"]))
    return "\n".join(out) + "\n"


@settings(max_examples=60)
@given(families(), st.randoms(use_true_random=False))
def test_fast_path_equals_line_by_line(fam, rnd):
    text = serialize_instance(fam)
    assert _canonical_members(text) is not None
    slow = _line_by_line(text)
    assert parse_instance(text) == slow == fam and _derived(slow) == _derived(fam)

    # unsorted endpoints stay inside the canonical grammar and take the fast path
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line[0].isdigit():
            lines[i] = " ".join(reversed(line.split()))
    swapped = "\n".join(lines) + "\n"
    assert _canonical_members(swapped) is not None
    assert parse_instance(swapped) == _line_by_line(swapped) == fam

    messy = _decorate(text, rnd)
    assert _canonical_members(messy) is None
    got = parse_instance(messy)
    assert got == _line_by_line(messy) == fam and _derived(got) == _derived(fam)


def _corruptions(lines, n):
    """(kind, line index, new line) for one-line corruptions of canonical instance text."""
    rows = [i for i, line in enumerate(lines) if line[0].isdigit()]
    blocks = [i for i, line in enumerate(lines) if line.startswith("edges ")]
    for i in rows:
        tokens = lines[i].split()
        yield "out of range", i, " ".join([str(n)] + tokens[1:])
        yield "repeated vertex", i, " ".join([tokens[1]] + tokens[1:])
        yield "wrong arity", i, " ".join(tokens[:-1])
        yield "wrong arity", i, " ".join(tokens + ["0"])
        yield "non-integer", i, " ".join(tokens[:-1] + ["x"])
        yield "non-integer", i, " ".join(tokens[:-1] + ["1.5"])
        if i - 1 in rows:
            yield "duplicate", i, " ".join(reversed(lines[i - 1].split()))
    for i in blocks:
        m = int(lines[i].split()[1])
        yield "bad count", i, f"edges {m + 1}"
        if m:
            yield "bad count", i, f"edges {m - 1}"
        yield "bad count", i, "edges -1"


@settings(max_examples=40)
@given(families())
def test_corrupted_line_diagnostic_equals_line_by_line(fam):
    text = serialize_instance(fam)
    lines = text.splitlines()
    for kind, i, line in _corruptions(lines, fam.n):
        bad = "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"
        with pytest.raises(InstanceFormatError) as slow:
            _line_by_line(bad)
        with pytest.raises(InstanceFormatError) as fast:
            parse_instance(bad)
        assert str(fast.value) == str(slow.value), kind
        assert fast.value.line == slow.value.line, kind
        if kind != "bad count":
            assert fast.value.line == i + 1, kind
