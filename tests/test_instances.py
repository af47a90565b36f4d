"""Instance text format round-trips and seeded generators."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from simulcut import GraphFamily, HypergraphFamily
from simulcut.cli import main
from simulcut.instances import (
    InstanceFormatError,
    _canonical_members,
    _family,
    _located_family,
    _pairs_from_ranks,
    _scan_members,
    check_generator,
    generate,
    parse_instance,
    serialize_instance,
)
from simulcut.report import instance_digest

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

    def test_long_tokens_and_lines_are_quoted_in_part(self):
        # a diagnostic quotes at most 40 characters of what it echoes
        cut = f"{'x' * 40!r}... (5000 characters)"
        for text, message in (
                (f"{'x' * 5000} 1 vertices 3\n", f"line 1: unknown header {cut}"),
                (f"graphs 1 vertices 3\n{'x' * 5000}\n",
                 f"line 2: member 0: expected 'edges <m>', got {cut}"),
                (f"graphs 1 vertices 3\nedges 0\n{'x' * 5000}\n",
                 f"line 3: trailing content {cut} after the last member"),
                (f"graphs 1 vertices 3\nedges 1\n0 {'x' * 5000}\n",
                 f"line 3: vertex index must be an integer, got {cut}")):
            with pytest.raises(InstanceFormatError) as info:
                parse_instance(text)
            assert str(info.value) == message

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError, match="header"):
            parse_instance("widgets 1 vertices 3\n")
        with pytest.raises(InstanceFormatError, match="empty"):
            parse_instance("# nothing here\n")

    def test_index_beyond_int64_is_rejected_not_clamped(self):
        text = ("hypergraphs 1 vertices 9223372036854775807 uniformity 3\n"
                "edges 1\n99999999999999999999 1 2\n")
        with pytest.raises(InstanceFormatError, match="integer vertex indices"):
            parse_instance(text)

    def test_grammar_error_reported_before_invalid_edge(self):
        text = "graphs 1 vertices 5\nedges 3\n3 3\n0 1\n0 x\n"
        with pytest.raises(InstanceFormatError, match=r"^line 5: .*integer") as exc:
            parse_instance(text)
        assert exc.value.line == 5
        text = "graphs 2 vertices 5\nedges 1\n0 1\n# c\nedges 2\n1 0\n0 9\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == "line 7: graph 1: endpoint out of range in edge (0, 9), n=5"

    def test_uniformity_bounded_by_n(self):
        # canonical, and with a comment the line-by-line scan: both name line 1
        for r in (4, 3000000000, 99999999999999999999):
            for text in (f"hypergraphs 1 vertices 3 uniformity {r}\nedges 0\n",
                         f"hypergraphs 1 vertices 3 uniformity {r}\n# c\nedges 0\n"):
                with pytest.raises(InstanceFormatError, match=r"^line 1: uniformity must be "
                                                              r"in 2\.\.n = 3, got \d+$"):
                    parse_instance(text)
        fam = parse_instance("hypergraphs 1 vertices 3 uniformity 3\nedges 1\n0 1 2\n")
        assert (fam.r, fam.m) == (3, (1,))

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
        first, second = (_edge_set(rows) for rows in fam.arrays)
        assert first | second == set(all_pairs(5))
        assert not first & second

    def test_disjoint_cycles_larger_odd(self):
        fam = generate("disjoint-cycles", n=9)
        assert fam.m == (9, 9)
        assert not _edge_set(fam.arrays[0]) & _edge_set(fam.arrays[1])
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
        assert all((np.bincount(rows.ravel(), minlength=50) == 4).all() for rows in fam.arrays)

    def test_bounded_degree_needs_even(self):
        with pytest.raises(ValueError, match="even"):
            generate("bounded-degree", n=20, degree=3)

    def test_runiform(self):
        hf = generate("runiform", n=12, m=20, r=3, ell=2, seed=4)
        assert hf.m == (20, 20)
        assert all(len(e) == 3 for h in hf.arrays for e in h)
        again = generate("runiform", n=12, m=20, r=3, ell=2, seed=4)
        assert hf == again

    def test_runiform_too_many_edges(self):
        with pytest.raises(ValueError, match="exceeds"):
            generate("runiform", n=5, m=11, r=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("mystery", n=5)


def _edge_set(rows):
    return set(map(tuple, rows.tolist()))


def _assert_stored_once(fam):
    # graphs and hypergraphs are constructor keywords only: arrays is the one stored tuple
    assert not hasattr(fam, "graphs") and not hasattr(fam, "hypergraphs")
    width = fam.r if isinstance(fam, HypergraphFamily) else 2
    assert len(fam.arrays) == fam.ell
    for rows in fam.arrays:
        assert type(rows) is np.ndarray and rows.dtype == np.int64
        assert rows.ndim == 2 and rows.shape[1] == width and not rows.flags.writeable


def test_members_are_stored_once():
    rnd = random.Random(5)
    for fam in (generate("gnm", n=20, m=40, ell=2, seed=1),
                generate("gnm", n=6, m=0, seed=1),
                generate("runiform", n=12, m=20, r=3, ell=2, seed=4),
                generate("disjoint-cycles", n=7)):
        _assert_stored_once(fam)
        text = serialize_instance(fam)
        for source in (text, _decorate(text, rnd)[0]):
            back = parse_instance(source)
            _assert_stored_once(back)
            assert back == fam


@st.composite
def families(draw):
    """Graph or r-uniform families with n up to 9 (at least r), empty members
    and isolated vertices."""
    r = draw(st.sampled_from([None, 2, 3, 4]))
    width = 2 if r is None else r
    n = draw(st.integers(min_value=0 if r is None else r, max_value=9))
    pool = list(itertools.combinations(range(n), width))
    ell = draw(st.integers(min_value=1, max_value=3))
    members = tuple(
        tuple(draw(st.lists(st.sampled_from(pool), unique=True, max_size=36)) if pool else ())
        for _ in range(ell))
    return _family(n, r, members)


def _derived(fam):
    return (fam.m, fam.delta2) if isinstance(fam, HypergraphFamily) else (fam.m, fam.max_degree)


def _line_by_line(text):
    """Parse through the scan even when the text is canonical."""
    return _located_family(*_scan_members(text))


@settings(max_examples=60)
@given(families())
def test_round_trip_property(fam):
    text = serialize_instance(fam)
    back = parse_instance(text)
    assert back == fam and _derived(back) == _derived(fam)
    assert serialize_instance(back) == text


def _decorate(text, rnd):
    """The same rows with comments, blank lines, extra spaces and shuffled endpoints.

    Returns the new text and, for each line of ``text``, its 1-based line number there.
    """
    out = ["# a comment before the header"]
    where = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0].isdigit():
            rnd.shuffle(tokens)
        out.append(" " * rnd.randint(0, 2) + (" " * rnd.randint(1, 3)).join(tokens)
                   + " " * rnd.randint(0, 2))
        where.append(len(out))
        if rnd.random() < 0.3:
            out.append(rnd.choice(["", "   ", "# comment", "\t# indented comment"]))
    return "\n".join(out) + "\n", where


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

    # one draw seeds every decoration: drawn line by line from Hypothesis'
    # buffer, they overrun it on families with many rows
    messy, _ = _decorate(text, random.Random(rnd.getrandbits(64)))
    assert _canonical_members(messy) is None
    got = parse_instance(messy)
    assert got == _line_by_line(messy) == fam and _derived(got) == _derived(fam)

    # the same rows in text that only the scan accepts
    for name, variant in _scan_only_variants(text, rnd):
        assert _canonical_members(variant) is None, name
        got = parse_instance(variant)
        assert got == _line_by_line(variant) == fam, name
        assert got.source_sha256 is None, name

    # one more, empty, member stays canonical
    header, rest = text.split("\n", 1)
    tokens = header.split()
    tokens[1] = str(fam.ell + 1)
    grown = " ".join(tokens) + "\n" + rest + "edges 0\n"
    want = _family(fam.n, getattr(fam, "r", None), (*fam.arrays, ()))
    assert _canonical_members(grown) is not None
    assert parse_instance(grown) == _line_by_line(grown) == want


#: Arabic-Indic digits, which int() reads as 0..9
_NON_ASCII_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                "\u0665\u0666\u0667\u0668\u0669")


def _scan_only_variants(text, rnd):
    """(name, copy) of canonical ``text`` with the same rows, that only the scan accepts."""
    lines = text.splitlines()
    i = rnd.randrange(len(lines))

    def with_line(line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

    yield "non-ASCII digits", with_line(lines[i].translate(_NON_ASCII_DIGITS))
    yield "tab", with_line(lines[i].replace(" ", "\t", 1))
    yield "CR", with_line(lines[i] + "\r")
    yield "trailing space", with_line(lines[i] + " ")
    yield "missing final LF", text[:-1]


def _corruptions(lines, n):
    """(kind, line index, new lines) for corruptions of canonical instance text.

    The new lines replace as many lines from that index on.
    """
    rows = [i for i, line in enumerate(lines) if line[0].isdigit()]
    blocks = [i for i, line in enumerate(lines) if line.startswith("edges ")]
    for i in rows:
        tokens = lines[i].split()
        yield "out of range", i, [" ".join([str(n)] + tokens[1:])]
        yield "out of range", i, [" ".join(["1" + "0" * 18] + tokens[1:])]     # 19 digits
        yield "out of range", i, [" ".join([str(n).translate(_NON_ASCII_DIGITS)] + tokens[1:])]
        yield "beyond int64", i, [" ".join(["9" * 19] + tokens[1:])]
        yield "repeated vertex", i, [" ".join([tokens[1]] + tokens[1:])]
        yield "wrong arity", i, [" ".join(tokens[:-1])]
        yield "wrong arity", i, [" ".join(tokens + ["0"])]
        # an empty index between the row's usual separators
        yield "wrong arity", i, [" ".join(tokens[:-1] + [""])]
        yield "wrong arity", i, [" ".join([""] + tokens[1:])]
        yield "non-integer", i, [" ".join(tokens[:-1] + ["x"])]
        yield "non-integer", i, [" ".join(tokens[:-1] + ["1.5"])]
        yield "edges line in a block", i, ["edges 1"]
        if i - 1 in rows:
            yield "duplicate", i, [" ".join(reversed(lines[i - 1].split()))]
        if i + 1 in rows:
            # a short row then a long one: the file's separator count is unchanged
            yield "wrong arity", i, [" ".join(tokens[:-1]),
                                     " ".join(lines[i + 1].split() + tokens[-1:])]
    for i in blocks:
        m = int(lines[i].split()[1])
        yield "bad count", i, [f"edges {m + 1}"]
        if m:
            yield "bad count", i, [f"edges {m - 1}"]
        yield "bad count", i, ["edges -1"]


#: corruptions checked per example, so that its work does not grow with its rows
_CORRUPTIONS_PER_EXAMPLE = 12


def _sampled_corruptions(lines, n, rnd):
    """`_CORRUPTIONS_PER_EXAMPLE` of `_corruptions` (all, if fewer), drawn
    at random, with one case of every kind that the text admits among them."""
    cases = list(_corruptions(lines, n))
    by_kind = {}
    for i, (kind, _, _) in enumerate(cases):
        by_kind.setdefault(kind, []).append(i)
    picked = {rnd.choice(ids) for ids in by_kind.values()}
    rest = [i for i in range(len(cases)) if i not in picked]
    picked.update(rnd.sample(rest, min(len(rest), _CORRUPTIONS_PER_EXAMPLE - len(picked))))
    return [cases[i] for i in sorted(picked)]


def _format_error(parse, text) -> InstanceFormatError:
    with pytest.raises(InstanceFormatError) as exc:
        parse(text)
    return exc.value


def _without_line(exc: InstanceFormatError) -> str:
    return str(exc).removeprefix(f"line {exc.line}: ")


@settings(max_examples=40)
@given(families(), st.randoms(use_true_random=False))
def test_corrupted_line_diagnostic_equals_line_by_line(fam, rnd):
    text = serialize_instance(fam)
    lines = text.splitlines()
    # one draw seeds every decoration: drawn line by line from Hypothesis'
    # buffer, they overrun it on families with many rows
    deco = random.Random(rnd.getrandbits(64))
    for kind, i, new in _sampled_corruptions(lines, fam.n, rnd):
        bad = "\n".join(lines[:i] + new + lines[i + len(new):]) + "\n"
        fast = _format_error(parse_instance, bad)
        slow = _format_error(_line_by_line, bad)
        assert str(fast) == str(slow) and fast.line == slow.line, kind
        # with comments, blank lines and spacing the text goes through the scan
        messy, where = _decorate(bad, deco)
        assert _canonical_members(messy) is None
        scanned = _format_error(parse_instance, messy)
        assert scanned.line == (None if fast.line is None else where[fast.line - 1]), kind
        if kind != "bad count":
            assert fast.line == i + 1 and scanned.line == where[i], kind
            assert _without_line(scanned) == _without_line(fast), kind
    # digits after the last LF: no separator for the byte scan to count
    bad = text + "7"
    fast = _format_error(parse_instance, bad)
    assert str(fast) == str(_format_error(_line_by_line, bad))
    assert fast.line == len(lines) + 1 and "trailing content" in str(fast)


def _digest_variants(text, rnd):
    """``text`` itself and copies that parse to the same family but are not its serialized form."""
    lines = text.splitlines()
    header = lines[0].split()
    yield "serialized", text
    yield "decorated", _decorate(text, rnd)[0]
    yield "crlf", text.replace("\n", "\r\n")
    yield "swapped", "".join(" ".join(reversed(line.split())) + "\n" if line[0].isdigit()
                             else line + "\n" for line in lines)
    yield "zero in header", " ".join([header[0], "0" + header[1], *header[2:]]) + "\n" \
        + "".join(line + "\n" for line in lines[1:])
    yield "zero in edges", "".join("edges 0" + line[6:] + "\n" if line.startswith("edges ")
                                   else line + "\n" for line in lines)
    yield "zero in indices", "".join("0" + line + "\n" if line[0].isdigit() else line + "\n"
                                     for line in lines)


@settings(max_examples=60)
@given(families(), st.randoms(use_true_random=False))
def test_digest_is_sha256_of_serialized_text(fam, rnd):
    text = serialize_instance(fam)
    want = hashlib.sha256(text.encode("utf-8")).hexdigest()
    # one draw seeds the decoration, as in test_fast_path_equals_line_by_line
    for name, variant in _digest_variants(text, random.Random(rnd.getrandbits(64))):
        back = parse_instance(variant)
        assert back == fam and instance_digest(back) == want, name
        # only text that is byte-equal to the serialized form records its own digest
        assert (back.source_sha256 is not None) == (variant == text), name
    assert fam.source_sha256 is None and instance_digest(fam) == want


@pytest.mark.parametrize("kind,params", [
    ("gnm", dict(n=8, m=5, ell=3)),
    ("disjoint-cycles", dict(n=7, ell=3)),
    ("star", dict(n=5, ell=3)),
    ("bounded-degree", dict(n=7, degree=2, ell=2)),
    ("runiform", dict(n=8, m=5, r=3, ell=2)),
])
def test_generated_shape_matches_generate(kind, params):
    # the shape check_generator returns is that of what generate builds
    fam = generate(kind, **params)
    assert check_generator(kind, **params) == (fam.ell, getattr(fam, "r", None))
    # disjoint-cycles and star ignore ell, whatever it is
    if kind in ("disjoint-cycles", "star"):
        assert check_generator(kind, **{**params, "ell": 0}) == (fam.ell, None)


@pytest.mark.parametrize("kind, params, unread", [
    ("star", dict(n=5, m=3, r=9, degree=4), "m"),
    ("disjoint-cycles", dict(n=7, degree=2), "degree"),
    ("gnm", dict(n=8, m=3, r=9, degree=4), "r"),
    ("bounded-degree", dict(n=8, degree=2, m=3), "m"),
    ("runiform", dict(n=8, m=3, r=3, degree=4), "degree"),
])
def test_generators_refuse_parameters_they_do_not_read(kind, params, unread):
    # a parameter the kind never reads is refused, not ignored, by both the
    # up-front check and generate; disjoint-cycles and star still ignore ell
    for check in (check_generator, generate):
        with pytest.raises(ValueError, match=rf"^{kind} does not read {unread}$"):
            check(kind, **params)


@pytest.mark.parametrize("params, message", [
    (dict(kind="gnm", n=8), "gnm needs m"),
    (dict(kind="gnm", n=-1, m=0), "negative vertex count -1"),
    (dict(kind="star", n=1), "star needs n >= 2, got 1"),
    (dict(kind="bounded-degree", n=5, degree=6), "degree 6 does not fit on 5 vertices"),
    (dict(kind="bounded-degree", n=3, degree=2), "bounded-degree needs n >= 5, got 3"),
])
def test_check_generator_refusals(params, message, capsys):
    # each is refused by check_generator and generate, and gen exits 2 with it
    for check in (check_generator, generate):
        with pytest.raises(ValueError) as exc:
            check(**params)
        assert str(exc.value) == message
    flags = [f"--{name}={value}" for name, value in params.items() if name != "kind"]
    assert main(["gen", params["kind"], *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_generator_rejects_what_generate_cannot_build():
    for ell, r in ((0, 3), ("2", 3), (2, None), (2, 1), (2, "3")):
        with pytest.raises(ValueError):
            check_generator("runiform", n=8, m=5, ell=ell, r=r)
        with pytest.raises(ValueError):
            generate("runiform", n=8, m=5, ell=ell, r=r)
    for kind in ("gnm", "bounded-degree"):
        with pytest.raises(ValueError, match="at least one graph"):
            check_generator(kind, n=8, m=5, degree=2, ell=0)
    with pytest.raises(ValueError, match="unknown generator kind"):
        check_generator("grid", n=8)
    for check in (check_generator, generate):
        with pytest.raises(ValueError, match=r"^runiform needs m >= 0, got m=-2$"):
            check("runiform", n=3, m=-2, r=2)


# sha256 of serialize_instance(generate(kind, seed=seed, **params)) at seeds 3
# and 1001.  The first nine shapes are the benchmark workloads' instances
# (mc-io, derand-graph, derand-hyp, then the suite-small generators); a
# generator rewrite must keep every byte of every one of them.
GENERATED_SHA256 = [
    ("gnm", dict(n=5000, m=2000, ell=16),
     "f8b29ea097027deecd3a3c5b6158d9ae8fd75b5ef67a03c2fb0fe7186383246b",
     "15b8c58eb5525ed0fa5df68704b831b003f4790412f45bca25f85a18bc266efa"),
    ("runiform", dict(n=3000, m=8000, r=3, ell=2),
     "041454aa74fbb28ab471dd4d404a8048fefa86b52b3491c0f19ddf71b7b579fa",
     "2393134ea47cc9692206cc11049015e7fe05b4f7e7a739457bf31b99b6ea6cbb"),
    ("gnm", dict(n=1000, m=4000, ell=4),
     "b8c34a64c7ca82139508e126e2ad6ea20aac934f41278bcda06c644abdff9729",
     "29d8f3e3e89dba607b2e61934eff4166aa261d8908c701061f92d6d8b06fb405"),
    ("bounded-degree", dict(n=1500, degree=2, ell=1),
     "637f02240eab15af15a917eeabebe431d189337ab1efeba372d5ffb64652f99f",
     "bf69deb98b15d8b90656270896be44f0376f2f482bf4d2c1a5608fbc4dbff0b6"),
    ("runiform", dict(n=70, m=200, r=3, ell=2),
     "9f1d399cae01f8164ec9a10a71578d8cafc1e32ad4958bfa06ec4b24f77a408e",
     "960cfbadcb0950cefb4e57a6a1f0db0915bc66050a52f4f3edf316e8dd1a5185"),
    ("runiform", dict(n=22, m=110, r=3, ell=2),
     "fe60c6e000bc9f748784562aacc252e3779e41b5ee9e7de376233c54642b3a25",
     "a67992175d4dd4dc4f7b4d967cef42f66a8737f5ac35687fecb95eb3c2bf7225"),
    ("gnm", dict(n=60, m=300, ell=2),
     "16f312cbcd53d3302f1bb8af18325e11e68e868533c65f01757117ec6cf7b410",
     "3210f903e9b22cde40053b66342d99202eed9d24277c602103775447389c596c"),
    ("bounded-degree", dict(n=300, degree=2, ell=1),
     "d6cae6d246fb705cd470efa48b210ae94a896f688c75f9dc6d66d5d3a9f89193",
     "a2aef09c988c44dc21e5650b30d0a6a046f0ff70cbc9864f78ad4ebdfda54e34"),
    ("runiform", dict(n=30, m=60, r=3, ell=2),
     "fe575c98686f1c2ce5a6e1f5a74a767f15ef384d55d6a448f5fab69bc8f8ad99",
     "15703103e23918eb7c6f2ffa4f0080b156c3b45afd59170b68d31911997a4f17"),
    # dense bounded-degree: K5 and K7 (the same at every seed), then unions
    # whose later cycles are rejected many times before one fits
    ("bounded-degree", dict(n=5, degree=4, ell=2),
     "87bd2ca8e6523f91f13ed2484cb78861cd20a7f2f1a18e377f693c9b47fe7422",
     "87bd2ca8e6523f91f13ed2484cb78861cd20a7f2f1a18e377f693c9b47fe7422"),
    ("bounded-degree", dict(n=7, degree=6, ell=2),
     "2e845347eaf8dc0a3ec08ef8411ef351352b81adb79112e8b2bd66942d2c7c94",
     "2e845347eaf8dc0a3ec08ef8411ef351352b81adb79112e8b2bd66942d2c7c94"),
    ("bounded-degree", dict(n=9, degree=6, ell=2),
     "907fc8cfc9aca716d01f9c7b7a235e6765770abfc9d86587b82245e81c1c4cd2",
     "5c966b3b3a95ae497c2682053365f53a9035f4bb7765cec290ac73b1a181de7c"),
    ("bounded-degree", dict(n=50, degree=4, ell=2),
     "0339a32b11c47b145fb75e6c473e0011cc1ee2605f56f1be2b75732e23939c25",
     "f7359b0ccf491b1e7d0dc180600d33d815a45c8ec63d87576f594f4cdee1a3ef"),
    # gnm at the edges of the rank range: empty, one pair, complete, near
    # complete, and n = 2**32 (the largest n whose C(n, 2) is below 2**63)
    ("gnm", dict(n=0, m=0),
     "b6620eaa2290d7e0e4b45dd2fa68852c5fee31090e7e384b65a399df143fd834",
     "b6620eaa2290d7e0e4b45dd2fa68852c5fee31090e7e384b65a399df143fd834"),
    ("gnm", dict(n=2, m=1),
     "cd4a8721224e1ff606e9f2a1baf563d3315f39091a0023506925c908a2268f53",
     "cd4a8721224e1ff606e9f2a1baf563d3315f39091a0023506925c908a2268f53"),
    ("gnm", dict(n=5, m=10, ell=2),
     "87bd2ca8e6523f91f13ed2484cb78861cd20a7f2f1a18e377f693c9b47fe7422",
     "87bd2ca8e6523f91f13ed2484cb78861cd20a7f2f1a18e377f693c9b47fe7422"),
    ("gnm", dict(n=100, m=4900, ell=2),
     "d73cbd8c62640e0692cf23612160d9a22efffe3f545b930f3f4729aa2a1b22a0",
     "b785ba44b3440bcfd27618e501f8fbeb6a93d65723f530fd99e29785ccaa9b1d"),
    ("gnm", dict(n=3037000500, m=7, ell=2),
     "00aaf7082be6b605e885da3d022c5a856a676cabf7f3e19d8a13937563401602",
     "c09c3b3b6493abad9d5f373751095ef659771923c3326a12fc4c6e64270840ed"),
    ("gnm", dict(n=2**32, m=5),
     "9340f9fbda93153249e470b0402615ec7c05a27dd9eecbbfe893b3646d67ea21",
     "30c4115780262061d586d2b76f8cbf861c93a6d92d8e2469125bd1415ce2060e"),
    ("runiform", dict(n=6, m=20, r=3),
     "599e3b5b0cd955738b1cdf09e2ca4a6627ab34193aea1a6425d16ff7881a9b54",
     "599e3b5b0cd955738b1cdf09e2ca4a6627ab34193aea1a6425d16ff7881a9b54"),
    ("runiform", dict(n=100000, m=50, r=5),
     "1b3e842d0ff3e3efd4627b33aacde1cb7fabfe51f858278218daf8a574abf8d3",
     "15b01922f787bbdc00a09f55e6f585a9ca8c4cef3dfa024b92d075c0f535d4c6"),
    ("disjoint-cycles", dict(n=9),
     "0f6f052f15bfd408c78eb7e2428ad89065c3d9df7eadb012a8d2fc3a435b67ba",
     "0f6f052f15bfd408c78eb7e2428ad89065c3d9df7eadb012a8d2fc3a435b67ba"),
    ("star", dict(n=11),
     "433dc865a5d36731a499f05f4930b3e02fbda42b9fb582223ccce3727428126c",
     "433dc865a5d36731a499f05f4930b3e02fbda42b9fb582223ccce3727428126c"),
]


@pytest.mark.parametrize("kind,params,at3,at1001", GENERATED_SHA256,
                         ids=[f"{k}-{'-'.join(map(str, p.values()))}"
                              for k, p, *_ in GENERATED_SHA256])
def test_generated_bytes_are_pinned(kind, params, at3, at1001):
    for seed, want in ((3, at3), (1001, at1001)):
        text = serialize_instance(generate(kind, seed=seed, **params))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, seed


def test_bounded_degree_gives_up_after_a_thousand_attempts():
    # four edge-disjoint Hamilton cycles would cover K9: random attempts never find them
    for seed in (3, 1001):
        with pytest.raises(ValueError, match="^could not place 4 edge-disjoint Hamilton "
                                             "cycles on 9 vertices$"):
            generate("bounded-degree", n=9, degree=8, seed=seed)


def _first_rank(u, n):
    """Rank of the pair (u, u + 1): the pairs of rows 0..u-1 come before it."""
    return u * (2 * n - u - 1) // 2


def _pair_of_rank(x, n):
    """The pair of rank x in Python ints: its row is the last whose first rank is <= x."""
    lo, hi = 0, n - 1           # _first_rank(lo) <= x < _first_rank(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _first_rank(mid, n) <= x else (lo, mid)
    return [lo, x - _first_rank(lo, n) + lo + 1]


#: 2**32 is the largest n whose C(n, 2) is below 2**63; at 3037000500, n*n
#: already passes 2**63 while C(n, 2) does not
BIG_NS = (2**32, 2**32 - 1, 3037000500)


def test_rank_decoding_matches_combinations():
    for n in range(41):
        want = list(itertools.combinations(range(n), 2))
        got = _pairs_from_ranks(np.arange(len(want), dtype=np.int64), n)
        assert got.dtype == np.int64 and got.shape == (len(want), 2)
        assert list(map(tuple, got.tolist())) == want, n
    for n in (0, 1, 2, 40, *BIG_NS):
        assert _pairs_from_ranks(np.empty(0, dtype=np.int64), n).shape == (0, 2)
        assert generate("gnm", n=n, m=0, ell=2).m == (0, 0)


@pytest.mark.parametrize("n", BIG_NS)
def test_rank_decoding_exact_at_the_largest_n(n):
    pairs = n * (n - 1) // 2
    # the first and last rank of the first and last thousand rows
    rows = [*range(1000), *range(n - 1001, n - 1)]
    ranks = [_first_rank(u, n) for u in rows] + [_first_rank(u + 1, n) - 1 for u in rows]
    got = _pairs_from_ranks(np.array(ranks, dtype=np.int64), n).tolist()
    assert got == [_pair_of_rank(x, n) for x in ranks]
    # the last 10**5 ranks, where the float row estimate is least precise, are
    # the pairs of the last rows in order
    tail = []
    u = n - 2
    while len(tail) < 10**5:
        tail[:0] = [[u, v] for v in range(u + 1, n)]
        u -= 1
    tail = tail[-10**5:]
    got = _pairs_from_ranks(np.arange(pairs - 10**5, pairs, dtype=np.int64), n)
    assert got.tolist() == tail


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_decoding_property(data):
    n = data.draw(st.sampled_from(BIG_NS) | st.integers(min_value=2, max_value=2**32))
    ranks = data.draw(st.lists(st.integers(min_value=0, max_value=n * (n - 1) // 2 - 1),
                               max_size=40))
    rows = data.draw(st.lists(st.integers(min_value=0, max_value=n - 2), max_size=20))
    ranks += [_first_rank(u, n) for u in rows] + [_first_rank(u + 1, n) - 1 for u in rows]
    got = _pairs_from_ranks(np.array(ranks, dtype=np.int64), n).tolist()
    assert got == [_pair_of_rank(x, n) for x in ranks]


def test_keyed_generators_refuse_n_whose_square_passes_int64():
    for kind, params in (("disjoint-cycles", {}), ("bounded-degree", dict(degree=2))):
        check_generator(kind, n=3037000499, **params)
        with pytest.raises(ValueError, match=r"n\*n must be below 2\*\*63, got n=3037000501"):
            check_generator(kind, n=3037000501, **params)
