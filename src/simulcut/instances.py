"""Instance file format and seeded instance generators.

Text format (UTF-8, LF line endings, '#' starts a full-line comment,
blank lines ignored):

    graphs <ell> vertices <n>
    edges <m_1>
    <u> <v>            one edge per line, m_1 lines
    ...
    edges <m_ell>
    ...

    hypergraphs <ell> vertices <n> uniformity <r>
    edges <m_1>
    <v1> ... <vr>      r vertex indices per line
    ...

Anything structurally wrong raises InstanceFormatError naming the line and
the violation; loaders never repair an instance.

Canonical text -- the format exactly as serialize_instance writes it, in
ASCII, with single spaces, no comments and no blank lines -- takes a fast
path: one byte-level scan finds every non-digit byte, vectorized tests
check each ``edges <m>`` block's separators and digit runs against the
line grammar, and each block is converted to an integer array in one call.
Other text goes through a line-by-line scan, which checks only the grammar
and records each row's line.  The family constructor alone checks the
edges (range, repeated vertices, duplicates); its first invalid edge is
reported at that row's line.  So grammar errors come first, then the first
invalid edge in file order.

Canonical text whose rows are already ascending and whose numbers have no
leading zeros is byte-equal to serialize_instance of its family.  For such
text the family records the sha256 of the text itself (``source_sha256``),
so the report digest needs no second serialization.

The generators draw from one numpy stream per member, ``substream(seed,
g)``, so their output is a pure function of the parameters.  Per member,
gnm draws one ``choice`` of m distinct pair ranks, bounded-degree one
permutation per Hamilton-cycle attempt, and runiform one ``choice`` of r
distinct vertices per draw until m distinct hyperedges are in hand.
Everything after the draws is vectorized: ranks are decoded to pairs in
int64 arrays, and cycle edges are kept as sorted ``u*n + v`` keys.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
import stat

import numpy as np

from .model import GraphFamily, HypergraphFamily, InstanceError
from .mc import substream

# each generator kind, with the parameters besides n and ell that it reads
_GENERATOR_READS = {"gnm": ("m",), "disjoint-cycles": (), "star": (),
                    "bounded-degree": ("degree",), "runiform": ("m", "r")}
GENERATOR_KINDS = tuple(_GENERATOR_READS)


class InstanceFormatError(ValueError):
    """Malformed instance text; carries the offending 1-based line number."""

    def __init__(self, line: int | None, message: str):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped


#: most digits of an instance integer: 2**64 - 1 has 20, so every count or
#: index just past int64 still reaches the range check that names it
_INT_DIGITS = 20
_INT_TOKEN = re.compile(rf"-?\d{{1,{_INT_DIGITS}}}")
#: most characters of a token or line that a diagnostic quotes
_QUOTED = 40


def _quoted(text: str) -> str:
    """``repr`` of text, cut to its first _QUOTED characters when longer."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _int_token(tok: str, lineno: int, what: str) -> int:
    """An optional ``-`` and 1 to _INT_DIGITS decimal digits.

    `int` alone also reads ``+3``, ``1_0`` and thousands of digits.
    """
    if _INT_TOKEN.fullmatch(tok):
        return int(tok)
    if tok.removeprefix("-").isdecimal():
        raise InstanceFormatError(
            lineno, f"{what} must have at most {_INT_DIGITS} digits, got {_quoted(tok)}")
    raise InstanceFormatError(lineno, f"{what} must be an integer, got {_quoted(tok)}")


def parse_instance(text: str):
    """Parse instance text into a GraphFamily or HypergraphFamily.

    Canonical text (what serialize_instance writes) is converted one block
    at a time, anything else by the line-by-line scan; the family then
    validates the edges, and its first invalid edge is reported at its line.
    When the text is byte-equal to serialize_instance of the family, the
    family records ``text_sha256(text)`` as its ``source_sha256``.
    """
    canonical = _canonical_members(text)
    if canonical is None:
        return _located_family(*_scan_members(text))
    *parsed, serialized = canonical
    family = _located_family(*parsed)
    if serialized:
        object.__setattr__(family, "source_sha256", text_sha256(text))
    return family


def text_sha256(text: str) -> str:
    """Hex sha256 of the UTF-8 text; an instance's digest is this of its serialized text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_text(path, text: str) -> None:
    """Write text to path as UTF-8 with its newlines as given, overwriting in place.

    Every file the program writes goes through here.  The file is opened
    without O_TRUNC and, when it is a regular file, cut at the written length
    afterwards, so its size never passes through 0 and closing it starts no
    writeback (ext4 with ``auto_da_alloc`` flushes a file truncated to 0 on
    close).  The cut also runs when a write raises, so an error leaves the
    bytes written so far and none of the old file.  Symlinks are followed, a
    new file gets mode 0o666 less the umask, and pipes and devices are
    written as they are.  The write is neither atomic nor fsynced, and with
    no flush on close a system crash soon after it can leave the old bytes,
    or old and new mixed, at the path.
    """
    data = memoryview(text.encode("utf-8"))
    # O_BINARY (Windows only) keeps "\n" from becoming "\r\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    written = 0
    try:
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _family(n: int, r: int | None, members):
    if r is None:
        return GraphFamily(n=n, graphs=tuple(members))
    return HypergraphFamily(n=n, r=r, hypergraphs=tuple(members))


def _located_family(n: int, r: int | None, members, lines):
    """The family of parsed members; ``lines[g][j]`` is the line of row j of member g."""
    try:
        return _family(n, r, members)
    except InstanceError as exc:
        line = None if exc.row is None else lines[exc.member][exc.row]
        raise InstanceFormatError(line, str(exc)) from exc


_COUNT = rf"([0-9]{{1,{_INT_DIGITS}}})"
_GRAPHS_HEADER = re.compile(rf"graphs {_COUNT} vertices {_COUNT}\n")
_HYPERGRAPHS_HEADER = re.compile(rf"hypergraphs {_COUNT} vertices {_COUNT} uniformity {_COUNT}\n")
_BLOCK_HEADER = re.compile(rf"edges {_COUNT}\n")
#: non-digit bytes of an ``edges <m>`` line: the six of ``edges `` and its LF
_BLOCK_HEADER_STOPS = 7
#: most digits of a vertex index in the canonical grammar; 18 always fit in int64
_INDEX_DIGITS = 18
#: vertex indices are int64, so a vertex count must be below this
_VERTEX_LIMIT = 2**63


def _no_leading_zero(match) -> bool:
    return all(len(g) == 1 or g[0] != "0" for g in match.groups())


def _canonical_members(text: str):
    """``(n, r, member arrays, row lines, serialized)`` if every line is canonical, else None.

    Canonical means: ASCII, the header first, then each ``edges <m>`` line
    followed by exactly m rows of single-space-separated decimal indices of
    1 to 18 digits, every line LF-terminated, and nothing else (no comments,
    blank lines or extra spaces).  One pass over the bytes finds every
    non-digit; the separators of a block are the next ``m * width`` of
    them, and vectorized tests check them all against the row template
    (spaces, then LF) and the digit runs between them against the length
    limit.  Each block is converted with one numpy call; range,
    repeated-vertex and duplicate checks are left to the family.
    ``serialized`` says that, besides, every row is ascending and no number
    has a leading zero: then serialize_instance of the family gives back
    the text byte for byte.
    """
    if not text.isascii():
        return None
    head = _GRAPHS_HEADER.match(text)
    if head is not None:
        ell, n = map(int, head.groups())
        r = None
    else:
        head = _HYPERGRAPHS_HEADER.match(text)
        if head is None:
            return None
        ell, n, r = map(int, head.groups())
        # the scan names a uniformity off 2..n; a row of r indices takes 2r bytes
        if not 2 <= r <= min(n, len(text)):
            return None
    if ell < 1 or n >= _VERTEX_LIMIT:
        return None
    serialized = _no_leading_zero(head)
    width = 2 if r is None else r
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # positions of the bytes that are not digits; uint8 wraps, so those below b"0" too
    stops = np.flatnonzero(buf - 48 >= 10)
    # from the first `edges` line on, the stops are each block's seven header
    # stops, then its rows' m * width separators
    pos = head.end()
    stops = stops[np.searchsorted(stops, pos):]
    j = 0
    blocks = []     # (start, end, m) of each block's rows
    for _ in range(ell):
        block = _BLOCK_HEADER.match(text, pos)
        if block is None:
            return None
        m = int(block.group(1))
        serialized = serialized and _no_leading_zero(block)
        j += _BLOCK_HEADER_STOPS + m * width
        if j > len(stops):
            return None
        pos = int(stops[j - 1]) + 1       # after the block's last separator
        blocks.append((block.end(), pos, m))
    if pos != len(text):
        return None
    row = b" " * (width - 1) + b"\n"
    if buf[stops].tobytes() != b"".join(b"edges \n" + row * m for _, _, m in blocks):
        return None
    # gap - 1 digits lie between consecutive stops.  Only the letters of
    # `edges ` and each block's last stop with the next `e` are adjacent,
    # 6 * ell - 1 pairs; any other gap holds an m or an index of 1..18 digits
    gaps = np.diff(stops)
    if np.count_nonzero(gaps == 1) != 6 * ell - 1 or gaps.max() > _INDEX_DIGITS + 1:
        return None
    zeros = np.flatnonzero(buf[1:][stops[:-1]] == 48)
    serialized = serialized and not (gaps[zeros] > 2).any()
    members = []
    lines = []
    line = 2        # of the block's `edges <m>` line
    for body, end, m in blocks:
        member = np.fromstring(text[body:end], dtype=np.int64, sep=" ").reshape(m, width)
        serialized = serialized and bool((member[:, 1:] > member[:, :-1]).all())
        members.append(member)
        lines.append(range(line + 1, line + 1 + m))
        line += m + 1
    return n, r, members, lines, serialized


def _scan_members(text: str):
    """``(n, r, members, row lines)`` by a line-by-line scan that accepts comments and blank lines.

    Checks the grammar only; the edges themselves are left to the family.
    Raises InstanceFormatError naming the first offending line.
    """
    content = _content_lines(text)
    try:
        lineno, header = next(content)
    except StopIteration:
        raise InstanceFormatError(None, "empty instance: missing header") from None
    tokens = header.split()
    if tokens[0] == "graphs":
        if len(tokens) != 4 or tokens[2] != "vertices":
            raise InstanceFormatError(lineno, "expected 'graphs <ell> vertices <n>'")
        ell = _int_token(tokens[1], lineno, "ell")
        n = _int_token(tokens[3], lineno, "n")
        r = None
    elif tokens[0] == "hypergraphs":
        if len(tokens) != 6 or tokens[2] != "vertices" or tokens[4] != "uniformity":
            raise InstanceFormatError(
                lineno, "expected 'hypergraphs <ell> vertices <n> uniformity <r>'")
        ell = _int_token(tokens[1], lineno, "ell")
        n = _int_token(tokens[3], lineno, "n")
        r = _int_token(tokens[5], lineno, "r")
    else:
        raise InstanceFormatError(lineno, f"unknown header {_quoted(tokens[0])}")
    if ell < 1:
        raise InstanceFormatError(lineno, f"ell must be >= 1, got {ell}")
    if n < 0:
        raise InstanceFormatError(lineno, f"n must be >= 0, got {n}")
    if n >= _VERTEX_LIMIT:
        raise InstanceFormatError(lineno, f"n must be below 2**63, got {n}")
    if r is not None and not 2 <= r <= n:
        raise InstanceFormatError(lineno, f"uniformity must be in 2..n = {n}, got {r}")

    width = 2 if r is None else r
    members = []
    lines = []
    for g in range(ell):
        try:
            lineno, line = next(content)
        except StopIteration:
            raise InstanceFormatError(
                None, f"member {g}: expected 'edges <m>' but the file ended") from None
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] != "edges":
            raise InstanceFormatError(
                lineno, f"member {g}: expected 'edges <m>', got {_quoted(line)}")
        m = _int_token(tokens[1], lineno, "edge count")
        if m < 0:
            raise InstanceFormatError(lineno, f"member {g}: edge count must be >= 0")
        edges = []
        where = []
        for j in range(m):
            try:
                lineno, line = next(content)
            except StopIteration:
                raise InstanceFormatError(
                    None,
                    f"member {g}: declared {m} edges but the file ended after {j}",
                ) from None
            tokens = line.split()
            if tokens[0] == "edges":
                raise InstanceFormatError(
                    lineno, f"member {g}: declared {m} edges but the block has only {j}")
            if len(tokens) != width:
                raise InstanceFormatError(
                    lineno, f"member {g}: expected {width} vertex indices, got {len(tokens)}")
            edges.append([_int_token(t, lineno, "vertex index") for t in tokens])
            where.append(lineno)
        members.append(edges)
        lines.append(where)
    try:
        lineno, line = next(content)
    except StopIteration:
        pass
    else:
        raise InstanceFormatError(
            lineno, f"trailing content {_quoted(line)} after the last member")

    return n, r, members, lines


def serialize_instance(family) -> str:
    """Canonical text for an instance; parse(serialize(x)) reproduces x."""
    if isinstance(family, HypergraphFamily):
        out = [f"hypergraphs {family.ell} vertices {family.n} uniformity {family.r}\n"]
    else:
        out = [f"graphs {family.ell} vertices {family.n}\n"]
    for rows in family.arrays:
        m, width = rows.shape
        row = " ".join(["%d"] * width) + "\n"
        out.append(f"edges {m}\n")
        out.append(row * m % tuple(rows.ravel().tolist()))
    return "".join(out)


def _row_offset(u: np.ndarray, n: int) -> np.ndarray:
    """Rank of the first pair (u, u+1) of row u: u*(2n - u - 1)/2.

    The even factor is halved before the product, so the product is the
    offset itself, at most C(n, 2), which gnm keeps below 2**63.
    """
    even = u % 2 == 0
    return np.where(even, u // 2 * (2 * n - 1 - u), u * ((2 * n - 1 - u) // 2))


def _pairs_from_ranks(ranks: np.ndarray, n: int) -> np.ndarray:
    """Pairs (u, v), u < v, of ranks in [0, C(n,2)) in row order, as an (m, 2) int64 array.

    Rank x counts from the last pair back as y = C(n,2) - 1 - x; the rows
    from the end hold 1, 2, 3, .. pairs, so y lies in row j from the end
    for j = floor((sqrt(8y + 1) - 1) / 2).  The float estimate of u =
    n - 2 - j is then corrected exactly against the integer row offsets.
    """
    x = np.asarray(ranks, dtype=np.int64)
    y = (n * (n - 1) // 2 - 1) - x
    j = ((np.sqrt(8 * y.astype(np.float64) + 1) - 1) // 2).astype(np.int64)
    u = n - 2 - j
    while (over := _row_offset(u, n) > x).any():
        u -= over
    while (under := _row_offset(u + 1, n) <= x).any():
        u += under
    return np.stack((u, x - _row_offset(u, n) + u + 1), axis=1)


def _gnm_edges(n: int, m: int, rng) -> np.ndarray:
    # rank order is row order, so sorted ranks decode to sorted rows
    return _pairs_from_ranks(np.sort(rng.choice(n * (n - 1) // 2, size=m, replace=False)), n)


def _cycle_keys(order: np.ndarray, n: int, step: int = 1) -> np.ndarray:
    """Key u*n + v, u < v, of each edge from order[i] to order[(i + step) % len(order)]."""
    order = np.asarray(order, dtype=np.int64)
    nxt = np.roll(order, -step)
    return np.minimum(order, nxt) * n + np.maximum(order, nxt)


def _key_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The edges of ``u*n + v`` keys as sorted (m, 2) rows."""
    keys = np.sort(keys)
    return np.stack((keys // n, keys % n), axis=1)


def _hamilton_union(n: int, cycles: int, rng) -> np.ndarray:
    """Edge-disjoint union of `cycles` random Hamilton cycles (degree 2*cycles).

    An attempt draws one permutation and is kept when none of its edges is
    in the union yet; the n edges of a Hamilton cycle on n >= 3 vertices
    never repeat each other.
    """
    union = np.empty(0, dtype=np.int64)     # sorted: np.isin runs faster on it
    for _ in range(cycles):
        for _attempt in range(1000):
            keys = _cycle_keys(rng.permutation(n), n)
            if not np.isin(keys, union, assume_unique=True).any():
                union = np.sort(np.concatenate((union, keys)))
                break
        else:
            raise ValueError(
                f"could not place {cycles} edge-disjoint Hamilton cycles on {n} vertices")
    return _key_rows(union, n)


def _runiform_edges(n: int, m: int, r: int, rng) -> list:
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.choice(n, size=r, replace=False).tolist())))
    return sorted(edges)


def generate(kind: str, *, n: int, m: int | None = None, ell: int = 1,
             r: int | None = None, degree: int | None = None, seed: int = 0):
    """Deterministic seeded instance generators.

    gnm             ell independent uniform graphs with exactly m edges
    disjoint-cycles two edge-disjoint Hamilton cycles (n odd >= 5); for
                    n = 5 their union is the complete graph
    star            one graph: vertex 0 joined to everyone (max degree n-1)
    bounded-degree  ell graphs, each a union of degree/2 random
                    edge-disjoint Hamilton cycles (so max degree = degree
                    exactly and m = n*degree/2)
    runiform        ell independent r-uniform hypergraphs with m edges

    Member g of the instance is drawn from substream (seed, g), so output
    is a pure function of the parameters.  The draws per member are fixed:
    gnm draws one ``choice(C(n,2), size=m, replace=False)`` of pair ranks
    and decodes them all at once in row order; bounded-degree draws one
    ``permutation(n)`` per attempt at each cycle (at most 1000 attempts)
    and keeps it when none of its edges is taken yet; runiform draws one
    ``choice(n, size=r, replace=False)`` at a time until it holds m
    distinct hyperedges.  disjoint-cycles and star draw nothing.  Rows
    come out sorted, graph members as int64 arrays.
    """
    check_generator(kind, n=n, m=m, ell=ell, r=r, degree=degree)
    if kind == "gnm":
        graphs = tuple(_gnm_edges(n, m, substream(seed, g)) for g in range(ell))
        return GraphFamily(n=n, graphs=graphs)
    if kind == "disjoint-cycles":
        ring = np.arange(n)
        return GraphFamily(n=n, graphs=tuple(_key_rows(_cycle_keys(ring, n, step), n)
                                             for step in (1, 2)))
    if kind == "star":
        return GraphFamily(n=n, graphs=(np.stack((np.zeros(n - 1, dtype=np.int64),
                                                  np.arange(1, n)), axis=1),))
    if kind == "bounded-degree":
        graphs = tuple(_hamilton_union(n, degree // 2, substream(seed, g))
                       for g in range(ell))
        return GraphFamily(n=n, graphs=graphs)
    hypergraphs = tuple(_runiform_edges(n, m, r, substream(seed, g)) for g in range(ell))
    return HypergraphFamily(n=n, r=r, hypergraphs=hypergraphs)


def check_generator(kind: str, *, n: int, m: int | None = None, ell: int = 1,
                    r: int | None = None, degree: int | None = None) -> tuple[int, int | None]:
    """Reject the parameters `generate` cannot build an instance from.

    Raises ValueError with the message `generate` gives, before anything
    is drawn, and on a given m, r or degree the kind does not read; a suite
    checks every run's generator with it before the first run starts.
    Returns the shape of what `generate` builds: its member count and
    uniformity (None for graphs).
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")
    # n and ell are always read; m, r and degree may be left out as None
    for name, value in (("n", n), ("m", m), ("ell", ell), ("r", r), ("degree", degree)):
        if type(value) is not int and (value is not None or name in ("n", "ell")):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if kind in ("gnm", "bounded-degree", "runiform") and ell < 1:
        member = "hypergraph" if kind == "runiform" else "graph"
        raise ValueError(f"a family needs at least one {member}")
    if n >= _VERTEX_LIMIT:
        raise ValueError(f"n must be below 2**63, got {n}")
    if kind in ("disjoint-cycles", "bounded-degree") and n * n >= _VERTEX_LIMIT:
        raise ValueError(f"{kind} keys each edge (u, v) as u*n + v, so n*n must be "
                         f"below 2**63, got n={n}")
    if kind == "gnm":
        if m is None:
            raise ValueError("gnm needs m")
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        pairs = n * (n - 1) // 2
        if pairs >= _VERTEX_LIMIT:
            raise ValueError(f"gnm draws from the n(n-1)/2 = {pairs} vertex pairs, "
                             "which must be below 2**63")
        if not 0 <= m <= pairs:
            raise ValueError(f"gnm needs 0 <= m <= n(n-1)/2 = {pairs}, got m={m}")
    elif kind == "disjoint-cycles":
        if n < 5 or n % 2 == 0:
            raise ValueError(f"disjoint-cycles needs odd n >= 5, got {n}")
    elif kind == "star":
        if n < 2:
            raise ValueError(f"star needs n >= 2, got {n}")
    elif kind == "bounded-degree":
        if degree is None or degree < 2 or degree % 2 != 0:
            raise ValueError(f"bounded-degree needs an even degree >= 2, got {degree}")
        if degree >= n:
            raise ValueError(f"degree {degree} does not fit on {n} vertices")
        if n < 5:
            raise ValueError(f"bounded-degree needs n >= 5, got {n}")
    else:
        if r is None or m is None:
            raise ValueError("runiform needs r and m")
        if r < 2:
            raise ValueError(f"uniformity must be >= 2, got {r}")
        if m < 0:
            raise ValueError(f"runiform needs m >= 0, got m={m}")
        total = math.comb(n, r)
        if m > total:
            raise ValueError(f"m={m} exceeds the {total} distinct {r}-subsets of {n} vertices")
    for name, value in (("m", m), ("r", r), ("degree", degree)):
        if value is not None and name not in _GENERATOR_READS[kind]:
            raise ValueError(f"{kind} does not read {name}")
    return {"disjoint-cycles": 2, "star": 1}.get(kind, ell), r
