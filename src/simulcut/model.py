"""Instance types, cut counting, statistic means and their exact pass rule.

The objects here are deliberately dumb and immutable: a family of simple
graphs (or r-uniform hypergraphs) on a shared vertex set, a k-partition of
that set, and a report of cut statistics against their thresholds.  All
counting operations are pure functions of (instance, assignment), so they
double as the ground truth that the samplers and the derandomizer are
checked against.

Each member is validated and stored once, as a read-only int64 array of
shape (m, width) with the endpoints of every row sorted (a sort runs only
when some row is not ascending already); there is no other copy.
Validation (range, repeated vertices, duplicate edges), degrees, pair
degrees and the counts are vectorized over that array, so checking one
assignment costs one pass over the edges.  Duplicate edges and pair degrees
are found by sorting one int64 key per row (the row read as a number in base
max index + 1); a stable lexicographic sort of the rows runs only to locate
a duplicate once the keys show one, or when the keys could overflow int64.
An Assignment is a k-partition, every label in 0..k-1; partial labellings
are plain label sequences, used only by the exact reference `estimator`.
It keeps its labels as a tuple and as a read-only array, checked in one
vectorized type and range test: a label of no integer dtype, or a bool
anywhere in a sequence, is refused.  Code that loops over edges in Python
(the descent's terms, the oracle) takes ``.tolist()`` of a member itself; the
oracle keeps its own pure-Python count as the independent reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np


class InstanceError(ValueError):
    """An instance violates a structural invariant; ``member`` and ``row`` locate the bad edge."""

    def __init__(self, message: str, member: int | None = None, row: int | None = None):
        super().__init__(message)
        self.member = member
        self.row = row


class EpsilonRangeError(ValueError):
    """Epsilon outside the admissible range for the pairwise guarantee."""


def _as_rows(edges, width: int) -> np.ndarray:
    """Edges as an (m, width) int64 array; no copy when they already are one."""
    try:
        rows = np.asarray(edges, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is not None and rows.shape == (0,):
        return rows.reshape(0, width)
    if rows is None or rows.ndim != 2 or rows.shape[1] != width:
        raise InstanceError(f"every edge must be {width} integer vertex indices below 2**63")
    return rows


def _first_overflow(edges) -> int | None:
    """Index of the first edge holding an integer outside int64, if there is one."""
    try:
        return next(j for j, e in enumerate(edges)
                    if any(isinstance(x, int) and not -2**63 <= x < 2**63 for x in e))
    except (StopIteration, TypeError):
        return None


def _member_rows(edges, n: int, width: int, where: str, member: int) -> np.ndarray:
    """Validate one member; returns its read-only array with each row sorted.

    This is the only check of edge validity.  Rows are sorted only when
    some row is not strictly ascending, as canonical and generated rows
    always are; strict ascent already rules out a repeated vertex.  A
    caller's own array is copied, never made read-only.  Raises
    InstanceError naming the first edge, in input order, that is out of
    range, repeats a vertex, or repeats an earlier edge, with ``member``
    and that edge's ``row``; an edge holding an index outside int64 is
    named the same way.
    """
    try:
        rows = _as_rows(edges, width)
    except InstanceError as exc:
        raise InstanceError(f"{where}: {exc}", member, _first_overflow(edges)) from None
    ascending = (rows[:, 1:] > rows[:, :-1]).all()
    if not ascending:
        rows = np.sort(rows, axis=1)
    elif rows is edges:
        rows = rows.copy()
    bad = (rows[:, 0] < 0) | (rows[:, -1] >= n) | _repeats_earlier_row(rows)
    if not ascending:
        bad |= (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if bad.any():
        j = int(bad.argmax())
        e = tuple(rows[j].tolist())
        if not (0 <= e[0] and e[-1] < n):
            message = f"endpoint out of range in edge {e}, n={n}"
        elif len(set(e)) < width and width == 2:
            message = f"self-loop {e}"
        elif len(set(e)) < width:
            message = f"edge {e} does not have exactly {width} distinct vertices"
        else:
            message = f"duplicate edge {e}"
        raise InstanceError(f"{where}: {message}", member, j)
    rows.flags.writeable = False
    return rows


#: Rows are encoded as int64 keys only while base ** width stays below this.
_KEY_LIMIT = 2**63


def _row_keys(columns, base: int) -> np.ndarray:
    """Each row, given as its columns, read as one number in ``base``; equal rows give equal keys."""
    keys = columns[0]
    for column in columns[1:]:
        keys = keys * base + column
    return keys


def _repeats_earlier_row(rows: np.ndarray) -> np.ndarray:
    """Which rows equal an earlier row, in input order.

    Equal rows always get equal keys, so one sort of the row keys with no
    two alike proves there is no repeat.  Only when two keys are alike, or
    when base-(max + 1) keys could overflow int64, does the stable
    lexicographic sort locate the repeats.
    """
    duplicate = np.zeros(len(rows), dtype=bool)
    if len(rows) < 2:
        return duplicate
    base = int(rows.max()) + 1
    if base ** rows.shape[1] < _KEY_LIMIT:
        keys = np.sort(_row_keys(rows.T, base))
        if not (keys[1:] == keys[:-1]).any():
            return duplicate
    order, same = _lexicographic_runs(rows)
    duplicate[order[1:][same]] = True
    return duplicate


def _lexicographic_runs(rows: np.ndarray):
    """Stable lexicographic order of the rows, and which rows in it equal their predecessor.

    Stability puts every later copy of a row right after an earlier one.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    return order, (ranked[1:] == ranked[:-1]).all(axis=1)


def _family_eq(a, b):
    """Families are equal when their kind, n, r and member rows are."""
    if type(a) is not type(b):
        return NotImplemented
    return (a.n == b.n and getattr(a, "r", None) == getattr(b, "r", None) and a.ell == b.ell
            and all(np.array_equal(x, y) for x, y in zip(a.arrays, b.arrays)))


@dataclass(frozen=True, eq=False)
class GraphFamily:
    """Simple graphs G_1..G_ell on a shared vertex set {0, .., n-1}.

    Each member must be simple, but different members may repeat each
    other's edges.  Isolated vertices are fine: every guarantee depends
    only on edges.

    The members are given as ``graphs``; ``arrays`` holds each one once,
    validated, as a read-only ``(m, 2)`` int64 array (endpoints sorted
    within each row, input order kept).  ``source_sha256`` is set by
    parse_instance when the family was parsed from text in serialized
    form: that text's sha256, else None.
    """

    n: int
    graphs: InitVar[tuple]
    arrays: tuple[np.ndarray, ...] = field(init=False)
    m: tuple[int, ...] = field(init=False)
    max_degree: tuple[int, ...] = field(init=False)
    source_sha256: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self, graphs):
        if self.n < 0:
            raise InstanceError(f"negative vertex count {self.n}")
        if len(graphs) < 1:
            raise InstanceError("a family needs at least one graph")
        arrays = tuple(_member_rows(edges, self.n, 2, f"graph {i}", i)
                       for i, edges in enumerate(graphs))
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "m", tuple(len(rows) for rows in arrays))
        # one counter per index below n, unless n is over 4x the entry count:
        # then counts of the distinct indices, so that memory follows the edges
        object.__setattr__(self, "max_degree", tuple(
            int((np.unique(rows, return_counts=True)[1] if self.n > 4 * rows.size
                 else np.bincount(rows.ravel())).max(initial=0)) for rows in arrays))

    __eq__ = _family_eq

    @property
    def ell(self) -> int:
        return len(self.arrays)


@dataclass(frozen=True, eq=False)
class HypergraphFamily:
    """r-uniform hypergraphs H_1..H_ell on a shared vertex set {0, .., n-1}.

    Besides edge counts, each member carries its pair degree
    ``delta2 = max over vertex pairs x != y of #{edges containing both}``,
    which controls the derived rainbow-count guarantee.  The members are
    given as ``hypergraphs``; ``arrays`` holds each one once as a read-only
    ``(m, r)`` int64 array, and ``source_sha256`` is as in GraphFamily.
    """

    n: int
    r: int
    hypergraphs: InitVar[tuple]
    arrays: tuple[np.ndarray, ...] = field(init=False)
    m: tuple[int, ...] = field(init=False)
    delta2: tuple[int, ...] = field(init=False)
    source_sha256: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self, hypergraphs):
        if self.n < 0:
            raise InstanceError(f"negative vertex count {self.n}")
        if not 2 <= self.r <= self.n:
            raise InstanceError(f"uniformity must be in 2..n = {self.n}, got {self.r}")
        if len(hypergraphs) < 1:
            raise InstanceError("a family needs at least one hypergraph")
        arrays = tuple(_member_rows(edges, self.n, self.r, f"hypergraph {i}", i)
                       for i, edges in enumerate(hypergraphs))
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "m", tuple(len(rows) for rows in arrays))
        object.__setattr__(self, "delta2", tuple(_pair_degree(rows) for rows in arrays))

    __eq__ = _family_eq

    @property
    def ell(self) -> int:
        return len(self.arrays)


def _pair_degree(rows: np.ndarray) -> int:
    """Most edges sharing one vertex pair, over the C(r,2) pair columns of sorted rows.

    The longest run of equal pair keys in sorted order; the pairs are
    sorted lexicographically instead when base-(max + 1) keys could
    overflow int64.
    """
    if len(rows) == 0:
        return 0
    pair_columns = list(itertools.combinations(range(rows.shape[1]), 2))
    base = int(rows[:, -1].max()) + 1
    if base ** 2 < _KEY_LIMIT:
        keys = np.sort(np.concatenate([_row_keys((rows[:, a], rows[:, b]), base)
                                       for a, b in pair_columns]))
        same = keys[1:] == keys[:-1]
    else:
        pairs = np.concatenate([rows[:, [a, b]] for a, b in pair_columns])
        _, same = _lexicographic_runs(pairs)
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    return int(np.diff(starts, append=len(same) + 1).max())


def require_addressable(n: int) -> None:
    """Raise MemoryError when n slots of 8 bytes overflow the address space.

    The engines call it on the vertex count (the descent also on k) before
    sizing any storage, so such a count fails at once, not partway through.
    """
    if n > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{n} slots of 8 bytes each exceed the address space")


def _label_array(labels, k: int) -> np.ndarray:
    """Labels as a read-only integer array, after one vectorized type and
    range test.

    Raises TypeError naming the first vertex whose label is no integer (a
    bool, float or str included), and ValueError naming the first whose
    label is outside 0..k-1.
    """
    labels = labels if isinstance(labels, np.ndarray) else tuple(labels)   # an iterator, once
    array = np.array(labels)
    if (array.ndim != 1 or array.dtype.kind not in "iu" or not np.can_cast(array.dtype, np.intp)
            or not isinstance(labels, np.ndarray)
            and not {bool, np.bool_}.isdisjoint(map(type, labels))):
        # no integer dtype (a label beyond intp, a non-integer or none at all),
        # not one label per vertex, or a bool, which numpy reads as an int: the loop names it
        for v, lab in enumerate(labels):
            if isinstance(lab, bool) or not isinstance(lab, (int, np.integer)):
                raise TypeError(f"vertex {v}: label {lab!r} is not an integer")
            if not 0 <= lab < k:
                raise ValueError(f"vertex {v}: label {lab} outside 0..{k - 1}")
        array = np.array([int(lab) for lab in labels], dtype=np.intp)
    else:
        array = array.astype(np.intp, copy=False)
    bad = (array < 0) | (array >= k)
    if bad.any():
        v = int(bad.argmax())
        raise ValueError(f"vertex {v}: label {int(array[v])} outside 0..{k - 1}")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Assignment:
    """A k-partition: one class label in {0..k-1} per vertex.

    ``labels`` may be given as any integer sequence or array; it is kept as
    a tuple of ints, and ``label_array`` holds the same labels as a
    read-only integer array.
    """

    labels: tuple[int, ...]
    k: int
    label_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"class count must be >= 2, got {self.k}")
        array = _label_array(self.labels, self.k)
        object.__setattr__(self, "labels", tuple(array.tolist()))
        object.__setattr__(self, "label_array", array)

    @property
    def n(self) -> int:
        return len(self.labels)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.label_array, minlength=self.k).tolist())


def partition_counts(edges, a: Assignment):
    """Classify every edge of one graph under a k-assignment.

    Returns ``(pairs, within, crossing)`` where ``pairs[(s, t)]`` counts
    edges between classes s < t, ``within[s]`` counts edges inside class s,
    and ``crossing`` is the number of edges whose endpoints differ.  Always
    ``sum(pairs) + sum(within) == len(edges)``.  ``edges`` is a member's
    array or any sequence of pairs; every count is a Python int.

    ``pairs`` may leave out class pairs that no edge joins, so read it with
    ``pairs.get((s, t), 0)``.  One bincount over the k*k label cells counts
    the edges when k*k <= m.  Beyond that only the cells that edges land in
    are counted, with np.unique of the cell codes, and ``pairs`` holds only
    those: then the cost is O(m + k) however large k is.
    """
    rows = _as_rows(edges, 2)
    lab = a.label_array
    k = a.k
    first, second = lab[rows[:, 0]], lab[rows[:, 1]]
    if k * k <= len(rows):
        cells = np.bincount(first * k + second, minlength=k * k).reshape(k, k).tolist()
        pairs = {(s, t): cells[s][t] + cells[t][s] for s in range(k) for t in range(s + 1, k)}
        within = tuple(cells[s][s] for s in range(k))
    else:
        codes = np.minimum(first, second) * k + np.maximum(first, second)
        occupied, counts = np.unique(codes, return_counts=True)
        pairs = {divmod(code, k): x for code, x in zip(occupied.tolist(), counts.tolist())}
        within = tuple(pairs.pop((s, s), 0) for s in range(k))
    crossing = len(rows) - sum(within)
    return pairs, within, crossing


#: Most classes whose label bits rainbow_count ORs into one int64 mask.
_MASK_CLASSES = 62


def rainbow_count(edges, a: Assignment, r: int) -> int:
    """Number of r-uniform edges meeting all r classes (one vertex per class).

    With r <= 62 an edge is rainbow when the OR of ``1 << label`` over its
    vertices sets all r low bits; beyond that the mask would overflow
    int64, and each edge's labels are sorted and compared instead.
    """
    if a.k != r:
        raise ValueError(f"rainbow count needs k == r, got k={a.k}, r={r}")
    colors = a.label_array[_as_rows(edges, r)]
    if r <= _MASK_CLASSES:
        seen = np.zeros(len(colors), dtype=np.int64)
        for column in colors.T:
            seen |= 1 << column
        return int(np.count_nonzero(seen == (1 << r) - 1))
    colors.sort(axis=1)
    return int((colors[:, 1:] != colors[:, :-1]).all(axis=1).sum())


def edwards_bound(m: int) -> float:
    """Tight lower bound on the max cut of any single graph with m edges."""
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    return m / 2 + math.sqrt(m / 8 + 1 / 64) - 1 / 8


def epsilon_cap(ell: int, k: int) -> Fraction:
    """Largest admissible epsilon for the pairwise guarantee: 1/(9*ell^2*k^4)."""
    return Fraction(1, 9 * ell * ell * k ** 4)


def stat_mean(kind: str, m: int, k: int) -> Fraction:
    """Unconditional mean of a statistic on an m-edge member under uniform labels."""
    if kind == "crossing":
        return Fraction((k - 1) * m, k)
    if kind == "pair":
        return Fraction(2 * m, k * k)
    if kind == "within":
        return Fraction(m, k * k)
    if kind == "rainbow":
        return Fraction(math.factorial(k) * m, k ** k)
    raise ValueError(f"unknown statistic kind {kind!r}")


class Bound(NamedTuple):
    """The exact pass rule of a statistic row: a count passes when it is at
    least ``mean``, or when (mean - count)**4 <= spread.  A row's spread is
    its penalty term's squared normalizer, so a count passes iff the term
    (mean - count)**2 / normalizer is at most 1: count >= mean -
    sqrt(normalizer), the row's threshold, without rounding."""

    mean: Fraction
    spread: Fraction

    def admits(self, count: int) -> bool:
        den = self.mean.denominator
        gap = self.mean.numerator - den * count         # (mean - count) * den
        return gap <= 0 or gap ** 4 * self.spread.denominator <= self.spread.numerator * den ** 4


@dataclass(frozen=True)
class Constraint:
    """One guarantee row: an integer statistic checked against a real threshold."""

    graph: int
    stat: str
    count: int
    threshold: float
    margin: float
    passed: bool


@dataclass(frozen=True)
class CutReport:
    """The count section of a run report: class sizes, one count per member
    (crossing for graphs, rainbow for hypergraphs) and the guarantee's rows.

    A row carries each statistic a guarantee checks, thm3's per-class pair
    and within counts included; `partition_counts` gives them for any
    assignment.  Every number here is re-derivable from (instance,
    assignment).
    """

    class_sizes: tuple[int, ...]
    member_counts: tuple[int, ...]
    constraints: tuple[Constraint, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.constraints)
