"""Greedy conditional-expectation descent to a certified partition.

The estimator is a sum of quadratic penalty terms (mu - X)^2 / normalizer,
one per tracked statistic, evaluated as exact conditional expectations
given the labels decided so far.  Deciding a vertex uniformly at random
leaves the estimator unchanged in expectation, so some class choice never
increases it; committing the minimizing class at every vertex therefore
ends with the estimator below its initial value.  When the initial value
is below 1, no statistic can finish under mu - sqrt(normalizer), because a
single violated constraint already pushes its own term above 1.

Arithmetic: per-edge conditional probabilities have denominators dividing
k^2 (r^r for rainbow terms), so each statistic's quadratic is a plain
integer over k^4 (r^(3r)), the scale.  Every spec's normalizer is
sqrt(norm2) times its integer ``part``, norm2 being the guarantee's exact
square of the factor all specs share; with L the lcm of the parts,
weighing each quadratic by L // part makes the estimator times scale * L
* sqrt(norm2) an integer S, so the budget S < scale * L * sqrt(norm2) is
decided as S^2 < (scale * L)^2 * norm2.  At each vertex every term adds
its weighted integer key per class into one shared list of k, leaving out
what no class changes, which cannot move the argmin; so every decision is
exact, and ties break to the lowest class.  Floats are for display only.

Terms: a guarantee has one term, built from the members' edges, the
specs, their weights and the descent's order: a graph term for every
crossing, pair and within spec (the bipartition term when every spec is a
crossing spec at k = 2), or one rainbow term over every hypergraph member
its specs name.  It starts with all vertices open, in closed form, and has
keys defined only at the next vertex of its order.  Its `step(v, c=None)`
forms v's keys, takes their argmin unless c forces a class, and commits
that class.

Cost: the graph term keeps each edge of a member once, at the endpoint the
order reaches first, listed from one stable sort of the edges by that
endpoint, and one packed histogram of neighbour labels per vertex and
member.  A member's step costs two additions per open neighbour of v,
one for its keys and one for their commit, and O(k) per statistic.  The
bipartition term keeps the same lists and one signed integer per vertex
and member in place of the histogram; a step costs two additions per open
neighbour and O(1) per member.  The rainbow term keeps each hyperedge at
the vertices before its last, and one packed sum per vertex and member,
with every member's lists in one list of slots; a step's keys and its
commit cost one addition per (live hyperedge, open co-vertex) pair, and
the keys O(r) per live hyperedge and per multi-shared pair at v.  A step
keeps only its list of keys; its `DescentStep` is built when the trace is
first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, index, mul
from typing import NamedTuple

import numpy as np

from .model import Assignment, CutReport, require_addressable, stat_mean
from .estimator import EstimatorBudgetError
from .guarantee import Guarantee, evaluate


class DescentStep(NamedTuple):
    """Audit record for one vertex decision.

    ``keys[c]`` is the key of class c less the chosen class's: an exact
    integer, 0 at the chosen class and never negative.  It is the estimator
    after v -> c less that after v -> chosen, times L * k^4 (L * r^(3r) for
    rainbow terms) and times sqrt(norm2), the factor all normalizers share.
    """

    vertex: int
    chosen: int
    keys: tuple[int, ...]


@dataclass(frozen=True)
class DerandResult:
    """A descent's partition, its report and estimator values.  ``rows[i]``
    is the list of keys of the step at ``order[i]``, the i-th vertex, and
    is defined only up to a constant: a bipartition term's row is [key_0 -
    key_1, 0].  Only ``trace`` reads rows; it builds their `DescentStep`s
    once, when it is first read, from each row less its min."""

    assignment: Assignment
    report: CutReport
    initial_value: float
    final_value: float
    order: tuple[int, ...] = field(compare=False, repr=False)
    rows: list[list[int]] = field(compare=False, repr=False)

    @cached_property
    def trace(self) -> tuple[DescentStep, ...]:
        labels = self.assignment.labels
        steps = []
        for v, keys in zip(self.order, self.rows):
            best = min(keys)
            steps.append(DescentStep(v, labels[v], tuple([x - best for x in keys])))
        return tuple(steps)


def _later_lists(edges, rank):
    """A graph member's edges, each once, at the endpoint that the descent's
    order reaches first (``rank[v]`` is v's position): ``later[v]`` lists
    v's neighbours after it in input order, the open ones at v's turn."""
    n = len(rank)
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ends = rank[rows]
    swap = ends[:, 0] > ends[:, 1]
    first = np.where(swap, rows[:, 1], rows[:, 0])
    second = np.where(swap, rows[:, 0], rows[:, 1])
    items = second[np.argsort(first, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(first, minlength=n)).tolist()
    # no slice for a vertex without later neighbours: sparse members have many
    return [items[a:b] if a != b else () for a, b in zip([0] + ends[:-1], ends)]


class _GraphTerm:
    """Incremental keys for every crossing, pair and within statistic of a
    graph guarantee, kept per member on one histogram of neighbour labels
    per vertex.  A member's crossing specs differ only in their normalizer,
    so they share one quadratic times their summed weight; each pair and
    within statistic has its own.  The term's key sums them all.

    A vertex u's histogram counts its open neighbours a[u] and its
    neighbours decided as c, b[u][c] (B[u] their total).  While u is open,
    its edges' aggregates follow from it in closed form (P is an edge's
    conditional probability numerator over k^2):

      Tw, Qw            sums of P and P^2 over the edges at u
      trow[c], qrow[c]  sums over those edges of the numerator (over k) of
                        the edge's probability given u -> c, and of squares
      contrib           k * sum_c(trow^2 - qrow) - (Tw^2 - Qw), the
                        correction (over k^4) for edge pairs meeting at u

    A statistic's quadratic over k^4 is mu_k2^2 - 2*mu_k2*sumP + k^2*sumP +
    sumP^2 - sumP2 + sum(contrib), where mu_k2 = stat_mean(kind, m, k) * k^2
    is the initial sumP.  Deciding v -> c moves sumP by dp[c] = k*trow_v[c]
    - Tw_v and sumP2 by k^2*qrow_v[c] - Qw_v, drops contrib_v, and moves one
    count of each open neighbour's histogram from a to b[c].  That shifts
    contrib linearly in the neighbour's histogram, so summed over v's open
    neighbours it needs only their summed histogram less v: alpha open and
    beta[c] decided as c.  Leaving out every part that no class changes,
    the quadratic after v -> c is the key, with g = k^2 - 2*mu_k2 + 2*sumP
    (k^2 while all is open); sumP2 and contrib are not kept.

    Crossing: trow[c] = (k-1)a + k(B-b[c]), qrow[c] = (k-1)^2 a + k^2
    (B-b[c]), Tw = k(k-1)(a+B) and Qw = k(k-1)Tw, so dp[c] = k(B - k b[c]),
    contrib shifts by 2k^2 (k beta[c] - sum(beta)), and the key is

      k^2 (b[c] (k^2 b[c] + 2(mu_k2 - sumP - k B)) + 2k beta[c])

    for which a member keeps its crossing gap 2(mu_k2 - sumP) = k^2 - g.
    Pair and within, with T[c] = a + k b[c], Q[c] = a + k^2 b[c] and W[c] =
    alpha + k beta[c], have these rows and shifts of contrib at v -> c:

      pair(s,t)  trow[s] = T[t], trow[t] = T[s], qrow alike with Q, other
                 classes 0; Tw = trow[s] + trow[t], Qw = qrow[s] + qrow[t] + 2a;
                 c = s: 2((k-1)^2 + 1) W[s] - 4(k-1) W[t];  c = t: s, t swapped;
                 else -2(k-2)(W[s] + W[t])
      within(s)  Tw = trow[s] = T[s], Qw = qrow[s] = Q[s];
                 2(k-1)^2 W[s] if c == s, else -2(k-1) W[s]

    so their keys, each over its own g, are

      within(s)  k (T[s] (g + (k-2) T[s]) + 2(k-1) W[s] - k Q[s]) at c = s, 0 elsewhere
      pair(s,t)  k (T[t] (g + k T[t] - 2Tw) + 2(k-1) W[s] - (2 W[t] + k Q[t])) at
                 c = s, the same with s and t swapped at c = t, 0 elsewhere

    and the per-class parts 2(k-1) W, 2 W + k Q and 2(k-1) W - k Q are
    formed once per vertex.  A commit moves each g by 2dp[c], from the T row
    of the keys.

    Built for the descent's order (`_later_lists`), ``later[v]`` is exactly
    v's open neighbours at v's turn, and ``early[v]``, v's degree less
    those, is B[v].  Histograms are packed, h[u] = a[u] + sum_c b[u][c] <<
    (width * (c+1)), with fields of (2m).bit_length() bits for the term's
    largest m: a field summed over any vertex's neighbours stays at most
    2m, so sums never carry.  So a step walks later[v] once for a member's
    keys for all its statistics, and once more to commit, adding one
    constant to each open neighbour; h[v] is never read after v's turn, so
    it is not cleared.
    """

    def __init__(self, arrays, specs, weights, rank):
        k = specs[0].k
        self.k, self.k2 = k, k * k
        # per member, in order of its first spec: its crossing specs' summed
        # weight times their keys' common factor k^2, and its pair and within
        # statistics: kind, s, t, weight times their keys' common factor k
        cross, stats = {}, {}
        for spec, w in zip(specs, weights):
            cross.setdefault(spec.graph, 0)
            if spec.kind == "crossing":
                cross[spec.graph] += w * self.k2
            else:
                stats.setdefault(spec.graph, []).append((spec.kind, spec.s, spec.t, w * k))
        width = (2 * max(len(arrays[g]) for g in cross)).bit_length()
        self.mask, self.offsets = (1 << width) - 1, [width * (c + 1) for c in range(k)]
        self.classes = list(enumerate(self.offsets))
        # per member: later, early, h, crossing weight, statistics, their g,
        # their moves (per class c, (j, s, x, t, y) per statistic j, where
        # x T[s] + y T[t] is 2dp[c]) and the crossing gap
        self.members, pairs_at, up = [], {}, 2 * (k - 1)
        for g in cross:
            later = _later_lists(arrays[g], rank)
            degrees = np.bincount(arrays[g].ravel(), minlength=len(rank))
            early = (degrees - list(map(len, later))).tolist()
            mine = stats.get(g, [])
            moves = [[(j, s, up if c == s else -2, s, 0) if kind == "within"
                      else (j, s, up if c == t else -2, t, up if c == s else -2)
                      for j, (kind, s, t, _) in enumerate(mine)] for c in range(k)]
            self.members.append([later, early, degrees.tolist(), cross[g], mine,
                                 [self.k2] * len(mine), moves, 0])
            if mine:
                pairs_at[g] = int(degrees @ (degrees - 1))
        self.quads = _graph_quads(arrays, specs, pairs_at)

    def step(self, v, c=None):
        """v's keys, and the class committed: c, else their lowest argmin."""
        k, k2, mask, offsets, classes = self.k, self.k2, self.mask, self.offsets, self.classes
        kx2, k1x2, km2 = 2 * k, 2 * (k - 1), k - 2
        keys, rows = [0] * k, []
        for later, early, h, wx, stats, gs, _, gap in self.members:
            nbrs = later[v]
            own = h[v]
            near = sum(map(h.__getitem__, nbrs))
            if wx:
                lin = gap - kx2 * early[v]
                for i, o in classes:
                    x = own >> o & mask
                    keys[i] += wx * (x * (k2 * x + lin) + kx2 * (near >> o & mask))
            if not stats:
                continue
            a = len(nbrs)
            alpha = (near & mask) - a                  # each open neighbour counts v once
            T, A, B, C = [], [], [], []
            for o in offsets:
                x = own >> o & mask
                W = alpha + k * (near >> o & mask)
                kq = k * (a + k2 * x)
                T.append(a + k * x)
                A.append(k1x2 * W)
                B.append(2 * W + kq)
                C.append(k1x2 * W - kq)
            rows.append(T)
            for (kind, s, t, w), g in zip(stats, gs):
                Ts = T[s]
                if kind == "within":
                    keys[s] += w * (Ts * (g + km2 * Ts) + C[s])
                    continue
                Tt = T[t]
                g -= 2 * (Ts + Tt)                      # g - 2Tw
                keys[s] += w * (Tt * (g + k * Tt) + A[s] - B[t])
                keys[t] += w * (Ts * (g + k * Ts) + A[t] - B[s])
        if c is None:
            c = keys.index(min(keys))
        oc = offsets[c]
        move = (1 << oc) - 1                           # one count from a to b[c]
        rows = iter(rows)
        for member in self.members:
            later, early, h, wx, _, gs, moves, _ = member
            if wx:
                member[7] -= kx2 * (early[v] - k * (h[v] >> oc & mask))   # the gap
            if gs:
                T = next(rows)
                for j, s, x, t, y in moves[c]:
                    gs[j] += x * T[s] + y * T[t]
            for u in later[v]:
                h[u] += move
        return keys, c


def _graph_quads(arrays, specs, pairs_at) -> list[int]:
    """The all-open quadratics over k^4 of graph specs, in spec order.  All
    vertices open, every edge has P = mu_k2/m, so sumP2 = mu_k2^2/m, and
    contrib of a degree-d vertex is d(d-1) times 0 (crossing), k-1 (within)
    or 2(k-2) (pair); ``pairs_at[g]`` is member g's sum of d(d-1), needed
    only for its pair and within specs.  mu_k2 is an integer since every
    mean's denominator divides k^2."""
    k = specs[0].k
    per_pair = {"crossing": 0, "within": k - 1, "pair": 2 * (k - 2)}
    quads = []
    for spec in specs:
        m = len(arrays[spec.graph])
        mu = int(stat_mean(spec.kind, m, k) * k * k)
        quads.append(k * k * mu + per_pair[spec.kind] * pairs_at.get(spec.graph, 0)
                     - (mu * mu // m if m else 0))
    return quads


class _BipartitionTerm:
    """`_GraphTerm`'s keys for crossing specs alone at k = 2, as one linear
    form per member.  With x_c = b[v][c], B = x0 + x1, lin = gap - 4B and
    beta_c = sum of b[u][c] over v's open neighbours, the crossing key of
    class c is wx * (x_c (4 x_c + lin) + 4 beta_c); as 4B + lin = gap,

      key_0 - key_1 = wx * (gap (x0 - x1) + 4 (beta0 - beta1))

    so a member keeps only s[u] = b[u][0] - b[u][1] per vertex, its `later`
    lists and its crossing gap, and a step's keys are [that difference, 0],
    with class 1 committed iff it is positive: the argmin, ties to class 0,
    and the keys less their min are `_GraphTerm`'s.  Deciding v -> c moves
    the gap by 2k(k x_c - B), +4 s[v] at c = 0 and -4 s[v] at c = 1, and
    s[u] of each open neighbour u by +1 or -1.
    """

    def __init__(self, arrays, specs, weights, rank):
        # per member, in order of its first spec: 4 times its crossing specs'
        # summed weight
        cross = {}
        for spec, w in zip(specs, weights):
            cross[spec.graph] = cross.get(spec.graph, 0) + 4 * w
        # per member: later, s, weight, the crossing gap
        self.members = [[_later_lists(arrays[g], rank), [0] * len(rank), wx, 0]
                        for g, wx in cross.items()]
        self.quads = _graph_quads(arrays, specs, {})

    def step(self, v, c=None):
        """v's keys, and the class committed: c, else their lowest argmin."""
        delta = 0
        for later, s, wx, gap in self.members:
            delta += wx * (gap * s[v] + 4 * sum(map(s.__getitem__, later[v])))
        if c is None:
            c = int(delta > 0)
        sign = 1 - 2 * c
        for member in self.members:
            later, s = member[0], member[1]
            member[3] += 4 * sign * s[v]
            for u in later[v]:
                s[u] += sign
        return [delta, 0], c


class _RainbowTerm:
    """Incremental keys for the rainbow statistic of every hypergraph member
    that the specs name.  The specs on one member differ only in their
    normalizer, so its key is one quadratic over r^(3r) times the sum of
    their weights; the term's key sums the members'.  What follows is per
    member; the closing paragraphs say how the members share one term.

    An edge is live while its decided colours are distinct.  When s of its
    u open vertices take s distinct colours that are free in it, a live
    edge's conditional probability numerator over r^r becomes A(s) =
    (u-s)!*r^(r-u+s); its P is A(0), and 0 once it is dead.  Its state is
    the mask of its decided colours while it is live with u >= 2, None
    after, when no key changes with it any more.  A pair of edges with s
    open shared vertices has, over r^(3r), the closed form

      pairval = r^(r-s) * (f)_s * A_e(s) * A_e'(s) - r^r * P_e * P_e'

    where f counts the colours free in both edges and (f)_s is the falling
    factorial.  For s = 1 this is r^(r-1) * sum_c row_e[c]*row_e'[c] -
    r^r * P_e*P_e', with row_e[c] = A_e(1) on the colours free in e and 0
    elsewhere, so pairs meeting at one open vertex w fold into per-vertex
    sums, like the Tw and trow sums of _GraphTerm:

      P_w        sum of P over the edges at w
      R_w[c]     sum of row[c] over the edges at w; Q_w[c] of row[c]^2

    Only pairs sharing two or more vertices need more: corr = pairval - s *
    (its s = 1 value), 0 for good once fewer than two shared vertices are
    open or either edge's state is None.

    Keys: with x = R_v[c], deciding v -> c moves sumP by x - P_v and the
    sum of P^2 by Q_v[c] less a constant; leaving out every part that no
    class changes (the pairs of edges that meet only at v, those that miss
    v, and each live multi-shared pair's corr before the step), the
    quadratic after v -> c is the key, with h = r^r - 2*mu_rr + 2*(sumP -
    P_v),

      r^r * (x * (h + x) - Q_v[c]) + J[c]

    where J[c] sums the class-dependent shifts of the other edge pairs at
    v.  A live edge at v (a_i = A(i)) shifts the pairs that meet it at one
    open co-vertex w by closed forms linear in P_w and R_w; summed over its
    co-vertices, less a part the same for every class, and with TF the
    summed R over its free colours, these are

      c free    -2r^(r-1) * a2 * sum R_w[c]
      c taken   -2r^(r-1) * a2 * TF + 2r^r * a1 * sum P_w
                + 2(u-1) * a1 * (r^(r-1) * (u-1) * a2 - r^r * a0)

    A live multi-shared pair with v in one or both edges shifts J by twice
    its new corr, and, with v in both, by the cross terms 2r^(r-1) * (dt .
    dt') - 2r^r * dp*dp' of the shifts of P and of the row that each of its
    other open shared vertices sees from the two edges.  While both edges
    are live, these r shifts are a function of the two masks, s and which
    edges hold v; each is computed once and looked up after that.

    Built for the descent's order, like the graph term: at v's turn an
    edge's open co-vertices are exactly its vertices after v, its mask is
    0 if v is its first vertex, and it is None if v is its last.  Edges are
    numbered by their first vertex, ties in input order.  For the edges v
    is first in, ``first_edges[v]`` is their range of numbers and
    ``first_near[v]`` lists the co-vertices after v of all of them: each has
    u = r and no taken class, so one sum over that list yields all their
    free-class shifts, and a commit adds each entry one step.  For the
    edges v is neither first nor last in, ``middle[v]`` holds (edge, next
    co-vertex, the co-vertices after that).  The edges v is last in are not
    kept at v.  A pair's open shared count at v's turn is its number of
    shared vertices at or after v, fixed at build: ``multi_at[v]`` holds
    (i, j, s, in_i, in_j) for each pair whose union holds v and whose s is
    at least 2, and a step skips one only when an edge's state is None;
    no pair keeps state.

    A vertex's sums are the 2r+1 fields of one packed integer, S[w] =
    sum_c R_w[c] << (width * c) + P_w << (width * r) + sum_c Q_w[c] <<
    (width * (r+1+c)), so a commit adds each open co-vertex of a live edge
    one signed packed step, and one sum of S over a list yields every field
    of the list's sums.  Every field is a sum of per-edge terms of at least
    0, so it stays at least 0 and the step is exact.  An edge adds at most
    r^(2r) to any field: its row is at most r^r (A(1) <= r^(r-1) while it
    is live with u >= 2, r^r or 0 once w is its only open vertex), its P at
    most r^(r-1), and a squared row at most r^(2r).  So with D the member's
    largest degree, a field of S[w] is at most D*r^(2r), and the longest
    list the keys sum, first_near[v], has at most (r-1)*D entries: fields of
    ((r-1)*D^2*r^(2r)).bit_length() bits hold every sum the keys form
    without a carry.

    The members are built in one stacked pass: vertex v of the member at
    position g (by its first spec) is slot g*n + v, ranked g*n + rank[v],
    so the lists above, S and M are single lists, no pair entry joins two
    members, and a step visits slot g*n + v of each.  One field width, the
    bound for the largest D of any member, serves all, so the tables that
    depend only on r and the masks (A, ff, `_edge_delta`, `_edge_coefs`,
    `_pair_shifts`) are built once and shared.  A step commits the chosen
    class to every member along the live middle entries its keys found.

    It reads only its specs' members of ``arrays`` and the vertex count,
    len(rank).  The term starts with every vertex open, where every edge
    has u = r, an empty mask and P = A_r(0) = A_r(1) = r!: a slot's row and
    P fields are its degree times r!, its squared-row fields its degree
    times r!^2.  With no spec it has no member, and every step's keys are
    r zeros.
    """

    def __init__(self, arrays, specs, weights, rank, r):
        n = len(rank)
        self.r = r
        self.D1 = r ** r
        self.rpow = [r ** i for i in range(r + 1)]
        # A[u][s] = (u-s)! * r^(r-u+s); ff[f][s] = f*(f-1)*...*(f-s+1)
        self.A = [[math.factorial(u - s) * r ** (r - u + s) for s in range(u + 1)]
                  for u in range(r + 1)]
        self.ff = [[math.perm(f, s) for s in range(r + 1)] for f in range(r + 1)]
        # per member, in order of its first spec: its specs' summed weight
        weight = {}
        for spec, w in zip(specs, weights):
            weight[spec.graph] = weight.get(spec.graph, 0) + w
        # every member's rows stacked as slots; each edge's positions, ascending,
        # and its slots in that sequence; edges are numbered by their first
        # slot, ties in input order, so the edges a slot is first in are one range
        edges = [np.asarray(arrays[g], dtype=np.int64).reshape(-1, r) for g in weight]
        N = n * len(edges)
        rows = np.concatenate([e + g * n for g, e in enumerate(edges)] or [np.empty((0, r), int)])
        slot_rank = (rank + n * np.arange(len(edges))[:, None]).ravel()
        ranks = np.sort(slot_rank[rows], axis=1)
        ordered = np.argsort(slot_rank)[ranks]
        by = np.argsort(ordered[:, 0], kind="stable")
        ranks, ordered = ranks[by], ordered[by]
        first = ordered[:, 0]
        starts = np.bincount(first, minlength=N)
        ends = np.cumsum(starts)
        self.first_edges = list(map(range, (ends - starts).tolist(), ends.tolist()))
        self.first_near = _split(ordered[:, 1:].ravel().tolist(), starts * (r - 1))
        # at a middle position p: the edge, its next slot and any after that
        self.middle = [[] for _ in range(N)] if r == 2 else None
        for p in range(1, r - 1):
            by = np.argsort(ordered[:, p], kind="stable")
            rest = itertools.repeat(()) if p == r - 2 else ordered[by, p + 2:].tolist()
            runs = _split(list(zip(by.tolist(), ordered[by, p + 1].tolist(), rest)),
                          np.bincount(ordered[:, p], minlength=N))
            self.middle = runs if p == 1 else list(map(add, self.middle, runs))
        self.multi_at, pair_first, shared = _multi_shared(ordered, ranks, N)
        # the field bound of the class docstring, for the largest member degree
        degrees = np.bincount(rows.ravel(), minlength=N)
        top = int(degrees.max(initial=0))
        width = ((r - 1) * top * top * self.D1 * self.D1).bit_length()
        self.fmask, self.offsets = (1 << width) - 1, [width * c for c in range(r)]
        self.p_at, self.sq_at = width * r, width * (r + 1)
        # per class: the shift tables of `_edge_delta`; per mask: `_edge_coefs`;
        # per pair state: `_pair_shifts`
        self._deltas: list[dict[int, tuple]] = [{} for _ in range(r)]
        self._coefs: dict[int, tuple] = {}
        self._shifts: dict[tuple, tuple] = {}
        # per undecided count u of a live edge, when one of its open vertices
        # takes a class free in it, or taken: the shift of its row on the other
        # free classes and on that class, and of its P, that its other open
        # vertices see
        self._sides = [None] * 2 + [
            ((a[2] - a[1], -a[1], a[1] - a[0]), (-a[1], 0, -a[0])) for a in self.A[2:]]
        # the factor of each row field of the S summed over first_near[v]
        self.first_coef = self._edge_coefs(0)[4]
        # all vertices open: every edge has P = A[r][0] = A[r][1] = r!, so the
        # rows equal P and edges meeting at one open vertex are uncorrelated
        a0 = self.A[r][0]
        unit = (a0 << self.p_at) + sum((a0 << o) + (a0 * a0 << self.sq_at + o)
                                       for o in self.offsets)
        self.M = [0] * len(rows)
        self.S = [d * unit for d in degrees.tolist()]
        # per member: its first slot, weight and h + 2 P_v (r^r while sumP is mu_rr)
        self.members = [[g * n, w, self.D1] for g, w in enumerate(weight.values())]
        # a member's quadratic is r^r * (r^r * sumP - sum P^2) plus the doubled
        # corr of its multi-shared pairs, counted per (member, s)
        corr = [self._corr(0, 0, s) for s in range(r + 1)]
        pairs = np.bincount(ordered[pair_first, 0] // n * (r + 1) + shared,
                            minlength=len(edges) * (r + 1)).reshape(-1, r + 1).tolist()
        quads = {g: len(e) * a0 * (self.D1 - a0) * self.D1 + 2 * sum(map(mul, counts, corr))
                 for g, e, counts in zip(weight, edges, pairs)}
        self.quads = [quads[spec.graph] for spec in specs]

    def _corr(self, mi, mj, s) -> int:
        """corr of a pair of live edges with decided colours mi and mj and s
        open shared vertices."""
        if s < 2:
            return 0
        r = self.r
        f = r - (mi | mj).bit_count()
        ai, aj = self.A[r - mi.bit_count()], self.A[r - mj.bit_count()]
        pair = self.rpow[r - s] * self.ff[f][s] * ai[s] * aj[s]
        single = self.rpow[r - 1] * f * ai[1] * aj[1]
        return pair - s * single + (s - 1) * self.D1 * ai[0] * aj[0]

    def _edge_delta(self, mask, c):
        """State after one open vertex of a live edge with decided colours
        `mask` takes c, and the one packed step of its row, P and row^2 that
        its other open vertices see; kept in self._deltas[c]."""
        r, sq_at = self.r, self.sq_at
        u = r - mask.bit_count()
        a1 = self.A[u][1]
        x, y, dp = self._sides[u][mask >> c & 1]
        step = dp << self.p_at
        for cc, o in enumerate(self.offsets):
            if not mask >> cc & 1:
                t = y if cc == c else x
                step += (t << o) + ((a1 + t) ** 2 - a1 * a1 << sq_at + o)
        new = None if mask >> c & 1 or u == 2 else mask | 1 << c
        d = self._deltas[c][mask] = (new, step)
        return d

    def _edge_coefs(self, mask):
        """Taken classes and (class, field offset) of the free ones of a live
        edge with decided colours `mask`, and its co-vertices' shifts (the
        class docstring's closed forms) as coefficients: the constant and the
        factor of the summed P field of a taken class, and the factor of each
        summed row field; kept in self._coefs."""
        r, r1, d1 = self.r, self.rpow[self.r - 1], self.D1
        taken = [c for c in range(r) if mask >> c & 1]
        free = [(c, o) for c, o in enumerate(self.offsets) if not mask >> c & 1]
        u = len(free)
        a0, a1, a2 = self.A[u][:3]
        co = self._coefs[mask] = (
            taken, free, 2 * (u - 1) * a1 * (r1 * (u - 1) * a2 - d1 * a0), 2 * d1 * a1,
            -2 * r1 * a2)
        return co

    def _pair_shifts(self, mi, mj, s, in_i, in_j) -> tuple:
        """Per class c, the class-dependent shift of the doubled pair sum from
        a live pair of edges with decided colours mi and mj and s open shared
        vertices when v, a vertex of edge i, edge j or both, takes c: twice
        its new corr, plus the cross terms of its other open shared vertices;
        kept in self._shifts."""
        r = self.r
        shifts = []
        for c in range(r):
            bit = 1 << c
            taken_i, taken_j = mi & bit, mj & bit
            shift = 0
            if not (in_i and taken_i or in_j and taken_j):     # else an edge dies, and corr with it
                shift = 2 * self._corr(mi | bit if in_i else mi, mj | bit if in_j else mj,
                                       s - (in_i and in_j))
            if in_i and in_j:
                xi, yi, dpi = self._sides[r - mi.bit_count()][taken_i > 0]
                xj, yj, dpj = self._sides[r - mj.bit_count()][taken_j > 0]
                g = r - (mi | mj | bit).bit_count()           # free in both, other than c
                shift += 2 * (s - 1) * (self.rpow[r - 1] * (xi * xj * g + yi * yj)
                                        - self.D1 * dpi * dpj)
            shifts.append(shift)
        shifts = self._shifts[mi, mj, s, in_i, in_j] = tuple(shifts)
        return shifts

    def step(self, v, c=None):
        """v's keys, and the class committed: c, else their lowest argmin."""
        fmask, offsets, p_at, sq_at, d1 = self.fmask, self.offsets, self.p_at, self.sq_at, self.D1
        S, M, coefs, shifts = self.S, self.M, self._coefs, self._shifts
        first_coef, first_near, middle, multi_at = (
            self.first_coef, self.first_near, self.middle, self.multi_at)
        keys, found = [0] * self.r, []
        for at, w, h in self.members:
            x = at + v
            near = sum(map(S.__getitem__, first_near[x]))
            J = [first_coef * (near >> o & fmask) for o in offsets]
            live = []
            for eid, u, rest in middle[x]:
                mask = M[eid]
                if mask is None:
                    continue
                live.append((eid, mask, u, rest))
                sums = S[u]
                for u in rest:
                    sums += S[u]
                taken, free, y, yt, kc = coefs.get(mask) or self._edge_coefs(mask)
                y += yt * (sums >> p_at & fmask)
                for cc, o in free:
                    z = kc * (sums >> o & fmask)
                    J[cc] += z
                    y += z
                for cc in taken:
                    J[cc] += y
            pairs = []
            for i, j, s, in_i, in_j in multi_at[x]:
                mi, mj = M[i], M[j]
                if mi is None or mj is None:
                    continue
                state = mi, mj, s, in_i, in_j
                pairs.append(shifts.get(state) or self._pair_shifts(*state))
            if pairs:
                J = list(map(sum, zip(J, *pairs)))
            own = S[x]
            own_q, pv = own >> sq_at, own >> p_at & fmask
            h -= 2 * pv
            for cc, o in enumerate(offsets):
                y = own >> o & fmask
                keys[cc] += w * (d1 * (y * (h + y) - (own_q >> o & fmask)) + J[cc])
            found.append((x, own, pv, live))
        if c is None:
            c = keys.index(min(keys))
        deltas, oc = self._deltas[c], offsets[c]
        new, d = deltas.get(0) or self._edge_delta(0, c)
        for member, (x, own, pv, live) in zip(self.members, found):
            member[2] += 2 * ((own >> oc & fmask) - pv)
            for u in first_near[x]:
                S[u] += d
            for eid in self.first_edges[x]:
                M[eid] = new
            for eid, mask, u, rest in live:
                M[eid], dd = deltas.get(mask) or self._edge_delta(mask, c)
                S[u] += dd
                for u in rest:
                    S[u] += dd
        return keys, c


def _split(items: list, counts) -> list[list]:
    """`items` cut into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _multi_shared(ordered, ranks, n):
    """Edge pairs that share two or more vertices, from one stable sort of
    the vertex-pair keys of the edges.  ``ordered`` holds each edge's
    vertices (slots) in the order's sequence, and ``ranks`` their positions
    in the order of n vertices, so each row of it ascends.

    Returns, per vertex v, the (i, j, s, in edge i, in edge j) of every such
    pair (i, j), i < j, whose union holds v and that has s >= 2 shared
    vertices at or after v, the open ones at v's turn; and each pair's i and
    shared vertex count.
    """
    m, r = ranks.shape
    # a term keeps lists of n entries, so any n it is built for has n * n < 2**63
    keys = np.concatenate([ranks[:, a] * n + ranks[:, b]
                           for a, b in itertools.combinations(range(r), 2)])
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], order % m
    # entries d apart in key order meet on one vertex pair when their keys are equal
    firsts, seconds = [owner[:0]], [owner[:0]]
    for d in range(1, len(keys)):
        same = keys[d:] == keys[:-d]
        if not same.any():
            break
        firsts.append(owner[:-d][same])
        seconds.append(owner[d:][same])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    codes = np.sort(np.minimum(a, b) * m + np.maximum(a, b))
    codes = codes[np.diff(codes, prepend=-1) != 0]                      # each pair once
    first, second = codes // m, codes % m
    equal = ranks[first][:, :, None] == ranks[second][:, None, :]
    i_in_j, j_in_i = equal.any(axis=2), equal.any(axis=1)
    # the shared vertices at or after each column, counted from the right end
    # of the ascending rows
    s_i = np.cumsum(i_in_j[:, ::-1], axis=1)[:, ::-1]
    s_j = np.cumsum(j_in_i[:, ::-1], axis=1)[:, ::-1]
    # the vertices of edge i, then those of edge j outside edge i, with s >= 2
    pi, ci = np.nonzero(s_i >= 2)
    pj, cj = np.nonzero((s_j >= 2) & ~j_in_i)
    pids = np.concatenate([pi, pj])
    xs = np.concatenate([ordered[first[pi], ci], ordered[second[pj], cj]])
    by = np.argsort(xs, kind="stable")
    pids = pids[by]
    entries = list(zip(first[pids].tolist(), second[pids].tolist(),
                       np.concatenate([s_i[pi, ci], s_j[pj, cj]])[by].tolist(),
                       (by < len(pi)).tolist(),
                       np.concatenate([i_in_j[pi, ci], np.ones(len(pj), dtype=bool)])[by].tolist()))
    return _split(entries, np.bincount(xs, minlength=n)), first, s_i[:, 0]


def resolve_order(family, order) -> tuple[int, ...]:
    """Vertex processing order: None/'natural', 'degree', or a permutation.

    'degree' sorts by total degree over all members, highest first, ties
    by vertex index.
    """
    n = family.n
    if order is None:
        order = "natural"
    if isinstance(order, str):
        if order == "natural":
            return tuple(range(n))
        if order == "degree":
            deg = sum(np.bincount(rows.ravel(), minlength=n) for rows in family.arrays)
            return tuple(np.argsort(-deg, kind="stable").tolist())
        raise ValueError(f"unknown order {order!r}: expected 'natural', 'degree' "
                         "or a permutation of all vertices")
    order = tuple(order)
    for i, v in enumerate(order):   # index reads True as 1, but no bool is a vertex
        if isinstance(v, (bool, np.bool_)):
            raise TypeError(f"order position {i}: {v!r} is not a vertex")
    order = tuple(map(index, order))        # integers only: 7.5 is no vertex
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    return order


def _build_term(family, specs, order, k):
    """The one penalty term of a guarantee's specs, each weighed by
    lcm(parts) // its part: a `_BipartitionTerm` when they are all crossing
    specs at k = 2, a `_GraphTerm` for any other graph specs, or a
    `_RainbowTerm` over every hypergraph member the specs name, with no
    member without specs.  It is built for the vertex order `order`, and
    its keys are defined only at the next vertex of it.  ``quads`` holds its
    all-open quadratics over k^4 (r^(3r)), in spec order."""
    lcm = math.lcm(*(spec.part for spec in specs))
    rank = np.empty(family.n, dtype=np.int64)
    rank[list(order)] = np.arange(family.n)
    weights = [lcm // spec.part for spec in specs]
    if specs and specs[0].kind != "rainbow":
        bipartition = specs[0].k == 2 and all(spec.kind == "crossing" for spec in specs)
        term = _BipartitionTerm if bipartition else _GraphTerm
        return term(family.arrays, specs, weights, rank)
    return _RainbowTerm(family.arrays, specs, weights, rank, k)


def derandomize(family, guarantee: Guarantee, order=None) -> DerandResult:
    """Deterministic partition meeting every row of a resolved guarantee.

    Descends on ``guarantee.specs``: processes vertices in `order`; at each
    one forms the integer keys of all k classes and commits the minimizer
    (ties break to the lowest class), which the guarantee's one term does
    in one `step`.  Requires the exact initial estimator to be below
    1, which `resolve` guarantees by construction; given that, every
    statistic ends at or above mu - sqrt(normalizer), and the returned
    report is `evaluate` of the result against ``guarantee.rows``.
    """
    specs = guarantee.specs
    k = guarantee.k
    ks = {s.k for s in specs} | {k}
    if len(ks) != 1:
        raise ValueError(f"specs mix class counts {sorted(ks)}")
    if guarantee.slack is not None:
        raise ValueError("balancing is a Monte-Carlo feature; "
                         "the descent does not track class sizes")
    require_addressable(family.n)
    require_addressable(k)
    order = resolve_order(family, order)
    labels = [0] * family.n         # each entry is written at its vertex's turn
    term = _build_term(family, specs, order, k)

    scale = k ** (3 * k) if specs and specs[0].kind == "rainbow" else k ** 4
    lcm, root = math.lcm(*(spec.part for spec in specs)), math.sqrt(guarantee.norm2)
    initial, total = 0.0, 0
    for spec, quad in zip(specs, term.quads):
        initial += quad / scale / (root * spec.part)
        total += lcm // spec.part * quad
    if not total * total < (scale * lcm) ** 2 * guarantee.norm2:
        raise EstimatorBudgetError(
            f"initial estimator {initial:.6g} >= 1: these penalty terms cannot certify "
            "a partition (config contract broken)"
        )

    step, rows = term.step, []
    for v in order:
        keys, labels[v] = step(v)
        rows.append(keys)

    assignment = Assignment(np.array(labels, dtype=np.intp), k)
    report = evaluate(family, assignment, guarantee)
    if not report.all_pass:
        raise AssertionError(
            "descent finished above a threshold; estimator bookkeeping is broken"
        )
    # every vertex is decided: each term is exactly (mu - count)^2 / normalizer
    final = sum((float((bound.mean - row.count) ** 2) / (root * spec.part)
                 for (spec, _, bound), row in zip(guarantee.rows, report.constraints)
                 if spec.part), 0.0)
    return DerandResult(assignment=assignment, report=report, initial_value=initial,
                        final_value=final, order=order, rows=rows)
