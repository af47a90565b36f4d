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

Terms: one per run of consecutive specs on one member and of one
statistic family (crossing; pair and within; rainbow), built from the
member's edges, those specs, n and the specs' weights.  Every term starts
with all vertices open (the incremental ones in closed form) and learns of
decided vertices only through its own `commit(v, c)`.

Cost: a graph member's crossing term and its class-pair term (every pair
and within statistic) each keep per-vertex histograms of neighbour
labels, from which each statistic's edge-pair correlations follow in
closed form.  One walk over v's neighbours yields a term's k keys: deg(v)
additions of packed histograms, then O(k) per statistic.  A commit costs
O(1) (crossing) or O(1) per statistic, and O(1) per open neighbour.
A hypergraph member's rainbow term yields its r keys from one walk
over v's live hyperedges: O(r) per (live hyperedge, open co-vertex) pair,
then O(1) per class, plus O(1) per class for each live hyperedge pair at
v that shares two or more vertices (these alone keep per-pair state, in
closed form; dead ones are skipped).  A commit costs O(r) per touched
co-vertex, for the chosen class alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, index, mul
from typing import NamedTuple

import numpy as np

from .model import UNDECIDED, Assignment, CutReport, require_addressable, stat_mean
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
    assignment: Assignment
    report: CutReport
    trace: tuple[DescentStep, ...]
    initial_value: float
    final_value: float


def _graph_state(edges, n, k):
    """A graph member's adjacency lists and its packed neighbour-label
    histograms with every vertex open (each its degree), with their field
    mask and each class's field offset; see `_CrossingTerm`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    it = iter(np.asarray(edges).ravel().tolist())
    for u, v in zip(it, it):
        adj[u].append(v)
        adj[v].append(u)
    width = (2 * len(edges)).bit_length()
    return adj, [len(nbrs) for nbrs in adj], (1 << width) - 1, [width * (c + 1) for c in range(k)]


class _CrossingTerm:
    """Incremental keys for the crossing statistic of one graph member, kept
    on its vertices' neighbour-label histograms.  The specs on it differ only
    in their normalizer, so its key is one quadratic times their summed weight.

    A vertex u's histogram counts its open neighbours a[u] and its
    neighbours decided as c, b[u][c] (B[u] their total).  While u is open,
    its edges' aggregates follow from it in closed form (P is an edge's
    conditional probability numerator over k^2):

      Tw, Qw            sums of P and P^2 over the edges at u
      trow[c], qrow[c]  sums over those edges of the numerator (over k) of
                        the edge's probability given u -> c, and of squares
      contrib           k * sum_c(trow^2 - qrow) - (Tw^2 - Qw), the
                        correction (over k^4) for edge pairs meeting at u

    here Tw = k(k-1)(a+B), Qw = k(k-1)Tw, trow[c] = (k-1)a + k(B-b[c]) and
    qrow[c] = (k-1)^2 a + k^2 (B-b[c]).  The quadratic over k^4 is mu_k2^2 -
    2*mu_k2*sumP + k^2*sumP + sumP^2 - sumP2 + sum(contrib), where mu_k2 =
    stat_mean(kind, m, k) * k^2, the initial sumP.  Deciding v -> c moves
    sumP by dp[c] = k*trow_v[c] - Tw_v = k(B - k b[c]) and sumP2 by
    k^2*qrow_v[c] - Qw_v, drops contrib_v, and moves one count of every open
    neighbour's histogram from a to b[c].  That shifts contrib linearly in
    the neighbour's histogram, so summed over v's open neighbours it needs
    only their summed histogram less v (beta[c] decided as c): here 2k^2
    (k beta[c] - sum(beta)).  Leaving out every part that no class changes,
    the quadratic after v -> c is the key, with g = k^2 - 2*mu_k2 + 2*sumP,

      dp[c] * (g + dp[c]) + (the class-dependent part of the other shifts)
        = k^2 (b[c] (k^2 b[c] + 2(mu_k2 - sumP - k B)) + 2k beta[c])

    So a term keeps sumP alone; sumP2 and contrib are not kept.

    Histograms are packed, h[u] = a[u] + sum_c b[u][c] << (width * (c+1)),
    with fields of (2m).bit_length() bits: a field summed over any vertex's
    neighbours stays at most 2m, so sums never carry between fields.  h[u]
    is 0 once u is decided.  So one sum over adj[v] yields all k keys, and
    a commit adds one constant to each open neighbour.
    """

    def __init__(self, edges, specs, n, weights):
        k = specs[0].k
        m = len(edges)
        self.k, self.k2 = k, k * k
        self.adj, self.h, self.mask, self.offsets = _graph_state(edges, n, k)
        # the keys' common factor k^2 times the weights; mu_k2 is an integer
        # since the mean's denominator divides k^2
        self.w = sum(weights) * self.k2
        self.mu = self.sumP = int(stat_mean("crossing", m, k) * self.k2)
        # all vertices open: every edge has P = mu_k2/m, so sumP2 = mu_k2^2/m;
        # every contrib is 0.  One quadratic over k^4 per spec
        self.quads = [self.k2 * self.mu - (self.mu * self.mu // m if m else 0)] * len(specs)

    def add_keys(self, v, keys):
        h, k, k2, mask, w = self.h, self.k, self.k2, self.mask, self.w
        nbrs = self.adj[v]
        own = h[v]
        near = sum(map(h.__getitem__, nbrs))           # decided neighbours add 0
        lin = 2 * (self.mu - self.sumP - k * (len(nbrs) - (own & mask)))   # B = decided neighbours
        kx2 = 2 * k
        for c, o in enumerate(self.offsets):
            x = own >> o & mask
            keys[c] += w * (x * (k2 * x + lin) + kx2 * (near >> o & mask))

    def commit(self, v, c):
        h, k, mask = self.h, self.k, self.mask
        nbrs = self.adj[v]
        own = h[v]
        o = self.offsets[c]
        self.sumP += k * (len(nbrs) - (own & mask) - k * (own >> o & mask))
        step = (1 << o) - 1
        for u in nbrs:
            if h[u]:
                h[u] += step
        h[v] = 0


class _ClassPairTerm:
    """Incremental keys for every pair and within statistic of one graph
    member, on the histograms of `_CrossingTerm` and by its closed forms,
    with these rows (T[c] = a + k b[c] and Q[c] = a + k^2 b[c]):

      pair(s,t)  trow[s] = T[t], trow[t] = T[s], qrow alike with Q, other
                 classes 0; Tw = trow[s] + trow[t], Qw = qrow[s] + qrow[t] + 2a
      within(s)  Tw = trow[s] = T[s], Qw = qrow[s] = Q[s]

    Deciding v -> c shifts the contrib of v's open neighbours by, with alpha
    their open and beta[c] their decided-as-c counts less v and W[c] =
    alpha + k beta[c]:

      within(s)  2(k-1)^2 W[s] if c == s, else -2(k-1) W[s]
      pair(s,t)  c = s: 2((k-1)^2 + 1) W[s] - 4(k-1) W[t];  c = t: s, t swapped;
                 else -2(k-2)(W[s] + W[t])

    so the keys, each statistic's over its own sumP, are

      within(s)  k (T[s] (g + (k-2) T[s]) + 2(k-1) W[s] - k Q[s]) at c = s, 0 elsewhere
      pair(s,t)  k (T[t] (g + k T[t] - 2Tw) + 2(k-1) W[s] - 2 W[t] - k Q[t]) at
                 c = s, the same with s and t swapped at c = t, 0 elsewhere
    """

    def __init__(self, edges, specs, n, weights):
        k = specs[0].k
        m = len(edges)
        self.k, self.k2 = k, k * k
        self.adj, self.h, self.mask, self.offsets = _graph_state(edges, n, k)
        # per statistic: kind, s, t, its weight times the keys' common factor
        # k, and mu_k2, an integer since every mean's denominator divides k^2
        self.stats = [(spec.kind, spec.s, spec.t, w * k, int(stat_mean(spec.kind, m, k) * self.k2))
                      for spec, w in zip(specs, weights)]
        self.sumP = [mu for *_, mu in self.stats]
        # all vertices open: every edge has P = mu_k2/m, so sumP2 = mu_k2^2/m,
        # and contrib of a degree-d vertex is d(d-1) times k-1 (within) or
        # 2(k-2) (pair)
        pairs_at = sum(d * (d - 1) for d in self.h)
        self.quads = [self.k2 * mu + (k - 1 if kind == "within" else 2 * (k - 2)) * pairs_at
                      - (mu * mu // m if m else 0) for kind, *_, mu in self.stats]

    def add_keys(self, v, keys):
        h, k, k2, mask, offsets = self.h, self.k, self.k2, self.mask, self.offsets
        nbrs = self.adj[v]
        own = h[v]
        near = sum(map(h.__getitem__, nbrs))           # decided neighbours add 0
        a = own & mask
        b = [own >> o & mask for o in offsets]
        beta = [near >> o & mask for o in offsets]
        alpha = (near & mask) - a                      # each open neighbour counts v once
        T = [a + k * x for x in b]
        Q = [a + k2 * x for x in b]
        W = [alpha + k * y for y in beta]
        k1x2 = 2 * (k - 1)
        for (kind, s, t, w, mu), sum_p in zip(self.stats, self.sumP):
            g = k2 - 2 * mu + 2 * sum_p
            Ts = T[s]
            if kind == "within":
                keys[s] += w * (Ts * (g + (k - 2) * Ts) + k1x2 * W[s] - k * Q[s])
                continue
            Tt = T[t]
            g -= 2 * (Ts + Tt)                          # g - 2Tw
            keys[s] += w * (Tt * (g + k * Tt) + k1x2 * W[s] - 2 * W[t] - k * Q[t])
            keys[t] += w * (Ts * (g + k * Ts) + k1x2 * W[t] - 2 * W[s] - k * Q[s])

    def commit(self, v, c):
        h, k, mask, offsets = self.h, self.k, self.mask, self.offsets
        nbrs = self.adj[v]
        own = h[v]
        a = own & mask
        for i, (kind, s, t, _, _) in enumerate(self.stats):
            Ts = a + k * (own >> offsets[s] & mask)
            if kind == "within":
                dp = (k - 1) * Ts if c == s else -Ts
            else:
                Tt = a + k * (own >> offsets[t] & mask)
                dp = (k * Tt if c == s else k * Ts if c == t else 0) - Ts - Tt
            self.sumP[i] += dp
        step = (1 << offsets[c]) - 1
        for u in nbrs:
            if h[u]:
                h[u] += step
        h[v] = 0


class _RainbowTerm:
    """Incremental keys for the rainbow statistic of one hypergraph.  The
    specs on it differ only in their normalizer, so the key of a class is
    its quadratic over r^(3r), `_quad_num`, times the sum of their weights.

    Edge state: its undecided count u, the mask of its decided colours, and
    P, the numerator over r^r of its conditional probability: u!*r^(r-u)
    while the decided colours are distinct, 0 once the edge is dead.  When s
    of its open vertices take s distinct colours that are free in it, an
    edge keeps the numerator A(s) = (u-s)!*r^(r-u+s).  So a pair of edges
    with s open shared vertices has, over r^(3r), the closed form

      pairval = r^(r-s) * (f)_s * A_e(s) * A_e'(s) - r^r * P_e * P_e'

    where f counts the colours free in both edges and (f)_s is the falling
    factorial.  For s = 1 this is r^(r-1) * sum_c row_e[c]*row_e'[c] -
    r^r * P_e*P_e', with row_e[c] = A_e(1) on the colours free in e and 0
    elsewhere, so pairs meeting at one open vertex w fold into per-vertex
    aggregates, like the Tw and trow sums of _CrossingTerm:

      T[w], Q[w]       sums of P and P^2 over edges at w
      Tc[w][c]         sum of row[c] over edges at w; Qc[w][c] of row[c]^2
      contrib[w]       r^(r-1) * sum_c(Tc^2 - Qc) - r^r * (T^2 - Q), the
                       s = 1 value summed over ordered edge pairs at w;
                       zero once w is decided

    Only pairs sharing two or more vertices keep explicit state: corr[p] =
    pairval - s * (its s = 1 value), what the per-vertex sums miss.  The
    doubled pair sum 2*jma = sum(contrib) + 2*sum(corr) is one exact
    integer.  open_shared[p] counts the pair's open shared vertices, and is
    set to 0 once either edge is dead; below 2 the pair is dead for good:
    its corr is 0, and `add_keys` and `commit` skip it.

    Keys: when v takes c, a live edge at v (u >= 2 undecided, so u
    free colours, a_i = A[u][i]) moves the contrib of each of its open
    co-vertices w by a closed form in T[w] and TF, the sum of Tc[w] over
    the edge's free colours:

      c taken   r^(r-1) * (2u*a1^2 - 2a1*TF) - r^r * (2a0^2 - 2a0*T[w])
      c free    r^(r-1) * (2(a2-a1)*TF + 2(u-1)*a1*(a1-a2) + 2a1^2)
                - 2r^(r-1) * a2*Tc[w][c] - 2r^r * (a1-a0)*(T[w]-a0)

    These are linear in T[w] and Tc[w], so one walk over v's live edges
    sums them over each edge's open co-vertices and yields all r classes.
    A co-vertex on two of v's edges adds 2r^(r-1) * (dt . dt') -
    2r^r * dp*dp', from the shifts of P and of the row that it sees from
    each edge.  Such co-vertices are the open shared vertices other than v
    of the live pairs with v in both edges, and the product depends on c
    only through whether c is taken in each edge.  `commit` recomputes
    contrib of the touched co-vertices for the chosen class alone.

    The incidence lists and the multi-shared pairs come from one sort of
    the member array's vertex-pair keys (`_multi_shared`).

    The term starts with every vertex open, where every edge has u = r, an
    empty mask and P = A_r(0) = A_r(1) = r!: T, Q, Tc and Qc are a vertex's
    degree times r! or r!^2, and every contrib is 0.  It marks the vertices
    committed to it as decided itself.
    """

    def __init__(self, edges, specs, n, weights):
        r = specs[0].k
        self.r = r
        self.D1 = r ** r
        self.D2 = self.D1 * self.D1
        self.D3 = self.D2 * self.D1
        self.weight = sum(weights)
        rows = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, r), axis=1)
        m = len(rows)
        self.edges = rows.tolist()
        self.mu_rr = math.factorial(r) * m
        self.rpow = [r ** i for i in range(r + 1)]
        # A[u][s] = (u-s)! * r^(r-u+s); ff[f][s] = f*(f-1)*...*(f-s+1)
        self.A = [[math.factorial(u - s) * r ** (r - u + s) for s in range(u + 1)]
                  for u in range(r + 1)]
        self.ff = [[math.perm(f, s) for s in range(r + 1)] for f in range(r + 1)]
        self._deltas: dict[tuple[int, int], tuple] = {}
        self._coefs: dict[int, tuple] = {}
        # per undecided count u of a live edge, when one of its open vertices
        # takes a class free in it, or taken: the shift of its row on the other
        # free classes and on that class, and of its P, that its other open
        # vertices see
        self._sides = [None] * 2 + [
            ((a[2] - a[1], -a[1], a[1] - a[0]), (-a[1], 0, -a[0])) for a in self.A[2:]]
        self._r1x2, self._d1x2 = 2 * self.rpow[r - 1], 2 * self.D1
        flat = rows.ravel()
        degrees = np.bincount(flat, minlength=n)
        self.inc = _split((np.argsort(flat, kind="stable") // r).tolist(), degrees)
        self.multi, self.multi_at, shared = _multi_shared(rows, n)
        # all vertices open: every edge has P = A[r][0] = A[r][1] = r!, so the
        # rows equal P and edges meeting at one open vertex are uncorrelated
        a0 = self.A[r][0]
        self.open = [True] * n
        self.U, self.M, self.P = [r] * m, [0] * m, [a0] * m
        self.sumP = m * a0
        self.sumP2 = m * a0 * a0
        self.T = [d * a0 for d in degrees.tolist()]
        self.Q = [t * a0 for t in self.T]
        self.Tc = [[t] * r for t in self.T]
        self.Qc = [[q] * r for q in self.Q]
        self.contrib = [0] * n
        self.open_shared = shared
        corr_at = {s: self._corr(r, 0, a0, r, 0, a0, s) for s in set(shared)}
        self.corr = [corr_at[s] for s in shared]
        self.jma2 = 2 * sum(self.corr)
        self.quads = [self.quad_num()] * len(specs)

    def _contrib(self, t, q, trow, qrow) -> int:
        return (self.rpow[self.r - 1] * (sum(map(mul, trow, trow)) - sum(qrow))
                - self.D1 * (t * t - q))

    def _corr(self, ui, mi, pi, uj, mj, pj, s) -> int:
        if s < 2 or not pi or not pj:
            return 0
        r = self.r
        f = r - (mi | mj).bit_count()
        ai, aj = self.A[ui], self.A[uj]
        pair = self.rpow[r - s] * self.ff[f][s] * ai[s] * aj[s]
        single = self.rpow[r - 1] * f * ai[1] * aj[1]
        return pair - s * single + (s - 1) * self.D1 * pi * pj

    def _edge_delta(self, mask, c):
        """Shift of P, P^2, row and row^2 that the other open vertices of a
        live edge with decided colours `mask` see when one of its open
        vertices takes c; kept in self._deltas."""
        r = self.r
        u = r - mask.bit_count()
        a0, a1 = self.A[u][0], self.A[u][1]
        x, y, dp = self._sides[u][mask >> c & 1]
        dt = tuple(0 if mask >> cc & 1 else y if cc == c else x for cc in range(r))
        d = self._deltas[mask, c] = (
            dp, (a0 + dp) ** 2 - a0 * a0, dt,
            tuple(0 if mask >> cc & 1 else (a1 + t) ** 2 - a1 * a1 for cc, t in enumerate(dt)))
        return d

    def _edge_coefs(self, mask):
        """Taken and free classes of a live edge with decided colours `mask`,
        and its co-vertices' contrib shift (the class docstring's closed
        forms) summed over its u - 1 open co-vertices, as coefficients: for a
        taken class of (1, sum TF, sum T), for a free class of (1, sum TF,
        sum T, sum Tc[c]); kept in self._coefs."""
        r, r1, d1 = self.r, self.rpow[self.r - 1], self.D1
        taken = [c for c in range(r) if mask >> c & 1]
        free = [c for c in range(r) if not mask >> c & 1]
        u = len(free)
        a0, a1, a2 = self.A[u][:3]
        co = self._coefs[mask] = (
            taken, free,
            (u - 1) * (2 * r1 * u * a1 * a1 - 2 * d1 * a0 * a0), -2 * r1 * a1, 2 * d1 * a0,
            (u - 1) * (r1 * (2 * (u - 1) * a1 * (a1 - a2) + 2 * a1 * a1)
                       + 2 * d1 * (a1 - a0) * a0),
            2 * r1 * (a2 - a1), -2 * d1 * (a1 - a0), -2 * r1 * a2)
        return co

    def _pair_shift(self, pid, in_i, in_j, c) -> int:
        """Shift of 2*jma from the live multi-shared pair pid when v, a vertex
        of edge i, edge j or both, takes c: twice the change of its corr,
        plus the cross terms of its other open shared vertices."""
        i, j = self.multi[pid]
        U, M, A = self.U, self.M, self.A
        ui, mi, uj, mj = U[i], M[i], U[j], M[j]
        bit = 1 << c
        taken_i, taken_j = mi & bit, mj & bit
        s = self.open_shared[pid]
        shift = -2 * self.corr[pid]
        if not (in_i and taken_i or in_j and taken_j):     # else an edge dies, and corr with it
            shift += 2 * self._corr(ui - in_i, mi | bit if in_i else mi,
                                    A[ui][1] if in_i else self.P[i],
                                    uj - in_j, mj | bit if in_j else mj,
                                    A[uj][1] if in_j else self.P[j], s - (in_i and in_j))
        if in_i and in_j:
            xi, yi, dpi = self._sides[ui][taken_i > 0]
            xj, yj, dpj = self._sides[uj][taken_j > 0]
            g = self.r - (mi | mj | bit).bit_count()       # free in both, other than c
            shift += (s - 1) * (self._r1x2 * (xi * xj * g + yi * yj) - self._d1x2 * dpi * dpj)
        return shift

    def _quad_num(self, sumP, sumP2, jma2) -> int:
        ex2 = sumP * self.D2 + (sumP * sumP - sumP2) * self.D1 + jma2
        return (self.mu_rr * self.mu_rr - 2 * self.mu_rr * sumP) * self.D1 + ex2

    def quad_num(self) -> int:
        """The quadratic over r^(3r) at the committed labels."""
        return self._quad_num(self.sumP, self.sumP2, self.jma2)

    def add_keys(self, v, keys):
        r = self.r
        T, Tc, is_open, edges = self.T, self.Tc, self.open, self.edges
        U, M, P, coefs = self.U, self.M, self.P, self._coefs
        jma2 = [self.jma2 - self.contrib[v]] * r
        for eid in self.inc[v]:
            if U[eid] == 1 or not P[eid]:
                continue
            mask = M[eid]
            taken, free, x0, xf, xt, k0, kf, kt, kc = coefs.get(mask) or self._edge_coefs(mask)
            sum_t = 0
            sum_tc = None
            for w in edges[eid]:
                if w != v and is_open[w]:
                    sum_t += T[w]
                    sum_tc = Tc[w] if sum_tc is None else list(map(add, sum_tc, Tc[w]))
            tf = sum([sum_tc[c] for c in free]) if mask else sum(sum_tc)
            x = x0 + xf * tf + xt * sum_t
            for c in taken:
                jma2[c] += x
            x = k0 + kf * tf + kt * sum_t
            for c in free:
                jma2[c] += x + kc * sum_tc[c]
        open_shared, multi = self.open_shared, self.multi
        for pid, in_i, in_j in self.multi_at[v]:
            if open_shared[pid] < 2:
                continue
            i, j = multi[pid]
            mi, mj = M[i], M[j]
            # the shift depends on c only through whether c is taken in each edge
            shifts = [None] * 4
            for c in range(r):
                case = (mi >> c & 1) | (mj >> c & 1) << 1
                shift = shifts[case]
                if shift is None:
                    shift = shifts[case] = self._pair_shift(pid, in_i, in_j, c)
                jma2[c] += shift
        t, q, trow, qrow, w = T[v], self.Q[v], Tc[v], self.Qc[v], self.weight
        for c in range(r):
            keys[c] += w * self._quad_num(self.sumP + trow[c] - t, self.sumP2 + qrow[c] - q,
                                          jma2[c])

    def commit(self, v, c):
        T, Q, Tc, Qc, contrib, is_open = self.T, self.Q, self.Tc, self.Qc, self.contrib, self.open
        U, M, P, A, deltas = self.U, self.M, self.P, self.A, self._deltas
        bit = 1 << c
        self.sumP += Tc[v][c] - T[v]
        self.sumP2 += Qc[v][c] - Q[v]
        jma2 = self.jma2 - contrib[v]
        contrib[v] = 0
        is_open[v] = False
        touched = set()
        for eid in self.inc[v]:
            u, mask, p = U[eid], M[eid], P[eid]
            if p:
                if u > 1:
                    dp, dp2, dt, dq = deltas.get((mask, c)) or self._edge_delta(mask, c)
                    for w in self.edges[eid]:
                        if is_open[w]:
                            T[w] += dp
                            Q[w] += dp2
                            Tc[w] = list(map(add, Tc[w], dt))
                            Qc[w] = list(map(add, Qc[w], dq))
                            touched.add(w)
                P[eid] = 0 if mask & bit else A[u][1]
            U[eid] = u - 1
            M[eid] = mask | bit
        for w in touched:
            cw = self._contrib(T[w], Q[w], Tc[w], Qc[w])
            jma2 += cw - contrib[w]
            contrib[w] = cw
        corr, open_shared = self.corr, self.open_shared
        for pid, in_i, in_j in self.multi_at[v]:
            s = open_shared[pid]
            if s < 2:
                continue
            i, j = self.multi[pid]
            pi, pj = P[i], P[j]
            s = s - 1 if in_i and in_j else s
            if not pi or not pj:
                s = 0
            new = self._corr(U[i], M[i], pi, U[j], M[j], pj, s)
            jma2 += 2 * (new - corr[pid])
            corr[pid] = new
            open_shared[pid] = s
        self.jma2 = jma2


def _split(items: list, counts) -> list[list]:
    """`items` cut into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _multi_shared(rows, n):
    """Edge pairs of a member that share two or more vertices, from one
    stable sort of the vertex-pair keys of its row-sorted edges.

    Returns the pairs (i, j), i < j, in lexicographic order; per vertex, the
    (pair id, in edge i, in edge j) of every pair whose union holds it; and
    each pair's shared vertex count.
    """
    m, r = rows.shape
    # a term keeps lists of n entries, so any n it is built for has n * n < 2**63
    keys = np.concatenate([rows[:, a] * n + rows[:, b]
                           for a, b in itertools.combinations(range(r), 2)])
    order = np.argsort(keys, kind="stable")
    keys, owner = keys[order], order % m
    # entries d apart in key order meet on one vertex pair when their keys are equal
    firsts, seconds = [], []
    for d in range(1, len(keys)):
        same = keys[d:] == keys[:-d]
        if not same.any():
            break
        firsts.append(owner[:-d][same])
        seconds.append(owner[d:][same])
    if not firsts:
        return [], [[] for _ in range(n)], []
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    codes = np.sort(np.minimum(a, b) * m + np.maximum(a, b))
    codes = codes[np.concatenate(([True], codes[1:] != codes[:-1]))]   # each pair once
    first, second = codes // m, codes % m
    ei, ej = rows[first], rows[second]
    equal = ei[:, :, None] == ej[:, None, :]
    i_in_j = equal.any(axis=2)
    j_pid, j_col = np.nonzero(~equal.any(axis=1))
    # every vertex of edge i, then the vertices of edge j outside edge i
    xs = np.concatenate([ei.ravel(), ej[j_pid, j_col]])
    by = np.argsort(xs, kind="stable")
    pids = np.concatenate([np.arange(ei.size) // r, j_pid])[by]
    in_j = np.concatenate([i_in_j.ravel(), np.ones(len(j_pid), dtype=bool)])[by]
    entries = list(zip(pids.tolist(), (by < ei.size).tolist(), in_j.tolist()))
    multi_at = _split(entries, np.bincount(xs, minlength=n))
    return (list(zip(first.tolist(), second.tolist())), multi_at,
            i_in_j.sum(axis=1).tolist())


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
    order = tuple(map(index, order))        # integers only: 7.5 is no vertex
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    return order


_TERMS = {"crossing": _CrossingTerm, "pair": _ClassPairTerm, "within": _ClassPairTerm,
          "rainbow": _RainbowTerm}


def _build_terms(family, specs):
    """Penalty terms in spec order, one per run of consecutive specs on one
    member and of one term class, each spec weighed by lcm(parts) // its
    part; ``quads`` holds their all-open quadratics over k^4 (r^(3r))."""
    lcm = math.lcm(*(spec.part for spec in specs))
    terms = []
    for (gi, cls), group in itertools.groupby(specs, key=lambda s: (s.graph, _TERMS[s.kind])):
        group = tuple(group)
        terms.append(cls(family.arrays[gi], group, family.n,
                         [lcm // spec.part for spec in group]))
    return terms


def derandomize(family, guarantee: Guarantee, order=None) -> DerandResult:
    """Deterministic partition meeting every row of a resolved guarantee.

    Descends on ``guarantee.specs``: processes vertices in `order`; at each
    one adds every term's integer keys for all k classes and commits the
    minimizer (ties break to the lowest class).  Requires the exact initial
    estimator to be below 1, which `resolve` guarantees by construction;
    given that, every statistic ends at or above mu - sqrt(normalizer), and
    the returned report is `evaluate` of the result against
    ``guarantee.rows``.
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
    order = resolve_order(family, order)
    labels = [UNDECIDED] * family.n
    terms = _build_terms(family, specs)

    scale = k ** (3 * k) if specs and specs[0].kind == "rainbow" else k ** 4
    lcm, root = math.lcm(*(spec.part for spec in specs)), math.sqrt(guarantee.norm2)
    initial, total = 0.0, 0
    for spec, quad in zip(specs, (q for term in terms for q in term.quads)):
        initial += quad / scale / (root * spec.part)
        total += lcm // spec.part * quad
    if not total * total < (scale * lcm) ** 2 * guarantee.norm2:
        raise EstimatorBudgetError(
            f"initial estimator {initial:.6g} >= 1: these penalty terms cannot certify "
            "a partition (config contract broken)"
        )

    trace: list[DescentStep] = []
    for v in order:
        keys = [0] * k
        for term in terms:
            term.add_keys(v, keys)
        best = min(keys)
        chosen = keys.index(best)       # the lowest class on ties
        for term in terms:
            term.commit(v, chosen)
        labels[v] = chosen
        trace.append(DescentStep(v, chosen, tuple([x - best for x in keys])))

    assignment = Assignment(tuple(labels), k)
    report = evaluate(family, assignment, guarantee)
    if not report.all_pass:
        raise AssertionError(
            "descent finished above a threshold; estimator bookkeeping is broken"
        )
    # every vertex is decided: each term is exactly (mu - count)^2 / normalizer
    final = sum((float((bound.mean - row.count) ** 2) / (root * spec.part)
                 for (spec, _, bound), row in zip(guarantee.rows, report.constraints)
                 if spec.part), 0.0)
    return DerandResult(assignment=assignment, report=report, trace=tuple(trace),
                        initial_value=initial, final_value=final)
