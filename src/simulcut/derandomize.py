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
k^2 (r^r for rainbow terms), so each term's quadratic is accumulated as a
plain integer over a fixed power of k; only the final division by the
term's real normalizer is floating point.  Incremental state keeps the
edge-pair correlations as per-vertex aggregates, so one candidate
evaluation costs O(deg(v) * k) for a graph term and O(deg(v) * r^2) for a
rainbow term, plus the hyperedge pairs at v that share two or more
vertices (these alone keep per-pair state, in closed form).  Terms loop
over their member's edges as Python ints: `_build_terms` takes `.tolist()`
of each member's array once and shares it among that member's terms.
`naive=True` switches to a from-scratch recompute of every moment, kept as
the correctness oracle for the incremental bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import UNDECIDED, Assignment, CutReport
from .estimator import (
    EstimatorBudgetError,
    EventSpec,
    _member_edges,
    _quadratic,
    validate_specs,
)
from .guarantee import Guarantee, evaluate


@dataclass(frozen=True)
class DescentStep:
    """Audit record for one vertex decision."""

    vertex: int
    chosen: int
    value: float
    candidates: tuple[float, ...]


@dataclass(frozen=True)
class DerandResult:
    assignment: Assignment
    report: CutReport
    trace: tuple[DescentStep, ...]
    initial_value: float
    final_value: float


class _GraphTerm:
    """Incremental penalty term for a crossing/pair/within statistic.

    Stores, per edge, the integer numerator P of its conditional probability
    over k^2, plus per-vertex aggregates that make the pair-correlation
    correction for edges through each undecided vertex O(1) to look up:

      sumP, sumP2      sums of P and P^2
      Tw[w], Qw[w]     sums of P and P^2 over edges at w
      Twc[w][c]        sum over edges at w of the numerator (over k) of the
                       edge probability given w -> c
      contrib[w]       k * sum_c(Twc^2 - Qwc) - (Tw^2 - Qw), the correction
                       (over k^4) for ordered edge pairs meeting at w; zero
                       once w is decided

    The exact quadratic is then an integer over k^4:
      mu_k2^2 - 2*mu_k2*sumP + k^2*sumP + sumP^2 - sumP2 + sum(contrib).
    """

    def __init__(self, edges, spec: EventSpec, labels, adj):
        k = spec.k
        self.k = k
        self.k2 = k * k
        self.k4 = self.k2 * self.k2
        self.spec = spec
        self.norm = spec.normalizer
        self.edges = edges
        self.labels = labels
        self.adj = adj
        mu_k2 = spec.mu * self.k2
        if mu_k2.denominator != 1:
            raise ValueError(f"mean {spec.mu} is not a multiple of 1/k^2")
        self.mu_k2 = int(mu_k2)

        kind = spec.kind
        if kind == "crossing":
            p_uu = k * (k - 1)
            p_du = [k * (k - 1)] * k
            p_dd = [[0 if c1 == c2 else self.k2 for c2 in range(k)] for c1 in range(k)]
        elif kind == "pair":
            s, t = spec.s, spec.t
            p_uu = 2
            p_du = [k if c in (s, t) else 0 for c in range(k)]
            p_dd = [[self.k2 if (c1, c2) in ((s, t), (t, s)) else 0
                     for c2 in range(k)] for c1 in range(k)]
        elif kind == "within":
            s = spec.s
            p_uu = 1
            p_du = [k if c == s else 0 for c in range(k)]
            p_dd = [[self.k2 if c1 == c2 == s else 0 for c2 in range(k)] for c1 in range(k)]
        else:
            raise ValueError(f"graph term cannot track {kind!r}")
        self.p_uu = p_uu
        self.p_du = p_du
        self.p_dd = p_dd
        adu = [x // k for x in p_du]
        add = [[x // k for x in row] for row in p_dd]
        # Committing a neighbor of w to class c shifts w's hypothesis row by
        # these per-class deltas (entry c2: edge prob numerator given w -> c2).
        self.d_a = [[add[c2][c] - adu[c2] for c2 in range(k)] for c in range(k)]
        self.d_a2 = [[add[c2][c] ** 2 - adu[c2] ** 2 for c2 in range(k)] for c in range(k)]
        self.adu = adu
        self.add = add
        self.reset()

    def _pnum(self, lu, lv) -> int:
        if lu == UNDECIDED:
            return self.p_uu if lv == UNDECIDED else self.p_du[lv]
        if lv == UNDECIDED:
            return self.p_du[lu]
        return self.p_dd[lu][lv]

    def reset(self):
        labels = self.labels
        k = self.k
        n = len(labels)
        P = [self._pnum(labels[u], labels[v]) for u, v in self.edges]
        self.P = P
        Tw = [0] * n
        Qw = [0] * n
        for eid, (u, v) in enumerate(self.edges):
            p = P[eid]
            Tw[u] += p
            Qw[u] += p * p
            Tw[v] += p
            Qw[v] += p * p
        self.Tw = Tw
        self.Qw = Qw
        Twc = [None] * n
        Qwc = [None] * n
        contrib = [0] * n
        total = 0
        adu, add = self.adu, self.add
        for w in range(n):
            if labels[w] != UNDECIDED:
                Twc[w] = [0] * k
                Qwc[w] = [0] * k
                continue
            trow = [0] * k
            qrow = [0] * k
            for eid, u in self.adj[w]:
                lu = labels[u]
                row = adu if lu == UNDECIDED else [add[c][lu] for c in range(k)]
                for c in range(k):
                    a = row[c]
                    trow[c] += a
                    qrow[c] += a * a
            Twc[w] = trow
            Qwc[w] = qrow
            s = 0
            for c in range(k):
                s += trow[c] * trow[c] - qrow[c]
            cw = k * s - (Tw[w] * Tw[w] - Qw[w])
            contrib[w] = cw
            total += cw
        self.Twc = Twc
        self.Qwc = Qwc
        self.contrib = contrib
        self.total_contrib = total
        self.sumP = sum(P)
        self.sumP2 = sum(p * p for p in P)

    def _quad_num(self, sumP, sumP2, total_contrib) -> int:
        ex2 = self.k2 * sumP + sumP * sumP - sumP2 + total_contrib
        return self.mu_k2 * self.mu_k2 - 2 * self.mu_k2 * sumP + ex2

    def exact_quadratic(self) -> Fraction:
        return Fraction(self._quad_num(self.sumP, self.sumP2, self.total_contrib), self.k4)

    def current_value(self) -> float:
        return float(self.exact_quadratic()) / self.norm

    def candidate_value(self, v, c) -> float:
        labels = self.labels
        k = self.k
        nsumP = self.sumP + k * self.Twc[v][c] - self.Tw[v]
        nsumP2 = self.sumP2 + self.k2 * self.Qwc[v][c] - self.Qw[v]
        ncontrib = self.total_contrib - self.contrib[v]
        da = self.d_a[c]
        da2 = self.d_a2[c]
        newP = self.p_du[c]
        for eid, u in self.adj[v]:
            if labels[u] != UNDECIDED:
                continue
            oldP = self.P[eid]
            tU = self.Tw[u] + newP - oldP
            qU = self.Qw[u] + newP * newP - oldP * oldP
            trow = self.Twc[u]
            qrow = self.Qwc[u]
            s = 0
            for c2 in range(k):
                t2 = trow[c2] + da[c2]
                s += t2 * t2 - qrow[c2] - da2[c2]
            ncontrib += k * s - (tU * tU - qU) - self.contrib[u]
        return float(Fraction(self._quad_num(nsumP, nsumP2, ncontrib), self.k4)) / self.norm

    def commit(self, v, c):
        labels = self.labels
        k = self.k
        self.sumP += k * self.Twc[v][c] - self.Tw[v]
        self.sumP2 += self.k2 * self.Qwc[v][c] - self.Qw[v]
        self.total_contrib -= self.contrib[v]
        self.contrib[v] = 0
        da = self.d_a[c]
        da2 = self.d_a2[c]
        p_new_open = self.p_du[c]
        pdd_c = self.p_dd[c]
        for eid, u in self.adj[v]:
            lu = labels[u]
            oldP = self.P[eid]
            if lu == UNDECIDED:
                self.P[eid] = p_new_open
                self.Tw[u] += p_new_open - oldP
                self.Qw[u] += p_new_open * p_new_open - oldP * oldP
                trow = self.Twc[u]
                qrow = self.Qwc[u]
                s = 0
                for c2 in range(k):
                    trow[c2] += da[c2]
                    qrow[c2] += da2[c2]
                    s += trow[c2] * trow[c2] - qrow[c2]
                cw = k * s - (self.Tw[u] * self.Tw[u] - self.Qw[u])
                self.total_contrib += cw - self.contrib[u]
                self.contrib[u] = cw
            else:
                self.P[eid] = pdd_c[lu]
        self.Tw[v] = k * self.Twc[v][c]
        self.Qw[v] = self.k2 * self.Qwc[v][c]


class _RainbowTerm:
    """Incremental penalty term for the rainbow statistic of one hypergraph.

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
    aggregates as in _GraphTerm:

      T[w], Q[w]       sums of P and P^2 over edges at w
      Tc[w][c]         sum of row[c] over edges at w; Qc[w][c] of row[c]^2
      contrib[w]       r^(r-1) * sum_c(Tc^2 - Qc) - r^r * (T^2 - Q), the
                       s = 1 value summed over ordered edge pairs at w;
                       zero once w is decided

    Only pairs sharing two or more vertices keep explicit state: corr[p] =
    pairval - s * (its s = 1 value), what the per-vertex sums miss (zero
    while s <= 1).  The doubled pair sum 2*jma = sum(contrib) + 2*sum(corr)
    is one exact integer.  A candidate costs O(deg(v) * r^2) plus the
    multi-shared pairs at v.
    """

    def __init__(self, edges, spec: EventSpec, labels, n):
        r = spec.k
        self.r = r
        self.D1 = r ** r
        self.D2 = self.D1 * self.D1
        self.D3 = self.D2 * self.D1
        self.spec = spec
        self.norm = spec.normalizer
        self.labels = labels
        self.edges = [tuple(e) for e in edges]
        self.mu_rr = math.factorial(r) * len(edges)
        self.rpow = [r ** i for i in range(r + 1)]
        # A[u][s] = (u-s)! * r^(r-u+s); ff[f][s] = f*(f-1)*...*(f-s+1)
        self.A = [[math.factorial(u - s) * r ** (r - u + s) for s in range(u + 1)]
                  for u in range(r + 1)]
        self.ff = [[math.perm(f, s) for s in range(r + 1)] for f in range(r + 1)]
        self._deltas: dict[tuple[int, int, int], tuple] = {}
        inc: list[list[int]] = [[] for _ in range(n)]
        for eid, e in enumerate(self.edges):
            for x in e:
                inc[x].append(eid)
        self.inc = inc
        # edge pairs sharing >= 2 vertices, found through the vertex pairs they share
        by_vpair: dict[tuple[int, int], list[int]] = {}
        for eid, e in enumerate(self.edges):
            for a, b in itertools.combinations(sorted(e), 2):
                by_vpair.setdefault((a, b), []).append(eid)
        found = set()
        for ids in by_vpair.values():
            found.update(itertools.combinations(ids, 2))
        self.multi = []
        multi_at: list[list[tuple[int, bool, bool]]] = [[] for _ in range(n)]
        for i, j in sorted(found):
            ei, ej = self.edges[i], self.edges[j]
            pid = len(self.multi)
            self.multi.append((i, j, tuple(x for x in ei if x in ej)))
            for x in set(ei) | set(ej):
                multi_at[x].append((pid, x in ei, x in ej))
        self.multi_at = multi_at
        self.reset()

    def reset(self):
        labels = self.labels
        r = self.r
        A = self.A
        U = []
        M = []
        P = []
        for e in self.edges:
            u = 0
            mask = 0
            alive = True
            for x in e:
                lab = labels[x]
                if lab == UNDECIDED:
                    u += 1
                elif mask >> lab & 1:
                    alive = False
                else:
                    mask |= 1 << lab
            U.append(u)
            M.append(mask)
            P.append(A[u][0] if alive else 0)
        self.U, self.M, self.P = U, M, P
        self.sumP = sum(P)
        self.sumP2 = sum(p * p for p in P)
        n = len(labels)
        self.T = [0] * n
        self.Q = [0] * n
        self.Tc = [[0] * r for _ in range(n)]
        self.Qc = [[0] * r for _ in range(n)]
        self.contrib = [0] * n
        for w in range(n):
            if labels[w] != UNDECIDED:
                continue
            trow = self.Tc[w]
            qrow = self.Qc[w]
            for eid in self.inc[w]:
                p = P[eid]
                if not p:
                    continue
                self.T[w] += p
                self.Q[w] += p * p
                a1 = A[U[eid]][1]
                mask = M[eid]
                for c in range(r):
                    if not mask >> c & 1:
                        trow[c] += a1
                        qrow[c] += a1 * a1
            self.contrib[w] = self._contrib(self.T[w], self.Q[w], trow, qrow)
        self.open_shared = [sum(1 for x in shared if labels[x] == UNDECIDED)
                            for _, _, shared in self.multi]
        self.corr = [self._corr(U[i], M[i], P[i], U[j], M[j], P[j], s)
                     for (i, j, _), s in zip(self.multi, self.open_shared)]
        self.jma2 = sum(self.contrib) + 2 * sum(self.corr)

    def _contrib(self, t, q, trow, qrow) -> int:
        s = 0
        for c in range(self.r):
            s += trow[c] * trow[c] - qrow[c]
        return self.rpow[self.r - 1] * s - self.D1 * (t * t - q)

    def _corr(self, ui, mi, pi, uj, mj, pj, s) -> int:
        if s < 2 or not pi or not pj:
            return 0
        r = self.r
        f = r - (mi | mj).bit_count()
        ai, aj = self.A[ui], self.A[uj]
        pair = self.rpow[r - s] * self.ff[f][s] * ai[s] * aj[s]
        single = self.rpow[r - 1] * f * ai[1] * aj[1]
        return pair - s * single + (s - 1) * self.D1 * pi * pj

    def _edge_delta(self, u, mask, c):
        """Shift of P, P^2, row and row^2 that the other open vertices of a
        live edge (u >= 2, mask) see when one of its open vertices takes c."""
        key = (u, mask, c)
        d = self._deltas.get(key)
        if d is None:
            r = self.r
            a0 = self.A[u][0]
            a1 = self.A[u][1]
            old = [0 if mask >> cc & 1 else a1 for cc in range(r)]
            if mask >> c & 1:
                newp = 0
                new = [0] * r
            else:
                newp = a1
                a2 = self.A[u][2]
                new = [0 if (mask >> cc & 1 or cc == c) else a2 for cc in range(r)]
            d = (newp - a0, newp * newp - a0 * a0,
                 tuple(x - y for x, y in zip(new, old)),
                 tuple(x * x - y * y for x, y in zip(new, old)))
            self._deltas[key] = d
        return d

    def _step(self, v, c):
        """Totals after v -> c, with the per-vertex and per-pair updates."""
        labels = self.labels
        U, M, P = self.U, self.M, self.P
        sumP = self.sumP + self.Tc[v][c] - self.T[v]
        sumP2 = self.sumP2 + self.Qc[v][c] - self.Q[v]
        jma2 = self.jma2 - self.contrib[v]
        shift: dict[int, list] = {}
        for eid in self.inc[v]:
            if not P[eid] or U[eid] == 1:
                continue
            dp, dp2, dt, dq = self._edge_delta(U[eid], M[eid], c)
            for w in self.edges[eid]:
                if w == v or labels[w] != UNDECIDED:
                    continue
                acc = shift.get(w)
                if acc is None:
                    shift[w] = [dp, dp2, dt, dq]
                else:
                    acc[0] += dp
                    acc[1] += dp2
                    acc[2] = [x + y for x, y in zip(acc[2], dt)]
                    acc[3] = [x + y for x, y in zip(acc[3], dq)]
        covertex = []
        for w, (dp, dp2, dt, dq) in shift.items():
            t = self.T[w] + dp
            q = self.Q[w] + dp2
            trow = [x + y for x, y in zip(self.Tc[w], dt)]
            qrow = [x + y for x, y in zip(self.Qc[w], dq)]
            cw = self._contrib(t, q, trow, qrow)
            jma2 += cw - self.contrib[w]
            covertex.append((w, t, q, trow, qrow, cw))
        pairs = []
        for pid, in_i, in_j in self.multi_at[v]:
            old = self.corr[pid]
            i, j, _ = self.multi[pid]
            s = self.open_shared[pid]
            ui, mi, pi = U[i], M[i], P[i]
            uj, mj, pj = U[j], M[j], P[j]
            if in_i:
                pi = self.A[ui][1] if pi and not mi >> c & 1 else 0
                ui -= 1
                mi |= 1 << c
            if in_j:
                pj = self.A[uj][1] if pj and not mj >> c & 1 else 0
                uj -= 1
                mj |= 1 << c
            if in_i and in_j:
                s -= 1
            new = self._corr(ui, mi, pi, uj, mj, pj, s)
            if new != old or s != self.open_shared[pid]:
                jma2 += 2 * (new - old)
                pairs.append((pid, new, s))
        return sumP, sumP2, jma2, covertex, pairs

    def _quad_num(self, sumP, sumP2, jma2) -> int:
        ex2 = sumP * self.D2 + (sumP * sumP - sumP2) * self.D1 + jma2
        return (self.mu_rr * self.mu_rr - 2 * self.mu_rr * sumP) * self.D1 + ex2

    def exact_quadratic(self) -> Fraction:
        return Fraction(self._quad_num(self.sumP, self.sumP2, self.jma2), self.D3)

    def current_value(self) -> float:
        return float(self.exact_quadratic()) / self.norm

    def candidate_value(self, v, c) -> float:
        sumP, sumP2, jma2, _, _ = self._step(v, c)
        return float(Fraction(self._quad_num(sumP, sumP2, jma2), self.D3)) / self.norm

    def commit(self, v, c):
        self.sumP, self.sumP2, self.jma2, covertex, pairs = self._step(v, c)
        for w, t, q, trow, qrow, cw in covertex:
            self.T[w], self.Q[w], self.Tc[w], self.Qc[w], self.contrib[w] = t, q, trow, qrow, cw
        for pid, new, s in pairs:
            self.corr[pid] = new
            self.open_shared[pid] = s
        self.contrib[v] = 0
        for eid in self.inc[v]:
            u = self.U[eid]
            if self.P[eid]:
                self.P[eid] = 0 if self.M[eid] >> c & 1 else self.A[u][1]
            self.U[eid] = u - 1
            self.M[eid] |= 1 << c


class _NaiveTerm:
    """From-scratch recompute of one term; the incremental engines' oracle."""

    def __init__(self, edges, spec: EventSpec, labels):
        self.edges = edges
        self.spec = spec
        self.labels = labels
        self.norm = spec.normalizer

    def exact_quadratic(self) -> Fraction:
        return _quadratic(self.labels, self.edges, self.spec)

    def current_value(self) -> float:
        return float(self.exact_quadratic()) / self.norm

    def candidate_value(self, v, c) -> float:
        labels = self.labels
        labels[v] = c
        quad = _quadratic(labels, self.edges, self.spec)
        labels[v] = UNDECIDED
        return float(quad) / self.norm

    def commit(self, v, c):
        pass


def resolve_order(family, order) -> tuple[int, ...]:
    """Vertex processing order: None/'natural', 'degree', or a permutation.

    'degree' sorts by total degree over all members, highest first, ties
    by vertex index.
    """
    n = family.n
    if order is None or order == "natural":
        return tuple(range(n))
    if order == "degree":
        deg = sum(np.bincount(rows.ravel(), minlength=n) for rows in family.arrays)
        return tuple(np.argsort(-deg, kind="stable").tolist())
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    return order


def _build_terms(family, specs, labels, naive: bool):
    if naive:
        return [_NaiveTerm(_member_edges(family, s), s, labels) for s in specs]
    n = family.n
    edges_of = {gi: family.arrays[gi].tolist() for gi in {s.graph for s in specs}}
    adj_of: dict[int, list] = {}
    terms = []
    for spec in specs:
        gi = spec.graph
        edges = edges_of[gi]
        if spec.kind == "rainbow":
            terms.append(_RainbowTerm(edges, spec, labels, n))
            continue
        if gi not in adj_of:
            rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
            for eid, (u, v) in enumerate(edges):
                rows[u].append((eid, v))
                rows[v].append((eid, u))
            adj_of[gi] = [tuple(r) for r in rows]
        terms.append(_GraphTerm(edges, spec, labels, adj_of[gi]))
    return terms


def derandomize(family, guarantee: Guarantee, order=None, naive: bool = False) -> DerandResult:
    """Deterministic partition meeting every row of a resolved guarantee.

    Descends on ``guarantee.specs``: processes vertices in `order`; at each
    one evaluates the estimator for all k classes and commits the minimizer
    (ties break to the lowest class).  Requires the initial estimator to be
    below 1, which `resolve` guarantees by construction; given that, every
    statistic ends at or above mu - sqrt(normalizer), and the returned
    report is `evaluate` of the result against ``guarantee.rows``.
    """
    specs = guarantee.specs
    validate_specs(family, specs)
    k = guarantee.k
    ks = {s.k for s in specs} | {k}
    if len(ks) != 1:
        raise ValueError(f"specs mix class counts {sorted(ks)}")
    if any(graph < 0 for graph, _, _ in guarantee.rows):
        raise ValueError("balancing is a Monte-Carlo feature; "
                         "the descent does not track class sizes")
    order = resolve_order(family, order)
    labels = [UNDECIDED] * family.n
    terms = _build_terms(family, specs, labels, naive)

    initial = 0.0
    for term in terms:
        initial += term.current_value()
    if initial >= 1.0:
        raise EstimatorBudgetError(
            f"initial estimator {initial:.6g} >= 1: these penalty terms cannot certify "
            "a partition (config contract broken)"
        )

    trace: list[DescentStep] = []
    for v in order:
        candidates = []
        for c in range(k):
            val = 0.0
            for term in terms:
                val += term.candidate_value(v, c)
            candidates.append(val)
        chosen = 0
        for c in range(1, k):
            if candidates[c] < candidates[chosen]:
                chosen = c
        for term in terms:
            term.commit(v, chosen)
        labels[v] = chosen
        trace.append(DescentStep(v, chosen, candidates[chosen], tuple(candidates)))

    assignment = Assignment(tuple(labels), k)
    report = evaluate(family, assignment, guarantee)
    if not report.all_pass:
        raise AssertionError(
            "descent finished above a threshold; estimator bookkeeping is broken"
        )
    final = trace[-1].value if trace else initial
    return DerandResult(assignment=assignment, report=report, trace=tuple(trace),
                        initial_value=initial, final_value=final)
