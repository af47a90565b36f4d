"""Monte-Carlo partitioning with retry loops backed by second-moment bounds.

Each try labels every vertex independently and uniformly at random, then
checks every guarantee threshold; a try is rejected if any constraint
fails.  Per-try failure probability is at most 1/2 for thm1/thm2 (and the
derived hyp bound) and at most 3/4 for thm3, so the default 64 tries make
exhaustion astronomically unlikely.

Randomness: a PCG64 generator per try, derived as
``SeedSequence(entropy=seed, spawn_key=(try_index,))``.  One substream per
try keeps runs bit-reproducible across platforms and makes tries
independent, so they could be evaluated concurrently; the accepted result
is always the one with the smallest try index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Assignment,
    Constraint,
    CutReport,
    GraphFamily,
    HypergraphFamily,
    epsilon_cap,
    _check_epsilon,
    partition_counts,
    rainbow_count,
    threshold_for,
)
from .estimator import DegreePreconditionError

MC_KINDS = ("thm1", "thm2", "thm3", "hyp")


class McExhausted(RuntimeError):
    """All tries failed; carries the attempt with the fewest violations."""

    def __init__(self, tries: int, best_assignment: Assignment, best_report: CutReport):
        failed = sum(1 for c in best_report.constraints if not c.passed)
        super().__init__(f"no valid partition in {tries} tries "
                         f"(best attempt violates {failed} constraints)")
        self.tries = tries
        self.best_assignment = best_assignment
        self.best_report = best_report


@dataclass(frozen=True)
class McConfig:
    """Configuration of one Monte-Carlo partitioning run.

    ``ell`` is normally left None and taken from the instance; if set it
    must match.  ``balance_slack`` of None means the default
    sqrt(n * ln(2*k*ell*max_tries)), which keeps the combined per-try
    probability of any class drifting off n/k below 1/2.
    """

    kind: str
    k: int | None = None
    ell: int | None = None
    eps: float | None = None
    balanced: bool = False
    balance_slack: float | None = None
    max_tries: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in MC_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {MC_KINDS}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")
        if self.k is not None and self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.balance_slack is not None and not self.balance_slack > 0:
            raise ValueError(f"balance_slack must be > 0, got {self.balance_slack}")


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number `index` of the stream named by `seed`."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def random_assignment(n: int, k: int, rng) -> Assignment:
    """Uniform independent class labels; deterministic given a seeded rng."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not isinstance(rng, np.random.Generator):
        rng = substream(int(rng), 0)
    labels = rng.integers(0, k, size=n)
    return Assignment(tuple(int(x) for x in labels), k)


def default_balance_slack(n: int, k: int, ell: int, max_tries: int) -> float:
    return math.sqrt(n * math.log(2 * k * ell * max_tries))


def _resolve(family, cfg: McConfig):
    """Effective (k, eps, slack) for a config applied to one instance."""
    is_hyper = isinstance(family, HypergraphFamily)
    if cfg.kind == "hyp":
        if not is_hyper:
            raise TypeError("kind 'hyp' needs a hypergraph family")
        k = family.r
        if cfg.k not in (None, k):
            raise ValueError(f"rainbow partitions use k == r == {k}, got k={cfg.k}")
    else:
        if is_hyper:
            raise TypeError(f"kind {cfg.kind!r} needs a graph family")
        if cfg.kind == "thm1":
            if cfg.k not in (None, 2):
                raise ValueError(f"thm1 partitions into exactly 2 classes, got k={cfg.k}")
            k = 2
        else:
            k = cfg.k if cfg.k is not None else 2
    if cfg.ell is not None and cfg.ell != family.ell:
        raise ValueError(f"config says ell={cfg.ell} but the instance has ell={family.ell}")
    eps = cfg.eps
    if cfg.kind == "thm3":
        if eps is None:
            eps = epsilon_cap(family.ell, k)
        _check_epsilon(eps, family.ell, k)
    slack = cfg.balance_slack
    if cfg.balanced and slack is None:
        slack = default_balance_slack(family.n, k, family.ell, cfg.max_tries)
    return k, eps, slack


def _check_thm3_degrees(family: GraphFamily, eps) -> None:
    for i in range(family.ell):
        if family.max_degree[i] > eps * family.m[i]:
            raise DegreePreconditionError(
                f"graph {i}: max degree {family.max_degree[i]} exceeds "
                f"eps*m = {float(eps) * family.m[i]:.6g}"
            )


def check_report(family, a: Assignment, cfg: McConfig) -> CutReport:
    """Recompute every count and threshold from scratch; pure in its inputs."""
    k, eps, slack = _resolve(family, cfg)
    if a.k != k:
        raise ValueError(f"assignment has k={a.k}, config resolves to k={k}")
    ell = family.ell
    constraints: list[Constraint] = []

    if isinstance(family, HypergraphFamily):
        rainbow = tuple(rainbow_count(rows, a, family.r) for rows in family.arrays)
        for i in range(ell):
            thr = threshold_for("hyp", m=family.m[i], ell=ell,
                                r=family.r, delta2=family.delta2[i])
            constraints.append(_row(i, "rainbow", rainbow[i], thr))
        crossing = ()
        pairs = ()
        within = ()
    else:
        rainbow = ()
        per_graph = [partition_counts(rows, a) for rows in family.arrays]
        pairs = tuple(p for p, _, _ in per_graph)
        within = tuple(w for _, w, _ in per_graph)
        crossing = tuple(c for _, _, c in per_graph)
        for i in range(ell):
            m = family.m[i]
            if cfg.kind == "thm1":
                thr = threshold_for("thm1", m=m, ell=ell)
                constraints.append(_row(i, "crossing", crossing[i], thr))
            elif cfg.kind == "thm2":
                thr = threshold_for("thm2", m=m, ell=ell, k=k)
                constraints.append(_row(i, "crossing", crossing[i], thr))
            else:
                thr_pair = threshold_for("thm3_pair", m=m, ell=ell, k=k, eps=eps)
                thr_within = threshold_for("thm3_within", m=m, ell=ell, k=k, eps=eps)
                for (s, t), count in sorted(pairs[i].items()):
                    constraints.append(_row(i, f"pair({s},{t})", count, thr_pair))
                for s, count in enumerate(within[i]):
                    constraints.append(_row(i, f"within({s})", count, thr_within))

    sizes = a.class_sizes()
    if cfg.balanced:
        target = family.n / k
        for c, size in enumerate(sizes):
            margin = slack - abs(size - target)
            constraints.append(Constraint(
                graph=-1, stat=f"balance({c})", count=size,
                threshold=target - slack, margin=margin, passed=margin >= 0))

    return CutReport(
        kind="hypergraphs" if isinstance(family, HypergraphFamily) else "graphs",
        class_sizes=sizes,
        crossing=crossing,
        pairs=pairs,
        within=within,
        rainbow=rainbow,
        constraints=tuple(constraints),
    )


def _row(graph: int, stat: str, count: int, threshold: float) -> Constraint:
    margin = count - threshold
    return Constraint(graph=graph, stat=stat, count=count,
                      threshold=threshold, margin=margin, passed=count >= threshold)


@dataclass(frozen=True)
class McResult:
    assignment: Assignment
    report: CutReport
    tries_used: int


def mc_partition(family, cfg: McConfig) -> McResult:
    """Sample uniform partitions until every constraint holds.

    Deterministic given (instance, config): try t uses substream
    (cfg.seed, t).  Raises McExhausted after cfg.max_tries rejected tries,
    carrying the attempt with the fewest violated constraints.
    """
    k, eps, _ = _resolve(family, cfg)
    if cfg.kind == "thm3":
        _check_thm3_degrees(family, eps)
    best = None
    best_failed = None
    for t in range(cfg.max_tries):
        a = random_assignment(family.n, k, substream(cfg.seed, t))
        report = check_report(family, a, cfg)
        if report.all_pass:
            return McResult(assignment=a, report=report, tries_used=t + 1)
        failed = sum(1 for c in report.constraints if not c.passed)
        if best_failed is None or failed < best_failed:
            best = (a, report)
            best_failed = failed
    raise McExhausted(cfg.max_tries, best[0], best[1])
