"""Monte-Carlo partitioning with retry loops backed by second-moment bounds.

Each try labels every vertex independently and uniformly at random, then
checks it with `evaluate` against the rows of a resolved guarantee; a try
is rejected if any constraint fails.  Per-try failure probability is at
most 1/2 for thm1/thm2 (and the derived hyp bound) and at most 3/4 for
thm3, so the default 64 tries make exhaustion astronomically unlikely.

Randomness: a PCG64 generator per try, derived as
``SeedSequence(entropy=seed, spawn_key=(try_index,))``.  One substream per
try keeps runs bit-reproducible across platforms and makes tries
independent, so they could be evaluated concurrently; the accepted result
is always the one with the smallest try index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Assignment, CutReport, require_addressable
from .guarantee import Guarantee, evaluate


class McExhausted(RuntimeError):
    """All tries failed; carries the attempt with the fewest violations."""

    def __init__(self, tries: int, best_assignment: Assignment, best_report: CutReport):
        failed = sum(1 for c in best_report.constraints if not c.passed)
        super().__init__(f"no valid partition in {tries} tries "
                         f"(best attempt violates {failed} constraints)")
        self.tries = tries
        self.best_assignment = best_assignment
        self.best_report = best_report


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number `index` of the stream named by `seed`."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def random_assignment(n: int, k: int, rng: np.random.Generator) -> Assignment:
    """Uniform independent class labels; deterministic given a seeded rng."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    # numpy would refuse to size it with a ValueError that names neither n nor memory
    require_addressable(n)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return Assignment(rng.integers(0, k, size=n), k)


@dataclass(frozen=True)
class McResult:
    assignment: Assignment
    report: CutReport
    tries_used: int


def mc_partition(family, guarantee: Guarantee, seed: int = 0) -> McResult:
    """Sample uniform partitions until every constraint of `guarantee` holds.

    Deterministic given (instance, guarantee, seed): try t uses substream
    (seed, t).  Raises McExhausted after ``guarantee.max_tries`` rejected
    tries, carrying the attempt with the fewest violated constraints.
    """
    # as in the descent: numpy would refuse a try's k + 1 class-size bins with
    # a ValueError that names neither k nor memory
    require_addressable(guarantee.k)
    best = None
    best_failed = None
    for t in range(guarantee.max_tries):
        a = random_assignment(family.n, guarantee.k, substream(seed, t))
        report = evaluate(family, a, guarantee)
        if report.all_pass:
            return McResult(assignment=a, report=report, tries_used=t + 1)
        failed = sum(1 for c in report.constraints if not c.passed)
        if best_failed is None or failed < best_failed:
            best = (a, report)
            best_failed = failed
    raise McExhausted(guarantee.max_tries, best[0], best[1])
