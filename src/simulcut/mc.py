"""Monte-Carlo partitioning with retry loops backed by second-moment bounds.

Each try labels every vertex independently and uniformly at random, then
checks it with `evaluate` against the rows of a resolved guarantee; a try
is rejected if any constraint fails.  Per-try failure probability is at
most 1/2 for thm1/thm2 (and the derived hyp bound) and at most 3/4 for
thm3, so the default 64 tries make exhaustion astronomically unlikely;
it is a result all the same: the best attempt, whose report fails.

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
    (seed, t).  After ``guarantee.max_tries`` rejected tries, returns the
    first attempt with the fewest failed rows, with ``tries_used`` equal to
    max_tries; its report fails.
    """
    # as in the descent: numpy would refuse a try's k + 1 class-size bins with
    # a ValueError that names neither k nor memory
    require_addressable(guarantee.k)
    best, best_failed = None, None
    for t in range(guarantee.max_tries):
        a = random_assignment(family.n, guarantee.k, substream(seed, t))
        report = evaluate(family, a, guarantee)
        if report.all_pass:
            return McResult(assignment=a, report=report, tries_used=t + 1)
        failed = sum(1 for c in report.constraints if not c.passed)
        if best_failed is None or failed < best_failed:
            best, best_failed = McResult(a, report, guarantee.max_tries), failed
    return best
