"""Acceptance suite: every guarantee the package ships, at its stated tolerance.

Each test prints one ACCEPTANCE <n> PASS line (visible with -s); a failed
assertion in any of them is a failed criterion.  Criteria 1-3 feed the
descent-health counters that criterion 6 reports on.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from simulcut import (
    GraphFamily,
    UNDECIDED,
    conditional_moments,
    derandomize,
    edwards_bound,
    enumerate_best,
    epsilon_cap,
    estimator_value,
    evaluate,
    max_cut,
    mc_partition,
    moments_by_completion,
    partition_counts,
    random_assignment,
    resolve,
    substream,
)
from simulcut.estimator import EventSpec
from simulcut.instances import generate

from helpers import (
    hand_built,
    key_unit,
    paper_threshold,
    random_edges,
    random_family,
    random_hyperfamily,
    triangle,
)

# descent-health bookkeeping shared by criteria 1-3 and reported by criterion 6
_DESCENT = {"runs": 0, "steps": 0}
_SLACK = 1e-9


def _check_descent(result, guarantee):
    """Each step's keys are exact, relative to the lowest minimal class, so
    the estimator never rises; summed over the steps, their mean over the
    classes is the estimator's drop from its initial to its final value (the
    averaging identity, telescoped), once scaled back by the keys' unit."""
    for step in result.trace:
        assert min(step.keys) == 0 and step.keys.index(0) == step.chosen, (
            f"vertex {step.vertex}: class {step.chosen} is not the lowest minimal key {step.keys}")
    specs, k = guarantee.specs, guarantee.k
    if specs:
        scale, shared = key_unit(guarantee)
        drop = float(Fraction(sum(sum(step.keys) for step in result.trace), k)) / (scale * shared)
        assert abs(drop - (result.initial_value - result.final_value)) <= _SLACK, (
            f"averaging identity broken: keys drop {drop}, estimator "
            f"{result.initial_value} -> {result.final_value}")
    _DESCENT["runs"] += 1
    _DESCENT["steps"] += len(result.trace)


@pytest.fixture(scope="module")
def corpus500():
    """500 graph families: ell in {1,2,3}, n <= 60, m_i <= 400."""
    rng = random.Random(20260810)
    families = []
    for i in range(500):
        ell = 1 + i % 3
        if i < 3:
            # pin the extreme corner: full ell at the size caps
            n, ms = 60, [400] * ell
        else:
            n = rng.randint(6, 60)
            cap = min(400, n * (n - 1) // 2)
            ms = [rng.randint(1, cap) for _ in range(ell)]
        families.append(random_family(n, ms, seed=i))
    return families


def test_criterion_01_thm1_guarantee(corpus500):
    start = time.perf_counter()
    checked = 0
    for fam in corpus500:
        guarantee = resolve(fam, "thm1")
        result = derandomize(fam, guarantee)
        _check_descent(result, guarantee)
        for i in range(fam.ell):
            thr = paper_threshold("thm1", fam.m[i], ell=fam.ell)
            cut = result.report.member_counts[i]
            assert cut >= thr, (fam.m, i, cut, thr)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: thm1 on {len(corpus500)} families, "
          f"{checked} cuts above threshold, 0 failures, {elapsed:.1f}s")


def test_criterion_02_thm2_guarantee(corpus500):
    start = time.perf_counter()
    checked = 0
    per_k = {2: 0, 3: 0, 4: 0, 5: 0}
    for i, fam in enumerate(corpus500):
        k = 2 + i % 4
        per_k[k] += 1
        guarantee = resolve(fam, "thm2", k=k)
        result = derandomize(fam, guarantee)
        _check_descent(result, guarantee)
        for g in range(fam.ell):
            thr = paper_threshold("thm2", fam.m[g], ell=fam.ell, k=k)
            assert result.report.member_counts[g] >= thr
            checked += 1
    elapsed = time.perf_counter() - start
    assert all(v >= 100 for v in per_k.values())
    print(f"\nACCEPTANCE 2 PASS: thm2 on {len(corpus500)} families "
          f"(k counts {per_k}), {checked} crossings above threshold, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_03_thm3_guarantee():
    # bounded-degree instances at eps = 1/(9 ell^2 k^4), max degree <= eps*m
    combos = [
        # (k, ell, degree, n, seeds);  m_i = n*degree/2 per graph
        (2, 1, 2, 288, (0, 1, 2)),    # exact boundary: degree == eps*m
        (2, 1, 2, 320, (3, 4)),
        (2, 1, 4, 600, (5, 6)),
        (2, 2, 2, 1160, (7, 8)),
        (3, 1, 2, 1460, (9, 10)),
    ]
    start = time.perf_counter()
    instances = 0
    rows = 0
    for k, ell, degree, n, seeds in combos:
        eps = epsilon_cap(ell, k)
        for seed in seeds:
            fam = generate("bounded-degree", n=n, degree=degree, ell=ell, seed=seed)
            assert all(fam.max_degree[i] <= eps * fam.m[i] for i in range(ell))
            guarantee = resolve(fam, "thm3", k=k, eps=eps)
            result = derandomize(fam, guarantee)
            _check_descent(result, guarantee)
            for i in range(ell):
                thr_pair = paper_threshold("thm3", fam.m[i], ell=ell, k=k, stat="pair", eps=eps)
                thr_within = paper_threshold("thm3", fam.m[i], ell=ell, k=k, stat="within",
                                             eps=eps)
                # the run's pair and within counts are its rows' counts
                for c in result.report.constraints:
                    if c.graph == i:
                        thr = thr_pair if c.stat.startswith("pair(") else thr_within
                        assert c.count >= thr, ((k, ell, n, seed), c.stat, c.count, thr)
                        rows += 1
            instances += 1
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 3 PASS: thm3 on {instances} bounded-degree instances, "
          f"{rows} pair/within counts above threshold, 0 failures, {elapsed:.1f}s")


def test_criterion_04_moment_anchor():
    rng = random.Random(44)
    for trial in range(50):
        n = rng.randint(2, 40)
        m = rng.randint(0, min(200, n * (n - 1) // 2))
        edges = random_edges(n, m, rng)
        spec = EventSpec(graph=0, kind="crossing", k=2)
        s1, ex2 = conditional_moments(edges, (UNDECIDED,) * n, spec)
        assert s1 == Fraction(m, 2)
        assert ex2 == Fraction(m * (m + 1), 4)
    # two graphs, one penalty term each with normalizer m_i: starts at 1/2
    for trial in range(10):
        n = rng.randint(4, 30)
        cap = n * (n - 1) // 2
        fam = random_family(n, [rng.randint(1, min(150, cap)) for _ in range(2)],
                            seed=5000 + trial)
        specs = tuple(EventSpec(graph=i, kind="crossing", k=2, part=fam.m[i]) for i in range(2))
        value = estimator_value(fam, (UNDECIDED,) * n, hand_built(fam, 2, specs, norm2=1))
        assert abs(value - 0.5) <= 1e-12
    print("\nACCEPTANCE 4 PASS: E[X^2] = m(m+1)/4 exactly on 50 graphs; "
          "two-graph estimator starts at 0.5 within 1e-12")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(55)
    # undecided budget per class count keeps k**u enumerations tractable
    u_max = {2: 10, 3: 6, 5: 4}
    cases = 0
    while cases < 1000:
        pick = rng.random()
        if pick < 0.75:  # graph statistics
            n = rng.randint(2, 16)
            m = rng.randint(0, min(24, n * (n - 1) // 2))
            edges = random_edges(n, m, rng)
            k = rng.choice([2, 2, 2, 3, 3, 5])
            kind = rng.choice(["crossing", "pair", "within"])
            if kind == "pair":
                s = rng.randrange(k - 1)
                spec = EventSpec(graph=0, kind="pair", k=k, s=s,
                                 t=rng.randint(s + 1, k - 1))
            elif kind == "within":
                spec = EventSpec(graph=0, kind="within", k=k, s=rng.randrange(k))
            else:
                spec = EventSpec(graph=0, kind="crossing", k=k)
        else:  # rainbow statistics
            n = rng.randint(3, 12)
            k = rng.choice([2, 3])
            m = rng.randint(0, min(16, math.comb(n, k)))
            hf = random_hyperfamily(n, k, [m], rng.randrange(10 ** 6))
            edges = hf.arrays[0]
            spec = EventSpec(graph=0, kind="rainbow", k=k)
        u = rng.randint(0, min(n, u_max[k] if k in u_max else 4))
        open_set = set(rng.sample(range(n), u))
        labels = tuple(UNDECIDED if v in open_set else rng.randrange(k)
                       for v in range(n))
        assert (conditional_moments(edges, labels, spec)
                == moments_by_completion(edges, labels, spec))
        cases += 1
    # a few maximal-undecided cases at the guard boundary
    for trial in range(5):
        n = 12
        edges = random_edges(n, 18, rng)
        spec = EventSpec(graph=0, kind="crossing", k=2)
        labels = (UNDECIDED,) * 12
        assert (conditional_moments(edges, labels, spec)
                == moments_by_completion(edges, labels, spec))
        cases += 1
    print(f"\nACCEPTANCE 5 PASS: exact rational equality with the completion "
          f"oracle on {cases} cases")


def test_criterion_06_descent_invariants():
    # the checks run inside criteria 1-3; this asserts they actually covered them
    if _DESCENT["runs"] == 0:
        pytest.skip("criteria 1-3 did not run in this session; nothing to attest")
    assert _DESCENT["runs"] >= 500 + 500 + 11, _DESCENT
    assert _DESCENT["steps"] > 0
    print(f"\nACCEPTANCE 6 PASS: exact lowest-class argmin at every one of "
          f"{_DESCENT['steps']} steps and the telescoped averaging identity across "
          f"{_DESCENT['runs']} descents (slack {_SLACK})")


def test_criterion_07_k5_counterexample():
    fam = generate("disjoint-cycles", n=5)
    assert fam.m == (5, 5)
    guarantee = resolve(fam, "thm1")
    # warm caches, then time the two core calls
    enumerate_best(fam, 2, "feasible", thresholds=[3, 3])
    derandomize(fam, guarantee)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        witness, feasible = enumerate_best(fam, 2, "feasible", thresholds=[3, 3])
        result = derandomize(fam, guarantee)
        best = min(best, time.perf_counter() - t0)
    assert not feasible and witness is None
    cuts = [partition_counts(g, result.assignment)[2] for g in fam.arrays]
    assert all(c >= 1 for c in cuts)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"\nACCEPTANCE 7 PASS: no bipartition reaches cuts (3,3); descent "
          f"achieves {tuple(cuts)} >= (1,1); {best * 1e3:.3f} ms")


def test_criterion_08_edwards_cross_check():
    rng = random.Random(88)
    tight = 0
    for trial in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        fam = GraphFamily(n=n, graphs=(random_edges(n, m, rng),))
        cut = max_cut(fam)
        assert cut >= edwards_bound(m), (n, m, cut)
    tri_cut = max_cut(triangle())
    assert tri_cut == 2
    assert edwards_bound(3) == 2.0
    print("\nACCEPTANCE 8 PASS: 200 random graphs meet the max-cut lower "
          "bound; equality on the triangle (2 == 2.0)")


def test_criterion_09_mc_failure_rate():
    fam = generate("gnm", n=40, m=200, ell=2, seed=99)
    trials = 400
    guarantee = resolve(fam, "thm1")
    fails = 0
    for seed in range(trials):
        a = random_assignment(fam.n, 2, substream(seed, 0))
        if not evaluate(fam, a, guarantee).all_pass:
            fails += 1
    bound = 0.5 + 3 * math.sqrt(0.25 / trials)
    assert fails / trials <= bound
    print(f"\nACCEPTANCE 9 PASS: single-try failure rate {fails}/{trials} = "
          f"{fails / trials:.3f} <= {bound:.3f}")


def test_criterion_10_hypergraph_rainbow():
    rng = random.Random(1010)
    runs = 0
    for r in (2, 3):
        for trial in range(12):
            n = rng.randint(18, 48)
            ell = rng.randint(1, 2)
            cap = min(120 if r == 2 else 100, math.comb(n, r))
            ms = [rng.randint(20, cap) for _ in range(ell)]
            hf = random_hyperfamily(n, r, ms, seed=100 * r + trial)
            thresholds = [paper_threshold("hyp", hf.m[i], ell=ell, k=r, delta2=hf.delta2[i])
                          for i in range(ell)]
            guarantee = resolve(hf, "hyp")
            result = derandomize(hf, guarantee)
            _check_descent(result, guarantee)
            for i in range(ell):
                assert result.report.member_counts[i] >= thresholds[i], (r, trial, i)
            mc = mc_partition(hf, guarantee, seed=trial)
            for i in range(ell):
                assert mc.report.member_counts[i] >= thresholds[i]
            runs += 1
    print(f"\nACCEPTANCE 10 PASS: rainbow counts beat the derived threshold on "
          f"{runs} instances (derand and mc), 0 failures")
