"""Monte-Carlo partitioner: determinism, guarantees, retry semantics."""

import math
import os
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simulcut import (
    Assignment,
    Bound,
    DegreePreconditionError,
    GraphFamily,
    Guarantee,
    evaluate,
    mc_partition,
    partition_counts,
    random_assignment,
    resolve,
    substream,
)
import simulcut.mc
from simulcut.cli import main
from simulcut.instances import generate, serialize_instance
from simulcut.model import stat_mean
from simulcut.report import parse_report

from helpers import c5_pair, cycle_edges, paper_threshold, random_family, random_hyperfamily


class TestRandomAssignment:
    def test_empty(self):
        a = random_assignment(0, 3, substream(1, 0))
        assert a.labels == () and a.class_sizes() == (0, 0, 0)

    @pytest.mark.parametrize("n, k, message", [
        (-1, 2, "n must be >= 0, got -1"),
        (3, 1, "k must be >= 2, got 1"),
    ])
    def test_input_checks(self, n, k, message):
        with pytest.raises(ValueError) as exc:
            random_assignment(n, k, substream(1, 0))
        assert str(exc.value) == message

    def test_deterministic(self):
        a = random_assignment(50, 4, substream(123, 7))
        b = random_assignment(50, 4, substream(123, 7))
        assert a == b
        c = random_assignment(50, 4, substream(123, 8))
        assert a != c  # different substream, overwhelmingly

    def test_class_sizes_binomial(self):
        n, k = 10 ** 4, 4
        a = random_assignment(n, k, substream(5, 0))
        sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
        for size in a.class_sizes():
            assert abs(size - n / k) <= 5 * sigma


class TestConfig:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown kind"):
            resolve(random_family(6, [4], 0), "thm7")

    def test_max_tries_positive(self):
        fam = random_family(6, [4], 0)
        with pytest.raises(ValueError, match="max_tries"):
            resolve(fam, "thm1", max_tries=0)
        assert resolve(fam, "thm1", max_tries=1).max_tries == 1

    def test_slack_positive(self):
        with pytest.raises(ValueError):
            resolve(random_family(6, [4], 0), "thm1", balanced=True, slack=0.0)

    def test_slack_finite(self):
        # an infinite slack has no exact value to decide a balance row by
        with pytest.raises(ValueError, match="finite, got inf"):
            resolve(random_family(6, [4], 0), "thm1", balanced=True, slack=math.inf)

    def test_thm1_forces_k2(self):
        fam = random_family(6, [4], 0)
        with pytest.raises(ValueError, match="exactly 2"):
            resolve(fam, "thm1", k=3)

    def test_kind_instance_mismatch(self):
        hf = random_hyperfamily(8, 3, [6], 1)
        with pytest.raises(TypeError):
            resolve(hf, "thm1")
        fam = random_family(6, [4], 0)
        with pytest.raises(TypeError):
            resolve(fam, "hyp")


class TestMcPartition:
    def test_c5_pair_both_cuts_hold(self):
        fam = c5_pair()
        result = mc_partition(fam, resolve(fam, "thm1"), seed=11)
        thr = paper_threshold("thm1", 5, ell=2)
        assert thr == pytest.approx(2.5 - math.sqrt(5), abs=1e-12)
        for i, edges in enumerate(fam.arrays):
            cut = sum(1 for u, v in edges.tolist()
                      if result.assignment.labels[u] != result.assignment.labels[v])
            assert cut >= thr
            assert cut >= 1  # integer count above the fractional bound

    def test_empty_graph_first_try(self):
        fam = GraphFamily(n=4, graphs=((),))
        for kind in ("thm1", "thm2"):
            result = mc_partition(fam, resolve(fam, kind), seed=0)
            assert result.tries_used == 1
            assert result.report.all_pass

    def test_deterministic_output(self):
        fam = random_family(20, [40, 40], 3)
        guarantee = resolve(fam, "thm1")
        r1 = mc_partition(fam, guarantee, seed=42)
        r2 = mc_partition(fam, guarantee, seed=42)
        assert r1.assignment == r2.assignment
        assert r1.tries_used == r2.tries_used

    def test_success_satisfies_all_thresholds_exactly(self):
        rng = random.Random(9)
        for trial in range(20):
            n = rng.randint(4, 16)
            cap = n * (n - 1) // 2
            fam = random_family(n,
                                [rng.randint(1, min(30, cap)) for _ in range(rng.randint(1, 3))],
                                trial)
            result = mc_partition(fam, resolve(fam, "thm1"), seed=trial)
            for c in result.report.constraints:
                assert c.count >= c.threshold
            assert result.tries_used <= 64

    def test_single_try_failure_rate(self):
        # failure of try 0 across seeds; bound 1/2 plus sampling slack
        fam = generate("gnm", n=40, m=200, ell=1, seed=5)
        trials = 200
        fails = 0
        guarantee = resolve(fam, "thm1")
        for seed in range(trials):
            a = random_assignment(40, 2, substream(seed, 0))
            report = evaluate(fam, a, guarantee)
            fails += 0 if report.all_pass else 1
        assert fails / trials <= 0.5 + 3 * math.sqrt(0.25 / trials)

    def test_thm2_multiway(self):
        fam = random_family(15, [35, 20], 7)
        for k in (2, 3, 5):
            result = mc_partition(fam, resolve(fam, "thm2", k=k), seed=k)
            for i in range(2):
                thr = paper_threshold("thm2", fam.m[i], ell=2, k=k)
                assert result.report.member_counts[i] >= thr

    def test_thm3_degree_precondition_names_graph(self):
        star = generate("star", n=11)
        with pytest.raises(DegreePreconditionError, match="graph 0"):
            mc_partition(star, resolve(star, "thm3", k=2))

    def test_thm3_on_long_cycle(self):
        fam = generate("bounded-degree", n=300, degree=2, ell=1, seed=2)
        result = mc_partition(fam, resolve(fam, "thm3", k=2), seed=1)
        assert result.report.all_pass

    def test_hyp_rainbow(self):
        hf = random_hyperfamily(15, 3, [25], 13)
        result = mc_partition(hf, resolve(hf, "hyp"), seed=0)
        thr = paper_threshold("hyp", 25, ell=1, k=3, delta2=hf.delta2[0])
        assert result.report.member_counts[0] >= thr

    def test_exhaustion_carries_best_attempt(self):
        # impossible balance demand: odd class sizes can never hit n/k exactly;
        # the failing attempt comes back as the result, not as an exception
        fam = random_family(5, [4], 1)
        guarantee = resolve(fam, "thm1", balanced=True, slack=1e-9, max_tries=5)
        result = mc_partition(fam, guarantee, seed=0)
        assert result.tries_used == guarantee.max_tries == 5
        assert sum(result.assignment.class_sizes()) == result.assignment.n == 5
        assert not result.report.all_pass
        assert result.report == evaluate(fam, result.assignment, guarantee)
        failed = [c for c in result.report.constraints if not c.passed]
        assert failed and all(c.stat.startswith("balance") for c in failed)

    def test_a_guarantee_allows_at_least_one_try(self):
        # mc_partition returns one of its tries, so a hand-built guarantee
        # with none is refused as resolve refuses the setting
        for build in (lambda: Guarantee(k=2, rows=(), norm2=1, max_tries=0),
                      lambda: resolve(random_family(3, [1], 1), "thm1", max_tries=0)):
            with pytest.raises(ValueError, match=r"^max_tries must be >= 1, got 0$"):
                build()

    def test_class_count_past_the_address_space_is_out_of_memory(self, tmp_path, capsys,
                                                                 monkeypatch):
        # k classes of 8 bytes overflow the address space: mc refuses before
        # its first try sizes k + 1 class-size bins, with the out-of-memory
        # line of the descent
        def drawn(*args):
            raise AssertionError("a try was drawn under a too-large k")

        monkeypatch.setattr(simulcut.mc, "random_assignment", drawn)
        path = tmp_path / "c5.instance"
        path.write_text(serialize_instance(c5_pair()))
        tracemalloc.start()
        try:
            assert main(["partition", str(path), "--theorem", "2", "--k", str(2**62),
                         "--method", "mc", "--out", os.devnull]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        err = capsys.readouterr().err
        assert err == "error: out of memory: the instance is too large for the memory available\n"

    def test_balanced_succeeds_with_default_slack(self):
        fam = random_family(40, [60], 4)
        result = mc_partition(fam, resolve(fam, "thm1", balanced=True), seed=6)
        stats = [c.stat for c in result.report.constraints]
        assert "balance(0)" in stats and "balance(1)" in stats
        assert result.report.all_pass


class TestCheckReport:
    def test_agrees_with_mc_result(self):
        fam = random_family(12, [20, 25], 21)
        guarantee = resolve(fam, "thm1")
        result = mc_partition(fam, guarantee, seed=3)
        fresh = evaluate(fam, result.assignment, guarantee)
        assert fresh == result.report

    def test_k5_pair_counts_match_crossing_oracle(self):
        fam = c5_pair()
        a = Assignment((0, 0, 1, 1, 1), 2)
        report = evaluate(fam, a, resolve(fam, "thm1"))
        for i, edges in enumerate(fam.arrays):
            assert report.member_counts[i] == sum(1 for u, v in edges.tolist()
                                                 if a.labels[u] != a.labels[v])

    def test_balance_violation_flagged(self):
        fam = random_family(10, [5], 2)
        a = Assignment((0,) * 9 + (1,), 2)
        report = evaluate(fam, a, resolve(fam, "thm1", balanced=True, slack=2.0))
        balance = [c for c in report.constraints if c.stat.startswith("balance")]
        assert len(balance) == 2
        assert not any(c.passed for c in balance)  # 9 and 1 are both 4 off from 5

    def test_balance_decided_exactly_at_the_slack(self, tmp_path):
        # the float 1/3 is a hair below 1/3 = n/k: the empty classes are
        # beyond the slack, though the float margin slack - |0 - n/k| reads 0.0
        fam = GraphFamily(n=1, graphs=((),))
        guarantee = resolve(fam, "thm2", k=3, balanced=True, slack=1 / 3)
        report = evaluate(fam, Assignment((0,), 3), guarantee)
        assert [(c.stat, c.count, c.margin, c.passed) for c in report.constraints[1:]] == [
            ("balance(0)", 1, 1 / 3 - (1 - 1 / 3), False),
            ("balance(1)", 0, 0.0, False), ("balance(2)", 0, 0.0, False)]
        # a run's report, whichever class its one vertex took, and verify decide alike
        inst, rep = tmp_path / "one.instance", tmp_path / "one.report"
        inst.write_text(serialize_instance(fam))
        assert main(["partition", str(inst), "--method", "mc", "--theorem", "2", "--k", "3",
                     "--balanced", "--slack", repr(1 / 3), "--max-tries", "1",
                     "--out", str(rep)]) == 1
        rr = parse_report(rep.read_text())
        assert [c.passed for c in rr.cut_report.constraints if c.graph < 0] == [False] * 3
        assert main(["verify", str(rep), "--instance", str(inst)]) == 0
        # and verify flags an empty class's row that says it passed
        text = rep.read_text()
        empty = next(c for c, size in enumerate(rr.cut_report.class_sizes) if size == 0)
        row = next(ln for ln in text.splitlines() if f"stat=balance({empty})" in ln)
        rep.write_text(text.replace(row, row.replace("pass=no", "pass=yes")))
        assert main(["verify", str(rep), "--instance", str(inst)]) == 2

    def test_assignment_length_must_be_n(self):
        # a longer assignment would count phantom vertices in the class sizes
        fam = random_family(4, [3], 2)
        guarantee = resolve(fam, "thm1", balanced=True, slack=1.0)
        for labels in ((0, 1) * 3, (0, 1, 0)):
            with pytest.raises(ValueError,
                               match=f"assignment has {len(labels)} labels, family has n=4"):
                evaluate(fam, Assignment(labels, 2), guarantee)

    @pytest.mark.parametrize("k, theorem, want", [(3, "1", None), (2, "2", 3)])
    def test_assignment_k_must_be_the_guarantee_k(self, k, theorem, want):
        fam = random_family(4, [3], 2)
        guarantee = resolve(fam, f"thm{theorem}", k=want)
        with pytest.raises(ValueError) as exc:
            evaluate(fam, Assignment((0, 1, 1, 0), k), guarantee)
        assert str(exc.value) == f"assignment has k={k}, guarantee resolves to k={guarantee.k}"

    def test_count_at_an_exact_integer_threshold_passes(self):
        # ell=3, k=3 and the default eps = 1/6561: a within row's threshold
        # is m/9 - m/9 = 0 exactly, yet its float at m = 6564 is 1.1e-13; a
        # class with no inner edge meets it
        m = 6564
        matching = tuple((2 * i, 2 * i + 1) for i in range(m))
        fam = GraphFamily(n=2 * m, graphs=(matching,) * 3)
        a = Assignment(tuple(v % 2 for v in range(2 * m)), 3)
        report = evaluate(fam, a, resolve(fam, "thm3", k=3))
        within = [c for c in report.constraints if c.stat.startswith("within")]
        assert len(within) == 9
        assert all(c.count == 0 and 0 < c.threshold < 1e-12 and c.passed for c in within)
        pairs = {c.stat: c.passed for c in report.constraints if c.graph == 0}
        assert pairs == {"pair(0,1)": True, "pair(0,2)": False, "pair(1,2)": False,
                         "within(0)": True, "within(1)": True, "within(2)": True}

    def test_bound_admits_exactly(self):
        # thresholds 5/2 - sqrt(9/4) = 1, 1 - (1/16)^(1/4) = 1/2 and, with
        # a spread that is not a square, 2 - 2^(1/4) = 0.81...; spread 0 is
        # an empty member's row, which passes from the mean on
        assert [Bound(Fraction(5, 2), Fraction(81, 16)).admits(c) for c in range(4)] == [
            False, True, True, True]
        assert [Bound(Fraction(1), Fraction(1, 16)).admits(c) for c in range(3)] == [
            False, True, True]
        assert [Bound(Fraction(2), Fraction(2)).admits(c) for c in range(3)] == [
            False, True, True]
        assert [Bound(Fraction(0), Fraction(0)).admits(c) for c in range(2)] == [True, True]

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=0, max_value=200, max_denominator=27),
           st.fractions(min_value=0, max_value=50, max_denominator=30), st.integers(0, 40))
    def test_bound_is_its_penalty_term_at_most_one(self, mean, norm2, part):
        # a row's spread is the squared normalizer norm2 * part^2, norm2 a
        # square or not: a count passes iff (mean - count)^2 / normalizer <= 1
        bound = Bound(mean, norm2 * part ** 2)
        counts = range(math.ceil(mean) + 2)
        assert [bound.admits(c) for c in counts] == [
            c >= mean or (mean - c) ** 4 <= norm2 * part ** 2 for c in counts]
        # a square spread q^2 is the second-power test (mean - count)^2 <= q
        q = norm2 * part
        assert [Bound(mean, q * q).admits(c) for c in counts] == [
            c >= mean or (mean - c) ** 2 <= q for c in counts]

    def test_resolved_rows_admit_exactly_the_terms_at_most_one(self):
        # every theorem, beside an empty member: a row passes exactly the
        # counts whose term (mu - c)^2 / (sqrt(norm2) * part) is at most 1;
        # thm3 with ell=2, k=2 needs m >= 2 * 576 for the default eps
        cases = [(random_family(12, [20, 0], 1), "thm1", None),
                 (random_family(12, [0, 25], 2), "thm2", 3),
                 (GraphFamily(n=1201, graphs=(cycle_edges(1201), ())), "thm3", 2),
                 (random_hyperfamily(10, 3, [30, 0], 3), "hyp", None)]
        for family, theorem, k in cases:
            g = resolve(family, theorem, k=k)
            empty = family.m.index(0)
            assert {s.part for s, _, _ in g.rows if s.graph == empty} == {0}
            assert g.specs == tuple(s for s, _, _ in g.rows if s.graph != empty)
            for spec, _, bound in g.rows:
                m = family.m[spec.graph]
                mu = stat_mean(spec.kind, m, g.k)
                assert [bound.admits(c) for c in range(m + 1)] == [
                    c >= mu or (mu - c) ** 4 <= g.norm2 * spec.part ** 2 for c in range(m + 1)]

    def test_counts_sum_invariant(self):
        rng = random.Random(33)
        for trial in range(10):
            n = rng.randint(3, 10)
            fam = random_family(n, [rng.randint(0, min(20, n * (n - 1) // 2))], trial)
            k = rng.randint(2, 4)
            a = Assignment(tuple(rng.randrange(k) for _ in range(fam.n)), k)
            pairs, within, crossing = partition_counts(fam.arrays[0], a)
            assert sum(pairs.values()) + sum(within) == fam.m[0]
            assert crossing == fam.m[0] - sum(within)
            assert evaluate(fam, a, resolve(fam, "thm2", k=k)).member_counts == (crossing,)
