"""Exhaustive landscape laboratory: census, histograms, flatness, sweeps."""

import functools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsils import (
    SmoothedObjective,
    ToyKind,
    UbqpInstance,
    analyze,
    auto_alpha,
    collision_probability,
    construct_toy,
    enumerate_local_optima,
    evaluate,
    gen_random_instance,
    lambda_sweep,
    random_solution,
    seeded_rng,
    solution_from_index,
    value_histogram,
)
from lsils import landscape
from lsils.landscape import (
    ENUMERATION_GUARD,
    all_values_blocked,
    describe_objective,
    enumerate_values,
    gray_flip_sequence,
    histogram_csv,
    report_text,
    sweep_csv,
)

import oracles
from test_qubo import make_instance


class TestIndexing:
    def test_little_endian_decode(self):
        assert solution_from_index(0, 4).tolist() == [0, 0, 0, 0]
        assert solution_from_index(1, 4).tolist() == [1, 0, 0, 0]
        assert solution_from_index(6, 4).tolist() == [0, 1, 1, 0]
        assert solution_from_index(15, 4).tolist() == [1, 1, 1, 1]


class TestGrayWalk:
    def test_walk_visits_every_solution_once(self):
        n = 10
        flips = gray_flip_sequence(n)
        assert flips.size == 2**n - 1
        index = 0
        seen = {0}
        for k in flips:
            index ^= 1 << int(k)
            seen.add(index)
        assert len(seen) == 2**n

    def test_values_match_direct_evaluate_at_random_points(self):
        n = 12
        inst = make_instance(n, seed=5)
        values = enumerate_values(inst)[0]
        rng = seeded_rng(99)
        for s in rng.integers(0, 2**n, size=1000):
            x = solution_from_index(int(s), n)
            assert values[int(s)] == evaluate(inst, x)

    def test_toy_values_match_direct_evaluate(self):
        n = 12
        anchor = random_solution(n, seeded_rng(4))
        toy = construct_toy(ToyKind.PLUS_MINUS_I, anchor)
        values = enumerate_values(toy)[0]
        rng = seeded_rng(100)
        for s in rng.integers(0, 2**n, size=300):
            x = solution_from_index(int(s), n)
            assert values[int(s)] == evaluate(toy, x)

    def test_smoothed_values_are_the_integer_blend(self):
        n = 10
        inst = make_instance(n, seed=6)
        anchor = random_solution(n, seeded_rng(7))
        toy = construct_toy(ToyKind.RANDOM, anchor, seed=3)
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.3,
                                alpha=auto_alpha(inst, toy))
        a, b = obj.integer_weights(n * n)
        assert a > 1 and b > 1
        (values,) = enumerate_values(obj)
        rng = seeded_rng(101)
        for s in rng.integers(0, 2**n, size=300):
            x = solution_from_index(int(s), n)
            assert values[int(s)] == a * evaluate(inst, x) + b * evaluate(toy, x)

    def test_blocked_values_equal_gray_values(self):
        n = 11
        inst = make_instance(n, seed=8)
        assert np.array_equal(all_values_blocked(inst.q),
                              enumerate_values(inst)[0])
        anchor = random_solution(n, seeded_rng(9))
        toy = construct_toy(ToyKind.RANDOM, anchor, seed=1)
        assert np.array_equal(all_values_blocked(toy.materialize()),
                              enumerate_values(toy)[0])


class TestLocalOptimaCensus:
    @given(st.integers(2, 8), st.integers(0, 500))
    def test_matches_brute_force(self, n, seed):
        inst = make_instance(n, seed=seed)
        count, solutions = enumerate_local_optima(inst)
        brute = oracles.brute_local_optima(lambda x: evaluate(inst, x), n)
        assert count == len(brute)
        got = {tuple(s.tolist()) for s in solutions}
        assert got == {tuple(b.tolist()) for b in brute}

    def test_zero_matrix_makes_everything_optimal(self):
        inst = UbqpInstance.from_matrix(np.zeros((6, 6), dtype=np.int64))
        count, _ = enumerate_local_optima(inst, cap=100)
        assert count == 2**6

    def test_two_variable_identity(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 0], [0, 1]]))
        count, solutions = enumerate_local_optima(inst)
        assert count == 1
        assert solutions[0].tolist() == [1, 1]

    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_every_toy_is_unimodal_at_its_anchor(self, kind):
        anchor = random_solution(10, seeded_rng(11))
        toy = construct_toy(kind, anchor, seed=5)
        count, solutions = enumerate_local_optima(toy)
        assert count == 1
        assert np.array_equal(solutions[0], anchor)

    def test_full_weight_smoothing_is_unimodal(self):
        n = 10
        inst = make_instance(n, seed=12)
        anchor = random_solution(n, seeded_rng(13))
        toy = construct_toy(ToyKind.PLUS_MINUS_I, anchor)
        obj = SmoothedObjective(instance=inst, toy=toy, lam=1.0, alpha=2.8)
        count, solutions = enumerate_local_optima(obj)
        assert count == 1
        assert np.array_equal(solutions[0], anchor)

    def test_smoothed_census_blends_in_place(self):
        # The walk of the blended form holds one int64 value array, 8 bytes
        # per state; blending the values of two walks held four at the peak.
        n = 16
        inst = gen_random_instance(n, 1.0, (-100, 100), 7)
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_solution(n, seeded_rng(8)))
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=auto_alpha(inst, toy))
        tracemalloc.start()
        try:
            enumerate_local_optima(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 << n, f"peak {peak / 2**n:.1f} bytes per state"

    def test_cap_drops_the_solution_list(self):
        inst = UbqpInstance.from_matrix(np.zeros((8, 8), dtype=np.int64))
        count, solutions = enumerate_local_optima(inst, cap=10)
        assert count == 2**8
        assert solutions == []

    def test_guard_rejects_large_n(self):
        inst = UbqpInstance.from_matrix(
            np.zeros((ENUMERATION_GUARD + 1, ENUMERATION_GUARD + 1),
                     dtype=np.int64))
        with pytest.raises(ValueError, match=str(ENUMERATION_GUARD)):
            enumerate_local_optima(inst)
        with pytest.raises(ValueError, match=str(ENUMERATION_GUARD)):
            value_histogram(inst)
        with pytest.raises(ValueError, match=str(ENUMERATION_GUARD)):
            all_values_blocked(inst.q)


class TestHistogramAndFlatness:
    @given(st.integers(2, 8), st.integers(0, 500))
    def test_counts_total_the_whole_cube(self, n, seed):
        inst = make_instance(n, seed=seed)
        hist = value_histogram(inst)
        assert sum(hist.values()) == 2**n

    def test_matches_brute_force_instance(self):
        inst = make_instance(10, seed=14)
        hist = value_histogram(inst)
        assert hist == oracles.brute_histogram(lambda x: evaluate(inst, x), 10)

    def test_matches_brute_force_toy(self):
        anchor = random_solution(10, seeded_rng(15))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
        hist = value_histogram(toy)
        assert hist == oracles.brute_histogram(lambda x: evaluate(toy, x), 10)

    def test_matches_brute_force_smoothed(self):
        n = 8
        inst = make_instance(n, seed=16)
        anchor = random_solution(n, seeded_rng(17))
        toy = construct_toy(ToyKind.PLUS_MINUS_I, anchor)
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.4, alpha=2.8)
        hist = value_histogram(obj)
        brute = oracles.brute_histogram(
            lambda x: float(np.round(oracles.smoothed_evaluate(obj, x), 9)), n)
        assert hist == brute

    def test_zero_matrix_single_bin(self):
        inst = UbqpInstance.from_matrix(np.zeros((7, 7), dtype=np.int64))
        assert value_histogram(inst) == {0: 2**7}

    def test_collision_of_single_bin_is_one(self):
        assert collision_probability({0: 1024}) == 1.0

    @given(st.integers(2, 8), st.integers(0, 500))
    def test_collision_matches_brute_and_bounds(self, n, seed):
        inst = make_instance(n, seed=seed)
        hist = value_histogram(inst)
        p = collision_probability(hist)
        assert p == pytest.approx(oracles.brute_collision(hist))
        assert 2.0**-n <= p <= 1.0

    def test_collision_is_the_exact_ratio_rounded(self):
        # Counts 1, 1, 4 of 6: summed as floats, (1/6)^2 + (1/6)^2 + (4/6)^2
        # is the double below 1/2; the exact ratio 18/36 is 1/2. And on a
        # full cube, whose squares the enumeration guard keeps exact.
        hist = {-1: 1, 0: 1, 5: 4}
        p = np.array(list(hist.values())) / 6
        assert float(p @ p) != 0.5
        assert collision_probability(hist) == float(Fraction(18, 36)) == 0.5
        hist = value_histogram(make_instance(12, seed=3))
        assert collision_probability(hist) == float(
            Fraction(sum(c * c for c in hist.values()), 4**12))

    @pytest.mark.parametrize("counts", [
        [3, 5, 2**20, 7],      # the int64 dot
        [2**31 - 2, 1],        # the int64 dot at its largest total, 2^31 - 1
        [2**31 - 1, 1],        # a total of 2^31: Python ints from here on
        [2**40 + 7, 3, 2**33],
        [2**70, 5],            # a count past int64
    ])
    def test_collision_is_the_exact_ratio_on_both_paths(self, counts):
        hist = dict(enumerate(counts))
        total = sum(counts)
        exact = Fraction(sum(c * c for c in counts), total * total)
        assert collision_probability(hist) == float(exact)

    def test_collision_of_numpy_counts_past_int64_in_total(self):
        assert collision_probability({0: np.int64(2**62), 1: np.int64(2**62)}) == 0.5

    def test_collision_invariant_under_monotone_relabeling(self):
        inst = make_instance(9, seed=18)
        scaled = UbqpInstance.from_matrix(inst.q * 3)
        assert collision_probability(value_histogram(inst)) == pytest.approx(
            collision_probability(value_histogram(scaled)))

    def test_unit_toy_bins_bounded_by_closed_form(self):
        # Values of the unit-magnitude toy depend only on t = |x| and
        # b = |x AND anchor|, taking the form 2b^2 - t^2.
        n = 12
        for seed in range(5):
            anchor = random_solution(n, seeded_rng(30 + seed))
            k = int(anchor.sum())
            toy = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
            reachable = {2 * b * b - t * t
                         for b in range(k + 1)
                         for t in range(b, b + (n - k) + 1)}
            hist = value_histogram(toy)
            assert set(hist) <= reachable
            assert len(hist) <= len(reachable)

    def test_unit_toy_is_coarser_than_random_toy(self):
        anchor = random_solution(18, seeded_rng(19))
        unit = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
        rand = construct_toy(ToyKind.RANDOM, anchor, seed=2)
        assert len(value_histogram(unit)) < len(value_histogram(rand))

    def test_flatness_ordering_across_kinds(self):
        # Random magnitudes spread values thinnest, unit magnitudes the
        # flattest; expect the ordering on nearly every random anchor.
        hits = 0
        for seed in range(20):
            anchor = random_solution(18, seeded_rng(100 + seed))
            cols = {}
            for kind in list(ToyKind):
                toy = construct_toy(kind, anchor, seed=seed)
                cols[kind] = collision_probability(value_histogram(toy))
            if (cols[ToyKind.RANDOM] < cols[ToyKind.PLUS_MINUS_I]
                    < cols[ToyKind.PLUS_MINUS_ONE]):
                hits += 1
        assert hits >= 18


@functools.cache
def cube_forms(n: int) -> dict:
    """An instance and one toy of each kind at n, with every value of each.

    Values come from oracles.brute_value up to n = 13, and from the
    whole-array oracles.all_values above (a python loop takes seconds a form).
    """
    inst = make_instance(n, seed=40 + n)
    anchor = random_solution(n, seeded_rng(60 + n))
    forms = {"original": inst}
    for kind in ToyKind:
        forms[kind.value] = construct_toy(kind, anchor, seed=n)
    out = {}
    for label, form in forms.items():
        q = inst.q if label == "original" else form.materialize()
        if n <= 13:
            rows = q.tolist()
            values = np.array([oracles.brute_value(rows, oracles.bits_from_index(s, n).tolist())
                               for s in range(2 ** n)], dtype=np.int64)
        else:
            values = oracles.all_values(q)
        out[label] = (form, values)
    return out


class TestStreamedHistogram:
    # n = 1 has no low half; at n = 7 the high half has fewer bits than a
    # block has rows, at n = 13 and 16 more, so the values span several blocks.
    SIZES = (1, 2, 3, 7, 13, 16)

    @pytest.fixture(params=[None, 512], ids=["default-slots", "small-slots"])
    def slots(self, request, monkeypatch):
        # Small slots force the sorted path on integers and one merge per block.
        if request.param is not None:
            monkeypatch.setattr(landscape, "_COUNT_SLOTS", request.param)

    @pytest.mark.parametrize("n", SIZES)
    def test_plain_histograms_match_the_oracle(self, n, slots):
        for label, (form, values) in cube_forms(n).items():
            hist = value_histogram(form)
            assert hist == Counter(values.tolist()), label
            keys = list(hist)
            assert all(a < b for a, b in zip(keys, keys[1:])), label
            assert all(type(k) is int for k in keys), label

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_smoothed_histograms_match_the_oracle(self, n, lam, slots):
        forms = cube_forms(n)
        inst, f = forms["original"]
        for kind in ToyKind:
            toy, t = forms[kind.value]
            obj = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=2.3)
            wo, wt = 1.0 - lam, lam * 2.3
            expected = Counter(np.round(wo * f + wt * t, 9).tolist())
            hist = value_histogram(obj)
            assert hist == expected, kind
            keys = list(hist)
            assert all(a < b for a, b in zip(keys, keys[1:])), kind

    def test_blocked_values_equal_the_gray_walk_over_several_blocks(self):
        forms = cube_forms(16)
        inst, values = forms["original"]
        assert np.array_equal(all_values_blocked(inst.q), enumerate_values(inst)[0])
        assert np.array_equal(all_values_blocked(inst.q), values)
        toy, _ = forms["random"]
        assert np.array_equal(all_values_blocked(toy.materialize()),
                              enumerate_values(toy)[0])

    def test_negative_zero_key_reads_zero(self):
        # f(x) = |x|^2 and t(x) = -|x|^2, blended at weights (0.5, 0.5 + 1e-12):
        # every x but 0 blends to about -1e-12 |x|^2, which rounds to -0.0.
        n = 4
        inst = UbqpInstance.from_matrix(np.ones((n, n), dtype=np.int64))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, np.zeros(n, dtype=np.int8))
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=1 + 2e-12)
        assert oracles.smoothed_evaluate(obj, np.ones(n, dtype=np.int8)) < 0
        hist = value_histogram(obj)
        assert hist == {0.0: 2**n}
        assert math.copysign(1.0, next(iter(hist))) == 1.0
        assert histogram_csv(hist).splitlines()[1] == f"0,{2**n}"

    def test_memory_does_not_grow_with_the_cube(self):
        # n = 22: a value array is 32 MiB. Holding one per form, as whole-array
        # evaluation does, costs 3-4 of them.
        n = 22
        inst = gen_random_instance(n, 1.0, (-100, 100), 7)
        anchor = random_solution(n, seeded_rng(8))
        toys = [construct_toy(kind, anchor, seed=1) for kind in ToyKind]
        smoothed = SmoothedObjective(instance=inst, toy=toys[1], lam=0.5,
                                     alpha=auto_alpha(inst, toys[1]))
        array_bytes = 8 << n
        for objective, bound in [(inst, 0.25), *[(toy, 0.25) for toy in toys],
                                 (smoothed, 2.0)]:
            tracemalloc.start()
            try:
                hist = value_histogram(objective)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(hist.values()) == 2**n
            assert peak < bound * array_bytes, \
                f"{describe_objective(objective)}: peak {peak / array_bytes:.2f} arrays"


class TestLambdaSweep:
    def test_zero_lambda_matches_original_census(self):
        inst = make_instance(10, seed=20)
        anchor = random_solution(10, seeded_rng(21))
        curve = lambda_sweep(inst, ToyKind.PLUS_MINUS_I, anchor, 2.8,
                             (0.0, 1.0))
        original_count, _ = enumerate_local_optima(inst)
        assert curve[0] == (0.0, original_count)
        assert curve[1] == (1.0, 1)

    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_full_lambda_count_is_one_for_every_kind(self, kind):
        inst = make_instance(10, seed=22)
        anchor = random_solution(10, seeded_rng(23))
        curve = lambda_sweep(inst, kind, anchor, 1.0, (1.0,), toy_seed=4)
        assert curve == [(1.0, 1)]

    def test_counts_mostly_shrink_as_lambda_grows(self):
        # Unit-magnitude toy with the fixed blend scale 50; the count at
        # 0.5 occasionally rises, so require 8 of 10 monotone cases.
        monotone = 0
        for i in range(10):
            inst = gen_random_instance(14, 1.0, (-100, 100), seed=200 + i)
            anchor = random_solution(14, seeded_rng(300 + i))
            curve = lambda_sweep(inst, ToyKind.PLUS_MINUS_ONE, anchor, 50.0,
                                 (0.0, 0.5, 1.0), toy_seed=400 + i)
            counts = [c for _, c in curve]
            if counts[0] >= counts[1] >= counts[2]:
                monotone += 1
        assert monotone >= 8

    def test_grid_values_validated(self):
        inst = make_instance(6, seed=24)
        anchor = random_solution(6, seeded_rng(25))
        with pytest.raises(ValueError):
            lambda_sweep(inst, ToyKind.PLUS_MINUS_ONE, anchor, 1.0, (0.0, 1.5))


class TestReports:
    def test_analyze_is_coherent(self):
        inst = make_instance(9, seed=26)
        report = analyze(inst)
        assert report.n == 9
        assert report.local_optima_count == len(report.local_optima)
        assert sum(report.histogram.values()) == 2**9
        assert 2.0**-9 <= report.collision_probability <= 1.0
        assert report.objective == "original"

    def test_describe_objective_forms(self):
        inst = make_instance(5, seed=27)
        anchor = random_solution(5, seeded_rng(28))
        toy = construct_toy(ToyKind.RANDOM, anchor, seed=6)
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.25, alpha=1.5)
        assert describe_objective(inst) == "original"
        assert "random" in describe_objective(toy)
        desc = describe_objective(obj)
        assert "0.25" in desc and "1.5" in desc

    def test_report_text_mentions_the_census(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE,
                            random_solution(6, seeded_rng(29)))
        text = report_text(analyze(toy))
        assert "local_optima_count 1" in text
        assert "collision_probability" in text

    def test_report_text_prints_integer_values_exactly(self):
        inst = UbqpInstance.from_matrix(np.diag([1234567, -7654321]))
        assert "value_range -7654321 1234567\n" in report_text(analyze(inst))

    def test_histogram_csv_shape(self):
        hist = {3: 4, -1: 2, 0: 2}
        lines = histogram_csv(hist).splitlines()
        assert lines[0] == "value,count"
        assert lines[1:] == ["-1,2", "0,2", "3,4"]

    def test_sweep_csv_shape(self):
        lines = sweep_csv([(0.0, 12), (0.5, 3), (1.0, 1)]).splitlines()
        assert lines[0] == "lambda,count"
        assert lines[1] == "0,12" or lines[1] == "0.0,12"
        assert lines[-1] == "1,1" or lines[-1] == "1.0,1"
