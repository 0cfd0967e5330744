"""Core instance, evaluation, and gain-cache behavior."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsils import (
    GainCache,
    UbqpInstance,
    as_solution,
    evaluate,
    flip_delta,
    mean_abs,
    random_solution,
    seeded_rng,
)

import oracles


def random_symmetric(n: int, rng: np.random.Generator, lo=-100, hi=100) -> np.ndarray:
    m = rng.integers(lo, hi + 1, size=(n, n))
    return np.triu(m) + np.triu(m, 1).T


def make_instance(n: int, seed: int) -> UbqpInstance:
    return UbqpInstance.from_matrix(random_symmetric(n, seeded_rng(seed)))


class TestInstanceValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            UbqpInstance.from_matrix(np.array([[0, 1], [2, 0]]))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="integer"):
            UbqpInstance.from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            UbqpInstance.from_matrix(np.zeros((2, 3), dtype=np.int64))

    def test_rejects_overflow_risk(self):
        big = np.eye(4, dtype=np.int64) * (2**62)
        with pytest.raises(ValueError, match="int64"):
            UbqpInstance.from_matrix(big)

    def test_matrix_is_read_only(self):
        inst = make_instance(5, 1)
        with pytest.raises(ValueError):
            inst.q[0, 0] = 99

    def test_density_is_nonzero_fraction(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 0], [0, 0]], dtype=np.int64))
        assert inst.density == 0.25


class TestEvaluate:
    def test_all_zeros_is_zero(self):
        inst = make_instance(7, 2)
        assert evaluate(inst, np.zeros(7, dtype=np.int8)) == 0

    def test_worked_unit_toy_anchor_value(self):
        inst = UbqpInstance.from_matrix(oracles.EXAMPLE_TOY_UNIT)
        assert evaluate(inst, oracles.EXAMPLE_ANCHOR) == oracles.EXAMPLE_UNIT_VALUE_AT_ANCHOR

    def test_two_by_two_by_hand(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 2], [2, 3]]))
        assert evaluate(inst, (1, 1)) == 8

    def test_all_ones_is_matrix_sum(self):
        inst = make_instance(9, 3)
        assert evaluate(inst, np.ones(9, dtype=np.int8)) == int(inst.q.sum())

    def test_dimension_mismatch_rejected(self):
        inst = make_instance(4, 4)
        with pytest.raises(ValueError, match="length"):
            evaluate(inst, (1, 0, 1))

    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_matches_brute_force(self, seed, n):
        rng = seeded_rng(seed)
        inst = UbqpInstance.from_matrix(random_symmetric(n, rng))
        x = random_solution(n, rng)
        assert evaluate(inst, x) == oracles.brute_value(inst.q, x)

    @given(st.integers(0, 10**6))
    def test_transpose_consistent(self, seed):
        # Exhaustive over all x for one matrix per draw, n <= 6.
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 7))
        m = rng.integers(-50, 51, size=(n, n))
        q = np.triu(m) + np.triu(m, 1).T
        a = UbqpInstance.from_matrix(q)
        b = UbqpInstance.from_matrix(q.T.copy())
        for s in range(2**n):
            x = oracles.bits_from_index(s, n)
            assert evaluate(a, x) == evaluate(b, x)


class TestFlipDelta:
    def test_two_by_two_up(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 2], [2, 3]]))
        assert flip_delta(inst, (0, 0), 0) == 1

    def test_two_by_two_down(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 2], [2, 3]]))
        assert flip_delta(inst, (1, 1), 1) == -7

    def test_involution_sums_to_zero(self):
        inst = make_instance(10, 5)
        rng = seeded_rng(6)
        x = random_solution(10, rng)
        for k in range(10):
            d1 = flip_delta(inst, x, k)
            y = x.copy()
            y[k] ^= 1
            d2 = flip_delta(inst, y, k)
            assert d1 + d2 == 0

    def test_index_out_of_range(self):
        inst = make_instance(3, 7)
        with pytest.raises(IndexError):
            flip_delta(inst, (0, 1, 0), 3)

    @settings(max_examples=200)
    @given(st.integers(0, 10**6))
    def test_matches_full_reevaluation(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 12))
        inst = UbqpInstance.from_matrix(random_symmetric(n, rng))
        x = random_solution(n, rng)
        k = int(rng.integers(0, n))
        assert flip_delta(inst, x, k) == oracles.brute_flip_delta(inst.q, x, k)


class TestGainCache:
    def test_build_matches_flip_delta(self):
        inst = make_instance(12, 8)
        x = random_solution(12, seeded_rng(9))
        cache = GainCache.build(inst, x)
        for k in range(12):
            assert int(cache.gains[k]) == flip_delta(inst, x, k)

    def test_apply_flip_stays_exact(self):
        inst = make_instance(15, 10)
        rng = seeded_rng(11)
        cache = GainCache.build(inst, random_solution(15, rng))
        for _ in range(300):
            k = int(rng.integers(0, 15))
            cache.apply_flip(k)
        fresh = GainCache.build(inst, cache.solution)
        assert np.array_equal(fresh.gains, cache.gains)

    def test_tracked_value_matches_full_evaluate(self):
        inst = make_instance(50, 12)
        rng = seeded_rng(13)
        x = random_solution(50, rng)
        cache = GainCache.build(inst, x)
        value = evaluate(inst, x)
        for _ in range(2000):
            k = int(rng.integers(0, 50))
            value += int(cache.gains[k])
            cache.apply_flip(k)
            assert value == evaluate(inst, cache.solution)

    def test_flipping_all_bits_reaches_matrix_sum(self):
        inst = make_instance(20, 14)
        cache = GainCache.build(inst, np.zeros(20, dtype=np.int8))
        value = 0
        for k in range(20):
            value += int(cache.gains[k])
            cache.apply_flip(k)
        assert value == int(inst.q.sum())


class TestMeanMaxAbs:
    def test_all_zero_matrix(self):
        inst = UbqpInstance.from_matrix(np.zeros((3, 3), dtype=np.int64))
        assert mean_abs(inst) == 0

    def test_small_example(self):
        inst = UbqpInstance.from_matrix(np.array([[1, -2], [-2, 3]]))
        assert mean_abs(inst) == Fraction(2)

    def test_mean_abs_is_exact_rational(self):
        inst = UbqpInstance.from_matrix(np.array([[1, 1], [1, 0]]))
        assert mean_abs(inst) == Fraction(3, 4)


class TestSolutions:
    def test_as_solution_validates_entries(self):
        with pytest.raises(ValueError, match="0 or 1"):
            as_solution([0, 2, 1])

    def test_as_solution_rejects_matrix(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_solution([[0, 1], [1, 0]])

    def test_random_solution_deterministic(self):
        a = random_solution(30, seeded_rng(17))
        b = random_solution(30, seeded_rng(17))
        assert np.array_equal(a, b)
