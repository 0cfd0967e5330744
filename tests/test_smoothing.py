"""Toy constructions, the smoothed objective, and lambda schedules."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsils import (
    GainCache,
    LambdaSchedule,
    SmoothedObjective,
    ToyKind,
    ToyMatrix,
    UbqpInstance,
    auto_alpha,
    construct_toy,
    evaluate,
    mean_abs,
    random_solution,
    seeded_rng,
)
from lsils import smoothing
from lsils.smoothing import blend_weights, toy_peaks

import oracles
from test_qubo import make_instance, random_symmetric

ALL_KINDS = (ToyKind.PLUS_MINUS_ONE, ToyKind.PLUS_MINUS_I, ToyKind.RANDOM)


def random_anchor(n: int, seed: int) -> np.ndarray:
    return random_solution(n, seeded_rng(seed))


def assert_protocol_matches_dense(toy: ToyMatrix, *points: np.ndarray) -> None:
    """materialize(), the toy's one dense view, against the oracle's
    entry-by-entry matrix (the random toy's from its stored magnitudes), and
    evaluate at each point against the dense product."""
    dense = toy.materialize()
    expected = oracles.oracle_toy_matrix(toy.kind.value, toy.anchor, toy._m)
    assert dense.dtype == np.int64 and not dense.flags.writeable
    assert np.array_equal(dense, expected)
    for x in points:
        x64 = x.astype(np.int64)
        assert evaluate(toy, x) == int(x64 @ expected @ x64)


class TestWorkedExample:
    def test_unit_toy_matrix(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, oracles.EXAMPLE_ANCHOR)
        assert np.array_equal(toy.materialize(), oracles.EXAMPLE_TOY_UNIT)

    def test_index_toy_matrix(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_I, oracles.EXAMPLE_ANCHOR)
        assert np.array_equal(toy.materialize(), oracles.EXAMPLE_TOY_INDEX)

    def test_index_toy_spot_entries(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_I, oracles.EXAMPLE_ANCHOR)
        dense = toy.materialize()
        assert dense[3, 1] == 4
        assert dense[4, 0] == -5

    def test_random_toy_sign_pattern(self):
        for seed in (0, 1, 42):
            toy = construct_toy(ToyKind.RANDOM, oracles.EXAMPLE_ANCHOR, seed=seed)
            dense = toy.materialize()
            assert np.array_equal(np.sign(dense), np.sign(oracles.EXAMPLE_TOY_UNIT))
            assert np.array_equal(np.sign(dense), oracles.EXAMPLE_TOY_RANDOM_SIGNS)

    def test_values_at_anchor(self):
        unit = construct_toy(ToyKind.PLUS_MINUS_ONE, oracles.EXAMPLE_ANCHOR)
        index = construct_toy(ToyKind.PLUS_MINUS_I, oracles.EXAMPLE_ANCHOR)
        assert evaluate(unit, oracles.EXAMPLE_ANCHOR) == oracles.EXAMPLE_UNIT_VALUE_AT_ANCHOR
        assert evaluate(index, oracles.EXAMPLE_ANCHOR) == oracles.EXAMPLE_INDEX_VALUE_AT_ANCHOR


class TestConstruction:
    @settings(max_examples=100)
    @given(st.integers(0, 10**6))
    def test_matches_piecewise_definition(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 21))
        anchor = random_solution(n, rng)
        unit = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor).materialize()
        index = construct_toy(ToyKind.PLUS_MINUS_I, anchor).materialize()
        rand = construct_toy(ToyKind.RANDOM, anchor, seed=seed).materialize()
        assert np.array_equal(unit, oracles.oracle_toy_matrix("plusminus1", anchor))
        assert np.array_equal(index, oracles.oracle_toy_matrix("plusminusi", anchor))
        assert np.array_equal(
            rand, oracles.oracle_toy_matrix("random", anchor, np.abs(rand))
        )

    @given(st.integers(0, 10**6))
    def test_shared_sign_pattern_and_symmetry(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 16))
        anchor = random_solution(n, rng)
        a = anchor.astype(np.int64)
        expected_signs = 2 * np.outer(a, a) - 1
        for kind in ALL_KINDS:
            dense = construct_toy(kind, anchor, seed=seed).materialize()
            assert np.array_equal(np.sign(dense), expected_signs)
            assert np.array_equal(dense, dense.T)

    def test_random_magnitude_bounds(self):
        toy = construct_toy(ToyKind.RANDOM, random_anchor(40, 3), seed=9)
        mags = np.abs(toy.materialize())
        assert mags.min() >= 1
        assert mags.max() <= 100

    def test_random_materializes_its_stored_matrix(self):
        # The toy stores uint8 magnitudes; its dense view is the realized
        # int64 matrix, read-only.
        anchor = random_anchor(6, 3)
        toy = construct_toy(ToyKind.RANDOM, anchor, seed=9)
        dense = toy.materialize()
        assert dense.dtype == np.int64
        assert np.array_equal(dense, oracles.random_toy_by_indices(anchor, 9))
        assert not dense.flags.writeable
        assert toy._m.dtype == np.uint8 and not toy._m.flags.writeable

    def test_random_toy_takes_only_a_c_ordered_uint8_square(self):
        anchor = random_anchor(6, 3)
        m = np.ones((6, 6), dtype=np.uint8)
        for bad in (m.astype(np.int64), m[:5], np.asfortranarray(np.ones((6, 7), np.uint8))[:, :6]):
            with pytest.raises(ValueError, match="C-ordered n x n uint8"):
                ToyMatrix(kind=ToyKind.RANDOM, anchor=anchor, _m=bad, _peak=1)

    def test_toys_take_magnitudes_only_when_random(self):
        # A random toy without its magnitudes and their peak could not run,
        # and an anchored toy would ignore them.
        anchor = random_anchor(4, 3)
        m = np.ones((4, 4), dtype=np.uint8)
        for kind, stored in ((ToyKind.RANDOM, {}), (ToyKind.RANDOM, dict(_m=m)),
                             (ToyKind.RANDOM, dict(_peak=1)),
                             (ToyKind.PLUS_MINUS_I, dict(_m=m)),
                             (ToyKind.PLUS_MINUS_ONE, dict(_peak=1)),
                             (ToyKind.PLUS_MINUS_ONE, dict(_m=m, _peak=1))):
            with pytest.raises(ValueError, match="random toy takes its magnitudes"):
                ToyMatrix(kind=kind, anchor=anchor, **stored)
        assert ToyMatrix(kind=ToyKind.RANDOM, anchor=anchor, _m=m, _peak=1).max_abs() == 1

    @pytest.mark.parametrize("kind", [ToyKind.PLUS_MINUS_ONE, ToyKind.PLUS_MINUS_I])
    def test_anchored_weights_never_decrease(self, kind):
        # The kernel's prefix pass over an anchored toy relies on w never
        # decreasing; it reads _w in place, so _w is read-only.
        for n in (1, 2, 9):
            toy = ToyMatrix(kind=kind, anchor=random_anchor(n, n))
            w = toy._w
            assert w.dtype == np.int64 and w.shape == (n,)
            assert np.all(np.diff(w) >= 0) and w[0] == 1
            assert toy.max_abs() == w[-1] == (n if kind is ToyKind.PLUS_MINUS_I else 1)
            assert not w.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 0

    def test_random_magnitudes_must_fit_in_uint8(self, monkeypatch):
        monkeypatch.setattr(smoothing, "RANDOM_MAGNITUDES", range(1, 257))
        with pytest.raises(ValueError, match="do not fit in uint8"):
            construct_toy(ToyKind.RANDOM, random_anchor(6, 3), seed=9)
        monkeypatch.setattr(smoothing, "RANDOM_MAGNITUDES", range(-1, 101))
        with pytest.raises(ValueError, match="do not fit in uint8"):
            construct_toy(ToyKind.RANDOM, random_anchor(6, 3), seed=9)
        monkeypatch.setattr(smoothing, "RANDOM_MAGNITUDES", range(1, 256))
        toy = construct_toy(ToyKind.RANDOM, random_anchor(60, 3), seed=9)
        assert toy.max_abs() == np.abs(toy.materialize()).max() == 255

    def test_random_deterministic_per_seed(self):
        anchor = random_anchor(12, 4)
        a = construct_toy(ToyKind.RANDOM, anchor, seed=5).materialize()
        b = construct_toy(ToyKind.RANDOM, anchor, seed=5).materialize()
        c = construct_toy(ToyKind.RANDOM, anchor, seed=6).materialize()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 500])
    def test_random_matches_tril_indices_reference(self, n):
        for seed in (0, 5, 2**40 + 3):
            anchor = random_anchor(n, seed % 97)
            toy = construct_toy(ToyKind.RANDOM, anchor, seed=seed)
            reference = oracles.random_toy_by_indices(anchor, seed)
            assert np.array_equal(toy.materialize(), reference)
            assert toy.max_abs() == np.abs(reference).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 500])
    def test_kernel_draws_are_the_generators_draws(self, n):
        # The kernel draws the magnitudes from the PCG64 state of the toy's
        # generator; the lower triangle, row by row, holds that generator's
        # own draws. A numpy whose draws moved fails here by name.
        low, high = smoothing.RANDOM_MAGNITUDES.start, smoothing.RANDOM_MAGNITUDES.stop
        lower = np.tril_indices(n)
        for seed in (*range(12), 2**40 + 3, 2**63 - 1):
            toy = construct_toy(ToyKind.RANDOM, random_anchor(n, 3), seed=seed)
            draws = seeded_rng(seed, smoothing.TOY_MAGNITUDE_STREAM).integers(
                low, high, size=lower[0].size, dtype=np.int32)
            assert np.array_equal(toy._m[lower], draws), (seed, n)
            assert toy.max_abs() == draws.max()

    def test_a_rejected_word_is_redrawn_as_numpy_does(self, monkeypatch):
        # A generator whose next 32-bit word is 0, the buffered half of its
        # last output: Lemire's method rejects it, since 0 is below
        # (2^32 - 100) mod 100 = 96, and takes the next word. Random seeds
        # reach that branch in about one toy in 300.
        state = seeded_rng(7, smoothing.TOY_MAGNITUDE_STREAM).bit_generator.state
        state.update(has_uint32=1, uinteger=0)

        def crafted(*keys):
            return oracles.generator_at(state)

        probe = crafted()
        probe.integers(1, 101, dtype=np.int32)
        assert probe.bit_generator.state["has_uint32"] == 1  # a second word was taken
        monkeypatch.setattr(smoothing, "seeded_rng", crafted)
        n = 40
        lower = np.tril_indices(n)
        toy = construct_toy(ToyKind.RANDOM, random_anchor(n, 3), seed=0)
        draws = crafted().integers(1, 101, size=lower[0].size, dtype=np.int32)
        assert np.array_equal(toy._m[lower], draws)

    def test_deterministic_kinds_idempotent(self):
        anchor = random_anchor(10, 7)
        for kind in (ToyKind.PLUS_MINUS_ONE, ToyKind.PLUS_MINUS_I):
            a = construct_toy(kind, anchor).materialize()
            b = construct_toy(kind, anchor).materialize()
            assert np.array_equal(a, b)

    def test_accepts_kind_by_value(self):
        toy = construct_toy("plusminus1", (1, 0))
        assert toy.kind is ToyKind.PLUS_MINUS_ONE

    def test_n_is_the_anchor_length(self):
        anchor = random_anchor(9, 4)
        for kind in ALL_KINDS:
            assert construct_toy(kind, anchor, seed=1).n == 9
        assert ToyMatrix(kind=ToyKind.PLUS_MINUS_I, anchor=anchor).n == 9
        with pytest.raises(TypeError):
            ToyMatrix(kind=ToyKind.PLUS_MINUS_I, anchor=anchor, n=9)


class TestToyEvaluation:
    def test_anchor_value_unit_kind_is_ones_squared(self):
        for seed in range(5):
            anchor = random_anchor(14, seed)
            toy = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
            k = int(anchor.sum())
            assert evaluate(toy, anchor) == k * k

    def test_all_zero_solution_is_zero(self):
        anchor = random_anchor(9, 8)
        for kind in ALL_KINDS:
            toy = construct_toy(kind, anchor, seed=2)
            assert evaluate(toy, np.zeros(9, dtype=np.int8)) == 0

    def test_unit_closed_form_equals_matrix_exhaustively(self):
        anchor = random_anchor(10, 9)
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
        dense = toy.materialize()
        for s in range(2**10):
            x = oracles.bits_from_index(s, 10)
            assert evaluate(toy, x) == oracles.brute_value(dense, x)

    @settings(max_examples=100)
    @given(st.integers(0, 10**6))
    def test_matches_brute_force_all_kinds(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 18))
        anchor = random_solution(n, rng)
        x = random_solution(n, rng)
        for kind in ALL_KINDS:
            toy = construct_toy(kind, anchor, seed=seed)
            assert evaluate(toy, x) == oracles.brute_value(toy.materialize(), x)

    @given(st.integers(0, 10**6))
    def test_form_protocol_matches_dense(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(1, 15))
        anchor = random_solution(n, rng)
        x = random_solution(n, rng)
        for kind in ALL_KINDS:
            assert_protocol_matches_dense(construct_toy(kind, anchor, seed=seed), x)

    def test_anchored_protocol_is_exact_at_scale(self):
        rng = seeded_rng(12)
        anchor = random_solution(300, rng)
        points = (anchor, np.ones(300, dtype=np.int8), random_solution(300, rng))
        for kind in ALL_KINDS:
            assert_protocol_matches_dense(construct_toy(kind, anchor, seed=12), *points)

    def test_gain_cache_on_toys(self):
        rng = seeded_rng(11)
        anchor = random_solution(25, rng)
        x = random_solution(25, rng)
        for kind in ALL_KINDS:
            toy = construct_toy(kind, anchor, seed=3)
            cache = GainCache.build(toy, x)
            for k in range(25):
                assert int(cache.gains[k]) == oracles.brute_flip_delta(toy.materialize(), x, k)
            for _ in range(200):
                k = int(rng.integers(0, 25))
                cache.apply_flip(k)
            fresh = GainCache.build(toy, cache.solution)
            assert np.array_equal(fresh.gains, cache.gains)

    def test_unimodal_small_exhaustive(self):
        for seed, n in ((0, 8), (1, 9), (2, 10)):
            anchor = random_anchor(n, seed)
            for kind in ALL_KINDS:
                toy = construct_toy(kind, anchor, seed=seed)
                dense = toy.materialize()
                optima = oracles.brute_local_optima(
                    lambda x: oracles.brute_value(dense, x), n
                )
                assert len(optima) == 1
                assert np.array_equal(optima[0], anchor)


class TestAutoAlpha:
    def test_unit_kind_equals_bound(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, random_anchor(2500, 1))
        inst = make_instance(4, 2)
        assert auto_alpha(inst, toy, target_bound=5) == 5.0

    def test_index_kind_divides_by_dimension(self):
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_anchor(2500, 1))
        inst = make_instance(4, 2)
        assert auto_alpha(inst, toy, target_bound=5) == pytest.approx(0.002)

    def test_random_kind_divides_by_peak_magnitude(self):
        toy = construct_toy(ToyKind.RANDOM, random_anchor(2500, 1), seed=0)
        inst = make_instance(4, 2)
        assert toy.max_abs() == 100
        assert auto_alpha(inst, toy, target_bound=5) == pytest.approx(0.05)

    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_max_abs_is_the_realized_peak(self, kind, n):
        for seed in (0, 3):
            toy = construct_toy(kind, random_anchor(n, seed), seed=seed)
            assert toy.max_abs() == np.abs(toy.materialize()).max()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_peaks_hold_every_realized_peak(self, kind):
        for seed in range(8):
            toy = construct_toy(kind, random_anchor(3, seed), seed=seed)
            assert toy.max_abs() in toy_peaks(kind, 3)

    def test_random_rebuild_holds_one_matrix(self):
        # What a search does per rebuild: the default bound reads the mean |Q|
        # summed when the instance was built. The kernel draws the magnitudes
        # into the uint8 matrix itself, so no array of draws is allocated.
        n = 500
        anchor, inst = random_anchor(n, 5), make_instance(n, 2)
        construct_toy(ToyKind.RANDOM, anchor, seed=0)  # builds the kernel outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            toy = construct_toy(ToyKind.RANDOM, anchor, seed=1)
            auto_alpha(inst, toy)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * n

    def test_default_bound_rounds_mean_abs(self):
        inst = UbqpInstance.from_matrix(np.array([[1, -2], [-2, 3]]))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, (1, 0))
        assert auto_alpha(inst, toy) == 2.0

    def test_zero_bound_rejected(self):
        inst = UbqpInstance.from_matrix(np.zeros((2, 2), dtype=np.int64))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, (1, 0))
        with pytest.raises(ValueError, match="target bound"):
            auto_alpha(inst, toy)
        for bound in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="target bound"):
                auto_alpha(inst, toy, target_bound=bound)


class TestSmoothedObjective:
    def make(self, n=12, lam=0.5, alpha=1.0, seed=0):
        inst = make_instance(n, seed)
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_anchor(n, seed + 1))
        return inst, toy, SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=alpha)

    def test_validation(self):
        inst, toy, _ = self.make()
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            SmoothedObjective(instance=inst, toy=toy, lam=1.5, alpha=1.0)
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=alpha)
        other = construct_toy(ToyKind.PLUS_MINUS_ONE, (1, 0))
        with pytest.raises(ValueError, match="dimensions"):
            SmoothedObjective(instance=inst, toy=other, lam=0.5, alpha=1.0)

    def blend(self, g, x) -> int:
        """g's exact integer blend a f_o(x) + b f_toy(x), by `integer_weights`."""
        a, b = g.integer_weights(2 * g.n)
        return a * evaluate(g.instance, x) + b * evaluate(g.toy, x)

    def test_lambda_zero_equals_original(self):
        inst, _, _ = self.make()
        _, _, g = self.make(lam=0.0)
        x = random_solution(12, seeded_rng(3))
        assert g.integer_weights(24) == (1, 0)
        assert self.blend(g, x) == evaluate(inst, x)

    def test_lambda_one_equals_scaled_toy(self):
        _, toy, g0 = self.make(lam=1.0, alpha=0.25)
        x = random_solution(12, seeded_rng(4))
        assert g0.integer_weights(24) == (0, 1)
        assert self.blend(g0, x) == evaluate(toy, x)

    def test_midpoint_arithmetic(self):
        inst = UbqpInstance.from_matrix(np.array([[10, 0], [0, 4]]))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, (1, 0))
        g = SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=1.0)
        # f_o((1,0)) = 10, toy value at (1,0) is 1: g = 0.5*10 + 0.5*1, half the blend.
        assert self.blend(g, (1, 0)) == 11

    @given(st.integers(0, 10**6))
    def test_blend_matches_component_evaluations(self, seed):
        # The blend is b / (lam alpha) times g, with lam and alpha read as
        # blend_weights reads them (b > 0).
        rng = seeded_rng(seed)
        n = int(rng.integers(2, 14))
        inst = UbqpInstance.from_matrix(random_symmetric(n, rng))
        toy = construct_toy(ToyKind.RANDOM, random_solution(n, rng), seed=seed)
        # Decimals, so that the weights stay within integer_weights' bound.
        lam = round(float(rng.uniform(0.001, 1)), 3)
        alpha = round(float(rng.uniform(0.01, 10)), 2)
        g = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=alpha)
        x = random_solution(n, rng)
        exact_lam, exact_alpha = (Fraction(v).limit_denominator(smoothing.DENOMINATOR_LIMIT)
                                  for v in (lam, alpha))
        expected = (1 - exact_lam) * evaluate(inst, x) + exact_lam * exact_alpha * evaluate(toy, x)
        b = g.integer_weights(2 * n)[1]
        assert self.blend(g, x) * exact_lam * exact_alpha == b * expected


def blended_gains(g: SmoothedObjective, x) -> np.ndarray:
    """One-flip gains of g's integer blend as the descent scans them, from fresh caches."""
    a, b = g.integer_weights(2 * g.n)
    return a * GainCache.build(g.instance, x).gains + b * GainCache.build(g.toy, x).gains


def read(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**6)


class TestBlendWeights:
    @settings(max_examples=300)
    @given(st.integers(0, 6).flatmap(
               lambda places: st.integers(0, 10**places).map(lambda p: Fraction(p, 10**places))),
           st.one_of(st.sampled_from([Fraction(1, 3), Fraction(37, 10), Fraction(1, 4)]),
                     st.integers(1, 10**9).map(lambda k: Fraction(k, 1000))))
    def test_decimal_lambda_and_explicit_alpha(self, exact_lam, exact_alpha):
        lam, alpha = float(exact_lam), float(exact_alpha)
        assert (read(lam), read(alpha)) == (exact_lam, exact_alpha)
        a, b = blend_weights(lam, alpha, 0, 0)
        assert math.gcd(a, b) == 1 and a >= 0 and b >= 0
        assert a * exact_lam * exact_alpha == b * (1 - exact_lam)

    @pytest.mark.parametrize("n", [1, 7, 500])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("lam", [0.0, 0.001, 0.002, 0.003, 0.004, 0.3, 1.0])
    def test_auto_alpha_is_read_exactly(self, kind, n, lam):
        inst = make_instance(n, seed=n)
        toy = construct_toy(kind, random_anchor(n, n), seed=n)
        bound = round(mean_abs(inst)) or 1
        alpha = auto_alpha(inst, toy, target_bound=bound)
        assert read(alpha) == Fraction(bound, toy.max_abs())
        g = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=alpha)
        a, b = g.integer_weights(2 * n)
        assert math.gcd(a, b) == 1
        assert a * read(lam) * Fraction(bound, toy.max_abs()) == b * (1 - read(lam))

    def test_zero_and_one(self):
        assert blend_weights(0.0, 3.7, 2**70, 2**70) == (1, 0)
        assert blend_weights(1.0, 3.7, 2**70, 1) == (0, 1)

    def test_bound_is_checked(self):
        # lam = 1/2, alpha = 1: a = b = 1, so the magnitudes add.
        assert blend_weights(0.5, 1.0, 2**52, 2**52 - 1) == (1, 1)
        with pytest.raises(ValueError, match=r"lam=0\.5, alpha=1: .*2\^53"):
            blend_weights(0.5, 1.0, 2**52, 2**52)
        with pytest.raises(ValueError, match="2\\^53"):
            blend_weights(0.001, 1e300, 1, 1)

    def test_positive_values_below_the_resolution_are_rejected(self):
        for lam, alpha in ((1e-9, 1.0), (0.5, 1e-9)):
            with pytest.raises(ValueError, match="resolution"):
                blend_weights(lam, alpha, 1, 1)
        assert blend_weights(0.0, 1e-9, 1, 1) == (1, 0)


class TestSmoothedFlipDelta:
    def test_lambda_zero_is_integer_delta(self):
        inst = make_instance(10, 5)
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_anchor(10, 6))
        g = SmoothedObjective(instance=inst, toy=toy, lam=0.0, alpha=1.0)
        x = random_solution(10, seeded_rng(7))
        gains = blended_gains(g, x)
        for k in range(10):
            assert gains[k] == oracles.brute_flip_delta(inst.q, x, k)

    def test_involution_cancels(self):
        inst = make_instance(10, 8)
        toy = construct_toy(ToyKind.RANDOM, random_anchor(10, 9), seed=1)
        g = SmoothedObjective(instance=inst, toy=toy, lam=0.37, alpha=0.8)
        x = random_solution(10, seeded_rng(10))
        gains = blended_gains(g, x)
        for k in range(10):
            y = x.copy()
            y[k] ^= 1
            assert gains[k] + blended_gains(g, y)[k] == 0

    @settings(max_examples=100)
    @given(st.integers(0, 10**6))
    def test_matches_full_recompute(self, seed):
        rng = seeded_rng(seed)
        n = int(rng.integers(2, 30))
        inst = UbqpInstance.from_matrix(random_symmetric(n, rng))
        toy = construct_toy(ToyKind.RANDOM, random_solution(n, rng), seed=seed)
        lam = float(rng.uniform(0, 1))
        g = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=0.05)
        x = random_solution(n, rng)
        k = int(rng.integers(0, n))
        y = x.copy()
        y[k] ^= 1
        a, b = g.integer_weights(2 * n)
        full = a * (evaluate(inst, y) - evaluate(inst, x)) + b * (evaluate(toy, y)
                                                                 - evaluate(toy, x))
        assert blended_gains(g, x)[k] == full


class TestLambdaSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LambdaSchedule(steps=((10, 0.1), (10, 0.2)))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            LambdaSchedule(steps=((10, 1.5),))
        with pytest.raises(ValueError, match="unit"):
            LambdaSchedule(steps=(), unit="minutes")
        with pytest.raises(ValueError, match="NaN"):
            LambdaSchedule(steps=((float("nan"), 0.5), (1.0, 0.2)))

    def test_staged_ramp_lookup(self):
        sched = LambdaSchedule.staged_ramp(1000, unit="seconds")
        assert sched.value_at(150) == 0.0
        assert sched.value_at(450) == 0.002
        assert sched.value_at(999) == 0.004

    def test_threshold_boundary_is_inclusive(self):
        sched = LambdaSchedule.staged_ramp(1000, unit="seconds")
        assert sched.value_at(200) == 0.001
        assert sched.value_at(199.999) == 0.0

    def test_zero_and_constant(self):
        assert LambdaSchedule.zero().value_at(10**9) == 0.0
        assert LambdaSchedule.constant(0.7).value_at(0) == 0.7
