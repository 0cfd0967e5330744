"""The compiled kernel against its numpy reference, and the fallback to it.

The kernel runs the perturbation and the descent of an outer iteration,
and fills the random toy's matrix.

A C compiler is part of the test environment, so a kernel that does not
build or load fails these tests instead of skipping them.
"""

import ctypes
import io
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lsils import (
    Budget,
    GainCache,
    LambdaSchedule,
    SearchConfig,
    ToyKind,
    UbqpInstance,
    construct_toy,
    evaluate,
    ils,
    local_search,
    lsils,
    random_solution,
    seeded_rng,
    write_runlog_csv,
)
from lsils import _kernel, search
from lsils.search import PIVOT_RULES, BestTracker, _Meter

from test_qubo import make_instance, random_symmetric
from test_search import gains_past_2_53

ROOT = Path(__file__).resolve().parent.parent
# Sizes up to 130 put the kernel's best-improvement scan across two whole
# 64-entry blocks and a tail, and its vector loops across their remainders.
MAX_N = 130
FORMS = ("instance",) + tuple(kind.value for kind in ToyKind)
# (1 - lam, lam * alpha) blends of two forms, (1.0, 0.0) among them.
LAMS = (0.0, 0.001, 0.3, 0.5, 1.0)
ALPHAS = (0.25, 1.0, 3.7)


@pytest.fixture
def no_kernel(monkeypatch):
    """The kernel's build fails, as on a host without a C compiler."""
    def fail():
        raise OSError("no C compiler found")
    monkeypatch.setattr(_kernel, "_build", fail)
    _kernel.library.cache_clear()
    yield
    _kernel.library.cache_clear()


def make_form(name: str, n: int, seed: int):
    if name == "instance":
        return make_instance(n, seed=seed)
    anchor = random_solution(n, seeded_rng(seed, 9))
    return construct_toy(ToyKind(name), anchor, seed=seed)


def test_kernel_loads():
    assert _kernel.library() is not None


def test_source_compiles_without_warnings(tmp_path):
    subprocess.run([_kernel._compiler(), "-std=c99", "-Wall", "-Wextra", "-Werror",
                    *_kernel.FLAGS, "-o", str(tmp_path / "kernel.so"), str(_kernel.SOURCE)],
                   check=True, capture_output=True)


def test_build_caches_one_file_by_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    assert _kernel._build().lsils_iterate
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [_kernel._library_name()]
    assert _kernel._build().lsils_iterate


def test_build_prunes_stale_libraries(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_kernel-0123456789abcdef.so").write_bytes(b"an older kernel")
    (cache / "_kernel-fedcba9876543210.so").mkdir()  # cannot be unlinked
    (cache / "other.so").write_bytes(b"")
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    assert _kernel._build().lsils_iterate
    assert sorted(p.name for p in cache.iterdir()) == sorted(
        [_kernel._library_name(), "_kernel-fedcba9876543210.so", "other.so"])


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", blocker / "cache")
    assert _kernel._build().lsils_iterate


def assert_descents_agree(forms, x, weights, pivot):
    """One compiled and one numpy descent from x give identical results; returns the caches."""
    runs = []
    for compiled in (False, True):
        caches = [GainCache.build(form, x) for form in forms]
        meter = _Meter(Budget("evals", float("inf")), None, None)
        if compiled:
            descent = search._Descent(caches, pivot)
            assert descent.compiled
            value = descent(weights, 0, None, meter)
        else:
            value = search._descend(caches, weights, 0, None, meter, pivot)
        runs.append((value, meter.consumed, caches))
    (ref_value, ref_consumed, ref_caches), (value, consumed, caches) = runs
    assert (value, consumed) == (ref_value, ref_consumed)
    for ours, ref in zip(caches, ref_caches):
        assert np.array_equal(ours.gains, ref.gains)
        assert np.array_equal(ours.sigma, ref.sigma)
        assert np.array_equal(ours.solution, ref.solution)
    return caches


class TestDescentEquivalence:
    @given(st.integers(1, MAX_N), st.integers(0, 2**32),
           st.lists(st.sampled_from(FORMS), min_size=1, max_size=2),
           st.sampled_from(PIVOT_RULES), st.booleans(), st.sampled_from(LAMS),
           st.sampled_from(ALPHAS),
           st.one_of(st.none(), st.integers(1, 120), st.floats(0.5, 120)),
           st.integers(0, 400), st.integers(1, 20000))
    def test_kernel_matches_numpy_descent(self, n, seed, slots, pivot, blend, lam, alpha,
                                          interval, start, budget):
        forms = [make_form(name, n, seed + i) for i, name in enumerate(slots)]
        x = random_solution(n, seeded_rng(seed, 1))
        weights = (1.0 - lam, lam * alpha) if blend and len(forms) == 2 else None
        value = evaluate(forms[0], x)

        def state():
            caches = [GainCache.build(form, x) for form in forms]
            tracker = BestTracker.start(x, value - 1)
            meter = _Meter(Budget("evals", budget), interval, tracker)
            meter.current_lam = lam
            if start:
                meter.charge(start)
            return caches, tracker, meter

        ref_caches, ref_tracker, ref_meter = state()
        caches, tracker, meter = state()
        expected = search._descend(ref_caches, weights, value, ref_tracker, ref_meter, pivot)
        descent = search._Descent(caches, pivot)
        assert descent.compiled
        assert descent(weights, value, tracker, meter) == expected
        for ours, ref in zip(caches, ref_caches):
            assert np.array_equal(ours.gains, ref.gains)
            assert np.array_equal(ours.sigma, ref.sigma)
            assert np.array_equal(ours.solution, ref.solution)
        assert tracker.best_value == ref_tracker.best_value
        assert np.array_equal(tracker.best_solution, ref_tracker.best_solution)
        assert meter.records == ref_meter.records
        assert (meter.consumed, meter.next_mark) == (ref_meter.consumed, ref_meter.next_mark)

    @pytest.mark.parametrize("weights", [None, (1.0, 0.0), (0.5, 0.5)])
    def test_ties_go_to_the_lowest_index(self, weights):
        # From 00 both flips gain 1, and each one makes the other lose.
        inst = UbqpInstance.from_matrix(np.array([[1, -1], [-1, 1]]))
        for compiled in (False, True):
            caches = [GainCache.build(inst, [0, 0]) for _ in range(2)]
            meter = _Meter(Budget("evals", float("inf")), None, None)
            if compiled:
                value = search._Descent(caches, "best")(weights, 0, None, meter)
            else:
                value = search._descend(caches, weights, 0, None, meter, "best")
            assert value == 1
            assert caches[0].solution.tolist() == [1, 0]

    @pytest.mark.parametrize("weights", [None, (1.0, 0.0), (0.5, 0.5)])
    @pytest.mark.parametrize("tie", [(3, 70), (63, 64), (0, 129), (70, 100), (128, 129)])
    def test_ties_between_blocks_go_to_the_lowest_index(self, weights, tie):
        # From 0 both bits gain 1, the largest gain, and each one makes the
        # other lose; the other bits gain 0 or lose.
        n, (i, j) = MAX_N, tie
        q = np.diag(-seeded_rng(5).integers(0, 3, size=n))
        q[i, i] = q[j, j] = 1
        q[i, j] = q[j, i] = -1
        inst = UbqpInstance.from_matrix(q)
        caches = assert_descents_agree((inst, inst), np.zeros(n, dtype=np.int8), weights, "best")
        assert caches[0].solution.nonzero()[0].tolist() == [i]

    @pytest.mark.parametrize("pivot", PIVOT_RULES)
    @pytest.mark.parametrize("weights, sign", [((0.0, 0.0), -1), ((-1.0, 0.0), 1)])
    def test_non_positive_blend_with_negative_zero_is_a_local_optimum(self, pivot, weights,
                                                                       sign):
        # Every blended gain is -0.0 or negative (a bit pattern below zero)
        # or +0.0, so no flip is taken.
        n = MAX_N
        diagonal = sign * seeded_rng(6).integers(0, 4, size=n)
        diagonal[::3] = 0
        inst = UbqpInstance.from_matrix(np.diag(diagonal))
        x = np.zeros(n, dtype=np.int8)
        blend = np.multiply(GainCache.build(inst, x).gains, weights[0])
        assert np.signbit(blend).any() and not (blend > 0).any()
        caches = assert_descents_agree((inst, inst), x, weights, pivot)
        assert not caches[0].solution.any()

    @given(st.integers(2, MAX_N), st.integers(0, 2**32), st.sampled_from(PIVOT_RULES),
           st.sampled_from(LAMS), st.sampled_from(ALPHAS))
    def test_gains_beyond_2_53_round_as_in_numpy(self, n, seed, pivot, lam, alpha):
        # Entries as large as UbqpInstance allows (n^2 max|Q| within int64)
        # give gains past 2^53, where int64 -> float64 rounds.
        bound = np.iinfo(np.int64).max // (n * n)
        rng = seeded_rng(seed, 3)
        forms = [UbqpInstance.from_matrix(random_symmetric(n, rng, -bound, bound))
                 for _ in range(2)]
        x = random_solution(n, rng)
        assume(np.abs(GainCache.build(forms[0], x).gains).max() > 2**53)
        assert_descents_agree(forms, x, (1.0 - lam, lam * alpha), pivot)

    @pytest.mark.parametrize("weights, picked", [(None, 17), ((1.0, 0.0), 13), ((1.0, 0.5), 13)])
    def test_blend_rounds_gains_past_2_53_to_nearest_even(self, weights, picked):
        # From 0 the gains of bits 5, 9, 13, 17 are 2^53 + (1, 2, 3, 5), and
        # the first flip of them makes the other three lose. As doubles,
        # rounded to nearest even, they are 2^53 + (0, 2, 4, 4): the blend's
        # first maximum is bit 13, the integer maximum bit 17. The second
        # form's gains are all 0.
        inst = gains_past_2_53()
        n = inst.n
        forms = (inst, UbqpInstance.from_matrix(np.zeros((n, n), dtype=int)))
        caches = assert_descents_agree(forms, np.zeros(n, dtype=np.int8), weights, "best")
        assert caches[0].solution.nonzero()[0].tolist() == [picked]

    @pytest.mark.parametrize("pivot", PIVOT_RULES)
    def test_local_search_runs_the_kernel(self, pivot, monkeypatch):
        inst = make_instance(30, seed=3)
        x = random_solution(30, seeded_rng(3))
        expected = local_search(x, inst, pivot)

        def numpy_descent(*args):
            raise AssertionError("the numpy descent ran")

        monkeypatch.setattr(search, "_descend", numpy_descent)
        assert np.array_equal(local_search(x, inst, pivot), expected)

    def test_unknown_form_takes_the_numpy_path(self):
        inst = make_instance(12, seed=4)

        class Wrapped:
            """A duck-typed quadratic form the kernel does not know."""
            n = inst.n
            diag, col, matvec = inst.diag, inst.col, inst.matvec

        x = random_solution(12, seeded_rng(4))
        assert not search._Descent([GainCache.build(Wrapped(), x)], "best").compiled
        assert search._Descent([GainCache.build(inst, x)], "best").compiled
        assert np.array_equal(local_search(x, Wrapped()), local_search(x, inst))


class TestIterationEquivalence:
    @given(st.integers(1, MAX_N), st.integers(0, 2**32), st.sampled_from(FORMS),
           st.one_of(st.none(), st.sampled_from(FORMS)), st.sampled_from(PIVOT_RULES),
           st.booleans(), st.sampled_from(LAMS), st.sampled_from(ALPHAS),
           st.integers(0, 400), st.integers(1, 20000), st.data())
    def test_kernel_matches_numpy_iteration(self, n, seed, first, second, pivot, blend, lam,
                                            alpha, start, budget, data):
        bits = data.draw(st.integers(1, n), label="bits")
        # Intervals below n * bits put several marks inside one perturbation.
        interval = data.draw(st.one_of(st.none(), st.integers(1, n * bits),
                                       st.floats(0.5, n * bits)), label="interval")
        slots = (first,) if second is None else (first, second)
        forms = [make_form(name, n, seed + i) for i, name in enumerate(slots)]
        x = random_solution(n, seeded_rng(seed, 1))
        weights = (1.0 - lam, lam * alpha) if blend and len(forms) == 2 else None
        value = evaluate(forms[0], x)

        def state():
            caches = [GainCache.build(form, x) for form in forms]
            tracker = BestTracker.start(x, value - 1)
            meter = _Meter(Budget("evals", budget), interval, tracker)
            meter.current_lam = lam
            if start:
                meter.charge(start)
            return caches, tracker, meter, seeded_rng(seed, 2)

        ref_caches, ref_tracker, ref_meter, ref_rng = state()
        caches, tracker, meter, rng = state()
        positions = search.sample_distinct_positions(ref_rng, n, bits)
        expected = search._perturb_in_place(ref_caches, positions, value, ref_meter)
        expected = search._descend(ref_caches, weights, expected, ref_tracker, ref_meter, pivot)
        descent = search._Descent(caches, pivot)
        assert descent.compiled
        assert descent(weights, value, tracker, meter, rng, bits) == expected
        for ours, ref in zip(caches, ref_caches):
            assert np.array_equal(ours.gains, ref.gains)
            assert np.array_equal(ours.sigma, ref.sigma)
            assert np.array_equal(ours.solution, ref.solution)
        assert tracker.best_value == ref_tracker.best_value
        assert np.array_equal(tracker.best_solution, ref_tracker.best_solution)
        assert meter.records == ref_meter.records
        assert (meter.consumed, meter.next_mark) == (ref_meter.consumed, ref_meter.next_mark)
        assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)
        assert np.array_equal(descent.scratch[:n], np.arange(n))
        assert not descent.scratch[2 * n:3 * n].any()

    def test_repeated_blocks_stay_exact(self):
        # Each form kind as the only cache: 50 compiled perturbations of up
        # to n bits, each followed by a descent.
        n = 60
        rng = seeded_rng(21)
        for name in FORMS:
            form = make_form(name, n, int(rng.integers(0, 2**32)))
            cache = GainCache.build(form, random_solution(n, rng))
            descent = search._Descent([cache], "best")
            assert descent.compiled
            meter = _Meter(Budget("evals", float("inf")), None, None)
            value = evaluate(form, cache.solution)
            for _ in range(50):
                value = descent(None, value, None, meter, rng, int(rng.integers(1, n + 1)))
                assert value == evaluate(form, cache.solution)
                fresh = GainCache.build(form, cache.solution)
                assert np.array_equal(cache.gains, fresh.gains)
                assert np.array_equal(cache.sigma, fresh.sigma)

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 500])
    def test_random_toy_fill_matches_numpy_fill(self, n, request):
        anchors = [random_solution(n, seeded_rng(n, k)) for k in range(3)]
        compiled = [construct_toy(ToyKind.RANDOM, a, seed=k) for k, a in enumerate(anchors)]
        request.getfixturevalue("no_kernel")
        assert _kernel.library() is None
        for k, (anchor, ours) in enumerate(zip(anchors, compiled)):
            ref = construct_toy(ToyKind.RANDOM, anchor, seed=k)
            assert np.array_equal(ours.materialize(), ref.materialize())
            assert ours.max_abs() == ref.max_abs()


def test_seconds_budget_marks_are_checked_between_descents():
    inst = make_instance(40, seed=8)
    result = lsils(inst, SearchConfig(
        budget=Budget("seconds", 0.3), log_interval=0.05, toy_kind=ToyKind.PLUS_MINUS_I,
        lambda_schedule=LambdaSchedule.constant(0.3, unit="seconds")))
    assert _kernel.library() is not None
    marks = [r.elapsed for r in result.records[:-1]]
    assert len(marks) >= 4
    assert marks == pytest.approx([0.05 * k for k in range(1, len(marks) + 1)])
    assert [r.evaluations for r in result.records] == sorted(r.evaluations for r in result.records)
    assert result.records[-1].best_f == result.best_value == evaluate(inst, result.best_solution)


def _run_logs(inst, pivot):
    """Every run log of a small ils/lsils batch, as written to disk."""
    logs = {}
    for kind in (None, *ToyKind):
        for seed in (0, 1):
            config = SearchConfig(budget=Budget("evals", 30000), pivot_rule=pivot,
                                  lambda_schedule=LambdaSchedule.staged_ramp(30000),
                                  toy_kind=kind, seed=seed, log_interval=1700)
            result = lsils(inst, config) if kind else ils(inst, config)
            text = io.StringIO()
            write_runlog_csv(result.records, text)
            logs[result.algo, seed] = (text.getvalue(), result.best_value,
                                       result.best_solution.tobytes(), result.evaluations)
    return logs


@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_runs_are_byte_identical_on_both_paths(pivot, request):
    inst = make_instance(45, seed=21)
    compiled = _run_logs(inst, pivot)
    request.getfixturevalue("no_kernel")
    assert _kernel.library() is None
    assert _run_logs(inst, pivot) == compiled


@pytest.mark.parametrize("pivot", PIVOT_RULES)
def test_plain_build_runs_as_the_dispatched_one(pivot, tmp_path, monkeypatch):
    # A compiler without __has_attribute builds lsils_iterate once, with no
    # per-CPU clones and no forced inlining, as on a platform without ifunc.
    inst = make_instance(MAX_N, seed=22)
    dispatched = _run_logs(inst, pivot)
    plain = tmp_path / "plain.so"
    subprocess.run([_kernel._compiler(), "-D__has_attribute(x)=0", *_kernel.FLAGS,
                    "-o", str(plain), str(_kernel.SOURCE)], check=True, capture_output=True)
    assert b"lsils_iterate.resolver" not in plain.read_bytes()
    monkeypatch.setattr(_kernel, "_build", lambda: ctypes.CDLL(str(plain)))
    _kernel.library.cache_clear()
    try:
        assert _run_logs(inst, pivot) == dispatched
    finally:
        _kernel.library.cache_clear()


@pytest.mark.slow
def test_search_tests_pass_on_the_numpy_path(tmp_path):
    plugin = tmp_path / "numpy_descent.py"
    plugin.write_text(textwrap.dedent("""
        from lsils import _kernel, search

        def _fail():
            raise OSError("no C compiler found")

        _kernel._build = _fail
        _kernel.library.cache_clear()
        _descents = []
        _reference = search._descend

        def _counted(*args):
            _descents.append(1)
            return _reference(*args)

        search._descend = _counted

        def pytest_sessionfinish(session):
            print(f"kernel={_kernel.library()} numpy descents={len(_descents)}")
    """))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(tmp_path)])}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "numpy_descent",
         str(ROOT / "tests" / "test_search.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    found = re.search(r"kernel=None numpy descents=(\d+)", done.stdout)
    assert found and int(found.group(1)) > 0, done.stdout[-2000:]
