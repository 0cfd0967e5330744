"""Solver tests: perturbation, local search, ILS, and the smoothed variant."""

import gc
import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsils import (
    Budget,
    LambdaSchedule,
    RunLogRecord,
    SearchConfig,
    SmoothedObjective,
    ToyKind,
    UbqpInstance,
    auto_alpha,
    construct_toy,
    enumerate_local_optima,
    evaluate,
    flip_delta,
    gen_random_instance,
    ils,
    local_search,
    lsils,
    random_solution,
    read_runlog_csv,
    seeded_rng,
    write_runlog_csv,
)
from lsils.qubo import INIT_STREAM
from lsils.search import BUDGET_KINDS, BestTracker, RunLog, _Meter, sample_distinct_positions

import oracles
from test_qubo import make_instance
from test_smoothing import blended_gains


class TestConfigValidation:
    def test_budget_kind_checked(self):
        with pytest.raises(ValueError, match="kind"):
            Budget("flips", 100)

    def test_budget_amount_positive(self):
        for amount in (0, -5, float("nan")):
            with pytest.raises(ValueError, match="positive"):
                Budget("evals", amount)
        # local_search meters an unbounded descent this way.
        assert Budget("evals", float("inf")).amount == float("inf")

    def test_pivot_rule_checked(self):
        with pytest.raises(ValueError, match="pivot"):
            SearchConfig(budget=Budget("evals", 10), pivot_rule="steepest")

    def test_alpha_checked(self):
        with pytest.raises(ValueError, match="alpha"):
            SearchConfig(budget=Budget("evals", 10), alpha="big")
        for alpha in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                SearchConfig(budget=Budget("evals", 10), alpha=alpha)

    def test_toy_kind_coerced(self):
        cfg = SearchConfig(budget=Budget("evals", 10), toy_kind="plusminusi")
        assert cfg.toy_kind is ToyKind.PLUS_MINUS_I

    def test_log_interval_checked(self):
        for bad in (0, -5, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="log interval"):
                SearchConfig(budget=Budget("evals", 100), log_interval=bad)
        assert SearchConfig(budget=Budget("evals", 100), log_interval=None).log_interval is None

    @pytest.mark.parametrize("budget, unit", [(Budget("seconds", 0.3), "evals"),
                                              (Budget("evals", 1000), "seconds")])
    def test_schedule_unit_must_match_budget(self, budget, unit):
        schedule = LambdaSchedule.staged_ramp(1000, unit=unit)
        with pytest.raises(ValueError, match="unit"):
            SearchConfig(budget=budget, lambda_schedule=schedule,
                         toy_kind=ToyKind.PLUS_MINUS_I)

    def test_lsils_requires_toy_kind(self):
        inst = make_instance(8, seed=0)
        with pytest.raises(ValueError, match="toy"):
            lsils(inst, SearchConfig(budget=Budget("evals", 100)))

    def test_perturbation_bits_range_checked(self):
        inst = make_instance(8, seed=0)
        for bits in (0, 9):
            cfg = SearchConfig(budget=Budget("evals", 100), perturbation_bits=bits)
            with pytest.raises(ValueError, match="bits"):
                ils(inst, cfg)


class TestSampling:
    @given(st.integers(1, 40), st.integers(0, 2**32), st.data())
    def test_positions_distinct_and_in_range(self, n, seed, data):
        count = data.draw(st.integers(1, n))
        pos = sample_distinct_positions(seeded_rng(seed), n, count)
        assert pos.size == count
        assert len(set(pos.tolist())) == count
        assert pos.min() >= 0 and pos.max() < n

    def test_full_count_is_permutation(self):
        pos = sample_distinct_positions(seeded_rng(7), 12, 12)
        assert sorted(pos.tolist()) == list(range(12))

    @given(st.integers(1, 600), st.integers(0, 2**32), st.data())
    def test_matches_sequential_fisher_yates(self, n, seed, data):
        count = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        ours, reference = seeded_rng(seed, 2), seeded_rng(seed, 2)
        pos = sample_distinct_positions(ours, n, count)
        assert np.array_equal(pos, oracles.fisher_yates_positions(reference, n, count))
        assert ours.integers(0, 2**62) == reference.integers(0, 2**62)

    @pytest.mark.parametrize("n, count", [(500, 125), (7, 7), (1, 1), (100000, 300)])
    def test_matches_sequential_fisher_yates_at_search_sizes(self, n, count):
        for seed in range(20):
            ours, reference = seeded_rng(seed, 2), seeded_rng(seed, 2)
            pos = sample_distinct_positions(ours, n, count)
            assert np.array_equal(pos, oracles.fisher_yates_positions(reference, n, count))
            assert ours.random() == reference.random()

    def test_count_out_of_range(self):
        rng = seeded_rng(0)
        with pytest.raises(ValueError):
            sample_distinct_positions(rng, 5, 0)
        with pytest.raises(ValueError):
            sample_distinct_positions(rng, 5, 6)


def assert_no_improving_flip(objective, x):
    for k in range(x.size):
        assert flip_delta(objective, x, k) <= 0


class TestMeter:
    @staticmethod
    def meter(budget, interval, consumed):
        x = np.zeros(3, dtype=np.int8)
        meter = _Meter(Budget("evals", budget), interval, BestTracker.start(x, 0))
        if consumed:
            meter.charge(consumed)
        meter.tracker.best_value = 7
        return meter

    @given(st.integers(0, 3000), st.one_of(st.integers(1, 400), st.floats(0.5, 400)),
           st.integers(1, 5000), st.integers(1, 60), st.integers(1, 60))
    def test_batched_charge_emits_the_per_step_records(self, consumed, interval, budget,
                                                      n, bits):
        batched = self.meter(budget, interval, consumed)
        stepped = self.meter(budget, interval, consumed)
        batched.charge(n, steps=bits)
        for _ in range(bits):
            stepped.charge(n)
        assert batched.records == stepped.records
        assert (batched.consumed, batched.next_mark) == (stepped.consumed, stepped.next_mark)


class TestRunLog:
    @given(st.sampled_from(BUDGET_KINDS),
           st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62),
                              st.integers(-2**62, 2**62), st.floats(0, 1)), max_size=30))
    def test_records_return_the_appended_points(self, kind, points):
        log = RunLog(kind)
        expected = []
        for elapsed, evaluations, best, lam in points:
            if kind == "seconds":
                elapsed /= 1000
            log.append(elapsed, evaluations, best, lam)
            expected.append(RunLogRecord(elapsed=elapsed, evaluations=evaluations,
                                         best_f=best, lam=lam))
        assert len(log) == len(points)
        assert log.records == expected
        assert {type(r.elapsed) for r in log.records} <= {int if kind == "evals" else float}

    @pytest.mark.parametrize("budget, interval", [(Budget("evals", 20000), 900),
                                                  (Budget("seconds", 0.05), 0.01)])
    def test_run_logs_round_trip_through_csv(self, budget, interval):
        result = ils(make_instance(30, seed=2), SearchConfig(budget=budget, log_interval=interval))
        records = result.records
        assert len(records) >= 2
        assert {type(r.elapsed) for r in records} == {int if budget.kind == "evals" else float}
        text = io.StringIO()
        write_runlog_csv(records, text)
        back, _ = read_runlog_csv(io.StringIO(text.getvalue()))
        if budget.kind == "evals":
            assert back == records
        else:  # the CSV keeps seconds to three decimals
            assert [r.elapsed for r in back] == [round(r.elapsed, 3) for r in records]
            assert [r.best_f for r in back] == [r.best_f for r in records]

    def test_run_result_pickles(self):
        # `lsils batch --jobs` sends results back from worker processes.
        result = lsils(make_instance(30, seed=3), SearchConfig(
            budget=Budget("evals", 20000), log_interval=700, toy_kind=ToyKind.RANDOM,
            lambda_schedule=LambdaSchedule.staged_ramp(20000)))
        back = pickle.loads(pickle.dumps(result))
        assert back.records == result.records
        assert back.log.elapsed.typecode == "q"
        assert (back.algo, back.seed, back.best_value, back.evaluations) == \
            (result.algo, result.seed, result.best_value, result.evaluations)
        assert np.array_equal(back.best_solution, result.best_solution)

    def test_a_block_of_runs_retains_few_bytes_per_record(self):
        # A 40-run block of about 101 records a run, kept whole as the
        # benchmark and `lsils batch` keep it: about 44 bytes a record, where
        # one RunLogRecord object per record took about 122.
        inst = make_instance(100, seed=7)
        budget = 200_000

        def run(seed):
            return ils(inst, SearchConfig(budget=Budget("evals", budget), seed=seed,
                                          log_interval=budget // 100))

        run(0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            kept = [run(seed) for seed in range(40)]
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        retained = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        records = sum(len(result.records) for result in kept)
        assert records >= 40 * 100
        assert retained / records <= 56, f"{retained / records:.1f} bytes per record"


class TestLocalSearch:
    @pytest.mark.parametrize("kind", list(ToyKind))
    @pytest.mark.parametrize("pivot", ["best", "first"])
    def test_toy_descends_to_anchor(self, kind, pivot):
        anchor = random_solution(12, seeded_rng(5))
        toy = construct_toy(kind, anchor, seed=9)
        for s in range(6):
            x = random_solution(12, seeded_rng(50 + s))
            out = local_search(x, toy, pivot_rule=pivot)
            assert np.array_equal(out, anchor)

    def test_locally_optimal_start_unchanged(self):
        inst = make_instance(8, seed=3)
        count, optima = enumerate_local_optima(inst)
        assert count >= 1
        x = optima[0]
        out = local_search(x, inst)
        assert np.array_equal(out, x)

    @given(st.integers(2, 16), st.integers(0, 2**32))
    def test_output_has_no_improving_flip(self, n, seed):
        inst = make_instance(n, seed=seed % 1000)
        x = random_solution(n, seeded_rng(seed))
        out = local_search(x, inst)
        assert_no_improving_flip(inst, out)

    def test_output_in_enumerated_optima_set(self):
        inst = gen_random_instance(18, 1.0, (-100, 100), seed=12)
        _, optima = enumerate_local_optima(inst, cap=100000)
        optima_set = {tuple(o.tolist()) for o in optima}
        for s in range(5):
            out = local_search(random_solution(18, seeded_rng(s)), inst)
            assert tuple(out.tolist()) in optima_set

    @pytest.mark.parametrize("pivot", ["best", "first"])
    def test_fixed_points_are_exactly_the_local_optima(self, pivot):
        n = 12
        inst = make_instance(n, seed=21)
        _, optima = enumerate_local_optima(inst, cap=1 << n)
        optima_set = {tuple(o.tolist()) for o in optima}
        fixed = set()
        for s in range(1 << n):
            x = np.array([(s >> i) & 1 for i in range(n)], dtype=np.int8)
            out = local_search(x, inst, pivot_rule=pivot)
            if np.array_equal(out, x):
                fixed.add(tuple(x.tolist()))
        assert fixed == optima_set

    def test_smoothed_full_weight_returns_anchor(self):
        # With the blend fully on the toy side, every descent lands on the
        # anchor no matter where the perturbation started.
        n = 14
        inst = make_instance(n, seed=8)
        anchor = random_solution(n, seeded_rng(77))
        toy = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor)
        obj = SmoothedObjective(
            instance=inst, toy=toy, lam=1.0, alpha=auto_alpha(inst, toy))
        rng = seeded_rng(123)
        for _ in range(200):
            x = anchor.copy()
            x[sample_distinct_positions(rng, n, int(rng.integers(1, n + 1)))] ^= 1
            out = local_search(x, obj)
            assert np.array_equal(out, anchor)

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    @pytest.mark.parametrize("pivot", ["best", "first"])
    def test_smoothed_partial_weight_has_no_positive_blended_gain(self, lam, pivot):
        n = 20
        inst = make_instance(n, seed=31)
        rng = seeded_rng(32)
        for kind in (ToyKind.PLUS_MINUS_I, ToyKind.RANDOM):
            toy = construct_toy(kind, random_solution(n, rng), seed=5)
            obj = SmoothedObjective(
                instance=inst, toy=toy, lam=lam, alpha=auto_alpha(inst, toy))
            for _ in range(10):
                out = local_search(random_solution(n, rng), obj, pivot_rule=pivot)
                assert blended_gains(obj, out).max() <= 0

    def test_invalid_pivot_rejected(self):
        inst = make_instance(6, seed=0)
        with pytest.raises(ValueError, match="pivot"):
            local_search(random_solution(6, seeded_rng(0)), inst, pivot_rule="x")


def gains_past_2_53() -> UbqpInstance:
    """n = 24, where from 0 bits 5, 9, 13, 17 gain 2^53 + (1, 2, 3, 5).

    Flipping any one of them makes the other three lose, and every other
    bit loses. As doubles the four gains round to 2^53 + (0, 2, 4, 4), so a
    float pivot takes bit 13 where the exact integer pivot takes bit 17.
    """
    n, big = 24, 2**53
    q = np.diag(np.full(n, -1, dtype=np.int64))
    bits = [5, 9, 13, 17]
    for i, extra in zip(bits, (1, 2, 3, 5)):
        q[i, i] = big + extra
        for j in bits:
            if j != i:
                q[i, j] = -big
    return UbqpInstance.from_matrix(q)


def small_run(n=40, amount=20000, seed=0, **kw):
    inst = make_instance(n, seed=seed + 500)
    cfg = SearchConfig(budget=Budget("evals", amount), seed=seed, **kw)
    return inst, cfg


class TestIls:
    def test_degenerate_budget_equals_first_descent(self):
        inst, cfg = small_run(amount=1, seed=4)
        result = ils(inst, cfg)
        x0 = random_solution(inst.n, seeded_rng(4, INIT_STREAM))
        expected = local_search(x0, inst)
        assert np.array_equal(result.best_solution, expected)
        assert result.best_value == evaluate(inst, expected)

    def test_best_matches_fresh_evaluate(self):
        inst, cfg = small_run(seed=1)
        result = ils(inst, cfg)
        assert result.best_value == evaluate(inst, result.best_solution)
        assert_no_improving_flip(inst, result.best_solution)

    def test_records_monotone_and_final_row_matches(self):
        inst, cfg = small_run(amount=30000, seed=2, log_interval=5000)
        result = ils(inst, cfg)
        best_series = [r.best_f for r in result.records]
        assert best_series == sorted(best_series)
        last = result.records[-1]
        assert last.best_f == result.best_value
        assert last.evaluations == result.evaluations
        assert result.evaluations >= 30000

    def test_mark_grid_is_the_log_interval(self):
        inst, cfg = small_run(amount=30000, seed=6, log_interval=5000)
        result = ils(inst, cfg)
        marks = [r.elapsed for r in result.records[:-1]]
        assert marks == sorted(set(marks))
        assert all(m % 5000 == 0 and m <= 30000 for m in marks)

    def test_rerun_is_bit_identical(self):
        inst, cfg = small_run(seed=9, log_interval=4000)
        a = ils(inst, cfg)
        b = ils(inst, cfg)
        assert np.array_equal(a.best_solution, b.best_solution)
        assert (a.best_value, a.evaluations) == (b.best_value, b.evaluations)
        assert a.records == b.records

    def test_default_perturbation_is_quarter_of_n(self):
        inst, cfg = small_run(seed=3)
        explicit = SearchConfig(budget=cfg.budget, seed=3,
                                perturbation_bits=inst.n // 4)
        a = ils(inst, cfg)
        b = ils(inst, explicit)
        assert np.array_equal(a.best_solution, b.best_solution)
        assert a.evaluations == b.evaluations

    def test_beats_random_sampling_every_seed(self):
        n, amount = 100, 10**7
        inst = gen_random_instance(n, 1.0, (-100, 100), seed=31)
        q = inst.q.astype(np.float64)
        samples = amount // n
        for seed in range(20):
            result = ils(inst, SearchConfig(budget=Budget("evals", amount),
                                            seed=seed))
            rng = np.random.default_rng(seed)
            sample_best = -np.inf
            for start in range(0, samples, 20000):
                block = min(20000, samples - start)
                xs = rng.integers(0, 2, size=(block, n)).astype(np.float64)
                values = np.einsum("ij,ij->i", xs @ q, xs)
                sample_best = max(sample_best, float(values.max()))
            assert result.best_value >= sample_best

    def test_seconds_budget_runs_and_stops(self):
        inst = make_instance(50, seed=77)
        cfg = SearchConfig(budget=Budget("seconds", 0.2), seed=0,
                           log_interval=0.05)
        result = ils(inst, cfg)
        assert 0.2 <= result.elapsed_seconds < 5.0
        assert result.best_value == evaluate(inst, result.best_solution)
        elapsed = [r.elapsed for r in result.records]
        assert elapsed == sorted(elapsed)


class TestLsils:
    def test_zero_schedule_is_bit_identical_to_ils(self):
        inst = make_instance(60, seed=15)
        for kind in list(ToyKind):
            for seed in (0, 7):
                base_cfg = SearchConfig(budget=Budget("evals", 50000),
                                        seed=seed, log_interval=10000)
                smooth_cfg = SearchConfig(budget=Budget("evals", 50000),
                                          seed=seed, log_interval=10000,
                                          lambda_schedule=LambdaSchedule.zero(),
                                          toy_kind=kind)
                a = ils(inst, base_cfg)
                b = lsils(inst, smooth_cfg)
                assert np.array_equal(a.best_solution, b.best_solution)
                assert a.best_value == b.best_value
                assert a.evaluations == b.evaluations
                assert a.records == b.records

    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_zero_lambda_is_the_original_objective(self, kind):
        # At lam = 0, g is f, so the descent must take f's exact integer
        # gains: a float blend (1.0, 0.0) would round them and pick bit 13.
        inst = gains_past_2_53()
        x = np.zeros(inst.n, dtype=np.int8)
        g = SmoothedObjective(instance=inst, toy=construct_toy(kind, x, seed=3), lam=0.0,
                              alpha=1.0)
        assert local_search(x, g).nonzero()[0].tolist() == [17]
        assert np.array_equal(local_search(x, g), local_search(x, inst))
        for seed in range(10):
            config = SearchConfig(budget=Budget("evals", 20000), seed=seed, alpha=1.0,
                                  lambda_schedule=LambdaSchedule.zero(), toy_kind=kind,
                                  log_interval=1000)
            a, b = ils(inst, config), lsils(inst, config)
            assert np.array_equal(a.best_solution, b.best_solution)
            assert (a.best_value, a.evaluations) == (b.best_value, b.evaluations)
            assert a.records == b.records

    def test_full_weight_schedule_freezes_the_best(self):
        # At blend weight 1 every descent returns to the current best, so
        # the best never moves past the initial plain descent.
        inst = make_instance(60, seed=16)
        frozen = lsils(inst, SearchConfig(
            budget=Budget("evals", 40000), seed=5,
            lambda_schedule=LambdaSchedule.constant(1.0),
            toy_kind=ToyKind.PLUS_MINUS_ONE))
        first_descent = ils(inst, SearchConfig(budget=Budget("evals", 1), seed=5))
        assert frozen.best_value == first_descent.best_value
        assert np.array_equal(frozen.best_solution, first_descent.best_solution)

    def test_algo_labels(self):
        inst = make_instance(20, seed=17)
        r1 = ils(inst, SearchConfig(budget=Budget("evals", 2000), seed=0))
        r2 = lsils(inst, SearchConfig(budget=Budget("evals", 2000), seed=0,
                                      toy_kind="random"))
        assert r1.algo == "ils"
        assert r2.algo == "lsils-random"

    def test_records_lambda_column_follows_schedule(self):
        inst = make_instance(40, seed=18)
        schedule = LambdaSchedule.staged_ramp(40000)
        result = lsils(inst, SearchConfig(
            budget=Budget("evals", 40000), seed=1, log_interval=4000,
            lambda_schedule=schedule, toy_kind=ToyKind.PLUS_MINUS_I))
        lams = [r.lam for r in result.records]
        assert lams == sorted(lams)
        assert set(lams) <= {0.0, 0.001, 0.002, 0.003, 0.004}
        assert lams[-1] == 0.004

    def test_best_matches_fresh_evaluate_and_is_monotone(self):
        inst = make_instance(50, seed=19)
        result = lsils(inst, SearchConfig(
            budget=Budget("evals", 60000), seed=2, log_interval=6000,
            lambda_schedule=LambdaSchedule.staged_ramp(60000),
            toy_kind=ToyKind.PLUS_MINUS_I))
        assert result.best_value == evaluate(inst, result.best_solution)
        series = [r.best_f for r in result.records]
        assert series == sorted(series)

    def test_random_toy_rerun_is_bit_identical(self):
        inst = make_instance(50, seed=20)
        cfg = dict(budget=Budget("evals", 60000), seed=3, log_interval=6000,
                   lambda_schedule=LambdaSchedule.staged_ramp(60000),
                   toy_kind=ToyKind.RANDOM)
        a = lsils(inst, SearchConfig(**cfg))
        b = lsils(inst, SearchConfig(**cfg))
        assert np.array_equal(a.best_solution, b.best_solution)
        assert (a.best_value, a.evaluations) == (b.best_value, b.evaluations)
        assert a.records == b.records
