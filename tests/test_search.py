"""Solver tests: perturbation, local search, ILS, and the smoothed variant."""

import gc
import hashlib
import io
import pickle
import sys
import tracemalloc
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsils import (
    Budget,
    GainCache,
    LambdaSchedule,
    RunLogRecord,
    SearchConfig,
    SmoothedObjective,
    ToyKind,
    UbqpInstance,
    attach_excess,
    auto_alpha,
    construct_toy,
    enumerate_local_optima,
    evaluate,
    gen_random_instance,
    ils,
    local_search,
    lsils,
    random_solution,
    read_runlog_csv,
    seeded_rng,
    write_runlog_csv,
)
from lsils import bench_io, search
from lsils.qubo import INIT_STREAM
from lsils.search import BUDGET_KINDS, RunLog

import oracles
from test_qubo import make_instance, random_symmetric
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
        # Every mark of the run is laid out up front, so the budget must end.
        for kind in BUDGET_KINDS:
            with pytest.raises(ValueError, match="log interval"):
                SearchConfig(budget=Budget(kind, float("inf")), log_interval=10)
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


def sample_positions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` distinct positions from one vectorised draw of swap targets, as a run draws them."""
    return oracles.swap_positions(rng.integers(np.arange(count), n))


class TestSampling:
    @given(st.integers(1, 40), st.integers(0, 2**32), st.data())
    def test_positions_distinct_and_in_range(self, n, seed, data):
        count = data.draw(st.integers(1, n))
        pos = sample_positions(seeded_rng(seed), n, count)
        assert pos.size == count
        assert len(set(pos.tolist())) == count
        assert pos.min() >= 0 and pos.max() < n

    def test_full_count_is_permutation(self):
        pos = sample_positions(seeded_rng(7), 12, 12)
        assert sorted(pos.tolist()) == list(range(12))

    @given(st.integers(1, 600), st.integers(0, 2**32), st.data())
    def test_matches_sequential_fisher_yates(self, n, seed, data):
        count = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
        ours, reference = seeded_rng(seed, 2), seeded_rng(seed, 2)
        pos = sample_positions(ours, n, count)
        assert np.array_equal(pos, oracles.fisher_yates_positions(reference, n, count))
        assert ours.integers(0, 2**62) == reference.integers(0, 2**62)

    @pytest.mark.parametrize("n, count", [(500, 125), (7, 7), (1, 1), (100000, 300)])
    def test_matches_sequential_fisher_yates_at_search_sizes(self, n, count):
        for seed in range(20):
            ours, reference = seeded_rng(seed, 2), seeded_rng(seed, 2)
            pos = sample_positions(ours, n, count)
            assert np.array_equal(pos, oracles.fisher_yates_positions(reference, n, count))
            assert ours.random() == reference.random()

    @pytest.mark.parametrize("bits, n, chunk", [(1, 1, 1), (1, 9, 5), (3, 3, 2), (11, 45, 64),
                                                 (125, 500, 64), (300, 100000, 3)])
    def test_chunked_targets_are_the_per_iteration_draws(self, bits, n, chunk, monkeypatch):
        # The run's swap targets, drawn `chunk` iterations at a time, are the
        # draws made one iteration at a time, and pick the same positions,
        # across chunk ends.
        monkeypatch.setattr(search, "TARGET_CHUNK", chunk)
        targets = search._SwapTargets(seeded_rng(bits, 2), n, bits)
        one_at_a_time, positions = seeded_rng(bits, 2), seeded_rng(bits, 2)
        for _ in range(2 * chunk + 1):
            taken = oracles.take_targets(targets)
            assert np.array_equal(taken, one_at_a_time.integers(np.arange(bits), n))
            assert np.array_equal(oracles.swap_positions(taken),
                                  sample_positions(positions, n, bits))
        assert targets.at == bits  # one iteration into the third chunk


def assert_no_improving_flip(objective, x):
    assert GainCache.build(objective, x).gains.max() <= 0


def retained_block():
    """A 40-run ILS block (n=100, 2e5 evals, a mark every 2000), and the bytes
    it retains by tracemalloc, after a first run has warmed every cache."""
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
    return kept, sum(stat.size_diff for stat in after.compare_to(before, "filename"))


class TestRunLog:
    @given(st.sampled_from(BUDGET_KINDS),
           st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62),
                              st.integers(-2**62, 2**62),
                              st.floats(0, 1)), max_size=30))
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
        assert [str(r.lam) for r in log.records] == [str(r.lam) for r in expected]
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
        # benchmark and `lsils batch` keep it: about 30 bytes a record. One
        # RunLogRecord object per record took about 122, four packed columns
        # and an unslotted RunResult about 44.
        kept, retained = retained_block()
        records = sum(len(result.records) for result in kept)
        assert records >= 40 * 100
        assert retained / records <= 36, f"{retained / records:.1f} bytes per record"

    def test_aligned_runs_share_one_column(self):
        # Every mark of these best-improvement runs lands on a charge, so the
        # logs keep one column for elapsed and evaluations: about 22 bytes a
        # record for the same block as above, where two columns took about 31.
        kept, retained = retained_block()
        assert all(result.log.elapsed is result.log.evaluations for result in kept)
        records = sum(len(result.records) for result in kept)
        assert retained / records <= 26, f"{retained / records:.1f} bytes per record"

    def test_points_share_one_column_until_one_differs(self):
        points = [(100, 100, 5, 0.0), (200, 200, 7, 0.0), (300, 301, 7, 0.5), (400, 400, 9, 0.5)]
        log = RunLog("evals")
        for i, point in enumerate(points):
            log.append(*point)
            assert (log.elapsed is log.evaluations) == (i < 2)
        assert log.records == [RunLogRecord(*point) for point in points]
        assert RunLog("seconds").elapsed.typecode == "d"

    def test_misaligned_logs_keep_their_marks(self):
        # First-improvement scans charge the candidates examined, so a mark is
        # stamped at the first count past it: elapsed is copied out of the
        # evaluations column, and keeps the mark grid.
        inst = make_instance(40, seed=3)
        interval = 700
        result = ils(inst, SearchConfig(budget=Budget("evals", 20000), pivot_rule="first",
                                        log_interval=interval))
        log, records = result.log, result.records
        assert log.elapsed is not log.evaluations
        assert [r.elapsed for r in records[:-1]] == [interval * k for k in range(1, len(records))]
        assert any(r.evaluations > r.elapsed for r in records)
        assert records[-1].elapsed == records[-1].evaluations == result.evaluations
        back = pickle.loads(pickle.dumps(result))
        assert back.records == records

    @given(st.sampled_from(BUDGET_KINDS),
           st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.001, 0.5]),
                              st.lists(st.tuples(st.integers(0, 2**40),
                                                 st.sampled_from([0, 0, 0, 1]),
                                                 st.integers(-3, 3)), max_size=12)),
                    max_size=6))
    def test_extend_is_repeated_append(self, kind, batches):
        # Batches as a kernel call returns them: one lambda each, best values
        # that repeat, and elapsed that leaves the evaluation count anywhere.
        bulk, single = RunLog(kind), RunLog(kind)
        for lam, points in batches:
            elapsed = [evaluations + offset for evaluations, offset, _ in points]
            if kind == "seconds":
                elapsed = [e / 1000 for e in elapsed]
            evaluations = [evaluations for evaluations, _, _ in points]
            best_f = [best for _, _, best in points]
            bulk.extend(elapsed, evaluations, best_f, lam)
            for point in zip(elapsed, evaluations, best_f):
                single.append(*point, lam)
            assert (bulk.elapsed is bulk.evaluations) == (single.elapsed is single.evaluations)
        for column in RunLog.__slots__:
            a, b = getattr(bulk, column), getattr(single, column)
            assert (a.typecode, a.tobytes()) == (b.typecode, b.tobytes()), column
        assert bulk.records == single.records

    @pytest.mark.parametrize("interval, amount", [
        (1000, 20000), (333.3, 20000), (0.1, 50), (12.25, 40000), (0.7, 3000),
        (500, 100),  # the first mark is past the budget, and kept
        (2**62, 2**63 + 5), (2.0**62, 2.0**63)])  # the last mark clamps at INT64_MAX
    def test_marks_are_the_running_sums_of_the_interval(self, interval, amount):
        run = search._Run(5, "best", Budget("evals", amount), interval)
        marks = oracles.log_marks(interval, amount)
        assert run.mark_elapsed == [elapsed for elapsed, _ in marks]
        assert {type(elapsed) for elapsed in run.mark_elapsed} == {int}
        assert run.marks.tolist() == [count for _, count in marks]
        assert run.stamps.size == 2 * len(marks) == 2 * run.state[search._kernel.ST_MARKS]
        assert run.next_mark == interval

    def test_a_mark_next_to_the_int64_clamp_is_logged(self):
        # A mark of 2^62 evaluations, reached in the kernel's first scan, then
        # one clamped to INT64_MAX, which no count reaches.
        n = 12
        run = search._Run(n, "best", Budget("evals", 2.0**63), 2.0**62)
        assert run.marks.tolist() == [2**62, 2**63 - 1]
        run.value = run.best = run.build(0, make_instance(n, seed=1), np.zeros(n, dtype=np.int8))
        run.consumed = 2**62 - 10
        run.iterate()
        assert run.log.records[0] == RunLogRecord(2**62, 2**62 - 10 + n, 0, 0.0)
        assert len(run.log) == int(run.state[search._kernel.ST_MARKED]) == 1
        assert run.next_mark == 2.0**63

    # Digests as in golden_digest, of logs scored and written as the benchmark
    # writes them, taken when every mark was logged by its own append.
    @pytest.mark.parametrize("seed, algo, n, amount, interval, pivot, kind, digest", [
        (1, ils, 40, 30000, 333.3, "best", None, "163e9b3e421b807e"),  # int and ceil differ
        (2, ils, 40, 30000, 700, "first", None, "96334e3f36f7a596"),  # two columns
        (3, lsils, 40, 30000, 450.5, "first", ToyKind.RANDOM, "31aca5867be665dc"),
        (4, lsils, 40, 200000, 50, "best", ToyKind.PLUS_MINUS_I, "598b665eb4cec72a"),
        (5, ils, 100, 40000, 37, "best", None, "95b4a7ac52b6fef8"),  # marks closer than n
        (6, ils, 100, 40000, 12.25, "first", None, "ea58d12d3e3b3244"),
    ])
    def test_bulk_marks_log_what_single_marks_did(self, seed, algo, n, amount, interval, pivot,
                                                  kind, digest):
        schedule = LambdaSchedule.staged_ramp(amount) if kind else None
        result = algo(make_instance(n, seed=seed + 10), SearchConfig(
            budget=Budget("evals", amount), pivot_rule=pivot, log_interval=interval, seed=seed,
            toy_kind=kind, lambda_schedule=schedule))
        text = io.StringIO()
        write_runlog_csv(attach_excess(result.records, result.best_value + 7), text)
        text.write("".join(map(str, result.best_solution.tolist())))
        assert hashlib.sha256(text.getvalue().encode()).hexdigest()[:16] == digest

    def test_seconds_marks_are_the_running_sums_of_the_interval(self):
        interval = 0.013
        result = ils(make_instance(50, seed=77), SearchConfig(
            budget=Budget("seconds", 0.1), log_interval=interval))
        marks = [r.elapsed for r in result.records[:-1]]
        assert marks == list(accumulate(repeat(interval, len(marks))))
        assert len(marks) >= 2

    def test_a_run_logs_in_bulk_and_writes_a_tail_per_step(self, monkeypatch):
        # A 1e6-evaluation run with 100 marks: no point is appended one at a
        # time but the final one, no integer elapsed goes through the general
        # formatter, and a step's `,best_f,lambda,excess` is formatted once.
        calls = {"append": [], "format": 0, "tail": 0}
        append, tail = RunLog.append, bench_io._row_tail

        def counted_append(log, *point):
            calls["append"].append(sys._getframe(2).f_code.co_name)  # _emit's caller
            append(log, *point)

        def counted_tail(*fields):
            calls["tail"] += 1
            return tail(*fields)

        def no_format(elapsed):
            calls["format"] += 1
            return f"{elapsed:.3f}"

        monkeypatch.setattr(RunLog, "append", counted_append)
        monkeypatch.setattr(bench_io, "_row_tail", counted_tail)
        monkeypatch.setattr(bench_io, "_format_elapsed", no_format)
        result = ils(make_instance(100, seed=8), SearchConfig(
            budget=Budget("evals", 10**6), log_interval=10**4))
        records = attach_excess(result.records, result.best_value)
        text = io.StringIO()
        write_runlog_csv(records, text)
        assert len(records) == 101
        assert calls == {"append": ["finish"], "format": 0, "tail": len(result.log.starts)}
        assert text.getvalue().splitlines()[1:] == oracles.runlog_rows(records)


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
            x[sample_positions(rng, n, int(rng.integers(1, n + 1)))] ^= 1
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

    def test_blends_past_the_exact_bound_are_rejected(self):
        # n = 8 and entries up to 2^50: at lam = 0.5, alpha = 1 (weights 1:1)
        # gains may reach 16 * 2^50 = 2^54, past the bound 2^53.
        n = 8
        inst = UbqpInstance.from_matrix(random_symmetric(n, seeded_rng(40), -2**50, 2**50))
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_solution(n, seeded_rng(41)))
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=1.0)
        with pytest.raises(ValueError, match=r"lam=0\.5, alpha=1: .*2\^53"):
            local_search(random_solution(n, seeded_rng(42)), obj)
        with pytest.raises(ValueError, match=r"2\^53"):
            enumerate_local_optima(obj)
        config = SearchConfig(budget=Budget("evals", 5000), toy_kind=ToyKind.PLUS_MINUS_I,
                              alpha=1.0, lambda_schedule=LambdaSchedule.constant(0.5))
        with pytest.raises(ValueError, match=r"2\^53"):
            lsils(inst, config)
        # At lam = 0 nothing is blended, and at lam = 1 only the toy counts.
        for lam in (0.0, 1.0):
            obj = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=1.0)
            out = local_search(random_solution(n, seeded_rng(42)), obj)
            assert blended_gains(obj, out).max() <= 0

    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_blends_past_the_bound_fail_before_the_run_starts(self, kind, monkeypatch):
        # The paper ramp blends from 20% of the budget on, but its blends are
        # checked before any evaluation or kernel call, the random toy's at
        # every largest draw it can have.
        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(search._Run, "charge", started)
        monkeypatch.setattr(search._Run, "iterate", started)
        inst = UbqpInstance.from_matrix(random_symmetric(8, seeded_rng(40), -2**50, 2**50))
        config = SearchConfig(budget=Budget("evals", 2 * 10**8), toy_kind=kind,
                              lambda_schedule=LambdaSchedule.staged_ramp(2 * 10**8))
        with pytest.raises(ValueError, match=r"lam=0\.001, .*2\^53"):
            lsils(inst, config)
        # A step at or past the budget's end is never reached, so not checked.
        config.lambda_schedule = LambdaSchedule(steps=((2 * 10**8, 0.5),))
        with pytest.raises(AssertionError, match="the run started"):
            lsils(inst, config)

    def test_a_random_toy_run_starts_when_some_draw_passes(self, monkeypatch):
        # At lam = 0.5, alpha = 1 (weights 1:1), 2n max|Q| + 2n p reaches
        # 2^53 for a largest draw p = 100, not for p = 1.
        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(search._Run, "charge", started)
        inst = UbqpInstance.from_matrix(np.full((8, 8), 2**49 - 50))
        config = SearchConfig(budget=Budget("evals", 5000), toy_kind=ToyKind.RANDOM,
                              alpha=1.0, lambda_schedule=LambdaSchedule.constant(0.5))
        with pytest.raises(AssertionError, match="the run started"):
            lsils(inst, config)

    @pytest.mark.parametrize("pivot", ["best", "first"])
    def test_blends_just_below_the_bound_are_exact(self, pivot):
        # Weights 1:1 with 2n max|Q| + 2n max|t| one below 2^53: the descent
        # stops only where the exact integer blend has no positive gain.
        n = 8
        bound = (2**53 - 1 - 2 * n * n) // (2 * n)
        inst = UbqpInstance.from_matrix(random_symmetric(n, seeded_rng(43), -bound, bound))
        toy = construct_toy(ToyKind.PLUS_MINUS_I, random_solution(n, seeded_rng(44)))
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.5, alpha=1.0)
        assert obj.integer_weights(2 * n) == (1, 1)
        rng = seeded_rng(45)
        for _ in range(20):
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


GOLDEN_BUDGET = 1_000_000


def golden_digest(inst, kind=None, pivot="best", schedule=None) -> str:
    """sha256 (first 16 hex digits) of a run log's CSV followed by the best
    solution's bits, for a seed-4 run of ILS (`kind` None) or LS-ILS."""
    config = SearchConfig(budget=Budget("evals", GOLDEN_BUDGET), pivot_rule=pivot, seed=4,
                          toy_kind=kind, log_interval=GOLDEN_BUDGET // 50,
                          lambda_schedule=schedule)
    result = lsils(inst, config) if kind else ils(inst, config)
    text = io.StringIO()
    write_runlog_csv(result.records, text)
    text.write("".join(map(str, result.best_solution.tolist())))
    return hashlib.sha256(text.getvalue().encode()).hexdigest()[:16]


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
        # At lam = 0, g is f and its blend weights are (1, 0), so the descent
        # must take f's exact integer gains: rounded to doubles, they would
        # pick bit 13.
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

    def test_zero_schedule_builds_no_toy(self, monkeypatch):
        # At lam = 0 the descent reads neither the toy nor its gains.
        calls = []

        def counted(kind, anchor, seed=0):
            calls.append(kind)
            return construct_toy(kind, anchor, seed=seed)

        monkeypatch.setattr(search, "construct_toy", counted)
        inst = make_instance(60, seed=15)
        for kind in list(ToyKind):
            lsils(inst, SearchConfig(budget=Budget("evals", 50000), seed=1, toy_kind=kind,
                                     lambda_schedule=LambdaSchedule.zero()))
        assert calls == []
        lsils(inst, SearchConfig(budget=Budget("evals", 50000), seed=1, toy_kind=ToyKind.RANDOM,
                                 lambda_schedule=LambdaSchedule.constant(0.5)))
        assert calls

    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_a_run_asks_for_the_toy_peaks_once(self, kind, monkeypatch):
        # The ramp's four lambda steps and the gain width share one answer.
        calls, peaks = [], search.toy_peaks

        def counted(*args):
            calls.append(args)
            return peaks(*args)

        monkeypatch.setattr(search, "toy_peaks", counted)
        inst = make_instance(30, seed=15)
        lsils(inst, SearchConfig(budget=Budget("evals", 20000), seed=1, toy_kind=kind,
                                 lambda_schedule=LambdaSchedule.staged_ramp(20000)))
        assert calls == [(kind, 30)]
        ils(inst, SearchConfig(budget=Budget("evals", 20000), seed=1, toy_kind=kind))
        assert len(calls) == 1

    # Recorded when every anchor change still built its toy and its gain
    # cache whatever lam was: building them only while lam > 0 must leave
    # every trajectory as it was.
    GOLDEN_RUNS = {
        ("ramp", "plusminus1", "best"): "a7080e88d836c63c",
        ("ramp", "plusminus1", "first"): "184b297f77674790",
        ("ramp", "plusminusi", "best"): "99493552b8dc78ff",
        ("ramp", "plusminusi", "first"): "1fdd0348df5b3f80",
        ("ramp", "random", "best"): "0daa61451470f307",
        ("ramp", "random", "first"): "f98942cce8501e60",
        ("return", "plusminus1", "best"): "a3841af1992df459",
        ("return", "plusminus1", "first"): "319adbec162168e4",
        ("return", "plusminusi", "best"): "c6fcdc6b56f31476",
        ("return", "plusminusi", "first"): "1735218d093d0876",
        ("return", "random", "best"): "a3841af1992df459",
        ("return", "random", "first"): "f9153202de4dd956",
    }

    @pytest.mark.parametrize("schedule, kind, pivot", sorted(GOLDEN_RUNS))
    def test_run_logs_match_golden_hashes(self, schedule, kind, pivot):
        budget = GOLDEN_BUDGET
        schedules = {
            "ramp": LambdaSchedule.staged_ramp(budget),
            # Up, back to 0 while the best moves, and up again.
            "return": LambdaSchedule(steps=((0.2 * budget, 0.3), (0.45 * budget, 0.0),
                                            (0.7 * budget, 0.6))),
        }
        inst = gen_random_instance(150, 0.3, (-100, 100), seed=11)
        digest = golden_digest(inst, ToyKind(kind), pivot, schedules[schedule])
        assert digest == self.GOLDEN_RUNS[schedule, kind, pivot]

    # The benchmark's n=500 acceptance instance, whose rows give every kernel
    # clone whole vector bodies and tails, and ILS on the instance above;
    # recorded while the kernel's gain updates still multiplied by the +-1
    # signs, which their masked negation must leave byte-identical.
    ACCEPTANCE_GOLDEN_RUNS = {
        "ils": "0e6ee43755feec6d",
        "plusminusi": "c64b2d2ba53d7256",
        "random": "b0c19b95fdd09d93",
    }
    ILS_GOLDEN_RUNS = {"best": "6ae663a136590281", "first": "aa67c31aedcbee24"}

    @pytest.mark.parametrize("algo", sorted(ACCEPTANCE_GOLDEN_RUNS))
    def test_acceptance_run_logs_match_golden_hashes(self, algo):
        inst = gen_random_instance(500, 0.1, (-100, 100), seed=7)
        kind = None if algo == "ils" else ToyKind(algo)
        schedule = LambdaSchedule.staged_ramp(GOLDEN_BUDGET) if kind else None
        assert golden_digest(inst, kind, "best", schedule) == self.ACCEPTANCE_GOLDEN_RUNS[algo]

    @pytest.mark.parametrize("pivot", sorted(ILS_GOLDEN_RUNS))
    def test_ils_run_logs_match_golden_hashes(self, pivot):
        inst = gen_random_instance(150, 0.3, (-100, 100), seed=11)
        assert golden_digest(inst, None, pivot) == self.ILS_GOLDEN_RUNS[pivot]

    # Runs on the acceptance instance whose best, before the final descent on
    # f, still had an improving flip: (toy, seed) -> the best it reaches.
    POLISHED_BESTS = {("plusminusi", 3): 127343, ("random", 17): 127201,
                      ("plusminus1", 0): 127351, ("plusminus1", 4): 127195}

    @pytest.mark.parametrize("pivot", ["best", "first"])
    @pytest.mark.parametrize("kind", list(ToyKind))
    def test_best_is_a_local_optimum_of_f(self, kind, pivot):
        inst = gen_random_instance(500, 0.1, (-100, 100), seed=7)
        budget = 10**7
        for seed in range(20):
            result = lsils(inst, SearchConfig(
                budget=Budget("evals", budget), pivot_rule=pivot, seed=seed, toy_kind=kind,
                lambda_schedule=LambdaSchedule.staged_ramp(budget), log_interval=budget // 100))
            assert result.best_value == evaluate(inst, result.best_solution)
            assert_no_improving_flip(inst, result.best_solution)
            if pivot == "best" and (kind.value, seed) in self.POLISHED_BESTS:
                assert result.best_value == self.POLISHED_BESTS[kind.value, seed]

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
