"""One-bit-flip local search, perturbation, ILS, and the smoothed variant.

Both solvers share one budgeted engine. The budget unit is the flip-delta
computation: building a gain cache costs n, every local-search scan costs n
(first-improvement scans cost the number of candidates examined), every
applied flip costs n (the cache update), and perturbing b bits costs b*n.
Exhaustion is checked between phases, never inside a descent, so every
local search runs to a true local optimum and the consumed total may
overshoot the budget by the tail descent. A smoothed run ends with a
charged descent on f from its best when that has an improving flip, so it
too reports a local optimum of f.
Work the smoothed variant does on top of that (toy construction, the toy
gain cache, scoring accepted moves under the original objective) is not
charged. It builds the toy and its gain cache only while lam > 0, so with
an all-zero schedule it is the baseline: same budget, bit-identical
trajectory, no toy.

Seconds-mode budgets measure wall-clock time instead and are therefore not
reproducible; evaluation-count budgets are the deterministic default.

The smoothed descent picks on the exact integer blend a * g_0 + b * g_1 of
the caches' gains, with the weights of `blend_weights`.

Outer iterations, and every gain cache a run builds, run in the compiled
kernel of `_kernel.c`, the search's only path, which needs a C compiler
(see `_kernel`). A run holds two gain caches in fixed slots, f's in slot 0
and the current toy's in slot 1, allocated once; building a slot binds it
to a form and flips x's set bits into the cache at x = 0 in one block
update, which also gives f(x). One kernel call perturbs and descends,
iteration after iteration, and returns to Python only at a decision point:
the end of an evals budget, the schedule's next lambda step, an iteration
that improved the best (the smoothed search then rebuilds its toy there),
or the end of the swap targets drawn so far. It stamps the run's log marks
as it passes them, so marks never stop it, and the run appends a call's
stamps to its log in bulk when it returns. Under a seconds budget a call
runs one iteration, because the kernel does not read the clock. One `_Run`
holds a run's state, caches, kernel buffers, clock and log, and one
`_SwapTargets` its swap targets, drawn `TARGET_CHUNK` iterations' worth at
a time. The numpy reference the kernel matches flip for flip, one
iteration per call, is in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, repeat, takewhile

import numpy as np

from . import _kernel
from .bench_io import RunLogRecord, _record
from .qubo import (
    INIT_STREAM,
    INT64_MAX,
    PERTURB_STREAM,
    TOY_STREAM,
    UbqpInstance,
    as_solution,
    gain_dtype,
    random_solution,
    seeded_rng,
)
from .smoothing import (
    LambdaSchedule,
    SmoothedObjective,
    ToyKind,
    ToyMatrix,
    blend_weights,
    construct_toy,
    peak_alpha,
    toy_peaks,
)

PIVOT_RULES = ("best", "first")
BUDGET_KINDS = ("evals", "seconds")


@dataclass(frozen=True)
class Budget:
    """Search budget: kind 'evals' (flip-delta computations) or 'seconds'."""

    kind: str
    amount: float

    def __post_init__(self) -> None:
        if self.kind not in BUDGET_KINDS:
            raise ValueError(f"budget kind must be one of {BUDGET_KINDS}")
        if not self.amount > 0:  # NaN too
            raise ValueError("budget amount must be positive")


@dataclass
class SearchConfig:
    """Everything a single run needs besides the instance."""

    budget: Budget
    pivot_rule: str = "best"
    perturbation_bits: int | None = None
    lambda_schedule: LambdaSchedule | None = None
    toy_kind: ToyKind | None = None
    alpha: float | str = "auto"
    target_bound: float | None = None
    seed: int = 0
    log_interval: float | None = None

    def __post_init__(self) -> None:
        if self.pivot_rule not in PIVOT_RULES:
            raise ValueError(f"pivot rule must be one of {PIVOT_RULES}")
        if self.toy_kind is not None:
            self.toy_kind = ToyKind(self.toy_kind)
        if isinstance(self.alpha, str):
            if self.alpha != "auto":
                raise ValueError("alpha must be a positive number or 'auto'")
        elif not 0 < self.alpha < math.inf:  # NaN too
            raise ValueError("alpha must be a positive finite number or 'auto'")
        if self.log_interval is not None and not 0 < self.log_interval < math.inf:
            raise ValueError("log interval must be positive and finite, or None for no interval")
        if self.log_interval is not None and not math.isfinite(self.budget.amount):
            raise ValueError("a log interval needs a finite budget")
        if self.lambda_schedule is not None and self.lambda_schedule.unit != self.budget.kind:
            raise ValueError(f"lambda schedule unit {self.lambda_schedule.unit!r} does not "
                             f"match budget kind {self.budget.kind!r}")

    def bits_for(self, n: int) -> int:
        """Bits flipped per perturbation on n bits: the setting, by default n/4."""
        bits = self.perturbation_bits if self.perturbation_bits is not None else max(1, n // 4)
        if not 1 <= bits <= n:
            raise ValueError(f"perturbation bits must lie in [1, {n}], got {bits}")
        return bits


def algo_label(toy_kind: ToyKind | None) -> str:
    """Run label: 'ils', or 'lsils-<kind>' for the smoothed variant."""
    return "ils" if toy_kind is None else f"lsils-{ToyKind(toy_kind).value}"


class RunLog:
    """The points a run logs, packed in typed columns.

    A run keeps every point, and batch runs and benchmarks keep every run,
    so a point is stored as at most two machine words, `elapsed` (an integer
    under an evals budget, a float under a seconds budget) and
    `evaluations`. Under an evals budget a mark's elapsed is its evaluation
    count whenever a charge lands on it, so `elapsed` starts as the same
    array as `evaluations` and is copied out at the first point whose two
    differ. The best value and lambda change only at a new best or a
    schedule step, so they are stored once per step: from point `starts[i]`
    on, the point has `best_f[i]` and `lam[i]`. `extend` appends a batch of
    points, as many `append` calls would, in column slices. A point becomes
    a `RunLogRecord` only when `records` is read; the records of one step
    share its `best_f` and `lam` objects.
    """

    __slots__ = ("elapsed", "evaluations", "starts", "best_f", "lam")

    def __init__(self, budget_kind: str = "evals"):
        self.evaluations = array("q")
        self.elapsed = self.evaluations if budget_kind == "evals" else array("d")
        self.starts = array("q")
        self.best_f = array("q")
        self.lam = array("d")

    def __len__(self) -> int:
        return len(self.evaluations)

    def append(self, elapsed, evaluations: int, best_f: int, lam: float) -> None:
        if not (self.starts and best_f == self.best_f[-1] and lam == self.lam[-1]):
            self.starts.append(len(self.evaluations))
            self.best_f.append(best_f)
            self.lam.append(lam)
        if self.elapsed is self.evaluations:
            if elapsed == evaluations:
                self.evaluations.append(evaluations)
                return
            self.elapsed = array("q", self.evaluations)
        self.elapsed.append(elapsed)
        self.evaluations.append(evaluations)

    def extend(self, elapsed: list, evaluations: list, best_f: list, lam: float) -> None:
        """Append the points (elapsed[i], evaluations[i], best_f[i], lam), as
        one `append` per point would."""
        base = len(self.evaluations)
        before = self.best_f[-1] if self.starts and lam == self.lam[-1] else None
        starts = [i for i, (previous, best) in enumerate(zip([before, *best_f], best_f))
                  if best != previous]
        self.starts.extend(base + i for i in starts)
        self.best_f.extend(best_f[i] for i in starts)
        self.lam.extend(repeat(lam, len(starts)))
        if self.elapsed is self.evaluations and elapsed != evaluations:
            self.elapsed = array("q", self.evaluations)
        if self.elapsed is not self.evaluations:
            self.elapsed.extend(elapsed)
        self.evaluations.extend(evaluations)

    @property
    def records(self) -> list[RunLogRecord]:
        """A fresh list of the logged points, in order."""
        counts = list(map(operator.sub, [*self.starts[1:], len(self)], self.starts))
        best_f = chain.from_iterable(map(repeat, self.best_f, counts))
        lam = chain.from_iterable(map(repeat, self.lam, counts))
        return list(map(_record, self.elapsed, self.evaluations, best_f, lam))


@dataclass(slots=True)
class RunResult:
    """Outcome of one solver run; slotted, since batch runs keep every one."""

    algo: str
    seed: int
    best_solution: np.ndarray
    best_value: int
    evaluations: int
    elapsed_seconds: float
    log: RunLog = field(default_factory=RunLog)

    @property
    def records(self) -> list[RunLogRecord]:
        """The run log, built from the packed columns on each access."""
        return self.log.records


# Iterations' worth of swap targets drawn at once.
TARGET_CHUNK = 64


class _SwapTargets:
    """One run's perturbation swap targets, drawn TARGET_CHUNK iterations at a time.

    `rng.integers(np.tile(np.arange(bits), TARGET_CHUNK), n)` gives the
    values, in order, of TARGET_CHUNK separate draws
    `rng.integers(np.arange(bits), n)` of swap targets j_i in [i, n) for a
    partial Fisher-Yates pass. The kernel reads them where `at` points.
    Draws left at the end of a run are never used.
    """

    def __init__(self, rng: np.random.Generator, n: int, bits: int):
        self.rng, self.n, self.bits = rng, n, bits
        self.lows = np.tile(np.arange(bits), TARGET_CHUNK)
        self.chunk = self.lows[:0]
        self.at = 0
        self.address = 0

    def ready(self) -> int:
        """Iterations' worth left in the chunk, after drawing the next one if none is."""
        if self.at == self.chunk.size:
            self.chunk = self.rng.integers(self.lows, self.n)
            self.at = 0
            self.address = self.chunk.ctypes.data
        return (self.chunk.size - self.at) // self.bits


def _slot(index: int) -> property:
    """One slot of a run's state vector, read and written as a Python int."""
    return property(lambda run: int(run.state[index]),
                    lambda run, value: run.state.__setitem__(index, value))


class _Run:
    """One run's state, gain caches, buffers, budget clock and log, allocated
    once per run.

    The kernel's int64 `state` is the only copy of the current `value`, the
    evaluations charged (`consumed`), the `best` value and the log marks
    stamped; `best_x` is the best solution. The run holds two gain caches in
    fixed slots, f's in slot 0 and the toy's in slot 1: row i of `gains`,
    `sigma` and `x` is slot i's, and `rows` holds their kernel lsils_cache
    rows, whose form fields `build` binds, with the arrays they read kept in
    `read`. `iterate` runs on the first `caches` slots, 1 or 2. Gains have
    one `dtype`, int32 or int64, which picks the kernel's entry points and
    the type of its `lanes` scratch. Under an
    evals budget the marks are the interval's running sums `mark_sums`,
    logged with elapsed `mark_elapsed` (their int) and stamped by the kernel
    at `marks` (their ceiling, at most INT64_MAX). It stamps every mark it
    passes into `stamps` as `charge` would, one scan, flip or perturbed bit
    at a time, and `iterate` appends those of a call to the log in one
    `RunLog.extend` when it returns. Under a seconds budget the clock is
    read then, so a record may land up to one iteration late.
    """

    value = _slot(_kernel.ST_VALUE)
    consumed = _slot(_kernel.ST_CONSUMED)
    best = _slot(_kernel.ST_BEST)

    def __init__(self, n: int, pivot_rule: str, budget: Budget = Budget("evals", math.inf),
                 log_interval=None, dtype=np.int64):
        self.n, self.pivot_rule, self.budget = n, pivot_rule, budget
        self.kernel = _kernel.entry("iterate", dtype)
        self.builder = _kernel.entry("build", dtype)
        self.started = time.monotonic()
        self.log = RunLog(budget.kind)
        self.current_lam = 0.0
        self.interval = self.next_mark = log_interval
        sums = []
        if budget.kind == "evals" and log_interval is not None:
            # As repeated `mark += interval` gives them, so that float
            # intervals round alike: the first, then those within budget.
            running = accumulate(repeat(log_interval))
            sums = [next(running), *takewhile(partial(operator.ge, budget.amount), running)]
        self.mark_sums = self.mark_elapsed = counts = sums
        if not isinstance(log_interval, int):
            self.mark_elapsed = list(map(int, sums))
            counts = list(map(math.ceil, sums))
        if counts and counts[-1] > INT64_MAX:
            counts = [min(count, INT64_MAX) for count in counts]
        self.marks = np.array(counts, dtype=np.int64)
        self.stamps = np.zeros(2 * len(counts), dtype=np.int64)
        self.state = np.zeros(_kernel.ST_SIZE, dtype=np.int64)
        self.state[_kernel.ST_MARKS] = len(counts)
        self.best_x = np.zeros(n, dtype=np.int8)
        # An identity permutation, which the kernel leaves as found, then
        # the positions and the blend; and two gain-typed vectors, of which
        # the kernel leaves the first (zeros) as found.
        self.scratch = np.zeros(3 * n, dtype=np.int64)
        self.scratch[:n] = np.arange(n)
        self.lanes = np.zeros(2 * n, dtype=dtype)
        self.weights = np.zeros(2, dtype=np.int64)
        self.gains = np.zeros((2, n), dtype=dtype)
        self.sigma = np.zeros((2, n), dtype=dtype)
        self.x = np.zeros((2, n), dtype=np.int8)
        self.rows = np.zeros((2, _kernel.CACHE_FIELDS), dtype=np.int64)
        for column, array in enumerate((self.gains, self.sigma, self.x), _kernel.ROW_GAINS):
            address = array.ctypes.data
            self.rows[:, column] = address, address + array.strides[0]
        # Addresses, taken once: the rows' and the weights', then the
        # buffers every kernel call ends with.
        self.rows_at, self.weights_at, *self.buffers = (
            a.ctypes.data for a in (self.rows, self.weights, self.scratch, self.lanes,
                                    self.state, self.best_x, self.marks, self.stamps))
        self.read = [(), ()]
        self.caches = 1

    def build(self, slot: int, form, x) -> int:
        """Bind cache `slot` to `form` and build its gains at x in the kernel;
        returns the exact objective f(x). Not charged."""
        x = as_solution(x)
        n = self.n
        if x.size != n:
            raise ValueError(f"solution length {x.size} does not match n={n}")
        self.read[slot] = _kernel.bind(self.rows[slot], form, n, self.gains.dtype)
        self.x[slot] = x
        scratch, lanes = self.buffers[:2]  # the positions' n slots follow the permutation's
        return self.builder(self.rows_at + slot * self.rows.strides[0], n, scratch + 8 * n, lanes)

    def progress(self) -> float:
        return self.consumed if self.budget.kind == "evals" else time.monotonic() - self.started

    def exhausted(self) -> bool:
        return self.progress() >= self.budget.amount

    def decision(self, schedule: LambdaSchedule | None = None) -> int:
        """The evaluation count at which the run next decides: the end of an
        evals budget, or the schedule's next step; INT64_MAX under seconds."""
        if self.budget.kind != "evals":
            return INT64_MAX
        stop = self.budget.amount
        step = schedule.next_step(self.consumed) if schedule is not None else None
        if step is not None:
            stop = min(stop, step)
        return INT64_MAX if stop >= INT64_MAX else math.ceil(stop)

    def charge(self, units: int) -> None:
        """Charge `units` evaluations, and emit the marks the run has passed."""
        self.state[_kernel.ST_CONSUMED] += units
        self.poll()

    def poll(self) -> None:
        """Emit the marks the clock (or the evaluation count) has passed."""
        progress = self.progress()
        while self.next_mark is not None and progress >= self.next_mark:
            self._emit_mark(self.consumed, self.best)
        self.state[_kernel.ST_MARKED] = len(self.log)

    def iterate(self, weights=None, targets: _SwapTargets | None = None,
                stop: int = INT64_MAX, halt: bool = False) -> None:
        """Descend on the first `caches` slots, or with `targets` perturb and descend.

        With targets, one kernel call runs iterations until a decision point:
        the count `stop` (the budget's end or the next lambda step), the end
        of the drawn targets, or, with `halt`, an iteration that improved the
        best; under a seconds budget, one iteration. `weights` are
        `blend_weights` or None; at b = 0 the kernel scans g_0 itself.
        """
        blend = None
        if weights is not None and weights[1]:
            self.weights[:] = weights
            blend = self.weights_at
        rounds = bits = at = 0
        if targets is not None:
            rounds, bits = targets.ready(), targets.bits
            at = targets.address + 8 * targets.at
            if self.budget.kind == "seconds":
                rounds = 1  # the kernel does not read the clock
        state = self.state  # set slot by slot: a fancy-index write costs seven times as much
        state[_kernel.ST_STOP] = stop
        state[_kernel.ST_ROUNDS] = rounds
        state[_kernel.ST_HALT] = halt
        self.kernel(self.rows_at, self.caches, self.n, self.pivot_rule == "first", blend, at, bits,
                    *self.buffers)
        done, marked = len(self.log), int(state[_kernel.ST_MARKED])
        if marked > done:
            stamps = self.stamps[2 * done:2 * marked].tolist()
            self.log.extend(self.mark_elapsed[done:marked], stamps[0::2], stamps[1::2],
                            self.current_lam)
            self.next_mark = self.mark_sums[marked] if marked < len(self.mark_sums) else None
        if targets is not None:
            targets.at += int(self.state[_kernel.ST_STARTED]) * bits
        if self.budget.kind == "seconds":
            self.poll()

    def _following(self, mark):
        """The mark after `mark`, or None past the budget."""
        mark += self.interval
        return None if mark > self.budget.amount else mark

    def _emit_mark(self, evaluations: int, best: int) -> None:
        self._emit(self.next_mark, evaluations, best)
        self.next_mark = self._following(self.next_mark)

    def _emit(self, elapsed, evaluations: int, best: int) -> None:
        if self.budget.kind == "evals":
            elapsed = int(elapsed)
        self.log.append(elapsed, evaluations, best, self.current_lam)

    def finish(self) -> None:
        final = self.consumed if self.budget.kind == "evals" else round(self.progress(), 3)
        if not self.log or self.log.evaluations[-1] < self.consumed:
            self._emit(final, self.consumed, self.best)


def local_search(x, objective, pivot_rule: str = "best") -> np.ndarray:
    """Descend from x to a one-bit-flip local optimum of the objective.

    The objective is a UbqpInstance, a ToyMatrix, or a SmoothedObjective,
    descended on the integer blend of its two caches' gains (ValueError past
    the blend's bound at 2n times each form's largest |entry|). The kernel
    runs no other form: TypeError.
    """
    if pivot_rule not in PIVOT_RULES:
        raise ValueError(f"pivot rule must be one of {PIVOT_RULES}")
    forms, weights = (objective,), None
    if isinstance(objective, SmoothedObjective):
        forms = (objective.instance, objective.toy)
        weights = objective.integer_weights(2 * objective.n)
    for form in forms:
        if not isinstance(form, (UbqpInstance, ToyMatrix)):
            raise TypeError(f"the search kernel runs UbqpInstance and ToyMatrix forms, "
                            f"not {type(form).__name__}")
    dtype = gain_dtype(objective.n, max(form.max_abs() for form in forms))
    # Unbudgeted: the value and best the run keeps are unused.
    run = _Run(objective.n, pivot_rule, dtype=dtype)
    for slot, form in enumerate(forms):
        run.build(slot, form, x)
    run.caches = len(forms)
    run.iterate(weights)
    return run.x[0].copy()


def _run(inst: UbqpInstance, config: SearchConfig, smoothing: bool) -> RunResult:
    n = inst.n
    bits = config.bits_for(n)
    schedule = config.lambda_schedule or LambdaSchedule.zero(config.budget.kind)
    rng_init = seeded_rng(config.seed, INIT_STREAM)
    rng_perturb = seeded_rng(config.seed, PERTURB_STREAM)
    rng_toy = seeded_rng(config.seed, TOY_STREAM) if smoothing else None

    def weights_of(lam: float, peak: int) -> tuple[int, int]:
        alpha = (peak_alpha(inst, peak, config.target_bound) if config.alpha == "auto"
                 else float(config.alpha))
        return blend_weights(lam, alpha, 2 * n * inst.max_abs(), 2 * n * peak)

    # Before the run, reject a reachable lambda step that fails at every toy peak.
    peaks = toy_peaks(config.toy_kind, n) if smoothing else ()
    lams = [lam for threshold, lam in schedule.steps
            if smoothing and lam and threshold < config.budget.amount]
    for lam in lams:
        for peak in peaks:
            try:
                weights_of(lam, peak)
                break
            except ValueError as exc:
                error = exc
        else:
            raise error
    # One gain width for every cache of the run, a toy's at any anchor too.
    dtype = gain_dtype(n, max((inst.max_abs(), *peaks)))

    x = random_solution(n, rng_init)
    run = _Run(n, config.pivot_rule, config.budget, config.log_interval, dtype)
    run.value = run.best = run.build(0, inst, x)
    run.best_x[:] = x
    run.charge(n)

    # Initialization: one plain descent on the original objective.
    run.iterate()

    anchor: np.ndarray | None = None
    toy: ToyMatrix | None = None
    targets = _SwapTargets(rng_perturb, n, bits)
    steps = schedule if smoothing else None

    while not run.exhausted():
        weights = None
        if smoothing:
            lam = run.current_lam = schedule.value_at(run.progress())
            if anchor is None or not np.array_equal(run.best_x, anchor):
                # The random toy's seed is drawn at every anchor change, built
                # or not, so the stream does not depend on the schedule.
                toy_seed = (int(rng_toy.integers(0, 2**63 - 1))
                            if config.toy_kind is ToyKind.RANDOM else 0)
                anchor = run.best_x.copy()
                toy = None
            if toy is None or not lam:
                # At lam = 0, g is f: descend on its exact integer gains alone.
                # The toy cache would go stale, so it is dropped and rebuilt,
                # as it is at a new anchor.
                run.caches = 1
            if lam:
                if toy is None:
                    toy = construct_toy(config.toy_kind, anchor, seed=toy_seed)
                if run.caches == 1:
                    run.build(1, toy, run.x[0])
                    run.caches = 2
                weights = weights_of(lam, toy.max_abs())
        # Every iteration up to the next decision: a lambda step, or a new
        # best, which moves the anchor.
        run.iterate(weights, targets, run.decision(steps), halt=smoothing)

    if smoothing:
        # A blended descent can pass its best on a slope of f. Checking the
        # best's gains is free; the descent that climbs from it is charged.
        run.caches = 1
        if not np.array_equal(run.x[0], run.best_x):
            run.build(0, inst, run.best_x)
        if run.gains[0].max() > 0:
            run.value = run.best
            run.iterate()
    run.finish()
    return RunResult(
        algo=algo_label(config.toy_kind if smoothing else None),
        seed=config.seed,
        best_solution=run.best_x.copy(),
        best_value=run.best,
        evaluations=run.consumed,
        elapsed_seconds=time.monotonic() - run.started,
        log=run.log,
    )


def ils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the original objective; toy fields ignored."""
    return _run(inst, config, smoothing=False)


def lsils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the smoothed objective with best tracking.

    While lam > 0, each outer iteration rebuilds the toy at the best-known
    solution when it changed, descends on the exact integer blend of gains
    a * original + b * toy (`blend_weights`, which raises ValueError past
    its bound), and scores every accepted flip under the original
    objective. While lam = 0 it is an ILS iteration, and no toy is built.
    """
    if config.toy_kind is None:
        raise ValueError("smoothed search needs a toy kind")
    return _run(inst, config, smoothing=True)
