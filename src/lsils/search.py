"""One-bit-flip local search, perturbation, ILS, and the smoothed variant.

Both solvers share one budgeted engine. The budget unit is the flip-delta
computation: building a gain cache costs n, every local-search scan costs n
(first-improvement scans cost the number of candidates examined), every
applied flip costs n (the cache update), and perturbing b bits costs b*n.
Exhaustion is checked between phases, never inside a descent, so every
local search runs to a true local optimum and the consumed total may
overshoot the budget by the tail descent.
Work the smoothed variant does on top of that (toy construction, the toy
gain cache, scoring accepted moves under the original objective) is not
charged, so with an all-zero schedule it consumes budget exactly like the
baseline and follows a bit-identical trajectory.

Seconds-mode budgets measure wall-clock time instead and are therefore not
reproducible; evaluation-count budgets are the deterministic default.

Descents run in the compiled kernel of `_kernel.c` when it builds; the numpy
loop `_descend` is the reference it matches flip for flip, and the path
taken without a C compiler.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .bench_io import RunLogRecord
from .qubo import (
    INIT_STREAM,
    INT64_MAX,
    PERTURB_STREAM,
    TOY_STREAM,
    GainCache,
    UbqpInstance,
    evaluate,
    mean_abs,
    random_solution,
    seeded_rng,
)
from .smoothing import (
    LambdaSchedule,
    SmoothedObjective,
    ToyKind,
    ToyMatrix,
    auto_alpha,
    construct_toy,
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
        if self.amount <= 0:
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
        elif self.alpha <= 0:
            raise ValueError("alpha must be a positive number or 'auto'")


@dataclass
class BestTracker:
    """Best solution seen so far, scored under the original objective."""

    instance: UbqpInstance
    best_solution: np.ndarray
    best_value: int

    @classmethod
    def start(cls, instance: UbqpInstance, x: np.ndarray, value: int) -> "BestTracker":
        return cls(instance=instance, best_solution=x.copy(), best_value=value)

    def offer(self, x: np.ndarray, value: int) -> bool:
        """Record x when it strictly improves the best original value."""
        if value > self.best_value:
            self.best_value = int(value)
            self.best_solution = x.copy()
            return True
        return False


@dataclass
class RunResult:
    """Outcome of one solver run."""

    algo: str
    seed: int
    best_solution: np.ndarray
    best_value: int
    evaluations: int
    elapsed_seconds: float
    records: list[RunLogRecord] = field(default_factory=list)


def sample_distinct_positions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` distinct indices from range(n) via a partial Fisher-Yates pass.

    The swap targets j_i in [i, n) come from one vectorised draw, which
    yields the same values and leaves the generator in the same state as
    drawing them one at a time. Only swapped slots are stored, so the pass
    is O(count) whatever n is.
    """
    if not 1 <= count <= n:
        raise ValueError(f"need 1 <= count <= {n}, got {count}")
    targets = rng.integers(np.arange(count), n).tolist()
    moved: dict[int, int] = {}
    picked = []
    for i, j in enumerate(targets):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked, dtype=np.intp)


def perturb(x, bits: int, rng: np.random.Generator) -> np.ndarray:
    """Copy of x with exactly `bits` distinct uniformly chosen positions flipped."""
    x = np.asarray(x, dtype=np.int8)
    positions = sample_distinct_positions(rng, x.size, bits)
    y = x.copy()
    y[positions] ^= 1
    return y


class _Meter:
    """Budget accounting, schedule progress, and interval logging for a run."""

    def __init__(self, budget: Budget, log_interval, tracker: BestTracker | None):
        self.budget = budget
        self.consumed = 0
        self.started = time.monotonic()
        self.tracker = tracker
        self.records: list[RunLogRecord] = []
        self.current_lam = 0.0
        self.interval = log_interval
        self.next_mark = log_interval if log_interval else None

    def progress(self) -> float:
        if self.budget.kind == "evals":
            return self.consumed
        return time.monotonic() - self.started

    def exhausted(self) -> bool:
        return self.progress() >= self.budget.amount

    def charge(self, units: int, steps: int = 1) -> None:
        """Charge `steps` successive charges of `units` evaluations each.

        Under an evals budget this emits exactly the records `steps`
        separate calls would: each mark reached is stamped with the first
        running total that reaches it. Under a seconds budget the clock is
        read once, after the last step.
        """
        start = self.consumed
        self.consumed += units * steps
        if self.next_mark is None:
            return
        if self.budget.kind == "seconds":
            self.poll()
            return
        while self.next_mark is not None and self.consumed >= self.next_mark:
            taken = max(1, -((start - math.ceil(self.next_mark)) // units))
            self._emit_mark(start + taken * units, self.tracker.best_value)

    def poll(self) -> None:
        """Emit the marks the clock (or the evaluation count) has passed."""
        progress = self.progress()
        while self.next_mark is not None and progress >= self.next_mark:
            self._emit_mark(self.consumed, self.tracker.best_value)

    def reach(self, evaluations: int, best: int) -> None:
        """Emit the evals marks at or below `evaluations`, stamped with it and `best`."""
        while self.next_mark is not None and evaluations >= self.next_mark:
            self._emit_mark(evaluations, best)

    def threshold(self) -> int:
        """The evaluation count at which the next evals mark is due; INT64_MAX if none."""
        if self.next_mark is None or self.budget.kind != "evals":
            return INT64_MAX
        return min(math.ceil(self.next_mark), INT64_MAX)

    def _emit_mark(self, evaluations: int, best: int) -> None:
        self._emit(self.next_mark, evaluations, best)
        self.next_mark += self.interval
        if self.next_mark > self.budget.amount:
            self.next_mark = None

    def _emit(self, elapsed, evaluations: int, best: int) -> None:
        if self.budget.kind == "evals":
            elapsed = int(elapsed)
        if self.records and self.records[-1].best_f == best:
            best = self.records[-1].best_f  # one object per value: runs keep every record
        self.records.append(RunLogRecord(
            elapsed=elapsed,
            evaluations=evaluations,
            best_f=best,
            lam=self.current_lam,
        ))

    def finish(self) -> None:
        final = self.consumed if self.budget.kind == "evals" else round(self.progress(), 3)
        if not self.records or self.records[-1].evaluations < self.consumed:
            self._emit(final, self.consumed, self.tracker.best_value)


def _pick_flip(gains, pivot_rule: str, n: int):
    """(flip index or None, candidates examined) under the given pivot rule."""
    if pivot_rule == "best":
        k = int(np.argmax(gains))
        return (k if gains[k] > 0 else None), n
    positive = gains > 0
    if not positive.any():
        return None, n
    k = int(np.argmax(positive))
    return k, k + 1


def _descend(caches, weights, value, tracker, meter, pivot_rule: str):
    """Run local search all the way to a local optimum.

    `caches` holds the gain cache of the original objective first, then
    optionally the toy's; `weights` (wo, wt) switches the combined float
    objective on, otherwise descent follows the primary cache's integer
    gains. `value` tracks the primary cache's exact objective and is
    returned updated. Budget exhaustion is checked between descents, not
    inside one, so the consumed total may overshoot by one descent.
    """
    primary = caches[0]
    n = primary.solution.size
    combined = np.empty(n, dtype=np.float64) if weights is not None else None
    scratch = np.empty(n, dtype=np.float64) if weights is not None else None
    while True:
        if weights is None:
            gains = primary.gains
        else:
            wo, wt = weights
            np.multiply(caches[0].gains, wo, out=combined)
            if wt != 0.0:
                np.multiply(caches[1].gains, wt, out=scratch)
                combined += scratch
            gains = combined
        k, examined = _pick_flip(gains, pivot_rule, n)
        meter.charge(examined)
        if k is None:
            return value
        value += int(primary.gains[k])
        for cache in caches:
            cache.apply_flip(k)
        meter.charge(n)
        if tracker is not None:
            tracker.offer(primary.solution, value)


class _Descent:
    """Descents to a local optimum over one fixed list of gain caches.

    A call runs `_descend` in the compiled kernel when the kernel loads and
    knows every form, and the numpy `_descend` otherwise; the kernel's view
    of the caches is built once, here. The kernel returns at every flip
    whose charge reached the meter's next evals mark, with the
    (evaluations, best) of each such charge, and the marks are emitted
    here, so evals-budget records are the ones `_descend` writes. Under a
    seconds budget the clock is read when the descent ends, so such a
    record may land up to one descent late.
    """

    def __init__(self, caches, pivot_rule: str):
        self.caches = caches
        self.pivot_rule = pivot_rule
        self.kernel = _kernel.library()
        self.entries = None if self.kernel is None else _kernel.layout(caches)
        if self.entries is not None:
            n = caches[0].solution.size
            self.state = np.zeros(_kernel.ST_SIZE, dtype=np.int64)
            self.best_x = np.empty(n, dtype=np.int8)
            self.args = (self.entries.ctypes.data, len(caches), n, pivot_rule == "first")
            self.buffers = (self.state.ctypes.data, self.best_x.ctypes.data)

    @property
    def compiled(self) -> bool:
        return self.entries is not None

    def __call__(self, weights, value, tracker, meter) -> int:
        """Descend from the caches' solution; returns the updated value."""
        blend = weights is not None
        wo, wt = weights if blend else (1.0, 0.0)
        if not self.compiled or (wt != 0.0 and len(self.caches) < 2):
            return _descend(self.caches, weights, value, tracker, meter, self.pivot_rule)
        state = self.state
        state[:] = 0
        state[_kernel.ST_VALUE] = value
        state[_kernel.ST_CONSUMED] = meter.consumed
        if tracker is not None:
            state[_kernel.ST_TRACK] = 1
            state[_kernel.ST_BEST] = tracker.best_value
        while True:
            state[_kernel.ST_THRESHOLD] = meter.threshold()
            paused = self.kernel(*self.args, blend, wo, wt, *self.buffers)
            st = state.tolist()
            if st[_kernel.ST_IMPROVED]:
                tracker.best_value = st[_kernel.ST_BEST]
                tracker.best_solution = self.best_x.copy()
            for i in range(_kernel.ST_EVENT0, _kernel.ST_EVENT0 + 2 * st[_kernel.ST_EVENTS], 2):
                meter.reach(st[i], st[i + 1])
            if not paused:
                break
        meter.consumed = st[_kernel.ST_CONSUMED]
        if meter.budget.kind == "seconds":
            meter.poll()
        return st[_kernel.ST_VALUE]


def local_search(x, objective, pivot_rule: str = "best") -> np.ndarray:
    """Descend from x to a one-bit-flip local optimum of the objective.

    The objective may be a UbqpInstance, a ToyMatrix, or a SmoothedObjective.
    """
    if pivot_rule not in PIVOT_RULES:
        raise ValueError(f"pivot rule must be one of {PIVOT_RULES}")
    if isinstance(objective, SmoothedObjective):
        forms, weights = (objective.instance, objective.toy), objective.weights
    else:
        forms, weights = (objective,), None
    caches = [GainCache.build(form, x) for form in forms]
    # Unbudgeted and untracked: the running value the descent keeps is unused.
    meter = _Meter(Budget("evals", float("inf")), None, None)
    _Descent(caches, pivot_rule)(weights, 0, None, meter)
    return caches[0].solution.copy()


def _perturb_in_place(caches, positions, value, meter) -> int:
    """Flip `positions` through all caches, returning the updated value.

    Each cache takes one block update, and the meter one charge of n per
    flip, so interval records land on the same counts as flipping one bit
    at a time.
    """
    value += caches[0].apply_flips(positions)
    for cache in caches[1:]:
        cache.apply_flips(positions)
    meter.charge(caches[0].solution.size, steps=len(positions))
    return value


def _run(inst: UbqpInstance, config: SearchConfig, smoothing: bool, algo: str) -> RunResult:
    n = inst.n
    bits = config.perturbation_bits if config.perturbation_bits is not None else max(1, n // 4)
    if not 1 <= bits <= n:
        raise ValueError(f"perturbation bits must lie in [1, {n}], got {bits}")
    schedule = config.lambda_schedule or LambdaSchedule.zero(config.budget.kind)
    rng_init = seeded_rng(config.seed, INIT_STREAM)
    rng_perturb = seeded_rng(config.seed, PERTURB_STREAM)
    rng_toy = seeded_rng(config.seed, TOY_STREAM)

    x = random_solution(n, rng_init)
    value = evaluate(inst, x)
    tracker = BestTracker.start(inst, x, value)
    meter = _Meter(config.budget, config.log_interval, tracker)
    primary = GainCache.build(inst, x)
    meter.charge(n)

    # Initialization: one plain descent on the original objective.
    descent = _Descent([primary], config.pivot_rule)
    value = descent(None, value, tracker, meter)

    target_bound = config.target_bound
    if smoothing and config.alpha == "auto" and target_bound is None:
        # auto_alpha's default bound is an n^2 pass over Q: take it once per run.
        target_bound = round(mean_abs(inst))
    toy: ToyMatrix | None = None
    weights = None
    anchor_snapshot: np.ndarray | None = None

    while not meter.exhausted():
        if smoothing:
            lam = schedule.value_at(meter.progress())
            meter.current_lam = lam
            if toy is None or not np.array_equal(tracker.best_solution, anchor_snapshot):
                toy_seed = (int(rng_toy.integers(0, 2**63 - 1))
                            if config.toy_kind is ToyKind.RANDOM else 0)
                toy = construct_toy(config.toy_kind, tracker.best_solution, seed=toy_seed)
                anchor_snapshot = tracker.best_solution.copy()
                alpha = (auto_alpha(inst, toy, target_bound=target_bound)
                         if config.alpha == "auto" else float(config.alpha))
                toy_cache = GainCache.build(toy, primary.solution)
                descent = _Descent([primary, toy_cache], config.pivot_rule)
            weights = (1.0 - lam, lam * alpha)
        positions = sample_distinct_positions(rng_perturb, n, bits)
        value = _perturb_in_place(descent.caches, positions, value, meter)
        value = descent(weights, value, tracker, meter)

    meter.finish()
    return RunResult(
        algo=algo,
        seed=config.seed,
        best_solution=tracker.best_solution.copy(),
        best_value=tracker.best_value,
        evaluations=meter.consumed,
        elapsed_seconds=time.monotonic() - meter.started,
        records=meter.records,
    )


def ils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the original objective; toy fields ignored."""
    return _run(inst, config, smoothing=False, algo="ils")


def lsils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the smoothed objective with best tracking.

    Each outer iteration rebuilds the toy at the best-known solution when it
    changed, blends gains as (1 - lam) * original + lam * alpha * toy, and
    scores every accepted flip under the original objective.
    """
    if config.toy_kind is None:
        raise ValueError("smoothed search needs a toy kind")
    label = f"lsils-{config.toy_kind.value}"
    return _run(inst, config, smoothing=True, algo=label)
