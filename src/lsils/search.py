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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .bench_io import RunLogRecord
from .qubo import (
    INIT_STREAM,
    PERTURB_STREAM,
    TOY_STREAM,
    GainCache,
    UbqpInstance,
    evaluate,
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
    """`count` distinct indices from range(n) via a partial Fisher-Yates pass."""
    if not 1 <= count <= n:
        raise ValueError(f"need 1 <= count <= {n}, got {count}")
    idx = np.arange(n)
    for i in range(count):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:count]


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

    def charge(self, units: int) -> None:
        self.consumed += units
        if self.next_mark is None:
            return
        progress = self.progress()
        while self.next_mark is not None and progress >= self.next_mark:
            self._emit(self.next_mark)
            self.next_mark += self.interval
            if self.next_mark > self.budget.amount:
                self.next_mark = None

    def _emit(self, elapsed) -> None:
        if self.budget.kind == "evals":
            elapsed = int(elapsed)
        self.records.append(RunLogRecord(
            elapsed=elapsed,
            evaluations=self.consumed,
            best_f=self.tracker.best_value,
            lam=self.current_lam,
        ))

    def finish(self) -> None:
        final = self.consumed if self.budget.kind == "evals" else round(self.progress(), 3)
        if not self.records or self.records[-1].evaluations < self.consumed:
            self._emit(final)


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
    # Unbudgeted and untracked: the running value _descend keeps is unused.
    meter = _Meter(Budget("evals", float("inf")), None, None)
    _descend(caches, weights, 0, None, meter, pivot_rule)
    return caches[0].solution.copy()


def _perturb_in_place(caches, positions, value, meter) -> int:
    """Flip `positions` through all caches, returning the updated value."""
    primary = caches[0]
    n = primary.solution.size
    for p in positions:
        value += int(primary.gains[p])
        for cache in caches:
            cache.apply_flip(p)
        meter.charge(n)
    return value


def _resolve_alpha(config: SearchConfig, inst: UbqpInstance, toy: ToyMatrix) -> float:
    if config.alpha == "auto":
        return auto_alpha(inst, toy, target_bound=config.target_bound)
    return float(config.alpha)


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
    value = _descend([primary], None, value, tracker, meter, config.pivot_rule)

    toy: ToyMatrix | None = None
    toy_cache: GainCache | None = None
    weights = None
    anchor_snapshot: np.ndarray | None = None

    while not meter.exhausted():
        caches = [primary]
        if smoothing:
            lam = schedule.value_at(meter.progress())
            meter.current_lam = lam
            if toy is None or not np.array_equal(tracker.best_solution, anchor_snapshot):
                toy_seed = (int(rng_toy.integers(0, 2**63 - 1))
                            if config.toy_kind is ToyKind.RANDOM else 0)
                toy = construct_toy(config.toy_kind, tracker.best_solution, seed=toy_seed)
                anchor_snapshot = tracker.best_solution.copy()
                alpha = _resolve_alpha(config, inst, toy)
                toy_cache = GainCache.build(toy, primary.solution)
            weights = (1.0 - lam, lam * alpha)
            caches = [primary, toy_cache]
        positions = sample_distinct_positions(rng_perturb, n, bits)
        value = _perturb_in_place(caches, positions, value, meter)
        value = _descend(caches, weights if smoothing else None, value,
                         tracker, meter, config.pivot_rule)

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
