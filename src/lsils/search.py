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

At lam = 0 the smoothed objective is the original one, and the descent
takes the original objective's exact integer gains, not a float blend.

Each outer iteration is one call into the compiled kernel of `_kernel.c`
when it builds: the perturbation's swap targets are drawn in numpy and
charged here, and the kernel picks the positions, block-updates every gain
cache and descends. `sample_distinct_positions`, `_perturb_in_place` (which
flips the positions one bit at a time) and `_descend` are the numpy
reference it matches flip for flip, and the path taken without a C
compiler.
"""

from __future__ import annotations

import math
import time
from array import array
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


@dataclass
class BestTracker:
    """Best solution seen so far, scored under the original objective."""

    best_solution: np.ndarray
    best_value: int

    @classmethod
    def start(cls, x: np.ndarray, value: int) -> "BestTracker":
        return cls(best_solution=x.copy(), best_value=value)

    def offer(self, x: np.ndarray, value: int) -> bool:
        """Record x when it strictly improves the best original value."""
        if value > self.best_value:
            self.best_value = int(value)
            self.best_solution = x.copy()
            return True
        return False


class RunLog:
    """The points a run logs, packed in four typed columns.

    A run keeps every point, and batch runs and benchmarks keep every run,
    so a point is stored as four machine words (`elapsed` as an integer
    under an evals budget, as a float under a seconds budget) and becomes a
    `RunLogRecord` only when `records` is read.
    """

    __slots__ = ("elapsed", "evaluations", "best_f", "lam")

    def __init__(self, budget_kind: str = "evals"):
        self.elapsed = array("q" if budget_kind == "evals" else "d")
        self.evaluations = array("q")
        self.best_f = array("q")
        self.lam = array("d")

    def __len__(self) -> int:
        return len(self.evaluations)

    def append(self, elapsed, evaluations: int, best_f: int, lam: float) -> None:
        self.elapsed.append(elapsed)
        self.evaluations.append(evaluations)
        self.best_f.append(best_f)
        self.lam.append(lam)

    @property
    def records(self) -> list[RunLogRecord]:
        """A fresh list of the logged points, in order."""
        columns = zip(self.elapsed, self.evaluations, self.best_f, self.lam)
        return [RunLogRecord(elapsed=e, evaluations=v, best_f=b, lam=lam)
                for e, v, b, lam in columns]


@dataclass
class RunResult:
    """Outcome of one solver run."""

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


class _Meter:
    """Budget accounting, schedule progress, and interval logging for a run."""

    def __init__(self, budget: Budget, log_interval, tracker: BestTracker | None):
        self.budget = budget
        self.consumed = 0
        self.started = time.monotonic()
        self.tracker = tracker
        self.log = RunLog(budget.kind)
        self.current_lam = 0.0
        self.interval = log_interval
        self.next_mark = log_interval

    @property
    def records(self) -> list[RunLogRecord]:
        return self.log.records

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
        self.log.append(elapsed, evaluations, best, self.current_lam)

    def finish(self) -> None:
        final = self.consumed if self.budget.kind == "evals" else round(self.progress(), 3)
        if not self.log or self.log.evaluations[-1] < self.consumed:
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
    the toy's when blended; `weights` (wo, wt) switches the combined float
    objective wo * g_0 + wt * g_1 on, otherwise descent follows the primary
    cache's integer gains. `value` tracks the primary cache's exact
    objective and is returned updated. Budget exhaustion is checked between
    descents, not inside one, so the consumed total may overshoot by one
    descent.
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
    """Outer iterations over one fixed list of gain caches.

    A call optionally perturbs `bits` distinct bits, then descends to a local
    optimum. It runs as one `lsils_iterate` call of the compiled kernel when
    the kernel loads and knows every form, and as `sample_distinct_positions`,
    `_perturb_in_place` and `_descend` otherwise; the kernel's view of the
    caches is built once, here. The swap targets come from the same numpy
    draw either way, so the generator ends in the same state, and the
    perturbation is charged before the kernel applies it: it never changes
    the tracked best, so the records are the same. The kernel returns at
    every flip whose charge reached the meter's next evals mark, with the
    (evaluations, best) of each such charge, and the marks are emitted here,
    so evals-budget records are the ones `_descend` writes. Under a seconds
    budget the clock is read when the descent ends, so such a record may land
    up to one descent late.
    """

    def __init__(self, caches, pivot_rule: str):
        self.caches = caches
        self.pivot_rule = pivot_rule
        lib = _kernel.library()
        self.entries = None if lib is None else _kernel.layout(caches)
        if self.entries is not None:
            n = caches[0].solution.size
            self.kernel = lib.lsils_iterate
            self.state = np.zeros(_kernel.ST_SIZE, dtype=np.int64)
            self.best_x = np.empty(n, dtype=np.int8)
            # An identity permutation, then three n-slot vectors; the kernel
            # leaves the permutation and the second vector (zeros) as found.
            self.scratch = np.zeros(4 * n, dtype=np.int64)
            self.scratch[:n] = np.arange(n)
            self.args = (self.entries.ctypes.data, len(caches), n, pivot_rule == "first")
            self.buffers = (self.scratch.ctypes.data, self.state.ctypes.data,
                            self.best_x.ctypes.data)

    @property
    def compiled(self) -> bool:
        return self.entries is not None

    def __call__(self, weights, value, tracker, meter, rng=None, bits: int = 0) -> int:
        """Flip `bits` bits picked with `rng` (none when 0), then descend; returns the value."""
        blend = weights is not None
        wo, wt = weights if blend else (1.0, 0.0)
        n = self.caches[0].solution.size
        if not self.compiled:
            if bits:
                positions = sample_distinct_positions(rng, n, bits)
                value = _perturb_in_place(self.caches, positions, value, meter)
            return _descend(self.caches, weights, value, tracker, meter, self.pivot_rule)
        targets = None
        if bits:
            # The draw sample_distinct_positions makes; the kernel does its pass.
            targets = rng.integers(np.arange(bits), n)
            meter.charge(n, steps=bits)
        state = self.state
        state[:] = 0
        state[_kernel.ST_VALUE] = value
        state[_kernel.ST_CONSUMED] = meter.consumed
        if tracker is not None:
            state[_kernel.ST_TRACK] = 1
            state[_kernel.ST_BEST] = tracker.best_value
        pending = (None, 0) if targets is None else (targets.ctypes.data, bits)
        while True:
            state[_kernel.ST_THRESHOLD] = meter.threshold()
            paused = self.kernel(*self.args, blend, wo, wt, *pending, *self.buffers)
            pending = (None, 0)  # a resumed call only descends
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

    The objective may be a UbqpInstance, a ToyMatrix, or a SmoothedObjective;
    one at lam = 0 is its instance, descended on exact integer gains.
    """
    if pivot_rule not in PIVOT_RULES:
        raise ValueError(f"pivot rule must be one of {PIVOT_RULES}")
    forms, weights = (objective,), None
    if isinstance(objective, SmoothedObjective):
        if objective.lam == 0:
            forms = (objective.instance,)
        else:
            forms, weights = (objective.instance, objective.toy), objective.weights
    caches = [GainCache.build(form, x) for form in forms]
    # Unbudgeted and untracked: the running value the descent keeps is unused.
    meter = _Meter(Budget("evals", float("inf")), None, None)
    _Descent(caches, pivot_rule)(weights, 0, None, meter)
    return caches[0].solution.copy()


def _perturb_in_place(caches, positions, value, meter) -> int:
    """Flip `positions` one bit at a time through all caches; returns the updated value.

    The meter takes n per flipped bit, in one call that stamps interval
    records as separate charges would.
    """
    primary = caches[0]
    for p in positions.tolist():
        value += int(primary.gains[p])
        for cache in caches:
            cache.apply_flip(p)
    meter.charge(primary.solution.size, steps=len(positions))
    return value


def _run(inst: UbqpInstance, config: SearchConfig, smoothing: bool) -> RunResult:
    n = inst.n
    bits = config.bits_for(n)
    schedule = config.lambda_schedule or LambdaSchedule.zero(config.budget.kind)
    rng_init = seeded_rng(config.seed, INIT_STREAM)
    rng_perturb = seeded_rng(config.seed, PERTURB_STREAM)
    rng_toy = seeded_rng(config.seed, TOY_STREAM)

    x = random_solution(n, rng_init)
    value = evaluate(inst, x)
    tracker = BestTracker.start(x, value)
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
                # Drop the old toy and its cache before the next one is built.
                descent = toy = None
                toy_seed = (int(rng_toy.integers(0, 2**63 - 1))
                            if config.toy_kind is ToyKind.RANDOM else 0)
                toy = construct_toy(config.toy_kind, tracker.best_solution, seed=toy_seed)
                anchor_snapshot = tracker.best_solution.copy()
                alpha = (auto_alpha(inst, toy, target_bound=target_bound)
                         if config.alpha == "auto" else float(config.alpha))
                descent = _Descent([primary, GainCache.build(toy, primary.solution)],
                                   config.pivot_rule)
            # At lam = 0, g is f: descend on its exact integer gains.
            weights = (1.0 - lam, lam * alpha) if lam else None
        value = descent(weights, value, tracker, meter, rng_perturb, bits)

    meter.finish()
    return RunResult(
        algo=algo_label(config.toy_kind if smoothing else None),
        seed=config.seed,
        best_solution=tracker.best_solution.copy(),
        best_value=tracker.best_value,
        evaluations=meter.consumed,
        elapsed_seconds=time.monotonic() - meter.started,
        log=meter.log,
    )


def ils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the original objective; toy fields ignored."""
    return _run(inst, config, smoothing=False)


def lsils(inst: UbqpInstance, config: SearchConfig) -> RunResult:
    """Iterated local search on the smoothed objective with best tracking.

    Each outer iteration rebuilds the toy at the best-known solution when it
    changed, blends gains as (1 - lam) * original + lam * alpha * toy, and
    scores every accepted flip under the original objective.
    """
    if config.toy_kind is None:
        raise ValueError("smoothed search needs a toy kind")
    return _run(inst, config, smoothing=True)
