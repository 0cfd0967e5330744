"""The four benchmark workloads: inputs, one unit of fixed work, and checks.

Each workload builds its inputs in its constructor (the set-up the
benchmark times), runs one unit of fixed work per `run_unit` call, and
checks a unit's outputs in `verify`. Every unit of one workload object
repeats the same work, so its outputs must repeat byte for byte.

search-ils, search-lsils
    The acceptance instance (n=500, density 0.1, seed 7) under a fixed
    evaluation budget per run, which the paper uses as its budget unit, so a
    faster program computes the same trajectories sooner. One unit is the
    40-run block; each run log is written with `write_runlog_csv` against
    the best value found in the block, as `lsils batch` does. The runs are
    the canonical ones (seeds 0..39, or 0..19 per toy kind) so that known
    defects stay visible; the workload seed sets the order the closed loop
    issues them in.
landscape-census
    Dense n=16: `analyze` on the original, then `lambda_sweep` with the
    +-i toy at a random anchor drawn from the workload seed. The Python
    Gray-code walk dominates.
landscape-histogram
    Dense n=24: `value_histogram` and `collision_probability` of the
    original, both implicit toys and the smoothed +-i objective at 0.5,
    anchored as above. Each value array is 128 MiB, so memory traffic and
    peak memory dominate.

Every timed step goes through the clock the workload's `new_clock` gives.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lsils
from lsils import landscape
from speed import REFERENCE_ARRAY_KERNEL_S, SAMPLE_PERIOD_S, SpeedClock, array_kernel_seconds

BUDGET_EVALS = 10_000_000
LOG_INTERVAL = BUDGET_EVALS // 100
ACCEPTANCE_SPEC = dict(n=500, density=0.1, value_range=(-100, 100), seed=7)
# The name `lsils batch --gen n=500,density=0.1,range=-100:100,seed=7` gives it.
ACCEPTANCE_NAME = "gen-n500-d0.1-r-100.100-s7"
# The CLI draws `--anchor random` from this stream of the seed.
ANCHOR_STREAM = 5
# 0:1:0.25 rather than 0:1:0.1, so that a run holds more than one census.
CENSUS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
SAMPLED_STATES = 32
WORD_BYTES = 8  # one int64 or float64 objective value


@dataclass
class Unit:
    """Timings and outputs of one unit of a workload's fixed work."""

    wall_s: float
    run_s: list[float]
    evals: int
    best_values: list[int]
    outputs: object
    digests: dict[str, str] = field(default_factory=dict)
    fingerprint: str = ""

    def rescale(self, factor: float) -> None:
        """Apply a clock's run-level correction to this unit's times."""
        self.wall_s *= factor
        self.run_s = [t * factor for t in self.run_s]


@dataclass
class Checks:
    """Operations attempted and failed, and whether any exact output was wrong.

    A failed local-optimum property counts as a failed operation; every
    other failed check also marks the outputs as incorrect.
    """

    attempted: int = 0
    failed: int = 0
    messages: Counter = field(default_factory=Counter)
    exact_ok: bool = True
    _op: str = ""
    _op_failed: bool = False

    def attempt(self, op: str) -> None:
        """Start checking the next operation."""
        self.attempted += 1
        self._op, self._op_failed = op, False

    def fail(self, message: str, exact: bool = True) -> None:
        """Record a failed check of the current operation."""
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        self.messages[f"{self._op}: {message}"] += 1
        if exact:
            self.exact_ok = False


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _combine_digests(digests: dict[str, str]) -> str:
    return _sha("".join(f"{k}:{v}\n" for k, v in sorted(digests.items())).encode())


def _anchor(n: int, seed: int) -> np.ndarray:
    return lsils.random_solution(n, lsils.seeded_rng(seed, ANCHOR_STREAM))


class _Workload:
    name = ""
    first: Unit | None = None

    def record_output(self, unit: Unit, key: str, data: bytes, checks: Checks) -> None:
        """Every unit repeats the first one's work, so its outputs must too."""
        digest = unit.digests[key] = _sha(data)
        if self.first is not None and self.first.digests[key] != digest:
            checks.fail("output differs from the first repetition")

    def finish_verify(self, unit: Unit) -> None:
        unit.fingerprint = _combine_digests(unit.digests)
        if self.first is None:
            self.first = unit

    def final_check(self, checks: Checks) -> None:
        """Checks run once per process, after the measured units."""

    def new_clock(self, sampled: bool = True):
        """A clock that samples host speed during operations when `sampled`."""
        return SpeedClock(SAMPLE_PERIOD_S if sampled else None)


class SearchWorkload(_Workload):
    """A block of budgeted solver runs on the acceptance instance."""

    def __init__(self, name: str, kinds, seeds: int, seed: int, out_dir: Path):
        self.name = name
        self.inst = lsils.gen_random_instance(**ACCEPTANCE_SPEC)
        self.budget = lsils.Budget("evals", BUDGET_EVALS)
        self.schedule = lsils.LambdaSchedule.staged_ramp(BUDGET_EVALS, unit="evals")
        self.specs = [(kind, s) for kind in kinds for s in range(seeds)]
        self.order = random.Random(seed)
        self.out_dir = out_dir

    def preflight(self) -> tuple[int, str, int]:
        return self.inst.n, "matrix q", self.inst.n * self.inst.n * WORD_BYTES

    def _solve(self, kind, s: int):
        config = lsils.SearchConfig(
            budget=self.budget,
            lambda_schedule=self.schedule if kind is not None else None,
            toy_kind=kind,
            seed=s,
            log_interval=LOG_INTERVAL,
        )
        if kind is None:
            return lsils.ils(self.inst, config)
        return lsils.lsils(self.inst, config)

    def _write_logs(self, results) -> None:
        best = max(r.best_value for r in results.values())
        for filename, result in results.items():
            lsils.write_runlog_csv(lsils.attach_excess(result.records, best),
                                   self.out_dir / filename,
                                   reference=f"best-found {best}")

    def run_unit(self, clock) -> Unit:
        specs = list(self.specs)
        self.order.shuffle(specs)
        results, run_s = {}, []
        for kind, s in specs:
            result, seconds = clock.measure(lambda: self._solve(kind, s))
            run_s.append(seconds)
            results[lsils.runlog_filename(ACCEPTANCE_NAME, result.algo, s)] = result
        _, write_s = clock.measure(lambda: self._write_logs(results))
        return Unit(
            wall_s=sum(run_s) + write_s,
            run_s=run_s,
            evals=sum(r.evaluations for r in results.values()),
            best_values=[r.best_value for r in results.values()],
            outputs=results,
        )

    def verify(self, unit: Unit, checks: Checks) -> None:
        for filename, result in unit.outputs.items():
            checks.attempt(filename)
            self.record_output(unit, filename, (self.out_dir / filename).read_bytes(), checks)
            x = result.best_solution
            value = lsils.evaluate(self.inst, x)
            if result.best_value != value:
                checks.fail(f"best_value {result.best_value} != evaluate {value}")
            gain = int(lsils.GainCache.build(self.inst, x).gains.max())
            if gain > 0:
                checks.fail(f"best {result.best_value} is not a local optimum: "
                            f"a one-bit flip improves it by {gain}", exact=False)
        self.finish_verify(unit)


class _LandscapeWorkload(_Workload):
    """A dense n=N instance (seed 7) and a random anchor drawn from the seed."""

    N = 0

    def __init__(self, seed: int):
        self.inst = lsils.gen_random_instance(self.N, 1.0, (-100, 100), 7)
        self.anchor = _anchor(self.N, seed)

    def preflight(self) -> tuple[int, str, int]:
        return self.N, "value array", (1 << self.N) * WORD_BYTES


class CensusWorkload(_LandscapeWorkload):
    """Exhaustive local-optima census and a lambda sweep at n=16."""

    name = "landscape-census"
    N = 16

    def _sweep(self):
        kind = lsils.ToyKind.PLUS_MINUS_I
        toy = lsils.construct_toy(kind, self.anchor)
        alpha = lsils.auto_alpha(self.inst, toy)
        return lsils.lambda_sweep(self.inst, kind, self.anchor, alpha, CENSUS_GRID), alpha

    def run_unit(self, clock) -> Unit:
        report, census_s = clock.measure(lambda: lsils.analyze(self.inst))
        (curve, alpha), sweep_s = clock.measure(self._sweep)
        wall = census_s + sweep_s
        # Values covered: the original's walk and blocked histogram, then
        # both component forms at every grid point.
        states = (1 << self.N) * (2 + 2 * len(CENSUS_GRID))
        return Unit(wall_s=wall, run_s=[wall], evals=states,
                    best_values=[max(report.histogram)], outputs=(report, curve, alpha))

    def verify(self, unit: Unit, checks: Checks) -> None:
        report, curve, _ = unit.outputs
        checks.attempt("census")
        total = sum(report.histogram.values())
        if total != 1 << self.N:
            checks.fail(f"histogram counts sum to {total}, not 2^{self.N}")
        if curve[0] != (0.0, report.local_optima_count):
            checks.fail(f"sweep at lambda=0 gives {curve[0][1]} optima, "
                        f"the original has {report.local_optima_count}")
        if curve[-1] != (1.0, 1):
            checks.fail(f"sweep at lambda=1 gives {curve[-1][1]} optima, not 1")
        self.record_output(unit, "census", (landscape.report_text(report)
                                            + landscape.histogram_csv(report.histogram)
                                            + landscape.sweep_csv(curve)).encode(), checks)
        self.finish_verify(unit)

    def final_check(self, checks: Checks) -> None:
        """The lambda=1 objective has exactly one local optimum: the anchor."""
        checks.attempt("census-anchor")
        _, _, alpha = self.first.outputs
        toy = lsils.construct_toy(lsils.ToyKind.PLUS_MINUS_I, self.anchor)
        g = lsils.SmoothedObjective(instance=self.inst, toy=toy, lam=1.0, alpha=alpha)
        count, optima = lsils.enumerate_local_optima(g)
        if count != 1 or not np.array_equal(optima[0], self.anchor):
            checks.fail(f"lambda=1 has {count} optima, not only the anchor")


class HistogramWorkload(_LandscapeWorkload):
    """Exact value histograms of four objectives at n=24."""

    name = "landscape-histogram"
    N = 24

    def __init__(self, seed: int):
        super().__init__(seed)
        sampler = random.Random(seed)
        self.states = [sampler.randrange(1 << self.N) for _ in range(SAMPLED_STATES)]

    def new_clock(self, sampled: bool = True):
        # The large-array numpy passes here track the array kernel more
        # closely than the walk kernel, over a run but not per
        # operation. A signal cannot interrupt a numpy call, so the kernel
        # runs at operation boundaries only.
        return SpeedClock(None, array_kernel_seconds, REFERENCE_ARRAY_KERNEL_S, per_run=True)

    def _objectives(self):
        toy1 = lsils.construct_toy(lsils.ToyKind.PLUS_MINUS_ONE, self.anchor)
        toyi = lsils.construct_toy(lsils.ToyKind.PLUS_MINUS_I, self.anchor)
        smoothed = lsils.SmoothedObjective(instance=self.inst, toy=toyi, lam=0.5,
                                           alpha=lsils.auto_alpha(self.inst, toyi))
        return (("original", self.inst), ("toy-plusminus1", toy1),
                ("toy-plusminusi", toyi), ("smoothed-plusminusi", smoothed))

    @staticmethod
    def _histogram(objective):
        histogram = lsils.value_histogram(objective)
        return histogram, lsils.collision_probability(histogram)

    def run_unit(self, clock) -> Unit:
        objectives, wall = clock.measure(self._objectives)
        outputs = []
        for label, objective in objectives:
            (histogram, collision), seconds = clock.measure(
                lambda: self._histogram(objective))
            outputs.append((label, objective, histogram, collision))
            wall += seconds
        # Values computed: one array per form; the smoothed objective has two.
        states = (1 << self.N) * 5
        return Unit(wall_s=wall, run_s=[wall], evals=states,
                    best_values=[max(outputs[0][2])], outputs=outputs)

    def _expected_key(self, objective, x):
        if isinstance(objective, lsils.SmoothedObjective):
            # The same float64 blend and rounding value_histogram applies.
            w = np.array([1.0 - objective.lam, objective.lam * objective.alpha])
            blend = (w[0] * np.int64(lsils.evaluate(objective.instance, x))
                     + w[1] * np.int64(lsils.evaluate(objective.toy, x)))
            return float(np.round(blend, landscape.HISTOGRAM_QUANTUM_DECIMALS))
        return lsils.evaluate(objective, x)

    def verify(self, unit: Unit, checks: Checks) -> None:
        for label, objective, histogram, collision in unit.outputs:
            checks.attempt(label)
            total = sum(histogram.values())
            if total != 1 << self.N:
                checks.fail(f"histogram counts sum to {total}, not 2^{self.N}")
            for s in self.states:
                key = self._expected_key(objective, landscape.solution_from_index(s, self.N))
                if histogram.get(key, 0) < 1:
                    checks.fail(f"value {key} of state {s} is not in the histogram")
                    break
            self.record_output(unit, label, (landscape.histogram_csv(histogram)
                                             + f"collision {collision!r}\n").encode(), checks)
        self.finish_verify(unit)

    def final_check(self, checks: Checks) -> None:
        """Sampled indices of the blocked value array match direct evaluation."""
        checks.attempt("blocked-index")
        values = landscape.all_values_blocked(self.inst.q)
        for s in self.states:
            direct = lsils.evaluate(self.inst, landscape.solution_from_index(s, self.N))
            if int(values[s]) != direct:
                checks.fail(f"state {s}: blocked {int(values[s])} != evaluate {direct}")
                break


def make(name: str, seed: int, out_dir: Path) -> _Workload:
    """Build a workload's inputs from the workload seed."""
    if name == "search-ils":
        return SearchWorkload(name, (None,), 40, seed, out_dir)
    if name == "search-lsils":
        kinds = (lsils.ToyKind.PLUS_MINUS_I, lsils.ToyKind.RANDOM)
        return SearchWorkload(name, kinds, 20, seed, out_dir)
    if name == "landscape-census":
        return CensusWorkload(seed)
    if name == "landscape-histogram":
        return HistogramWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
