"""Unimodal toy UBQPs anchored at a solution, and the smoothed objective.

A toy matrix realizes entries sign_ij * w_ij where sign_ij is +1 exactly
when anchor_i = anchor_j = 1 and -1 otherwise. The three kinds differ only
in the positive magnitudes w:

  * plusminus1: w_ij = 1
  * plusminusi: w_ij = max(i, j) in one-based indexing
  * random:     w_ij uniform integers in [1, 100], symmetric

Each kind has the anchor as its unique one-bit-flip local optimum. The
smoothed objective blends the original problem with a toy:
g(x) = (1 - lam) * f_o(x) + lam * alpha * f_toy(x).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qubo import (
    UbqpInstance,
    as_solution,
    evaluate,
    mean_abs,
    seeded_rng,
)


class ToyKind(str, Enum):
    PLUS_MINUS_ONE = "plusminus1"
    PLUS_MINUS_I = "plusminusi"
    RANDOM = "random"


# Label separating magnitude draws from other streams derived off one seed.
TOY_MAGNITUDE_STREAM = 0


def _index_matvec(v: np.ndarray) -> np.ndarray:
    """(M v)_k for M_ij = max(i, j) one-based, exact int64, in O(n)."""
    v = np.asarray(v, dtype=np.int64)
    n = v.size
    idx1 = np.arange(1, n + 1, dtype=np.int64)
    prefix = np.cumsum(v)
    weighted = idx1 * v
    tail = weighted.sum() - np.cumsum(weighted)
    return idx1 * prefix + tail


@dataclass
class ToyMatrix:
    """A unimodal toy UBQP anchored at `anchor`.

    Magnitudes are implicit for kinds plusminus1 and plusminusi (O(1)
    storage); only kind random stores its realized n x n matrix, and the
    largest draw as `_peak`. `n` is the anchor's length.
    """

    kind: ToyKind
    anchor: np.ndarray
    n: int = field(init=False)
    _q: np.ndarray | None = None
    _peak: int | None = None
    _anchor64: np.ndarray = field(init=False)
    _idx1: np.ndarray = field(init=False)
    _signs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.anchor = as_solution(self.anchor).copy()
        self.anchor.setflags(write=False)
        self.n = self.anchor.size
        self._anchor64 = self.anchor.astype(np.int64)
        self._idx1 = np.arange(1, self.n + 1, dtype=np.int64)
        # Row k's signs when anchor_k = 1; every other row is all -1.
        self._signs = 2 * self._anchor64 - 1
        if self._q is not None:
            self._q.setflags(write=False)

    # -- quadratic-form protocol ------------------------------------------
    def diag(self) -> np.ndarray:
        if self.kind is ToyKind.PLUS_MINUS_ONE:
            return self._signs.copy()
        if self.kind is ToyKind.PLUS_MINUS_I:
            return self._signs * self._idx1
        return self._q.diagonal()

    def col(self, k: int) -> np.ndarray:
        a = self._anchor64
        if self.kind is ToyKind.PLUS_MINUS_ONE:
            return 2 * a * int(a[k]) - 1
        if self.kind is ToyKind.PLUS_MINUS_I:
            col = np.maximum(self._idx1, k + 1)
            if a[k]:
                col *= self._signs
            else:
                np.negative(col, out=col)
            return col
        return self._q[k]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.int64)
        a = self._anchor64
        if self.kind is ToyKind.PLUS_MINUS_ONE:
            return 2 * a * int(a @ v) - int(v.sum())
        if self.kind is ToyKind.PLUS_MINUS_I:
            return 2 * a * _index_matvec(a * v) - _index_matvec(v)
        return self._q @ v

    # -- helpers ------------------------------------------------------------
    def max_abs(self) -> int:
        """Largest |entry| of the realized matrix."""
        if self.kind is ToyKind.PLUS_MINUS_ONE:
            return 1
        if self.kind is ToyKind.PLUS_MINUS_I:
            return self.n
        return self._peak

    def materialize(self) -> np.ndarray:
        """Dense realized matrix; intended for small n (tests, landscape)."""
        a = self._anchor64
        signs = 2 * np.outer(a, a) - 1
        if self.kind is ToyKind.PLUS_MINUS_ONE:
            return signs
        if self.kind is ToyKind.PLUS_MINUS_I:
            return signs * np.maximum.outer(self._idx1, self._idx1)
        return self._q.copy()


def construct_toy(kind: ToyKind, anchor, seed: int = 0) -> ToyMatrix:
    """Build a toy UBQP anchored at `anchor`; `seed` matters only for kind random.

    Deterministic given (kind, anchor, seed). Random magnitudes are drawn
    for the lower triangle (diagonal included), row by row, and mirrored, so
    the realized matrix is symmetric with |entries| in [1, 100]. The kernel
    of `_kernel.c` fills it from the draws and returns the largest one,
    which is `max_abs()`; without a C compiler a row loop does the same.
    """
    kind = ToyKind(kind)
    anchor = as_solution(anchor)
    if kind is not ToyKind.RANDOM:
        return ToyMatrix(kind=kind, anchor=anchor)
    from . import _kernel  # here, not at the top: _kernel imports this module
    n = anchor.size
    rng = seeded_rng(seed, TOY_MAGNITUDE_STREAM)
    draws = rng.integers(1, 101, size=n * (n + 1) // 2)
    q = np.empty((n, n), dtype=np.int64)
    lib = _kernel.library()
    if lib is not None:
        anchor = np.ascontiguousarray(anchor)
        peak = lib.lsils_random_toy(draws.ctypes.data, anchor.ctypes.data, n, q.ctypes.data)
    else:
        signs = 2 * anchor.astype(np.int64) - 1
        start = 0
        for i in range(n):
            row = draws[start:start + i + 1] * (signs[:i + 1] if anchor[i] else -1)
            q[i, :i + 1] = row
            q[:i + 1, i] = row
            start += i + 1
        peak = int(draws.max())
    return ToyMatrix(kind=kind, anchor=anchor, _q=q, _peak=peak)


def auto_alpha(inst: UbqpInstance, toy: ToyMatrix, target_bound=None) -> float:
    """Scaling factor bringing toy entries to the original matrix's scale.

    alpha = target_bound / max|Qhat_ij|; target_bound defaults to
    round(mean_abs(inst)). An explicitly supplied bound always wins.
    """
    if target_bound is None:
        target_bound = round(mean_abs(inst))
    target_bound = float(target_bound)
    if not 0 < target_bound < math.inf:  # NaN too
        raise ValueError("target bound must be positive and finite; pass one explicitly "
                         "when the instance mean |Q| rounds to zero")
    peak = toy.max_abs()
    if peak == 0:
        raise ValueError("toy matrix is all zeros")
    return target_bound / peak


@dataclass
class SmoothedObjective:
    """g(x) = (1 - lam) * f_o(x) + lam * alpha * f_toy(x)."""

    instance: UbqpInstance
    toy: ToyMatrix
    lam: float
    alpha: float
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0 < self.alpha < math.inf:  # NaN too
            raise ValueError("alpha must be positive and finite")
        if self.instance.n != self.toy.n:
            raise ValueError("instance and toy dimensions differ")
        self.n = self.instance.n

    @property
    def weights(self) -> tuple[float, float]:
        """(original, toy) coefficients: (1 - lam, lam * alpha)."""
        return 1.0 - self.lam, self.lam * self.alpha


def smoothed_evaluate(g: SmoothedObjective, x) -> float:
    """Blend of the two exact integer objectives in double precision."""
    wo, wt = g.weights
    return wo * evaluate(g.instance, x) + wt * evaluate(g.toy, x)


@dataclass(frozen=True)
class LambdaSchedule:
    """Piecewise-constant smoothing coefficient over consumed budget.

    `steps` holds (threshold, value) pairs with strictly increasing
    thresholds; before the first threshold the coefficient is 0. `unit`
    names the budget kind the thresholds are expressed in.
    """

    steps: tuple = ()
    unit: str = "evals"

    def __post_init__(self) -> None:
        if self.unit not in ("evals", "seconds"):
            raise ValueError("schedule unit must be 'evals' or 'seconds'")
        thresholds = [t for t, _ in self.steps]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("schedule thresholds must be strictly increasing")
        for _, v in self.steps:
            if not 0.0 <= v <= 1.0:
                raise ValueError("schedule values must lie in [0, 1]")

    @classmethod
    def zero(cls, unit: str = "evals") -> "LambdaSchedule":
        return cls(steps=(), unit=unit)

    @classmethod
    def constant(cls, value: float, unit: str = "evals") -> "LambdaSchedule":
        return cls(steps=((0, float(value)),), unit=unit)

    @classmethod
    def staged_ramp(cls, budget_amount, unit: str = "evals") -> "LambdaSchedule":
        """Default ramp: step to 0.001..0.004 at 20/40/60/80% of the budget."""
        steps = tuple((frac * budget_amount, val) for frac, val in
                      ((0.2, 0.001), (0.4, 0.002), (0.6, 0.003), (0.8, 0.004)))
        return cls(steps=steps, unit=unit)

    def value_at(self, consumed) -> float:
        thresholds = [t for t, _ in self.steps]
        i = bisect_right(thresholds, consumed)
        return 0.0 if i == 0 else float(self.steps[i - 1][1])

