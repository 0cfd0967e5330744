"""Unimodal toy UBQPs anchored at a solution, and the smoothed objective.

A toy matrix realizes entries (2 a_i a_j - 1) * m_ij for the anchor a: +m_ij
exactly when a_i = a_j = 1, else -m_ij. The kinds differ only in the
positive magnitudes m:

  * plusminus1, plusminusi: one anchored family, m_ij = max(w_i, w_j) with
    weights w_i = 1 (plusminus1) or w_i = i one-based (plusminusi)
  * random: m_ij uniform integers in [1, 100] (`RANDOM_MAGNITUDES`), symmetric

Each kind has the anchor as its unique one-bit-flip local optimum. The
smoothed objective blends the original problem with a toy:
g(x) = (1 - lam) * f_o(x) + lam * alpha * f_toy(x).
Decisions on g are made on the exact integer blend a * f_o + b * f_toy,
which is g times a positive constant (`blend_weights`).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

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
# The random toy's magnitudes, drawn uniformly; stored as uint8, so they
# must lie in [0, 255] (construct_toy checks).
RANDOM_MAGNITUDES = range(1, 101)
# blend_weights' denominators, and its bound on blended magnitudes, below
# which the kernel's double arithmetic is exact.
DENOMINATOR_LIMIT = 10**6
EXACT_BOUND = 2**53


@dataclass
class ToyMatrix:
    """A unimodal toy UBQP anchored at `anchor`.

    Kinds plusminus1 and plusminusi are implicit in their read-only weights
    `_w`, all 1 or 1..n (O(n) storage), which never decrease, as the kernel
    needs; only kind random stores, and must be given, a matrix, its n x n
    magnitudes m_ij as read-only uint8 `_m` (n^2 bytes), and the largest as
    `_peak`. Every kind takes its signs from the anchor, and `materialize`
    is the one place in Python that derives the realized int64 entries
    (2 a_i a_j - 1) m_ij from them, in n^2 time and memory; the search
    kernel reads the anchor, `_w` and `_m` in place. `n` is the anchor's
    length.
    """

    kind: ToyKind
    anchor: np.ndarray
    n: int = field(init=False)
    _m: np.ndarray | None = None
    _peak: int | None = None
    _w: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.kind = ToyKind(self.kind)
        self.anchor = as_solution(self.anchor).copy()
        self.anchor.setflags(write=False)
        self.n = self.anchor.size
        self._w = (np.arange(1, self.n + 1, dtype=np.int64) if self.kind is ToyKind.PLUS_MINUS_I
                   else np.ones(self.n, dtype=np.int64))
        self._w.setflags(write=False)
        random = self.kind is ToyKind.RANDOM
        if (self._m is not None, self._peak is not None) != (random, random):
            raise ValueError("a random toy takes its magnitudes _m and their peak _peak, "
                             "and an anchored toy neither")
        if self._m is not None:
            # The kernel reads these bytes in place.
            if not (self._m.dtype == np.uint8 and self._m.shape == (self.n, self.n)
                    and self._m.flags.c_contiguous):
                raise ValueError("a random toy's magnitudes must be a C-ordered n x n uint8 "
                                 "matrix")
            self._m.setflags(write=False)

    # -- quadratic-form protocol ------------------------------------------
    def max_abs(self) -> int:
        """Largest |entry| of the realized matrix."""
        return self._peak if self.kind is ToyKind.RANDOM else int(self._w[-1])

    def materialize(self) -> np.ndarray:
        """Dense realized int64 matrix, built on each call and read-only."""
        a = self.anchor
        magnitudes = (self._m.astype(np.int64) if self.kind is ToyKind.RANDOM
                      else np.maximum.outer(self._w, self._w))
        dense = (2 * np.outer(a, a) - 1) * magnitudes
        dense.setflags(write=False)
        return dense


def construct_toy(kind: ToyKind, anchor, seed: int = 0) -> ToyMatrix:
    """Build a toy UBQP anchored at `anchor`; `seed` matters only for kind random.

    Deterministic given (kind, anchor, seed). Random magnitudes are drawn
    for the lower triangle (diagonal included), row by row, and mirrored, so
    the realized matrix is symmetric with |entries| in [1, 100]. They are
    drawn as int32, which for a range under 2^32 gives numpy's int64 draws
    value for value. The kernel of `_kernel.c` stores them in a uint8
    matrix and returns the largest draw, which is `max_abs()`; ValueError
    when `RANDOM_MAGNITUDES` leaves uint8.
    """
    kind = ToyKind(kind)
    anchor = as_solution(anchor)
    if kind is not ToyKind.RANDOM:
        return ToyMatrix(kind=kind, anchor=anchor)
    if not 0 <= RANDOM_MAGNITUDES.start <= RANDOM_MAGNITUDES[-1] <= np.iinfo(np.uint8).max:
        raise ValueError(f"random toy magnitudes {RANDOM_MAGNITUDES} do not fit in uint8")
    from . import _kernel  # here, not at the top: _kernel imports this module
    n = anchor.size
    rng = seeded_rng(seed, TOY_MAGNITUDE_STREAM)
    draws = rng.integers(RANDOM_MAGNITUDES.start, RANDOM_MAGNITUDES.stop, size=n * (n + 1) // 2,
                         dtype=np.int32)
    m = np.empty((n, n), dtype=np.uint8)
    peak = _kernel.library().lsils_random_toy(draws.ctypes.data, n, m.ctypes.data)
    return ToyMatrix(kind=kind, anchor=anchor, _m=m, _peak=peak)


def toy_peaks(kind: ToyKind, n: int):
    """Every `max_abs()` a toy of `kind` on n bits can have, largest first."""
    if ToyKind(kind) is ToyKind.RANDOM:
        return RANDOM_MAGNITUDES[::-1]
    return (construct_toy(kind, np.zeros(n, dtype=np.int8)).max_abs(),)  # the same at every anchor


def auto_alpha(inst: UbqpInstance, toy: ToyMatrix, target_bound=None) -> float:
    """Scaling factor bringing toy entries to the original matrix's scale.

    alpha = target_bound / max|Qhat_ij|; target_bound defaults to
    round(mean_abs(inst)). An explicitly supplied bound always wins.
    """
    return peak_alpha(inst, toy.max_abs(), target_bound)


def peak_alpha(inst: UbqpInstance, peak: int, target_bound=None) -> float:
    """`auto_alpha` for a toy whose largest |entry| is `peak`."""
    target_bound = float(round(mean_abs(inst)) if target_bound is None else target_bound)
    if not 0 < target_bound < math.inf:  # NaN too
        raise ValueError("target bound must be positive and finite; pass one explicitly "
                         "when the instance mean |Q| rounds to zero")
    return target_bound / peak


@functools.lru_cache(maxsize=256)
def blend_weights(lam: float, alpha: float, f_bound: int, t_bound: int) -> tuple[int, int]:
    """Coprime integers (a, b) with a : b = (1 - lam) : lam * alpha exactly.

    lam and alpha are read as `Fraction(x).limit_denominator(DENOMINATOR_LIMIT)`,
    which recovers every decimal with up to six places and every auto alpha
    B/P. A blend (b > 0) whose magnitudes, up to `f_bound` on the original
    form and `t_bound` on the toy, reach a * f_bound + b * t_bound >=
    EXACT_BOUND is rejected. At lam = 0 the weights are (1, 0). Cached, as
    a search asks at every return from the kernel.
    """
    exact_lam, exact_alpha = (Fraction(v).limit_denominator(DENOMINATOR_LIMIT)
                              for v in (lam, alpha))
    if lam and not (exact_lam and exact_alpha):
        raise ValueError(f"lam={lam:g}, alpha={alpha:g}: positive values must be at least "
                         f"1/{2 * DENOMINATOR_LIMIT}, the resolution of exact blending")
    a, b = ((1 - exact_lam) / (exact_lam * exact_alpha)).as_integer_ratio() if lam else (1, 0)
    if b and a * f_bound + b * t_bound >= EXACT_BOUND:
        raise ValueError(f"lam={lam:g}, alpha={alpha:g}: blend weights {a}:{b} take "
                         f"magnitudes to {a * f_bound + b * t_bound}, past the bound 2^53")
    return a, b


@dataclass
class SmoothedObjective:
    """g(x) = (1 - lam) * f_o(x) + lam * alpha * f_toy(x); decisions use `integer_weights`."""

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

    def integer_weights(self, scale: int) -> tuple[int, int]:
        """`blend_weights` for magnitudes up to `scale` times each form's largest
        |entry|: 2n for one-flip gains, n^2 for values."""
        return blend_weights(self.lam, self.alpha, scale * self.instance.max_abs(),
                             scale * self.toy.max_abs())


def smoothed_evaluate(g: SmoothedObjective, x) -> float:
    """Blend of the two exact integer objectives in double precision."""
    return (1.0 - g.lam) * evaluate(g.instance, x) + g.lam * g.alpha * evaluate(g.toy, x)


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
        if any(t != t for t in thresholds):  # NaN; math.isnan overflows on huge ints
            raise ValueError("schedule thresholds must be numbers, not NaN")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("schedule thresholds must be strictly increasing")
        if not all(0.0 <= v <= 1.0 for _, v in self.steps):
            raise ValueError("schedule values must lie in [0, 1]")
        # -0.0 runs as 0.0 but prints as -0; adding +0.0 makes it 0.0.
        object.__setattr__(self, "steps", tuple((t, v + 0.0) for t, v in self.steps))

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
        i = bisect_right(self.steps, consumed, key=lambda step: step[0])
        return 0.0 if i == 0 else float(self.steps[i - 1][1])

    def next_step(self, consumed):
        """The first threshold past `consumed`, where the value may change; None after the last."""
        i = bisect_right(self.steps, consumed, key=lambda step: step[0])
        return self.steps[i][0] if i < len(self.steps) else None

