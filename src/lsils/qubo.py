"""UBQP instances, solutions, and exact incremental evaluation.

Everything in this package maximizes f(x) = x^T Q x over binary vectors x,
with Q a symmetric integer matrix. Arithmetic on this objective is exact
signed 64-bit integer math, and the search's gains, and the rows of Q it
reads, narrow to 32 bits only where every gain and update provably fits
(`gain_dtype`); the smoothing
layer blends objectives with integer weights, so only its reported values
are floats.

The quadratic-form protocol shared by instances and toy matrices is duck
typed and has three members: `n`, `materialize()`, the dense int64 matrix,
and `max_abs()`, its largest |entry|. `evaluate` and `GainCache` read the
dense matrix of any form in the protocol. The search kernel reads instances
and toys only (see `_kernel`): a toy by its anchor and magnitudes, and an
instance's dense matrix in its run's gain width, `q` in place or its int32
copy (`UbqpInstance.rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

INT64_MAX = np.iinfo(np.int64).max
INT32_MAX = np.iinfo(np.int32).max

# Fixed labels deriving independent per-component RNG streams from one seed.
INIT_STREAM = 1
PERTURB_STREAM = 2
TOY_STREAM = 3


def seeded_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator derived from an integer key path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def as_solution(bits) -> np.ndarray:
    """Coerce to a validated one-dimensional 0/1 vector of dtype int8."""
    x = np.asarray(bits, dtype=np.int8)
    if x.ndim != 1:
        raise ValueError("solution must be a one-dimensional bit vector")
    if x.size == 0:
        raise ValueError("solution must have at least one bit")
    if not np.all((x == 0) | (x == 1)):
        raise ValueError("solution entries must be 0 or 1")
    return x


def random_solution(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bit vector of length n."""
    return rng.integers(0, 2, size=n, dtype=np.int8)


@dataclass
class UbqpInstance:
    """A UBQP instance: maximize x^T Q x over x in {0,1}^n.

    `q` is dense, symmetric, int64, in C order and locked read-only after
    construction, so the kernel's int64 lanes read it in place; its int32
    lanes read a read-only int32 copy, made the first time one needs it and
    kept with the instance (`rows`).
    `density` is the realized fraction of nonzero entries (informational).
    """

    n: int
    q: np.ndarray
    density: float
    _max_abs: int = field(init=False, repr=False, compare=False)
    _abs_sum: int = field(init=False, repr=False, compare=False)
    _q32: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = np.asarray(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be a square matrix")
        if q.shape[0] != self.n or self.n < 1:
            raise ValueError("dimension n must be >= 1 and match q")
        if not np.issubdtype(q.dtype, np.integer):
            raise ValueError("q must hold integers")
        if q.dtype.kind == "u" and q.max() > INT64_MAX:
            raise ValueError("entries too large: past the int64 range")
        q = q.astype(np.int64, order="C", copy=True)
        if not np.array_equal(q, q.T):
            raise ValueError("q must be symmetric")
        magnitudes = np.abs(q).view(np.uint64)  # exact for every int64, -2^63 included
        self._max_abs = max_abs = int(magnitudes.max())
        # n^2 * max|Q| within int64 keeps x^T Q x, and the sum of |Q_ij|, from
        # overflowing; (2n + 1) * max|Q| keeps the kernel's gain updates exact,
        # and is the larger of the two at n <= 2.
        if max_abs and max(self.n * self.n, 2 * self.n + 1) > INT64_MAX // max_abs:
            raise ValueError("entries too large: max(n^2, 2n + 1) * max|Q| exceeds int64")
        q.setflags(write=False)
        self.q = q
        self._abs_sum = int(magnitudes.sum())

    @classmethod
    def from_matrix(cls, q) -> "UbqpInstance":
        q = np.asarray(q)
        n = q.shape[0] if q.ndim == 2 else 0
        density = int(np.count_nonzero(q)) / (n * n) if n else 0.0
        return cls(n=n, q=q, density=density)

    def rows(self, dtype) -> np.ndarray:
        """`q` in the gain width `dtype`, int64 or int32, as the search kernel
        reads it: `q` itself, or an int32 copy, read-only, made on the first
        call and kept (n^2 * 4 bytes). ValueError when an entry is past int32."""
        if np.dtype(dtype) == np.int64:
            return self.q
        if self._q32 is None:
            q32 = in_width(self.q, np.int32)
            q32.setflags(write=False)
            self._q32 = q32
        return self._q32

    # -- quadratic-form protocol ------------------------------------------
    def materialize(self) -> np.ndarray:
        return self.q

    def max_abs(self) -> int:
        return self._max_abs


def in_width(matrix, dtype) -> np.ndarray:
    """`matrix` as a C-ordered array of the integer `dtype`, not copied when it
    is one already; ValueError, never a wrapped entry, when an entry is
    outside `dtype`'s range."""
    matrix = np.asarray(matrix)
    if matrix.size and not np.can_cast(matrix.dtype, dtype):
        limits = np.iinfo(dtype)
        if matrix.min().item() < limits.min or matrix.max().item() > limits.max:
            raise ValueError(f"the form's entries do not fit {np.dtype(dtype)}")
    return np.ascontiguousarray(matrix, dtype=dtype)


def evaluate(form, x) -> int:
    """Exact objective value x^T Q x of any quadratic form in the protocol."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size != form.n:
        raise ValueError(f"solution length {x.size} does not match n={form.n}")
    x64 = x.astype(np.int64)
    return int(x64 @ (np.asarray(form.materialize(), dtype=np.int64) @ x64))


def mean_abs(inst: UbqpInstance) -> Fraction:
    """Mean of |Q_ij| over all n^2 entries, zeros included, as an exact rational."""
    return Fraction(inst._abs_sum, inst.n * inst.n)


def gain_dtype(n: int, peak: int) -> np.dtype:
    """The search kernel's gain lanes for forms on n bits with entries up to `peak`.

    int32 when (2n + 1) * peak <= 2^31 - 1, which bounds every gain and
    every intermediate of the kernel's updates (see `_kernel.c`), else int64.
    """
    return np.dtype(np.int32 if (2 * n + 1) * peak <= INT32_MAX else np.int64)


@dataclass
class GainCache:
    """One-flip gains of a quadratic form at the cached solution: the numpy
    reference for the search kernel's caches, which a run holds itself and
    builds and flips in the kernel (`search._Run`).

    gains[k] = f(flip_k(x)) - f(x), exact int64, maintained in O(n) per
    applied flip. `sigma` mirrors 1 - 2x. A cache comes from `build`, which
    keeps the form's dense matrix for `apply_flip` to read rows of.
    Single-owner mutable state: never share one cache between concurrent
    searches.
    """

    form: object
    solution: np.ndarray
    gains: np.ndarray
    sigma: np.ndarray
    _rows: np.ndarray = field(init=False, repr=False)
    _buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._buf = np.empty(self.solution.size, dtype=np.int64)

    @classmethod
    def build(cls, form, x) -> "GainCache":
        """The cache at x, by one numpy matvec on the form's dense matrix: the
        reference for the kernel's builds (`search._Run.build`)."""
        x = as_solution(x)
        if x.size != form.n:
            raise ValueError(f"solution length {x.size} does not match n={form.n}")
        rows = np.asarray(form.materialize(), dtype=np.int64)
        x64 = x.astype(np.int64)
        sigma = 1 - 2 * x64
        d = rows.diagonal()
        gains = sigma * (2 * (rows @ x64) - 2 * d * x64 + d)
        cache = cls(form=form, solution=x.copy(), gains=gains, sigma=sigma)
        cache._rows = rows
        return cache

    def apply_flip(self, k: int) -> "GainCache":
        """Flip bit k of the cached solution and update all gains in O(n)."""
        if not 0 <= k < self.solution.size:
            raise IndexError(f"flip index {k} out of range")
        old = int(self.gains[k])
        sk = int(self.sigma[k])
        # For j != k the gain shifts by 2 * sigma_j * Q_jk * sigma_k(old).
        buf = self._buf
        np.multiply(self.sigma, self._rows[k], out=buf)
        buf *= 2 * sk
        self.gains += buf
        self.gains[k] = -old
        self.solution[k] ^= 1
        self.sigma[k] = -sk
        return self
