"""UBQP instances, solutions, and exact incremental evaluation.

Everything in this package maximizes f(x) = x^T Q x over binary vectors x,
with Q a symmetric integer matrix. Arithmetic on this objective is exact
signed 64-bit integer math; no floating point enters until objectives are
blended in the smoothing layer.

The quadratic-form protocol shared by instances and toy matrices is duck
typed: an object with `n`, `diag()`, `col(k)` and `matvec(v)` can be
evaluated and gain-cached by the helpers below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

INT64_MAX = np.iinfo(np.int64).max

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

    `q` is dense, symmetric, int64 and locked read-only after construction.
    `density` is the realized fraction of nonzero entries (informational).
    """

    n: int
    q: np.ndarray
    density: float

    def __post_init__(self) -> None:
        q = np.asarray(self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("q must be a square matrix")
        if q.shape[0] != self.n or self.n < 1:
            raise ValueError("dimension n must be >= 1 and match q")
        if not np.issubdtype(q.dtype, np.integer):
            raise ValueError("q must hold integers")
        q = q.astype(np.int64, copy=True)
        if not np.array_equal(q, q.T):
            raise ValueError("q must be symmetric")
        max_abs = int(np.abs(q).max()) if q.size else 0
        # n^2 * max|Q| must stay within int64 so x^T Q x cannot overflow.
        if max_abs and self.n * self.n > INT64_MAX // max_abs:
            raise ValueError("entries too large: n^2 * max|Q| exceeds int64")
        q.setflags(write=False)
        self.q = q

    @classmethod
    def from_matrix(cls, q) -> "UbqpInstance":
        q = np.asarray(q)
        n = q.shape[0] if q.ndim == 2 else 0
        nonzero = int(np.count_nonzero(q)) if q.size else 0
        density = nonzero / (n * n) if n else 0.0
        return cls(n=n, q=q, density=density)

    # -- quadratic-form protocol ------------------------------------------
    def diag(self) -> np.ndarray:
        return self.q.diagonal()

    def col(self, k: int) -> np.ndarray:
        return self.q[k]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.q @ np.asarray(v, dtype=np.int64)


def evaluate(form, x) -> int:
    """Exact objective value x^T Q x of any quadratic form in the protocol."""
    x = np.asarray(x)
    if x.ndim != 1 or x.size != form.n:
        raise ValueError(f"solution length {x.size} does not match n={form.n}")
    x64 = x.astype(np.int64)
    return int(x64 @ form.matvec(x64))


def flip_delta(inst, x, k: int) -> int:
    """Exact change of the objective when bit k of x is flipped.

    Closed form for symmetric Q: (1 - 2 x_k) (Q_kk + 2 sum_{j != k} Q_kj x_j).
    """
    x = np.asarray(x)
    if not 0 <= k < inst.n:
        raise IndexError(f"flip index {k} out of range for n={inst.n}")
    col = inst.col(k)
    dk = int(col[k])
    s = int(col @ np.asarray(x, dtype=np.int64))
    sigma = 1 - 2 * int(x[k])
    return sigma * (dk + 2 * (s - dk * int(x[k])))


def mean_abs(inst: UbqpInstance) -> Fraction:
    """Mean of |Q_ij| over all n^2 entries, zeros included, as an exact rational."""
    total = int(np.abs(inst.q, dtype=np.int64).sum())
    return Fraction(total, inst.n * inst.n)


@dataclass
class GainCache:
    """One-flip gains of a quadratic form at the cached solution.

    gains[k] = f(flip_k(x)) - f(x), exact int64, maintained in O(n) per
    applied flip. `sigma` mirrors 1 - 2x. Single-owner mutable state: never
    share one cache between concurrent searches.
    """

    form: object
    solution: np.ndarray
    gains: np.ndarray
    sigma: np.ndarray
    _buf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._buf = np.empty(self.solution.size, dtype=np.int64)

    @classmethod
    def build(cls, form, x) -> "GainCache":
        x = as_solution(x)
        if x.size != form.n:
            raise ValueError(f"solution length {x.size} does not match n={form.n}")
        x64 = x.astype(np.int64)
        sigma = 1 - 2 * x64
        d = np.asarray(form.diag(), dtype=np.int64)
        gains = sigma * (2 * form.matvec(x64) - 2 * d * x64 + d)
        return cls(form=form, solution=x.copy(), gains=gains, sigma=sigma)

    def apply_flip(self, k: int) -> "GainCache":
        """Flip bit k of the cached solution and update all gains in O(n)."""
        if not 0 <= k < self.solution.size:
            raise IndexError(f"flip index {k} out of range")
        old = int(self.gains[k])
        sk = int(self.sigma[k])
        # For j != k the gain shifts by 2 * sigma_j * Q_jk * sigma_k(old).
        buf = self._buf
        np.multiply(self.sigma, np.asarray(self.form.col(k), dtype=np.int64), out=buf)
        buf *= 2 * sk
        self.gains += buf
        self.gains[k] = -old
        self.solution[k] ^= 1
        self.sigma[k] = -sk
        return self
