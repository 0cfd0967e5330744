"""Reference-speed seconds: measured time corrected for the host's drifting speed.

On a shared host the speed of a core drifts by up to a factor of two over
seconds to minutes while CPU time stays equal to wall time: neighbours
share the physical core, its caches and its clock. The raw seconds of one
run then mostly measure the neighbours. A `SpeedClock` therefore runs a
fixed calibration kernel at every operation boundary and, while an
operation runs, every SAMPLE_PERIOD_S from a SIGALRM handler (Python runs
it in the main thread between bytecodes); a boundary sample is the median
of BOUNDARY_REPEATS kernel runs. It reports the operation's
seconds, without the kernel's own time, scaled by the kernel's reference
duration over the mean kernel time in that window. The kernels are
benchmark code, so a change to the program cannot move them; only the
host's speed does.

Three kernels, each matched to the work it corrects:
  kernel_seconds              a Gray-code walk with incremental gains on
                              16-element vectors: the search and the census
  array_kernel_seconds        a small copy of the blocked value-histogram
                              pass (int64 products, broadcast sums, a sort):
                              the large-array histogram workload
  interpreter_kernel_seconds  a plain interpreter loop and small-array work:
                              set-up, which is mostly imports; the walk
                              kernel sampled in a fresh process varied too
                              much to correct it
The array kernel follows the host's drift over a run but not from one
operation to the next, so that workload's clock applies one factor, from
every sample of the run, to all of its operations (`per_run`).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The kernels' durations at the reference speed; they only set the scale.
REFERENCE_KERNEL_S = 0.003  # the walk and the interpreter kernel
REFERENCE_ARRAY_KERNEL_S = 0.01
SAMPLE_PERIOD_S = 0.1
BOUNDARY_REPEATS = 5
_VECTOR = np.arange(512, dtype=np.int64)
_MATRIX = np.random.default_rng(0).integers(-100, 101, size=(19, 19))
# 512 steps of a Gray-code walk over 16 bits of the matrix.
_WALK_FLIPS = [(i & -i).bit_length() - 1 for i in range(1, 513)]
_WALK_Q = _MATRIX[:16, :16]
_SIGMA = np.ones(16, dtype=np.int64)
_GAINS = np.zeros(16, dtype=np.int64)
_BUF = np.empty(16, dtype=np.int64)
# 2^10 x 2^9 states of the matrix: 4 MiB value arrays.
_LOW_BITS = (np.arange(1 << 10)[:, None] >> np.arange(10)) & 1
_HIGH_BITS = _LOW_BITS[: 1 << 9, :9]
_VALUES = np.empty((1 << 9, 1 << 10), dtype=np.int64)
_SORTED = np.empty(1 << 19, dtype=np.int64)


def kernel_seconds() -> float:
    """Seconds the calibration kernel takes now: a Gray-code walk with incremental gains.

    Each step does the interpreter work and the small numpy calls of one
    incremental flip, the shape of the search and census inner loops.
    """
    _SIGMA.fill(1)
    _GAINS.fill(0)
    start = time.perf_counter()
    value = 0
    for k in _WALK_FLIPS:
        value += int(_GAINS[k])
        sk = int(_SIGMA[k])
        np.multiply(_SIGMA, np.asarray(_WALK_Q[:, k], dtype=np.int64), out=_BUF)
        np.multiply(_BUF, 2 * sk, out=_BUF)
        np.add(_GAINS, _BUF, out=_GAINS)
        _GAINS[k] = -value
        _SIGMA[k] = -sk
    return time.perf_counter() - start


def interpreter_kernel_seconds() -> float:
    """Seconds the interpreter kernel takes now: a Python loop and small-array work."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    acc = np.zeros(_VECTOR.size, dtype=np.int64)
    for _ in range(400):
        acc += _VECTOR * 3
    return time.perf_counter() - start


def array_kernel_seconds() -> float:
    """Seconds the array kernel takes now: all values of a small form, then a sort.

    It writes into preallocated buffers: allocating arrays of this size maps
    fresh pages on every call, which made the kernel's own time vary by a third.
    """
    start = time.perf_counter()
    a, b, c = _MATRIX[:10, :10], _MATRIX[10:, 10:], _MATRIX[:10, 10:]
    fa = ((_LOW_BITS @ a) * _LOW_BITS).sum(axis=1)
    fb = ((_HIGH_BITS @ b) * _HIGH_BITS).sum(axis=1)
    np.matmul(_HIGH_BITS, (_LOW_BITS @ c).T, out=_VALUES)
    np.multiply(_VALUES, 2, out=_VALUES)
    np.add(_VALUES, fa[None, :], out=_VALUES)
    np.add(_VALUES, fb[:, None], out=_VALUES)
    np.copyto(_SORTED, _VALUES.reshape(-1))
    _SORTED.sort()
    return time.perf_counter() - start


def boundary_sample(kernel=kernel_seconds) -> float:
    """Median of BOUNDARY_REPEATS runs of `kernel`."""
    return statistics.median(kernel() for _ in range(BOUNDARY_REPEATS))


class SpeedClock:
    """Times operations in reference-speed seconds.

    With `period_s=None` the kernel runs only at operation boundaries, for
    callers that must not be interrupted (the traced run, whose spans would
    otherwise contain kernel time) and for work that runs in long numpy
    calls, which a signal handler cannot interrupt.

    With `per_run=True` the window is the whole run: `measure` returns
    measured seconds, and the caller multiplies them by `run_scale()` once
    the run is over.
    """

    def __init__(self, period_s: float | None = SAMPLE_PERIOD_S, kernel=kernel_seconds,
                 reference_kernel_s: float = REFERENCE_KERNEL_S,
                 per_run: bool = False) -> None:
        self.period_s = period_s
        self.kernel = kernel
        self.reference_kernel_s = reference_kernel_s
        self.per_run = per_run
        self.raw_s = 0.0
        self._reference_s = 0.0
        self._window = [boundary_sample(kernel)]
        self._paused_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        seconds = self.kernel()
        self._window.append(seconds)
        self._paused_s += seconds

    def measure(self, fn):
        """(fn(), reference-speed seconds it took; measured seconds if per_run)."""
        if not self.per_run:
            self._window = self._window[-1:]
        paused = self._paused_s
        if self.period_s:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            if self.period_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = end - start - (self._paused_s - paused)
        self._window.append(boundary_sample(self.kernel))
        self.raw_s += raw
        if self.per_run:
            return result, raw
        seconds = raw * self.reference_kernel_s / statistics.fmean(self._window)
        self._reference_s += seconds
        return result, seconds

    def run_scale(self) -> float:
        """The factor still owed to the seconds `measure` returned: 1 unless per_run."""
        if not self.per_run:
            return 1.0
        return self.reference_kernel_s / statistics.fmean(self._window)

    @property
    def reference_s(self) -> float:
        """Reference-speed seconds of every operation measured so far."""
        return self.raw_s * self.run_scale() if self.per_run else self._reference_s
