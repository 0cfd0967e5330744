"""Independent reference implementations used to check the package.

Everything here is deliberately naive (python loops, direct definitions)
and imports nothing from the package under test. Frozen constants were
computed with these oracles before the package existed.
"""

from __future__ import annotations

from collections import Counter
from math import ceil, comb

import numpy as np


def brute_value(q, x) -> int:
    """x^T Q x by double loop over python ints."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(n):
            total += int(q[i][j]) * int(x[i]) * int(x[j])
    return total


def all_values(q) -> np.ndarray:
    """x^T Q x of every solution, indexed little-endian, from the full bit table.

    The same definition as brute_value in whole-array int64 products, for
    cubes where a python double loop per solution is too slow.
    """
    q = np.asarray(q, dtype=np.int64)
    n = q.shape[0]
    x = (np.arange(2 ** n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return ((x @ q) * x).sum(axis=1)


def brute_flip_delta(q, x, k) -> int:
    y = list(int(b) for b in x)
    y[k] ^= 1
    return brute_value(q, y) - brute_value(q, x)


def bits_from_index(s: int, n: int) -> np.ndarray:
    """Solution for index s: bit i of s is x_i (little-endian)."""
    return np.array([(s >> i) & 1 for i in range(n)], dtype=np.int8)


def brute_local_optima(value_fn, n):
    """All solutions with no strictly improving one-bit flip."""
    optima = []
    for s in range(2 ** n):
        x = bits_from_index(s, n)
        v = value_fn(x)
        best_neighbor = None
        for k in range(n):
            y = x.copy()
            y[k] ^= 1
            w = value_fn(y)
            if best_neighbor is None or w > best_neighbor:
                best_neighbor = w
        if best_neighbor <= v:
            optima.append(x)
    return optima


def oracle_toy_matrix(kind: str, anchor, magnitudes=None) -> np.ndarray:
    """Entry-by-entry piecewise construction of a toy matrix.

    kind 'plusminus1': |entry| = 1; 'plusminusi': |entry| = max(i, j)
    one-based; 'random': |entry| = magnitudes[i][j] (symmetric, supplied by
    the caller). Sign is + exactly when anchor_i = anchor_j = 1.
    """
    a = list(int(b) for b in anchor)
    n = len(a)
    q = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if kind == "plusminus1":
                mag = 1
            elif kind == "plusminusi":
                mag = max(i + 1, j + 1)
            else:
                mag = int(magnitudes[i][j])
            q[i, j] = mag if a[i] * a[j] == 1 else -mag
    return q


def fisher_yates_positions(rng, n: int, count: int) -> np.ndarray:
    """`count` distinct indices by a partial Fisher-Yates pass over range(n),
    one generator draw per swap."""
    idx = np.arange(n)
    for i in range(count):
        j = int(rng.integers(i, n))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:count]


def random_toy_by_indices(anchor, seed: int) -> np.ndarray:
    """Random-magnitude toy with its lower triangle filled through
    np.tril_indices and mirrored.

    Magnitudes come from the generator PCG64(SeedSequence([seed, 0])), the
    toy-magnitude stream of the package.
    """
    a = np.asarray(anchor, dtype=np.int64)
    n = a.size
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    w = np.zeros((n, n), dtype=np.int64)
    rows, cols = np.tril_indices(n)
    w[rows, cols] = rng.integers(1, 101, size=rows.size)
    w = w + np.tril(w, -1).T
    return (2 * np.outer(a, a) - 1) * w


def brute_histogram(value_fn, n) -> dict:
    counts: dict = {}
    for s in range(2 ** n):
        v = value_fn(bits_from_index(s, n))
        counts[v] = counts.get(v, 0) + 1
    return counts


def brute_collision(counts: dict) -> float:
    total = sum(counts.values())
    return sum((c / total) ** 2 for c in counts.values())


def oracle_toy_flatness(kind: str, anchor) -> tuple[float, float]:
    """Collision probabilities (full, triangular) of a toy at `anchor`.

    full is over x^T Q x, where each off-diagonal pair counts twice;
    triangular is over sum_{i<=j} Q_ij x_i x_j, where it counts once.
    'plusminus1' uses a closed-form count: with k ones in the anchor, the
    C(k, b) * C(n - k, c) solutions with b ones inside the anchor's support
    and c outside take full value 2b^2 - (b + c)^2 and triangular value
    (full + b - c) / 2. 'plusminusi' enumerates all 2^n solutions of
    oracle_toy_matrix.
    """
    a = [int(v) for v in anchor]
    n, k = len(a), sum(a)
    if kind == "plusminus1":
        full, tri = Counter(), Counter()
        for b in range(k + 1):
            for c in range(n - k + 1):
                ways = comb(k, b) * comb(n - k, c)
                value = 2 * b * b - (b + c) ** 2
                full[value] += ways
                tri[(value + b - c) // 2] += ways
        return brute_collision(full), brute_collision(tri)
    if kind != "plusminusi":
        raise ValueError(f"no flatness oracle for toy kind {kind!r}")
    q = oracle_toy_matrix(kind, a)
    states = np.arange(2 ** n, dtype=np.int64)
    x = ((states[:, None] >> np.arange(n)) & 1).astype(np.int64)
    full, tri = (brute_collision(Counter(((x @ m) * x).sum(axis=1).tolist()))
                 for m in (q, np.triu(q)))
    return full, tri


# Worked 5-dimensional example: anchor (0,1,0,1,1).
EXAMPLE_ANCHOR = (0, 1, 0, 1, 1)

# Unit-magnitude toy for the worked anchor.
EXAMPLE_TOY_UNIT = np.array(
    [
        [-1, -1, -1, -1, -1],
        [-1, 1, -1, 1, 1],
        [-1, -1, -1, -1, -1],
        [-1, 1, -1, 1, 1],
        [-1, 1, -1, 1, 1],
    ],
    dtype=np.int64,
)

# Index-magnitude toy for the worked anchor.
EXAMPLE_TOY_INDEX = np.array(
    [
        [-1, -2, -3, -4, -5],
        [-2, 2, -3, 4, 5],
        [-3, -3, -3, -4, -5],
        [-4, 4, -4, 4, 5],
        [-5, 5, -5, 5, 5],
    ],
    dtype=np.int64,
)

# One published random-magnitude realization for the worked anchor; only its
# sign pattern is contractual (magnitudes depend on unpublished draws).
EXAMPLE_TOY_RANDOM_SIGNS = np.sign(
    np.array(
        [
            [-33, -27, -52, -46, -40],
            [-27, 62, -72, 95, 11],
            [-52, -72, -24, -18, -44],
            [-46, 95, -18, 1, 17],
            [-40, 11, -44, 17, 21],
        ],
        dtype=np.int64,
    )
)

# Full-form objective x^T Q x of each example toy at its own anchor, by
# direct summation of all nine cells of the positive 3x3 block: unit toy = 9;
# index toy = 2+4+5+4+4+5+5+5+5 = 39. The triangular sum over i <= j, which
# counts each off-diagonal pair once, would give 6 and 25.
EXAMPLE_UNIT_VALUE_AT_ANCHOR = 9
EXAMPLE_INDEX_VALUE_AT_ANCHOR = 39


# -- Run logs, one point at a time --------------------------------------------


def log_marks(interval, amount) -> list[tuple[int, int]]:
    """(elapsed, count) of each log mark of an evals budget of `amount`.

    The marks are interval, interval + interval, ... by repeated addition,
    the first always and the rest while they stay within `amount`; a mark
    is logged at its int and reached at the count ceil(mark), clamped to
    the int64 maximum.
    """
    marks = []
    mark = interval
    while True:
        marks.append((int(mark), min(ceil(mark), 2**63 - 1)))
        mark += interval
        if mark > amount:
            return marks


def runlog_rows(records) -> list[str]:
    """The run-log CSV rows of `records`, every field of every record
    formatted on its own: elapsed as an integer when it is one, else to 3
    decimals, lambda to 6 and excess to 8, or empty when None."""
    rows = []
    for r in records:
        integral = isinstance(r.elapsed, (int, np.integer))
        elapsed = str(int(r.elapsed)) if integral else f"{r.elapsed:.3f}"
        excess = "" if r.excess is None else f"{r.excess:.8f}"
        rows.append(f"{elapsed},{r.evaluations},{r.best_f},{r.lam:.6f},{excess}")
    return rows


# -- The search's numpy reference -------------------------------------------
# The compiled kernel of the search must match these flip for flip. They
# take the package's run state, gain caches and swap-target source as
# arguments, by their attributes and methods alone: a run's `value` and
# `best` are slots of its state vector, `best_x` is its best solution, and
# `charge` charges its budget.


def take_targets(targets) -> np.ndarray:
    """The next iteration's swap targets from a run's swap-target source."""
    targets.ready()
    targets.at += targets.bits
    return targets.chunk[targets.at - targets.bits:targets.at]


def swap_positions(targets) -> np.ndarray:
    """The positions a partial Fisher-Yates pass with swap targets j_i in [i, n) picks.

    Only swapped slots are stored, so the pass is O(len(targets)) whatever n is.
    """
    moved: dict[int, int] = {}
    picked = []
    for i, j in enumerate(np.asarray(targets).tolist()):
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.array(picked, dtype=np.intp)


def pick_flip(gains, pivot_rule: str, n: int):
    """(flip index or None, candidates examined) under the given pivot rule."""
    if pivot_rule == "best":
        k = int(np.argmax(gains))
        return (k if gains[k] > 0 else None), n
    positive = gains > 0
    if not positive.any():
        return None, n
    k = int(np.argmax(positive))
    return k, k + 1


def descend(run, caches, weights, pivot_rule: str) -> None:
    """Local search all the way to a local optimum.

    `caches` holds the gain cache of the original objective first, then the
    toy's when blended; integer `weights` (a, b) pick on a * g_0 + b * g_1,
    otherwise on the first cache's gains. The run's value is the first
    cache's objective. Each scan and each flip is charged on its own, and a
    flip to a value above the run's best makes it the best.
    """
    primary = caches[0]
    n = primary.solution.size
    while True:
        gains = primary.gains
        if weights is not None:  # in int64: products of int32 gains would wrap
            gains = (weights[0] * gains.astype(np.int64)
                     + weights[1] * caches[1].gains.astype(np.int64))
        k, examined = pick_flip(gains, pivot_rule, n)
        run.charge(examined)
        if k is None:
            return
        run.value += int(primary.gains[k])
        for cache in caches:
            cache.apply_flip(k)
        run.charge(n)
        if run.value > run.best:
            run.best = run.value
            run.best_x[:] = primary.solution


def perturb(run, caches, positions) -> None:
    """Flip `positions` one bit at a time through all caches, charging n per bit."""
    primary = caches[0]
    n = primary.solution.size
    for p in positions.tolist():
        run.value += int(primary.gains[p])
        for cache in caches:
            cache.apply_flip(p)
        run.charge(n)


def descent_call(run, caches, weights=None, targets=None) -> None:
    """One iteration of `search._Run.iterate` on `caches`, the run's caches:
    it perturbs them with the next iteration's targets, if given, and
    descends. The run decides again after every iteration, so it needs no
    stop count.
    """
    if targets is not None:
        perturb(run, caches, swap_positions(take_targets(targets)))
    descend(run, caches, weights, run.pivot_rule)
