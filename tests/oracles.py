"""Independent reference implementations used to check the package.

Everything here is deliberately naive (python loops, direct definitions)
and imports nothing from the package under test. Frozen constants were
computed with these oracles before the package existed.
"""

from __future__ import annotations

from collections import Counter
from math import comb

import numpy as np


def brute_value(q, x) -> int:
    """x^T Q x by double loop over python ints."""
    n = len(x)
    total = 0
    for i in range(n):
        for j in range(n):
            total += int(q[i][j]) * int(x[i]) * int(x[j])
    return total


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
