"""Exhaustive landscape analysis for small instances.

Solutions are indexed little-endian: bit i of index s is x_i. Local-optima
enumeration walks all 2^n solutions in reflected-binary Gray-code order
(one flip per step, O(n) incremental gain update) on one integer form: the
objective itself, or a smoothed objective's exact integer blend
a * Q + b * T, built once. It stores every value, then compares each
solution against its n neighbors. Every other 2^n enumeration streams the
values from `_value_blocks`, a bilinear block split of the matrix that
yields them in cache-sized blocks made by exact int64 additions.
Histograms count block by block, so their memory does not grow with 2^n;
`all_values_blocked` fills one array from the same blocks. Smoothed
histogram keys are g's float values, quantized to 1e-9.

Everything here is guarded to n <= ENUMERATION_GUARD since the work (and
the census's memory) grows as 2^n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .qubo import GainCache, UbqpInstance
from .smoothing import SmoothedObjective, ToyKind, ToyMatrix, construct_toy

ENUMERATION_GUARD = 25
HISTOGRAM_QUANTUM_DECIMALS = 9
# A block of `_value_blocks` is 2^_BLOCK_BITS rows of 2^(n // 2) values:
# 2 MiB at n = 24.
_BLOCK_BITS = 6
# Values a histogram holds besides its blocks (8 MiB): `_tally`'s sort
# batch, or the widest span an integer histogram counts in one array.
_COUNT_SLOTS = 1 << 20
# The histogram total below which `collision_probability` sums the squared
# counts in one int64 dot.
_EXACT_DOT_TOTAL = 1 << 31


def _check_guard(n: int) -> None:
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"n={n} exceeds the exhaustive-enumeration guard of "
            f"{ENUMERATION_GUARD} (2^{n} solutions); sample or reduce n")
    if n < 1:
        raise ValueError("n must be >= 1")


def solution_from_index(s: int, n: int) -> np.ndarray:
    """Little-endian decode: bit i of s becomes x_i."""
    return np.array([(s >> i) & 1 for i in range(n)], dtype=np.int8)


def gray_flip_sequence(n: int) -> np.ndarray:
    """Flipped-bit index per Gray-code step: trailing zeros of t for t=1..2^n-1."""
    total = (1 << n) - 1
    out = np.empty(total, dtype=np.uint8)
    chunk = 1 << 20
    for start in range(0, total, chunk):
        t = np.arange(start + 1, min(start + chunk, total) + 1, dtype=np.int64)
        out[start:start + t.size] = np.bitwise_count((t & -t) - 1).astype(np.uint8)
    return out


def enumerate_values(objective) -> list[np.ndarray]:
    """Exact values of every solution, indexed by solution integer: of the
    objective, or of a smoothed objective's integer blend a * f + b * t,
    its weights checked before the walk.

    One int64 array, filled by a Gray-code walk on one gain cache with O(n)
    incremental evaluation per step. It comes as a list of one, which the
    benchmark's trace hook iterates (`bench/tracing.py`).
    """
    n = objective.n
    _check_guard(n)
    if isinstance(objective, SmoothedObjective):
        a, b = objective.integer_weights(n ** 2)
        objective = UbqpInstance.from_matrix(a * objective.instance.q
                                             + b * objective.toy.materialize())
    flips = gray_flip_sequence(n)
    cache = GainCache.build(objective, np.zeros(n, dtype=np.int8))
    values = np.zeros(1 << n, dtype=np.int64)
    value = index = 0
    for step in range(flips.size):
        k = int(flips[step])
        index ^= 1 << k
        value += int(cache.gains[k])
        cache.apply_flip(k)
        values[index] = value
    return [values]


def _local_optima_mask(values: np.ndarray, n: int) -> np.ndarray:
    """Boolean mask over solution indices: no strictly improving one-bit flip."""
    cube = values.reshape((2,) * n)
    mask = np.ones_like(cube, dtype=bool)
    for axis in range(n):
        # Flipping one axis of the value hypercube toggles one solution bit.
        mask &= np.flip(cube, axis=axis) <= cube
    return mask.reshape(values.size)


def enumerate_local_optima(objective, cap: int = 1000):
    """(count, solutions) of all one-bit-flip local optima of the objective.

    The solution list is retained only when count <= cap. Works for plain
    instances, toys, and smoothed objectives (n <= ENUMERATION_GUARD).
    """
    n = objective.n
    _check_guard(n)
    values = enumerate_values(objective)[0]
    mask = _local_optima_mask(values, n)
    count = int(mask.sum())
    if count > cap:
        return count, []
    indices = np.flatnonzero(mask)
    return count, [solution_from_index(int(s), n) for s in indices]


def _bit_table(bits: int) -> np.ndarray:
    """All binary vectors of the given length, row r = little-endian bits of r."""
    rows = np.arange(1 << bits, dtype=np.int64)
    return ((rows[:, None] >> np.arange(bits)) & 1).astype(np.int64)


def _value_blocks(dense: np.ndarray):
    """Exact values of x^T Q x for all 2^n solutions, in index order, block by block.

    With x = (u, w) split at h = n // 2, f(x) = fa(u) + fb(w) + 2 u^T C w.
    A table holds fa plus the cross term for the lowest bits of w (up to
    2^_BLOCK_BITS rows of 2^h values), built by doubling; each block then
    adds the cross term of its fixed high bits and fb, two int64 passes
    over a cache-sized buffer. Yields one (rows, 2^h) array per block, row r
    of block b holding indices (b * rows + r) * 2^h + u. The buffer is
    reused for the next block, and the caller may overwrite it.
    """
    n = dense.shape[0]
    _check_guard(n)
    h = n // 2
    lows = _bit_table(h)
    highs = _bit_table(n - h)
    a, b, c = dense[:h, :h], dense[h:, h:], dense[:h, h:]
    fa = ((lows @ a) * lows).sum(axis=1)
    fb = ((highs @ b) * highs).sum(axis=1)
    cross = 2 * (c.T @ lows.T)  # row j: the cross term of bit j of w, over u
    table_bits = min(_BLOCK_BITS, n - h)
    rows = 1 << table_bits
    table = np.empty((rows, 1 << h), dtype=np.int64)
    table[0] = fa
    for j in range(table_bits):
        np.add(table[:1 << j], cross[j], out=table[1 << j:2 << j])
    block = np.empty_like(table)
    for hb, bits in enumerate(_bit_table(n - h - table_bits)):
        np.add(table, bits @ cross[table_bits:], out=block)
        block += fb[hb * rows:(hb + 1) * rows, None]
        yield block


def all_values_blocked(dense: np.ndarray) -> np.ndarray:
    """Exact values of x^T Q x for all solutions, from `_value_blocks`.

    Output index s has low bits u, high bits w (same order as enumerate_values).
    """
    _check_guard(dense.shape[0])
    out = np.empty(1 << dense.shape[0], dtype=np.int64)
    start = 0
    for block in _value_blocks(dense):
        out[start:start + block.size] = block.ravel()
        start += block.size
    return out


def _run_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values and their counts; sorts `values` in place."""
    values.sort()
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.diff(starts, append=values.size)


def _merge_counts(keys, counts, new_keys, new_counts):
    """Add sorted distinct (new_keys, new_counts) into sorted distinct (keys, counts)."""
    if keys is None:
        return new_keys, new_counts
    pos = np.searchsorted(keys, new_keys)
    found = pos < keys.size
    found[found] = keys[pos[found]] == new_keys[found]
    counts[pos[found]] += new_counts[found]
    fresh = ~found
    if fresh.any():
        keys = np.insert(keys, pos[fresh], new_keys[fresh])
        counts = np.insert(counts, pos[fresh], new_counts[fresh])
    return keys, counts


def _tally(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values and their counts over all blocks.

    Blocks are copied into a batch of about _COUNT_SLOTS values, which is
    sorted in place and counted run by run; each batch's counts are merged
    into the running ones by binary search.
    """
    keys = counts = batch = None
    filled = 0
    for block in blocks:
        if batch is None:
            batch = np.empty((max(1, _COUNT_SLOTS // block.size), *block.shape), block.dtype)
        batch[filled] = block
        filled += 1
        if filled == len(batch):
            keys, counts = _merge_counts(keys, counts, *_run_counts(batch.ravel()))
            filled = 0
    if filled:
        keys, counts = _merge_counts(keys, counts, *_run_counts(batch[:filled].ravel()))
    return keys, counts


def _tally_integers(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct values and counts of x^T Q x over all solutions.

    Every value lies between the sums of Q's negative and positive entries.
    When that span is no wider than 2^n and _COUNT_SLOTS, the blocks are
    counted by bincount into one array over the span; otherwise by `_tally`.
    """
    n = dense.shape[0]
    lo, hi = int(dense[dense < 0].sum()), int(dense[dense > 0].sum())
    span = hi - lo + 1
    if span > min(1 << n, _COUNT_SLOTS):
        return _tally(_value_blocks(dense))
    counts = np.zeros(span, dtype=np.int64)
    for block in _value_blocks(dense):
        block -= lo
        binned = np.bincount(block.ravel())
        counts[:binned.size] += binned
    keys = np.flatnonzero(counts)
    return keys + lo, counts[keys]


def _smoothed_blocks(objective: SmoothedObjective):
    """Blended values (1 - lam) f + lam alpha t, block by block, quantized for counting.

    The same float64 products, sum and rounding as on whole arrays, so the
    values are bit-identical to theirs.
    """
    wo, wt = 1.0 - objective.lam, objective.lam * objective.alpha
    pairs = zip(_value_blocks(objective.instance.q), _value_blocks(objective.toy.materialize()))
    blend = scratch = None
    for f, t in pairs:
        if blend is None:
            blend, scratch = np.empty(f.shape), np.empty(f.shape)
        np.multiply(f, wo, out=blend)
        np.multiply(t, wt, out=scratch)
        blend += scratch
        np.round(blend, HISTOGRAM_QUANTUM_DECIMALS, out=blend)
        yield blend


def value_histogram(objective) -> dict:
    """Exact count of every objective value over all 2^n solutions, keys ascending.

    Integer keys for plain objectives; smoothed values are quantized to
    1e-9 absolute before counting. Values are counted block by block, so
    memory does not grow with 2^n.
    """
    _check_guard(objective.n)
    if isinstance(objective, SmoothedObjective):
        keys, counts = _tally(_smoothed_blocks(objective))
        # -0.0 and 0.0 count as one value; the key is 0.0 whichever the sort met first.
        keys = keys + 0.0
    else:
        keys, counts = _tally_integers(objective.materialize())
    return dict(zip(keys.tolist(), counts.tolist()))


def collision_probability(histogram: dict) -> float:
    """Probability two independent uniform solutions share an objective value.

    Sum over values of (count / 2^n)^2; larger means a flatter landscape.
    The squares are summed as exact integers and divided by (2^n)^2 once,
    so the result is their ratio correctly rounded: by one int64 dot while
    the counts total below 2^31 (so sum c^2 <= (sum c)^2 < 2^62), else as
    Python ints.
    """
    if not histogram:
        raise ValueError("empty histogram")
    try:
        counts = np.fromiter(histogram.values(), dtype=np.int64, count=len(histogram))
    except OverflowError:  # a count past int64
        counts = None
    # Counts in [0, 2^31) sum exactly in int64.
    if counts is not None and counts.min() >= 0 and counts.max() < _EXACT_DOT_TOTAL:
        total = int(counts.sum())
        if total < _EXACT_DOT_TOTAL:
            return int(counts @ counts) / (total * total)
    counts = list(map(int, histogram.values()))
    total = sum(counts)
    return sum(map(operator.mul, counts, counts)) / (total * total)


@dataclass
class LandscapeReport:
    """Exhaustive census of one objective's landscape."""

    n: int
    objective: str
    local_optima_count: int
    local_optima: list
    histogram: dict
    collision_probability: float


def describe_objective(objective) -> str:
    if isinstance(objective, SmoothedObjective):
        return (f"smoothed(toy={objective.toy.kind.value}, "
                f"lam={objective.lam:g}, alpha={objective.alpha:g})")
    if isinstance(objective, ToyMatrix):
        return f"toy({objective.kind.value})"
    return "original"


def analyze(objective, cap: int = 1000) -> LandscapeReport:
    """Full landscape report: optima census, histogram, collision probability."""
    count, optima = enumerate_local_optima(objective, cap=cap)
    histogram = value_histogram(objective)
    n = objective.n
    return LandscapeReport(
        n=n,
        objective=describe_objective(objective),
        local_optima_count=count,
        local_optima=optima,
        histogram=histogram,
        collision_probability=collision_probability(histogram),
    )


def lambda_sweep(inst: UbqpInstance, toy_kind: ToyKind, anchor, alpha: float,
                 lambda_grid, toy_seed: int = 0) -> list[tuple[float, int]]:
    """Local-optima count of the smoothed objective for each grid value."""
    grid = [float(lam) for lam in lambda_grid]
    outside = [lam for lam in grid if not 0.0 <= lam <= 1.0]
    if outside:  # checked before the first census
        raise ValueError(f"lam must lie in [0, 1], got {outside[0]:g}")
    toy = construct_toy(toy_kind, anchor, seed=toy_seed)
    curve = []
    for lam in grid:
        g = SmoothedObjective(instance=inst, toy=toy, lam=lam, alpha=alpha)
        count, _ = enumerate_local_optima(g)
        curve.append((lam, count))
    return curve


def report_text(report: LandscapeReport) -> str:
    """Line-oriented rendering of a report."""
    lines = [
        f"n {report.n}",
        f"objective {report.objective}",
        f"local_optima_count {report.local_optima_count}",
        f"distinct_values {len(report.histogram)}",
        f"collision_probability {report.collision_probability:.9f}",
    ]
    lo, hi = min(report.histogram), max(report.histogram)
    lines.append(f"value_range {_key_text(lo)} {_key_text(hi)}")
    for x in report.local_optima:
        lines.append("local_optimum " + "".join(str(int(b)) for b in x))
    return "\n".join(lines) + "\n"


def _key_text(v) -> str:
    """A histogram key as printed: an integer exactly, a float by `:g`."""
    return f"{v:g}" if isinstance(v, float) else str(v)


def histogram_csv(histogram: dict) -> str:
    """`value,count` rows sorted by value."""
    lines = ["value,count"]
    for v in sorted(histogram):
        lines.append(f"{_key_text(v)},{histogram[v]}")
    return "\n".join(lines) + "\n"


def sweep_csv(curve) -> str:
    """`lambda,count` rows in grid order."""
    lines = ["lambda,count"]
    for lam, count in curve:
        lines.append(f"{lam:g},{count}")
    return "\n".join(lines) + "\n"
