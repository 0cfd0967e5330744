"""Acceptance gate: seven binding end-to-end checks at stated tolerances.

Each test registers a one-line PASS/FAIL summary that conftest prints in the
terminal summary, then asserts. Criteria 6 and 7 share one scaled comparison
batch (run twice through the command line for the determinism check).
"""

import time
from pathlib import Path

import numpy as np
import pytest

import conftest
import oracles
from lsils import (
    GainCache,
    SmoothedObjective,
    ToyKind,
    UbqpInstance,
    auto_alpha,
    collision_probability,
    construct_toy,
    enumerate_local_optima,
    evaluate,
    gen_random_instance,
    lambda_sweep,
    mean_abs,
    random_solution,
    seeded_rng,
    value_histogram,
)
from lsils.cli import main

FLATNESS_ANCHOR = (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0)


def record(num: int, ok: bool, detail: str) -> None:
    conftest.ACCEPTANCE_RESULTS[num] = (ok, detail)


@pytest.mark.slow
def test_criterion_1_toy_unimodality_is_exact():
    started = time.monotonic()
    checked = 0
    failures = []
    for i in range(30):
        n = 8 + (i % 11)
        anchor = random_solution(n, seeded_rng(1000 + i))
        for kind in list(ToyKind):
            toy = construct_toy(kind, anchor, seed=i)
            count, solutions = enumerate_local_optima(toy)
            checked += 1
            if count != 1 or not np.array_equal(solutions[0], anchor):
                failures.append((kind.value, n, i, count))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120
    detail = (f"{checked} exhaustive censuses, all count=1 at the anchor, "
              f"{elapsed:.1f}s" if not failures
              else f"non-unimodal cases: {failures[:3]}")
    record(1, ok, detail)
    assert ok, detail


def triangular_form(toy) -> UbqpInstance:
    """Instance whose x^T Q x is twice the toy's sum over i <= j.

    Doubling the diagonal of the full symmetric matrix gives exactly
    2 * sum_{i<=j} Qhat_ij x_i x_j; collision probability is unchanged by
    that positive scaling.
    """
    q = toy.materialize()
    return UbqpInstance.from_matrix(q + np.diag(np.diag(q)))


def test_criterion_2_flatness_values_and_ordering():
    # The two external constants are collision probabilities of the
    # triangular sum over i <= j; the package's toys evaluate the full form
    # x^T Qhat x, which is checked against an independent oracle instead.
    started = time.monotonic()
    anchor = np.array(FLATNESS_ANCHOR, dtype=np.int8)
    expected = {ToyKind.PLUS_MINUS_ONE: 0.054152, ToyKind.PLUS_MINUS_I: 0.001924}
    parts = []
    all_ok = True
    for kind, constant in expected.items():
        toy = construct_toy(kind, anchor)
        tri = collision_probability(value_histogram(triangular_form(toy)))
        full = collision_probability(value_histogram(toy))
        oracle_full, oracle_tri = oracles.oracle_toy_flatness(kind.value, anchor)
        tri_ok = (abs(tri - constant) <= 1e-6
                  and abs(tri - oracle_tri) <= 1e-12)
        full_ok = abs(full - oracle_full) <= 1e-12
        all_ok = all_ok and tri_ok and full_ok
        name = "unit" if kind is ToyKind.PLUS_MINUS_ONE else "index"
        parts.append(
            f"{name} tri {tri:.6f} vs {constant:.6f}, oracle {oracle_tri:.6f} "
            f"({'ok' if tri_ok else 'MISMATCH'}) / full {full:.6f} vs oracle "
            f"{oracle_full:.6f} ({'ok' if full_ok else 'MISMATCH'})")

    ordered = 0
    for seed in range(20):
        rand_anchor = random_solution(18, seeded_rng(100 + seed))
        cols = {}
        for kind in list(ToyKind):
            toy = construct_toy(kind, rand_anchor, seed=seed)
            cols[kind] = collision_probability(value_histogram(toy))
        if (cols[ToyKind.RANDOM] < cols[ToyKind.PLUS_MINUS_I]
                < cols[ToyKind.PLUS_MINUS_ONE]):
            ordered += 1
    elapsed = time.monotonic() - started
    ok = all_ok and ordered >= 18 and elapsed < 30
    detail = f"{', '.join(parts)}, ordering {ordered}/20, {elapsed:.1f}s"
    record(2, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_3_sweep_endpoints():
    started = time.monotonic()
    zero_ok = one_ok = 0
    near_one = {kind: 0 for kind in ToyKind}
    total = 0
    for i in range(10):
        inst = gen_random_instance(14, 1.0, (-100, 100), seed=200 + i)
        anchor = random_solution(14, seeded_rng(300 + i))
        bound = float(mean_abs(inst))
        original_count, _ = enumerate_local_optima(inst, cap=0)
        for kind in list(ToyKind):
            toy = construct_toy(kind, anchor, seed=400 + i)
            alpha = auto_alpha(inst, toy, target_bound=bound)
            curve = dict(lambda_sweep(inst, kind, anchor, alpha,
                                      (0.0, 0.9, 1.0), toy_seed=400 + i))
            total += 1
            zero_ok += curve[0.0] == original_count
            one_ok += curve[1.0] == 1
            near_one[kind] += curve[0.9] == 1
    elapsed = time.monotonic() - started
    near_ok = all(v >= 8 for v in near_one.values())
    ok = zero_ok == total and one_ok == total and near_ok and elapsed < 300
    near_text = ", ".join(f"{k.value} {v}/10" for k, v in near_one.items())
    detail = (f"count(0)=original {zero_ok}/{total}, count(1)=1 {one_ok}/{total}, "
              f"count(0.9)=1: {near_text}, {elapsed:.1f}s")
    record(3, ok, detail)
    assert ok, detail


def test_criterion_4_incremental_deltas_match_full_recomputation():
    flips = 10**5
    worst_rel = 0.0
    for n in (30, 300):
        inst = gen_random_instance(n, 1.0, (-100, 100), seed=40 + n)
        rng = seeded_rng(4, n)
        x = random_solution(n, rng)

        cache = GainCache.build(inst, x)
        value = evaluate(inst, x)
        for k in rng.integers(0, n, size=flips):
            value += int(cache.gains[int(k)])
            cache.apply_flip(int(k))
        assert value == evaluate(inst, cache.solution)

        anchor = random_solution(n, rng)
        toy = construct_toy(ToyKind.PLUS_MINUS_I, anchor)
        obj = SmoothedObjective(instance=inst, toy=toy, lam=0.3,
                                alpha=auto_alpha(inst, toy))
        co = GainCache.build(inst, x.copy())
        ct = GainCache.build(toy, x.copy())
        smoothed = oracles.smoothed_evaluate(obj, x)
        scale = max(1.0, abs(smoothed))
        for j, k in enumerate(rng.integers(0, n, size=flips)):
            k = int(k)
            smoothed += 0.7 * co.gains[k] + 0.3 * obj.alpha * ct.gains[k]
            co.apply_flip(k)
            ct.apply_flip(k)
            if j % 5000 == 0 or j == flips - 1:
                full = oracles.smoothed_evaluate(obj, co.solution)
                scale = max(1.0, abs(full))
                worst_rel = max(worst_rel, abs(smoothed - full) / scale)
        assert worst_rel <= 1e-9
    detail = (f"{flips} flips at n=30 and n=300: integer deltas exact, "
              f"smoothed drift {worst_rel:.2e} <= 1e-9 rel")
    record(4, True, detail)


def test_criterion_5_worked_example_matrices():
    anchor = np.array(oracles.EXAMPLE_ANCHOR, dtype=np.int8)
    unit = construct_toy(ToyKind.PLUS_MINUS_ONE, anchor).materialize()
    index = construct_toy(ToyKind.PLUS_MINUS_I, anchor).materialize()
    rand = construct_toy(ToyKind.RANDOM, anchor, seed=11).materialize()
    unit_ok = np.array_equal(unit, oracles.EXAMPLE_TOY_UNIT)
    index_ok = np.array_equal(index, oracles.EXAMPLE_TOY_INDEX)
    signs_ok = np.array_equal(np.sign(rand), oracles.EXAMPLE_TOY_RANDOM_SIGNS)
    ok = unit_ok and index_ok and signs_ok
    detail = (f"5x5 unit matrix {'bit-exact' if unit_ok else 'MISMATCH'}, "
              f"index matrix {'bit-exact' if index_ok else 'MISMATCH'}, "
              f"random sign pattern {'matches' if signs_ok else 'MISMATCH'}")
    record(5, ok, detail)
    assert ok, detail


COMPARISON_ARGS = [
    "batch",
    "--gen", "n=500,density=0.1,range=-100:100,seed=7",
    "--algos", "ils,lsils:plusminusi,lsils:random",
    "--seeds", "20",
    "--budget", "evals:2e8",
    "--log-interval", "evals:2e6",
    "--lambda", "paper",
    "--alpha", "auto",
]


@pytest.fixture(scope="module")
def comparison_batch(tmp_path_factory):
    """Run the scaled comparison batch twice with the default master seed."""
    dirs = []
    elapsed = []
    for tag in ("first", "second"):
        out_dir = tmp_path_factory.mktemp(f"comparison-{tag}")
        started = time.monotonic()
        rc = main([*COMPARISON_ARGS, "--out-dir", str(out_dir)])
        elapsed.append(time.monotonic() - started)
        assert rc == 0
        dirs.append(out_dir)
    return dirs, elapsed


def read_summary_means(out_dir: Path) -> dict[str, float]:
    means = {}
    for line in (out_dir / "summary.csv").read_text().splitlines()[1:]:
        _, algo, _, mean, *_ = line.split(",")
        means[algo] = float(mean)
    return means


@pytest.mark.slow
def test_criterion_6_comparison_ordering(comparison_batch):
    (first, _), elapsed = comparison_batch
    means = read_summary_means(first)
    smoothed = means["lsils-plusminusi"]
    plain = means["ils"]
    rand = means["lsils-random"]
    ok = smoothed >= plain and smoothed >= rand and sum(elapsed) < 1800
    detail = (f"means: lsils-plusminusi {smoothed:.2f}, ils {plain:.2f}, "
              f"lsils-random {rand:.2f}; 20 seeds from default master seed; "
              f"batches took {elapsed[0]:.0f}s + {elapsed[1]:.0f}s")
    record(6, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_criterion_7_batch_rerun_is_byte_identical(comparison_batch):
    (first, second), _ = comparison_batch
    names_first = sorted(p.name for p in first.iterdir())
    names_second = sorted(p.name for p in second.iterdir())
    assert names_first == names_second
    differing = [name for name in names_first
                 if (first / name).read_bytes() != (second / name).read_bytes()]
    ok = not differing
    detail = (f"{len(names_first)} files byte-identical across reruns"
              if ok else f"files differ: {differing[:5]}")
    record(7, ok, detail)
    assert ok, detail
