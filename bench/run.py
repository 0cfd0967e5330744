"""lsils benchmark: fixed-budget solver throughput and exhaustive-landscape cost.

    python3 bench/run.py --workload search-ils --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

One process runs one workload (`all` runs each in its own process, one
after another). It is a single-threaded closed loop: the next unit of work
starts when the previous one returns, BLAS and OpenMP pools are capped at
one thread, and whole units run until `--seconds` of work are measured.
The workloads and their checks are in workloads.py.

End-to-end metrics, for every workload:
  setup_s       median over fresh processes of the time from process start
                to ready inputs (imports, instance generation, anchor)
  wall_s        median time of one unit of the workload's fixed work: the
                40-run block, one census, or one set of four histograms
  evals_per_s   evaluations per second over all units: the charged
                flip-delta evaluations of the search, or the objective
                values a census or histogram covers (2^n per form)
  run_s.p50/p75 percentiles of per-run time: one solver run, or one unit
  best_f.mean   mean best original objective over the first unit's results
                (for the landscape, the global maximum)
  peak_rss_mb   peak resident memory of the workload process
All times are reference-speed seconds: measured seconds corrected for the
host's drifting speed by a calibration kernel (speed.py).

With `--trace 0` nothing is patched and the end-to-end metrics named in
BENCHMARK.json are printed. With `--trace 1` one unit runs untraced and then
once more under spans wrapped around the package's public entry points
(tracing.py), and the per-layer metrics are printed; `trace.overhead_s` is
the difference between the two walls. In both modes the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. `correct` is false when an exact output is wrong or does not
repeat; a best solution that is not a local optimum counts as a failed
operation.

bench/layer_map.json says which end-to-end metric each per-layer metric
should move, on which workload, and which workload is its control.
bench/fingerprints.json holds the output fingerprints of the code the
benchmark was defined on; a different fingerprint is reported as drift,
not as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("search-ils", "search-lsils", "landscape-census", "landscape-histogram")


def bootstrap() -> None:
    """Cap thread pools and put the checkout's own package first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lsils" / "__init__.py").is_file():
        raise SystemExit(f"error: no lsils package to benchmark under {SRC}")
    sys.path.insert(0, str(SRC))
    import lsils
    if not Path(lsils.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported lsils from {lsils.__file__}, not from {SRC}")


# -- machine record --------------------------------------------------------------

def l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) if out else None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def git_revision() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return f"unknown ({ref})"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def print_preflight(wl, machine: dict) -> None:
    n, what, nbytes = wl.preflight()
    l3 = machine["l3_bytes"]
    if l3 is None:
        fits = "L3 size unknown"
    else:
        fits = f"{'fits in' if nbytes <= l3 else 'exceeds'} L3 of {l3:,} B"
    print(f"preflight {wl.name}: n={n} states=2^{n}"
          + (f"={1 << n:,}" if n <= 32 else "")
          + f" largest {what} {nbytes:,} B (computed), {fits}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))


# -- statistics ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q) - 1])


def end_to_end_metrics(units, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    run_s = [t for u in units for t in u.run_s]
    p75 = percentile(run_s, 75)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(u.wall_s for u in units),
        "evals_per_s": sum(u.evals for u in units) / sum(u.wall_s for u in units),
        "run_s.p50": percentile(run_s, 50),
        "run_s.p75": p75,
        "best_f.mean": statistics.fmean(units[0].best_values),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(units)} units",
        "evals_per_s": f"{sum(u.evals for u in units):,} over "
                       f"{sum(u.wall_s for u in units):.3f} s",
        "run_s.p50": f"{len(run_s)} runs",
        "run_s.p75": f"{len(run_s)} runs, {sum(t > p75 for t in run_s)} above",
        "best_f.mean": f"{len(units[0].best_values)} results",
        "peak_rss_mb": "this process",
    }
    return values, notes


def layer_metrics(tracer, overhead_s: float, names) -> tuple[dict, dict]:
    values, notes = {}, {}
    evals = tracer.counters["search.evals"]
    perturb = tracer.counters["search.perturb_evals"]
    special = {
        "search.evals": evals,
        "search.perturb_evals_share": perturb / evals if evals else 0.0,
        "landscape.states.walk": tracer.counters["landscape.states.walk"],
        "landscape.states.blocked": tracer.counters["landscape.states.blocked"],
        "landscape.array_bytes": tracer.counters["landscape.array_bytes"],
        "trace.overhead_s": overhead_s,
        "trace.absent_hooks": len(tracer.absent),
    }
    notes["search.perturb_evals_share"] = f"{perturb:,} of {evals:,} evals"
    notes["landscape.array_bytes"] = "computed from array sizes"
    absent = {span for span, _ in tracer.absent}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat == "calls":
            values[name] = tracer.calls(span)
        elif stat == "self_s":
            values[name] = tracer.self_s(span)
        elif stat == "us_per_call":
            calls = tracer.calls(span)
            values[name] = tracer.self_s(span) / calls * 1e6 if calls else 0.0
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
        if any(span == a or span.startswith(a + ".") for a in absent):
            notes[name] = "absent: hook not found"
    return values, notes


# -- modes ------------------------------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Reference-speed seconds from process start to ready inputs, in fresh processes.

    Each child samples the interpreter kernel once its inputs are ready, on
    the core it ran on, and reports the sample on a second line.
    """
    from speed import REFERENCE_KERNEL_S
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            raw = time.perf_counter() - start
            kernel = child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up process failed ({child.returncode})")
        times.append(raw * REFERENCE_KERNEL_S / float(kernel))
    return times


def run_untraced(args, workloads, out_dir, checks, machine):
    setup_times = measure_setup(args)
    wl = workloads.make(args.workload, args.seed, out_dir)
    print_preflight(wl, machine)
    clock = wl.new_clock()
    units = []
    while not units or clock.raw_s < args.seconds:
        unit = wl.run_unit(clock)
        wl.verify(unit, checks)
        units.append(unit)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for unit in units:
        unit.rescale(clock.run_scale())
    print(f"host speed: {clock.raw_s:.3f} s measured = {clock.reference_s:.3f} s "
          f"reported (factor {clock.reference_s / clock.raw_s:.3f})")
    wl.final_check(checks)
    values, notes = end_to_end_metrics(units, setup_times, peak_rss_mb)
    return values, notes, units[0].fingerprint


def run_traced(args, workloads, out_dir, checks, machine, names):
    import tracing
    probe = workloads.make(args.workload, args.seed, out_dir)
    print_preflight(probe, machine)
    # Both passes time set-up and one unit; the clocks only sample between
    # operations, so no span contains calibration work of an operation.
    outer = probe.new_clock(sampled=False)
    inner = probe.new_clock(sampled=False)

    def one_pass():
        wl = workloads.make(args.workload, args.seed, out_dir)
        return wl, wl.run_unit(inner)

    (wl, plain), untraced_s = outer.measure(one_pass)
    wl.verify(plain, checks)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.unit"):
            (traced_wl, traced), traced_s = outer.measure(one_pass)
    finally:
        tracer.uninstall()
    traced_wl.verify(traced, checks)
    checks.attempt("trace")
    if traced.fingerprint != plain.fingerprint:
        checks.fail("traced outputs differ from untraced outputs")
    wl.final_check(checks)
    for span, entry_point in tracer.absent:
        print(f"absent span {span} ({entry_point})")
    spans_path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    stats = {label: {"calls": calls, "total_s": total, "self_s": own}
             for label, (calls, total, own) in sorted(tracer.stats.items())}
    spans_path.write_text(json.dumps({"stats": stats, "spans": tracer.spans}) + "\n")
    print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} kept)")
    scale = outer.run_scale()
    traced_s, untraced_s = traced_s * scale, untraced_s * scale
    values, notes = layer_metrics(tracer, traced_s - untraced_s, names)
    notes["trace.overhead_s"] = f"traced {traced_s:.3f} s - untraced {untraced_s:.3f} s"
    return values, notes, plain.fingerprint


def report_drift(workload: str, seed: int, fingerprint: str) -> None:
    table = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    entry = table.get(workload, {})
    baseline = entry.get(str(seed), entry.get("all_seeds"))
    if baseline is None:
        verdict = "no baseline for this seed"
    else:
        verdict = "none" if baseline == fingerprint else f"DRIFT from baseline {baseline}"
    print(f"fingerprint {workload} seed={seed} {fingerprint} drift: {verdict}")


def run_one(args) -> int:
    bootstrap()
    import workloads
    if args.setup_only:
        workloads.make(args.workload, args.seed, OUT_ROOT)
        print("ready", flush=True)
        import speed
        print(speed.boundary_sample(speed.interpreter_kernel_seconds))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units_of = {m["name"]: m["unit"] for m in spec[section]}
    machine = machine_record()
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True)
    checks = workloads.Checks()
    try:
        if args.trace:
            values, notes, fingerprint = run_traced(args, workloads, out_dir, checks,
                                                    machine, list(units_of))
        else:
            values, notes, fingerprint = run_untraced(args, workloads, out_dir, checks,
                                                      machine)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report_drift(args.workload, args.seed, fingerprint)
    for message, times in checks.messages.items():
        print(f"FAILED {message}" + (f" (x{times})" if times > 1 else ""))
    print(f"checks {args.workload}: {checks.failed} failed of "
          f"{checks.attempted} operations attempted, exact outputs "
          f"{'correct' if checks.exact_ok else 'WRONG'}")
    for name, unit in units_of.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {args.workload} {name} = {values[name]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": checks.exact_ok,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units_of.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, then a summary."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
