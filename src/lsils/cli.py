"""Command-line surface: solve, batch, landscape, sweep, gen, excess.

Every subcommand prints its fully resolved configuration before doing any
work, sends all file outputs under --out-dir, and exits 0 on success, 1 on
runtime errors (missing files, guard violations), 2 on flag errors. With
evaluation-count budgets, identical argv produces byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .bench_io import (
    ParseError,
    attach_excess,
    excess,
    gen_random_instance,
    load_optima,
    parse_orlib,
    read_runlog_csv,
    runlog_filename,
    serialize_orlib,
    split_runlog_filename,
    summarize,
    write_runlog_csv,
)
from .landscape import analyze, describe_objective, histogram_csv, lambda_sweep, report_text, sweep_csv
from .qubo import UbqpInstance, as_solution, mean_abs, random_solution, seeded_rng
from .search import Budget, SearchConfig, algo_label, ils, lsils
from .smoothing import (LambdaSchedule, SmoothedObjective, ToyKind, auto_alpha, construct_toy,
                        peak_alpha, toy_peaks)

# Stream label for anchors drawn by the landscape/sweep subcommands.
ANCHOR_STREAM = 5
TOY_CHOICES = tuple(kind.value for kind in ToyKind)


def parse_range(text: str) -> tuple[int, int]:
    """'lo:hi' with integer bounds, e.g. '-100:100'."""
    lo, sep, hi = text.rpartition(":")
    if not sep:
        raise ValueError(f"range must look like lo:hi, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"range bounds must be integers, got {text!r}") from None


def parse_gen_spec(text: str) -> dict:
    """'n=18,density=1,range=-100:100,seed=7' -> gen_random_instance kwargs."""
    fields = {}
    for part in text.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"generator spec field {part!r} is not key=value")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"n", "density", "range", "seed"}
    if unknown:
        raise ValueError(f"unknown generator spec keys: {sorted(unknown)}")
    if "n" not in fields:
        raise ValueError("generator spec needs n=<size>")
    return dict(
        n=int(fields["n"]),
        density=float(fields.get("density", "1")),
        value_range=parse_range(fields.get("range", "-100:100")),
        seed=int(fields.get("seed", "0")),
    )


def gen_spec_name(spec: dict) -> str:
    lo, hi = spec["value_range"]
    return f"gen-n{spec['n']}-d{spec['density']:g}-r{lo}.{hi}-s{spec['seed']}"


def parse_budget(text: str) -> Budget:
    kind, sep, amount = text.partition(":")
    if not sep:
        raise ValueError(f"budget must look like evals:2e8 or seconds:600, got {text!r}")
    try:
        value = float(amount)
    except ValueError:
        raise ValueError(f"budget amount {amount!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"budget amount {amount!r} must be finite")
    if kind == "evals":
        value = int(round(value))
    return Budget(kind, value)


def parse_log_interval(text: str, budget: Budget):
    if ":" in text:
        kind, _, amount = text.partition(":")
        if kind != budget.kind:
            raise ValueError(
                f"log interval unit {kind!r} does not match budget kind {budget.kind!r}")
        text = amount
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"log interval {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"log interval {text!r} must be finite")
    if budget.kind == "evals":
        value = int(round(value))
    if not value > 0:
        raise ValueError(f"log interval {text!r} must be positive in {budget.kind}")
    return value


def parse_lambda_spec(text: str, budget: Budget) -> LambdaSchedule:
    """Schedule grammar: off | paper | const:<v> | steps:<t=v,...>.

    Thresholds are in the budget's unit; `paper` steps to
    0.001/0.002/0.003/0.004 at 20/40/60/80% of the budget amount.
    """
    if text == "off":
        return LambdaSchedule.zero(budget.kind)
    if text == "paper":
        return LambdaSchedule.staged_ramp(budget.amount, unit=budget.kind)
    if text.startswith("const:"):
        return LambdaSchedule.constant(float(text[len("const:"):]), unit=budget.kind)
    if text.startswith("steps:"):
        steps = []
        for item in text[len("steps:"):].split(","):
            threshold, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"schedule step {item!r} is not threshold=value")
            steps.append((float(threshold), float(value)))
        return LambdaSchedule(steps=tuple(steps), unit=budget.kind)
    raise ValueError(
        f"lambda spec {text!r} must be off, paper, const:<v>, or steps:<t=v,...>")


def parse_algos(text: str) -> list[ToyKind | None]:
    """Toy kind per algorithm, None for ILS: 'ils,lsils:plusminusi' -> [None, PLUS_MINUS_I]."""
    out = []
    for item in text.split(","):
        name, sep, kind = item.partition(":")
        if name == "ils":
            if sep:
                raise ValueError("ils takes no toy kind")
            out.append(None)
        elif name == "lsils":
            if not sep:
                raise ValueError("lsils needs a toy kind, e.g. lsils:plusminusi")
            out.append(ToyKind(kind))
        else:
            raise ValueError(f"unknown algorithm {name!r}; use ils or lsils:<toy>")
    return out


def parse_alpha(text: str) -> float | str:
    """'auto' or a number; the objects it is passed to check its sign."""
    return text if text == "auto" else float(text)


def parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid start, stop and step must be finite, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError("grid needs step > 0 and stop >= start")
    values = []
    i = 0
    while True:
        v = round(start + i * step, 12)
        if v > stop + 1e-12:
            break
        values.append(min(v, stop))
        i += 1
    return tuple(values)


def resolve_anchor(text: str, n: int, seed: int):
    if text == "random":
        return random_solution(n, seeded_rng(seed, ANCHOR_STREAM))
    if len(text) != n or set(text) - {"0", "1"}:
        raise ValueError(f"anchor must be 'random' or {n} characters of 0/1")
    return as_solution([int(b) for b in text])


def resolve_toy(args, inst: UbqpInstance, kind: ToyKind, blend: bool = True):
    """(anchor, toy, alpha) from the toy flags; alpha is None unless `blend`."""
    anchor = resolve_anchor(args.anchor, inst.n, args.seed)
    toy = construct_toy(kind, anchor, seed=args.toy_seed)
    alpha = None
    if blend:
        alpha = (auto_alpha(inst, toy, target_bound=args.target_bound)
                 if args.alpha == "auto" else args.alpha)
    return anchor, toy, alpha


def load_instances(args) -> list[tuple[str, UbqpInstance]]:
    if args.gen and args.instance:
        raise ValueError("give either --instance or --gen, not both")
    if args.gen:
        spec = parse_gen_spec(args.gen)
        return [(gen_spec_name(spec), gen_random_instance(**spec))]
    if args.instance:
        path = Path(args.instance)
        if not path.exists():
            raise ValueError(f"instance file not found: {path}")
        instances = parse_orlib(path)
        if len(instances) == 1:
            return [(path.stem, instances[0])]
        return [(f"{path.stem}.{i + 1}", inst) for i, inst in enumerate(instances)]
    raise ValueError("an instance is required: --instance FILE or --gen SPEC")


def single_instance(args) -> tuple[str, UbqpInstance]:
    pairs = load_instances(args)
    index = getattr(args, "index", 1)
    if not 1 <= index <= len(pairs):
        raise ValueError(f"--index must lie in [1, {len(pairs)}], got {index}")
    return pairs[index - 1]


def print_config(pairs) -> None:
    print("resolved configuration:")
    for key, value in pairs:
        print(f"  {key} = {value}")


def describe_schedule(schedule: LambdaSchedule | None) -> str:
    if schedule is None:
        return "none"
    if not schedule.steps:
        return f"0 throughout ({schedule.unit})"
    steps = ",".join(f"{t:g}={v:g}" for t, v in schedule.steps)
    return f"{schedule.unit} steps {steps}"


def describe_alpha(alpha, target_bound, inst: UbqpInstance, kind: ToyKind | None) -> str:
    """Resolved blend scale; for auto, spell out target_bound / toy peak."""
    if alpha != "auto":
        return f"{alpha:g}"
    if kind is None:
        return "auto (no toy)"
    bound = peak_alpha(inst, 1, target_bound)  # the bound itself, rejected as the run would
    if kind is ToyKind.RANDOM:
        return f"auto ({bound:g} / max drawn magnitude, set per toy)"
    peak, = toy_peaks(kind, inst.n)
    return f"auto ({bound:g} / {peak} = {peak_alpha(inst, peak, target_bound):g})"


def make_config(args, budget: Budget, schedule: LambdaSchedule | None,
                kind: ToyKind | None, seed: int, log_interval) -> SearchConfig:
    return SearchConfig(
        budget=budget,
        pivot_rule=args.pivot,
        perturbation_bits=args.perturbation_bits,
        lambda_schedule=schedule if kind is not None else None,
        toy_kind=kind,
        alpha=args.alpha,
        target_bound=args.target_bound,
        seed=seed,
        log_interval=log_interval,
    )


def _run_task(payload):
    inst, config = payload
    return ils(inst, config) if config.toy_kind is None else lsils(inst, config)


def cmd_solve(args) -> int:
    name, inst = single_instance(args)
    algos = parse_algos(args.algo)
    if len(algos) != 1:
        raise ValueError("solve runs one algorithm; use batch for several")
    kind = algos[0]
    budget = parse_budget(args.budget)
    schedule = parse_lambda_spec(args.lam, budget) if kind is not None else None
    log_interval = parse_log_interval(args.log_interval, budget) if args.log_interval else None
    config = make_config(args, budget, schedule, kind, args.seed, log_interval)
    label = algo_label(kind)
    print_config([
        ("subcommand", "solve"),
        ("instance", f"{name} (n={inst.n}, density={inst.density:g})"),
        ("algorithm", label),
        ("budget", f"{budget.kind}:{budget.amount:g}"),
        ("pivot_rule", args.pivot),
        ("perturbation_bits", config.bits_for(inst.n)),
        ("lambda_schedule", describe_schedule(schedule)),
        ("alpha", describe_alpha(config.alpha, args.target_bound, inst, kind)),
        ("seed", args.seed),
        ("log_interval", args.log_interval or "none"),
        ("out_dir", args.out_dir),
    ])
    result = _run_task((inst, config))
    records = result.records
    reference = None
    if args.optima:
        table = load_optima(Path(args.optima))
        if name not in table:
            raise ValueError(f"no optimum for {name!r} in {args.optima}")
        records = attach_excess(records, table[name])
        reference = f"optimum {table[name]}"
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / runlog_filename(name, label, args.seed)
    write_runlog_csv(records, path, reference=reference)
    print(f"best {result.best_value} after {result.evaluations} evaluations -> {path}")
    return 0


def cmd_batch(args) -> int:
    instances = load_instances(args)
    algos = parse_algos(args.algos)
    budget = parse_budget(args.budget)
    schedule = parse_lambda_spec(args.lam, budget)
    log_interval = parse_log_interval(args.log_interval, budget) if args.log_interval else None
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    seeds = list(range(args.seed, args.seed + args.seeds))
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    optima = load_optima(Path(args.optima)) if args.optima else {}

    pairs = [
        ("subcommand", "batch"),
        ("instances", ", ".join(f"{n} (n={i.n})" for n, i in instances)),
        ("algorithms", ", ".join(algo_label(kind) for kind in algos)),
        ("seeds", f"{seeds[0]}..{seeds[-1]} ({len(seeds)} runs each)"),
        ("budget", f"{budget.kind}:{budget.amount:g}"),
        ("pivot_rule", args.pivot),
        ("lambda_schedule", describe_schedule(schedule)),
        ("log_interval", args.log_interval or "none"),
        ("jobs", args.jobs),
        ("out_dir", args.out_dir),
    ]
    for name, inst in instances:
        for kind in algos:
            if kind is not None:
                pairs.append((f"alpha[{name}, {algo_label(kind)}]",
                              describe_alpha(args.alpha, args.target_bound, inst, kind)))
    print_config(pairs)

    tasks = []
    for name, inst in instances:
        for kind in algos:
            for seed in seeds:
                config = make_config(args, budget, schedule, kind, seed, log_interval)
                tasks.append((name, algo_label(kind), seed, (inst, config)))
    if args.jobs == 1:
        outcomes = [_run_task(payload) for _, _, _, payload in tasks]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_run_task, [payload for _, _, _, payload in tasks]))
    results = {(name, label, seed): result
               for (name, label, seed, _), result in zip(tasks, outcomes)}

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reference_of = {}
    for name, _ in instances:
        if name in optima:
            reference_of[name] = (optima[name], f"optimum {optima[name]}")
        else:
            best_found = max(r.best_value for (inm, _, _), r in results.items()
                             if inm == name)
            if best_found != 0:
                reference_of[name] = (best_found, f"best-found {best_found}")
            else:
                reference_of[name] = (None, None)

    for (name, label, seed), result in results.items():
        ref_value, ref_text = reference_of[name]
        records = result.records
        if ref_value is not None:
            records = attach_excess(records, ref_value)
        write_runlog_csv(records, out_dir / runlog_filename(name, label, seed),
                         reference=ref_text)

    summary_lines = ["instance,algo,runs,mean,sd,min,max,mean_excess"]
    table = [f"{'instance':<24} {'algo':<18} {'runs':>4} {'mean':>14} "
             f"{'sd':>10} {'min':>12} {'max':>12} {'mean_excess':>12}"]
    for name, _ in instances:
        ref_value, _ = reference_of[name]
        for kind in algos:
            label = algo_label(kind)
            finals = [results[(name, label, seed)].best_value for seed in seeds]
            stats = summarize(finals)
            if ref_value is not None:
                mean_excess = sum(excess(f, ref_value) for f in finals) / len(finals)
                excess_csv, excess_txt = f"{mean_excess:.8f}", f"{mean_excess:12.6f}"
            else:
                excess_csv, excess_txt = "", " " * 12
            summary_lines.append(
                f"{name},{label},{len(finals)},{stats['mean']:.6f},"
                f"{stats['sd']:.6f},{stats['min']:g},{stats['max']:g},{excess_csv}")
            table.append(
                f"{name:<24} {label:<18} {len(finals):>4} {stats['mean']:>14.2f} "
                f"{stats['sd']:>10.2f} {stats['min']:>12g} {stats['max']:>12g} {excess_txt}")
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("\n".join(summary_lines) + "\n", newline="\n")
    print("\n".join(table))
    print(f"wrote {len(results)} run logs and {summary_path}")
    return 0


def cmd_landscape(args) -> int:
    if args.lam is not None and args.toy == "none":
        raise ValueError("--lam blends a toy into the objective; give --toy too")
    name, inst = single_instance(args)
    objective = inst
    if args.toy != "none":
        _, toy, alpha = resolve_toy(args, inst, ToyKind(args.toy), blend=args.lam is not None)
        objective = toy if args.lam is None else SmoothedObjective(
            instance=inst, toy=toy, lam=args.lam, alpha=alpha)
    print_config([
        ("subcommand", "landscape"),
        ("instance", f"{name} (n={inst.n}, density={inst.density:g})"),
        ("objective", describe_objective(objective)),
        ("cap", args.cap),
        ("out_dir", args.out_dir or "stdout only"),
    ])
    report = analyze(objective, cap=args.cap)
    text = report_text(report)
    print(text, end="")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text, newline="\n")
        (out_dir / "histogram.csv").write_text(histogram_csv(report.histogram),
                                               newline="\n")
        print(f"wrote {out_dir / 'report.txt'} and {out_dir / 'histogram.csv'}")
    return 0


def cmd_sweep(args) -> int:
    name, inst = single_instance(args)
    kind = ToyKind(args.toy)
    grid = parse_grid(args.grid)
    anchor, _, alpha = resolve_toy(args, inst, kind)
    print_config([
        ("subcommand", "sweep"),
        ("instance", f"{name} (n={inst.n}, density={inst.density:g})"),
        ("toy", kind.value),
        ("anchor", "".join(str(int(b)) for b in anchor)),
        ("alpha", f"{alpha:g}"),
        ("grid", ",".join(f"{v:g}" for v in grid)),
        ("out_dir", args.out_dir or "stdout only"),
    ])
    curve = lambda_sweep(inst, kind, anchor, alpha, grid, toy_seed=args.toy_seed)
    text = sweep_csv(curve)
    print(text, end="")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_text(text, newline="\n")
        print(f"wrote {out_dir / 'sweep.csv'}")
    return 0


def cmd_gen(args) -> int:
    spec = parse_gen_spec(args.gen)
    inst = gen_random_instance(**spec)
    name = gen_spec_name(spec)
    print_config([
        ("subcommand", "gen"),
        ("name", name),
        ("n", inst.n),
        ("density", f"{inst.density:g}"),
        ("mean_abs", f"{float(mean_abs(inst)):g}"),
        ("out_dir", args.out_dir),
    ])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.txt"
    path.write_text(serialize_orlib(inst), newline="\n")
    print(f"wrote {path}")
    return 0


def cmd_excess(args) -> int:
    table = load_optima(Path(args.optima))
    print_config([
        ("subcommand", "excess"),
        ("optima", args.optima),
        ("runlogs", len(args.runlogs)),
    ])
    for path_text in args.runlogs:
        path = Path(path_text)
        if not path.exists():
            raise ValueError(f"run log not found: {path}")
        instance, _, _ = split_runlog_filename(path.name)
        if instance not in table:
            raise ValueError(f"no optimum for {instance!r} in {args.optima}")
        records, _ = read_runlog_csv(path)
        write_runlog_csv(attach_excess(records, table[instance]), path,
                         reference=f"optimum {table[instance]}")
        print(f"updated {path} against optimum {table[instance]}")
    return 0


def _add_instance_flags(sub, with_index=True) -> None:
    sub.add_argument("--instance", help="benchmark instance file")
    sub.add_argument("--gen",
                     help="generator spec, e.g. n=18,density=1,range=-100:100,seed=7")
    if with_index:
        sub.add_argument("--index", type=int, default=1,
                         help="1-based instance index within a multi-instance file")


def _add_solver_flags(sub) -> None:
    sub.add_argument("--budget", required=True,
                     help="evals:<amount> or seconds:<amount>")
    sub.add_argument("--lambda", dest="lam", default="paper",
                     help="off | paper | const:<v> | steps:<t=v,...>")
    _add_alpha_flags(sub)
    sub.add_argument("--pivot", choices=("best", "first"), default="best")
    sub.add_argument("--perturbation-bits", type=int, default=None,
                     help="bits flipped per perturbation, default n/4")
    sub.add_argument("--log-interval", default=None,
                     help="record cadence, e.g. evals:2e6 (unit must match budget)")
    sub.add_argument("--optima", default=None,
                     help="sidecar of '<name> <value>' known optima")
    sub.add_argument("--out-dir", default=".")


def _add_alpha_flags(sub) -> None:
    sub.add_argument("--alpha", type=parse_alpha, default="auto",
                     help="blend scale or 'auto'")
    sub.add_argument("--target-bound", type=float, default=None,
                     help="auto-alpha numerator; defaults to round(mean |Q| entry)")


def _add_toy_flags(sub) -> None:
    """The anchor, toy and output flags `landscape` and `sweep` share."""
    sub.add_argument("--anchor", default="random",
                     help="'random' or an explicit 0/1 string")
    sub.add_argument("--toy-seed", type=int, default=0)
    _add_alpha_flags(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsils",
        description="Landscape-smoothing iterated local search for UBQP.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_instance_flags(solve)
    solve.add_argument("--algo", required=True, help="ils or lsils:<toy kind>")
    solve.add_argument("--seed", type=int, default=0)
    _add_solver_flags(solve)
    solve.set_defaults(func=cmd_solve)

    batch = sub.add_parser("batch", help="run algorithms x seeds, write CSVs")
    _add_instance_flags(batch, with_index=False)
    batch.add_argument("--algos", required=True,
                       help="comma list, e.g. ils,lsils:plusminusi,lsils:random")
    batch.add_argument("--seeds", type=int, default=20,
                       help="number of runs per algorithm")
    batch.add_argument("--seed", type=int, default=0,
                       help="master seed; run i uses seed master+i")
    batch.add_argument("--jobs", type=int, default=1, help="parallel runs")
    _add_solver_flags(batch)
    batch.set_defaults(func=cmd_batch)

    landscape = sub.add_parser("landscape",
                               help="exhaustive census of a small landscape")
    _add_instance_flags(landscape)
    landscape.add_argument("--toy", choices=("none",) + TOY_CHOICES, default="none")
    landscape.add_argument("--lam", type=float, default=None,
                           help="blend weight; with --toy builds the smoothed objective")
    landscape.add_argument("--cap", type=int, default=1000,
                           help="retain optima list only up to this count")
    _add_toy_flags(landscape)
    landscape.set_defaults(func=cmd_landscape)

    sweep = sub.add_parser("sweep", help="local-optima count per lambda value")
    _add_instance_flags(sweep)
    sweep.add_argument("--toy", choices=TOY_CHOICES, required=True)
    sweep.add_argument("--grid", default="0:1:0.1", help="start:stop:step")
    _add_toy_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    gen = sub.add_parser("gen", help="write a random instance file")
    gen.add_argument("--gen", required=True,
                     help="n=...,density=...,range=lo:hi,seed=...")
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=cmd_gen)

    excess_cmd = sub.add_parser("excess",
                                help="recompute excess columns from an optima sidecar")
    excess_cmd.add_argument("runlogs", nargs="+", help="run-log CSV files")
    excess_cmd.add_argument("--optima", required=True)
    excess_cmd.set_defaults(func=cmd_excess)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
