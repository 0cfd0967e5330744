"""Command-line surface: flag grammar, subcommand contracts, determinism."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lsils
from lsils import (
    Budget,
    LambdaSchedule,
    SearchConfig,
    ToyKind,
    ils,
    parse_orlib,
    read_runlog_csv,
)
from lsils import _kernel, landscape
from lsils.cli import (
    main,
    parse_algos,
    parse_budget,
    parse_gen_spec,
    parse_grid,
    parse_lambda_spec,
    parse_log_interval,
)


class TestFlagGrammar:
    def test_budget_spec(self):
        budget = parse_budget("evals:2e8")
        assert budget.kind == "evals"
        assert budget.amount == 200_000_000
        assert parse_budget("seconds:600").kind == "seconds"

    def test_budget_spec_rejected(self):
        for bad in ("2e8", "flips:10", "evals:zero", "evals:-5"):
            with pytest.raises(ValueError):
                parse_budget(bad)

    def test_gen_spec(self):
        spec = parse_gen_spec("n=18,density=1,range=-100:100,seed=7")
        assert spec == dict(n=18, density=1.0, value_range=(-100, 100), seed=7)

    def test_gen_spec_defaults_and_errors(self):
        assert parse_gen_spec("n=5")["density"] == 1.0
        with pytest.raises(ValueError, match="n="):
            parse_gen_spec("density=1")
        with pytest.raises(ValueError, match="unknown"):
            parse_gen_spec("n=5,shape=round")

    def test_lambda_specs(self):
        budget = parse_budget("evals:1000")
        assert parse_lambda_spec("off", budget).steps == ()
        staged = parse_lambda_spec("paper", budget)
        assert staged.steps == ((200, 0.001), (400, 0.002), (600, 0.003), (800, 0.004))
        assert parse_lambda_spec("const:0.5", budget).value_at(0) == 0.5
        explicit = parse_lambda_spec("steps:200=0.001,400=0.002", budget)
        assert explicit.value_at(250) == 0.001
        assert explicit.unit == "evals"

    def test_lambda_spec_rejected(self):
        budget = parse_budget("evals:1000")
        for bad in ("ramp", "staged", "steps:200", "const:nan=1"):
            with pytest.raises(ValueError):
                parse_lambda_spec(bad, budget)

    def test_algos_list(self):
        algos = parse_algos("ils,lsils:plusminusi,lsils:random")
        assert algos == [None, ToyKind.PLUS_MINUS_I, ToyKind.RANDOM]

    def test_algos_rejected(self):
        for bad in ("tabu", "lsils", "ils:plusminus1", "lsils:cubic"):
            with pytest.raises(ValueError):
                parse_algos(bad)

    def test_grid(self):
        grid = parse_grid("0:1:0.1")
        assert len(grid) == 11
        assert grid[0] == 0.0 and grid[-1] == 1.0
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("1:0:0.1")
        for bad in ("0:1:nan", "0:nan:0.1", "-inf:1:0.1", "0:1:inf"):
            with pytest.raises(ValueError, match="finite"):
                parse_grid(bad)

    def test_log_interval_unit_must_match_budget(self):
        budget = parse_budget("evals:1000")
        assert parse_log_interval("evals:2e2", budget) == 200
        assert parse_log_interval("50", budget) == 50
        with pytest.raises(ValueError, match="unit"):
            parse_log_interval("seconds:10", budget)

    def test_log_interval_rounding_to_zero_rejected(self):
        for bad in ("evals:0.4", "0.49", "evals:0", "-3"):
            with pytest.raises(ValueError, match="positive"):
                parse_log_interval(bad, parse_budget("evals:1000"))
        assert parse_log_interval("evals:0.6", parse_budget("evals:1000")) == 1
        assert parse_log_interval("0.4", parse_budget("seconds:10")) == 0.4

    def test_jobs_resolution(self, tmp_path, capsys):
        argv = ["batch", "--gen", "n=8,seed=1", "--algos", "ils", "--seeds", "1",
                "--budget", "evals:100", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "  jobs = 1\n" in capsys.readouterr().out
        assert main([*argv, "--jobs", "0"]) == 1
        captured = capsys.readouterr()
        assert "jobs" in captured.err
        assert "resolved configuration" not in captured.out


class TestExitCodes:
    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["solve", "--nonsense"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["wiggle"]) == 2
        capsys.readouterr()

    def test_runtime_errors_return_one(self, tmp_path, capsys):
        assert main(["solve", "--algo", "tabu", "--budget", "evals:10",
                     "--gen", "n=5,seed=1", "--out-dir", str(tmp_path)]) == 1
        assert main(["solve", "--algo", "ils", "--budget", "evals:10",
                     "--instance", str(tmp_path / "missing.txt"),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_entry_outside_int64_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("1\n1 1\n1 1 9223372036854775808\n")
        assert main(["solve", "--algo", "ils", "--budget", "evals:10", "--instance", str(path),
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: line 3: entry 9223372036854775808 is outside the int64 range"]

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "lsils:plusminus1", "--budget", "evals:1000"),
        ("solve", "--algo", "lsils:random", "--budget", "evals:1000"),
        ("batch", "--algos", "ils,lsils:plusminusi", "--seeds", "1", "--budget", "evals:1000"),
    ])
    def test_a_zero_default_target_bound_fails_before_the_configuration(self, command, tmp_path,
                                                                        capsys):
        # The instance's mean |Q| rounds to 0, so auto alpha has no default
        # bound; the resolved configuration must not print alpha = 0 first.
        assert main([*command, "--lambda", "const:0.5", "--out-dir", str(tmp_path),
                     "--gen", "n=50,density=0.01,range=-1:1,seed=1"]) == 1
        captured = capsys.readouterr()
        assert "alpha" not in captured.out
        assert captured.err.splitlines() == [
            "error: target bound must be positive and finite; pass one explicitly when the "
            "instance mean |Q| rounds to zero"]

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "lsils:plusminusi", "--budget", "evals:5000", "--lambda", "const:0.5"),
        ("landscape", "--toy", "plusminusi", "--lam", "0.5"),
        # The paper ramp first blends at 20% of the budget, but the blend is
        # checked before the run starts, not after a fifth of 2e8 evaluations.
        ("solve", "--algo", "lsils:plusminusi", "--budget", "evals:2e8", "--lambda", "paper"),
    ])
    def test_blends_past_the_exact_bound_return_one(self, command, tmp_path, capsys):
        # Entries up to 2^50 at n = 8 take the blended gains and values past 2^53.
        assert main([*command, "--gen", f"n=8,range={-2**50}:{2**50},seed=1",
                     "--out-dir", str(tmp_path)]) == 1
        assert "2^53" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--budget", "evals:inf"), ("--budget", "seconds:nan"), ("--budget", "evals:-inf"),
        ("--budget", "evals:1000", "--log-interval", "evals:inf"),
        ("--budget", "seconds:1", "--log-interval", "nan"),
    ])
    def test_non_finite_amounts_return_one(self, flags, tmp_path, capsys):
        assert main(["solve", "--algo", "ils", "--gen", "n=8,seed=1", *flags,
                     "--out-dir", str(tmp_path)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ("solve", "--algo", "ils"),
        ("batch", "--algos", "ils,lsils:random", "--seeds", "2"),
    ])
    def test_missing_compiler_is_one_error_line(self, command, tmp_path, capsys, monkeypatch):
        # The kernel builds as on a host with none of the compilers tried.
        monkeypatch.setattr(shutil, "which", lambda name: None)
        monkeypatch.setattr(_kernel, "_build", _kernel._compiler)
        _kernel._load.cache_clear()
        try:
            assert main([*command, "--gen", "n=8,seed=1", "--budget", "evals:1000",
                         "--out-dir", str(tmp_path)]) == 1
        finally:
            _kernel._load.cache_clear()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "no C compiler found (tried cc, gcc, clang)" in err[0]

    @pytest.mark.parametrize("toy", [(), ("--toy", "none")])
    def test_lam_without_a_toy_is_one_error_line(self, toy, tmp_path, capsys):
        assert main(["landscape", "--gen", "n=10,seed=3", *toy, "--lam", "0.5",
                     "--out-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not any(tmp_path.iterdir())
        assert len(err.splitlines()) == 1 and err.startswith("error: --lam")
        assert "--toy" in err

    def test_guard_violation_reported(self, tmp_path, capsys):
        rc = main(["landscape", "--gen", "n=26,seed=1", "--toy", "none",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "25" in capsys.readouterr().err


class TestLandscapeCommand:
    def test_census_example(self, tmp_path, capsys):
        rc = main(["landscape", "--gen", "n=18,density=1,range=-100:100,seed=7",
                   "--toy", "none", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.index("resolved configuration:") < out.index("local_optima_count")
        report = (tmp_path / "report.txt").read_text()
        count = int([line for line in report.splitlines()
                     if line.startswith("local_optima_count")][0].split()[1])
        assert count >= 1
        rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in rows) == 262144

    def test_toy_objective_census(self, tmp_path, capsys):
        rc = main(["landscape", "--gen", "n=10,seed=3", "--toy", "plusminusi",
                   "--anchor", "random", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "local_optima_count 1" in (tmp_path / "report.txt").read_text()
        capsys.readouterr()

    def test_smoothed_objective_census(self, tmp_path, capsys):
        rc = main(["landscape", "--gen", "n=10,seed=3", "--toy", "plusminus1",
                   "--lam", "1.0", "--alpha", "auto", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "local_optima_count 1" in (tmp_path / "report.txt").read_text()
        capsys.readouterr()


class TestSweepCommand:
    def test_eleven_row_example(self, tmp_path, capsys):
        rc = main(["sweep", "--gen", "n=14,density=1,range=-100:100,seed=9",
                   "--toy", "plusminus1", "--alpha", "auto",
                   "--grid", "0:1:0.1", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,count"
        assert len(lines) == 12
        assert lines[-1].split(",") == ["1", "1"]
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["0:1.3:0.25", "-0.5:0.5:0.25"])
    def test_grid_outside_the_unit_interval_fails_before_a_census(self, grid, monkeypatch,
                                                                  capsys):
        def census(*args, **kwargs):
            raise AssertionError("a census ran")

        monkeypatch.setattr(landscape, "enumerate_local_optima", census)
        assert main(["sweep", "--gen", "n=14,seed=9", "--toy", "plusminus1",
                     f"--grid={grid}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: lam must lie in [0, 1]")

    def test_toy_kind_is_required(self, capsys):
        assert main(["sweep", "--gen", "n=8,seed=1"]) == 2
        capsys.readouterr()


class TestGenAndSolve:
    def test_round_trip_through_a_file(self, tmp_path, capsys):
        rc = main(["gen", "--gen", "n=25,density=0.5,range=-9:9,seed=4",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        instance_path = next(tmp_path.glob("gen-*.txt"))
        inst = parse_orlib(instance_path)[0]
        assert inst.n == 25

        rc = main(["solve", "--instance", str(instance_path), "--algo", "ils",
                   "--budget", "evals:20000", "--seed", "3",
                   "--log-interval", "evals:5000", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resolved configuration:" in out

        csv_path = next(tmp_path.glob("*_ils_3.csv"))
        records, reference = read_runlog_csv(csv_path)
        assert reference is None
        direct = ils(inst, SearchConfig(budget=Budget("evals", 20000), seed=3,
                                        log_interval=5000))
        assert records[-1].best_f == direct.best_value
        assert records == direct.records

    def test_perturbation_bits_resolved_by_the_search(self, tmp_path, capsys):
        argv = ["solve", "--gen", "n=20,seed=5", "--algo", "ils", "--budget", "evals:500",
                "--out-dir", str(tmp_path)]
        assert main([*argv, "--perturbation-bits", "0"]) == 1
        captured = capsys.readouterr()
        assert "perturbation bits" in captured.err
        assert "resolved configuration" not in captured.out
        for flag, bits, expected in (([], None, 5), (["--perturbation-bits", "3"], 3, 3)):
            assert main([*argv, *flag]) == 0
            config = SearchConfig(budget=Budget("evals", 500), perturbation_bits=bits)
            assert config.bits_for(20) == expected
            assert f"  perturbation_bits = {expected}\n" in capsys.readouterr().out

    def test_negative_zero_lambda_reads_as_zero(self, tmp_path, capsys):
        rc = main(["solve", "--gen", "n=8", "--algo", "lsils:plusminusi",
                   "--budget", "evals:2000", "--lambda", "const:-0",
                   "--log-interval", "evals:500", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "  lambda_schedule = evals steps 0=0\n" in capsys.readouterr().out
        lines = next(tmp_path.glob("*.csv")).read_text().splitlines()[1:]
        assert len(lines) == 5  # four marks and the final point
        assert {line.split(",")[3] for line in lines} == {"0.000000"}

    def test_solve_with_optima_sidecar(self, tmp_path, capsys):
        main(["gen", "--gen", "n=12,seed=6", "--out-dir", str(tmp_path)])
        instance_path = next(tmp_path.glob("gen-*.txt"))
        (tmp_path / "opt.txt").write_text(f"{instance_path.stem} 50000\n")
        rc = main(["solve", "--instance", str(instance_path), "--algo", "ils",
                   "--budget", "evals:2000", "--optima", str(tmp_path / "opt.txt"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        csv_path = next(tmp_path.glob("*_ils_0.csv"))
        records, reference = read_runlog_csv(csv_path)
        assert reference == "optimum 50000"
        assert all(r.excess is not None for r in records)
        capsys.readouterr()


class TestBatchCommand:
    def test_file_count_contract(self, tmp_path, capsys):
        rc = main(["batch", "--gen", "n=30,density=1,range=-50:50,seed=2",
                   "--algos", "ils,lsils:plusminusi", "--seeds", "4",
                   "--budget", "evals:10000", "--log-interval", "evals:5000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("*_*_*.csv"))) == 8
        assert (tmp_path / "summary.csv").exists()
        out = capsys.readouterr().out
        assert "mean" in out and "lsils-plusminusi" in out

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        argv_tail = ["--gen", "n=30,density=1,range=-50:50,seed=2",
                     "--algos", "ils,lsils:random", "--seeds", "3",
                     "--budget", "evals:12000", "--log-interval", "evals:4000"]
        assert main(["batch", *argv_tail, "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["batch", *argv_tail, "--out-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        argv_tail = ["--gen", "n=24,seed=8", "--algos", "ils", "--seeds", "2",
                     "--budget", "evals:6000"]
        assert main(["batch", *argv_tail, "--jobs", "1",
                     "--out-dir", str(tmp_path / "serial")]) == 0
        assert main(["batch", *argv_tail, "--jobs", "2",
                     "--out-dir", str(tmp_path / "parallel")]) == 0
        capsys.readouterr()
        for path in sorted((tmp_path / "serial").iterdir()):
            twin = tmp_path / "parallel" / path.name
            assert path.read_bytes() == twin.read_bytes()

    def test_seeds_are_master_plus_slot(self, tmp_path, capsys):
        rc = main(["batch", "--gen", "n=20,seed=1", "--algos", "ils",
                   "--seeds", "2", "--seed", "10", "--budget", "evals:4000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        names = {p.name for p in tmp_path.glob("*_ils_*.csv")}
        assert {n.rsplit("_", 1)[1] for n in names} == {"10.csv", "11.csv"}
        capsys.readouterr()

    def test_best_found_reference_when_no_optima(self, tmp_path, capsys):
        rc = main(["batch", "--gen", "n=20,seed=1", "--algos", "ils",
                   "--seeds", "2", "--budget", "evals:4000",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        best = None
        for path in tmp_path.glob("*_ils_*.csv"):
            records, reference = read_runlog_csv(path)
            assert reference.startswith("best-found ")
            value = int(reference.split()[1])
            best = value if best is None else best
            assert value == best
            assert records[-1].best_f <= best


class TestExcessCommand:
    def test_rewrites_excess_columns(self, tmp_path, capsys):
        main(["batch", "--gen", "n=20,seed=1", "--algos", "ils", "--seeds", "1",
              "--budget", "evals:4000", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        csv_path = next(tmp_path.glob("*_ils_0.csv"))
        name = csv_path.name.rsplit("_", 2)[0]
        (tmp_path / "opt.txt").write_text(f"{name} 999999\n")
        rc = main(["excess", str(csv_path), "--optima", str(tmp_path / "opt.txt")])
        assert rc == 0
        records, reference = read_runlog_csv(csv_path)
        assert reference == "optimum 999999"
        assert records[-1].excess == pytest.approx(
            (records[-1].best_f - 999999) / 999999)
        capsys.readouterr()

    def test_missing_optimum_is_an_error(self, tmp_path, capsys):
        main(["batch", "--gen", "n=20,seed=1", "--algos", "ils", "--seeds", "1",
              "--budget", "evals:4000", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        csv_path = next(tmp_path.glob("*_ils_0.csv"))
        (tmp_path / "opt.txt").write_text("someoneelse 10\n")
        assert main(["excess", str(csv_path),
                     "--optima", str(tmp_path / "opt.txt")]) == 1
        capsys.readouterr()


def test_module_entry_point_runs():
    # The child imports the package this test imported, installed or not.
    package_root = str(Path(lsils.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lsils.cli", "landscape",
         "--gen", "n=8,seed=1", "--toy", "plusminus1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "local_optima_count 1" in proc.stdout
