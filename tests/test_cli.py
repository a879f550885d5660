import argparse
import copy
import ctypes
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import squintsim
from squintsim import cli
from squintsim.cli import CSV_HEADER, UsageError, emit_csv, main, parse_args
from squintsim.experiments import (
    FIGURES,
    LOS,
    NLOS,
    SCHEMES,
    SWEEP_GRIDS,
    ConfigError,
    ScenarioConfig,
    SweepRow,
    figure_sweep,
    schemes_for,
)

DATA_DIR = Path(__file__).parent / "data"

# Runs the CLI once, then allocates, writes and frees one 4 MiB block twice and
# prints the minor page faults of the second time. The count reads the
# allocator's thresholds, not the order in which the run freed its blocks.
FAULT_PROBE = """
import resource, sys
import numpy as np
from squintsim import cli
cli.main(sys.argv[1:])

def touch_block():
    block = np.ones(1 << 19)
    del block

touch_block()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
touch_block()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def libc_has_mallopt() -> bool:
    return sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallopt")


def sample_result():
    return (
        SweepRow(
            scenario="los",
            scheme="central",
            sweep_variable="snr_db",
            sweep_value=10.0,
            mean_rate_bits=21.123456789012,
            std_error_bits=0.012345678901234,
            trials=7,
            seed=3,
        ),
    )


class TestParseArgs:
    def test_figure_subcommand(self):
        job, out = parse_args(["figure", "--id", "2", "--trials", "200", "--seed", "7"])
        assert job == figure_sweep(2, 200, 7)
        cfg = job[0]
        assert cfg.trials == 200
        assert cfg.seed == 7
        assert cfg.gain_mode == "random"
        assert out == "figure2.csv"

    def test_sweep_subcommand(self):
        (cfg, schemes, variable, values), _ = parse_args(
            ["sweep", "--scenario", "nlos", "--schemes", "mccm,central", "--var", "snr_db", "--values", "0,10,20"]
        )
        assert cfg.scenario == "nlos"
        assert schemes == ("mccm", "central")
        assert variable == "snr_db"
        assert values == (0.0, 10.0, 20.0)

    def test_sweep_defaults(self):
        (cfg, schemes, variable, values), out = parse_args(["sweep"])
        assert cfg.scenario == "los"
        assert schemes == schemes_for(LOS)
        assert variable == "snr_db"
        assert values == SWEEP_GRIDS["snr_db"]
        assert cfg.carrier_hz == 28e9
        assert cfg.bandwidth_hz == 2e9
        assert cfg.num_subcarriers == 128
        assert cfg.num_bs_antennas == 64
        assert cfg.num_ris_elements == 64
        assert cfg.num_paths == 1
        assert cfg.snr_db == 10.0
        assert cfg.trials == 500
        assert cfg.seed == 0
        assert cfg.gain_mode == "random"
        assert out == "sweep.csv"

    def test_nlos_defaults_include_covariance_scheme(self):
        (_, schemes, _, _), _ = parse_args(["sweep", "--scenario", "nlos"])
        assert schemes == schemes_for(NLOS)

    @pytest.mark.parametrize(
        "scenario,flags,num_paths",
        [("los", [], 1), ("los", ["--paths", "1"], 1), ("nlos", [], 5), ("nlos", ["--paths", "9"], 9)],
        ids=["los-default", "los-one", "nlos-default", "nlos-nine"],
    )
    def test_path_count_follows_the_scenario(self, scenario, flags, num_paths):
        (cfg, _, _, _), _ = parse_args(["sweep", "--scenario", scenario, *flags])
        assert cfg.num_paths == num_paths

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["figure", "--id", "2", "--frobnicate"])

    def test_malformed_number(self):
        with pytest.raises(UsageError, match="--trials"):
            parse_args(["figure", "--id", "2", "--trials", "many"])

    def test_unknown_scheme_names_flag(self):
        with pytest.raises(UsageError, match="--schemes"):
            parse_args(["sweep", "--schemes", "central,frobnicate"])

    def test_scheme_scenario_incompatibility(self):
        with pytest.raises(UsageError, match="mccm"):
            parse_args(["sweep", "--scenario", "los", "--schemes", "mccm"])

    def test_malformed_values_list(self):
        with pytest.raises(UsageError, match="--values"):
            parse_args(["sweep", "--values", "1,two,3"])

    def test_fractional_element_count(self):
        with pytest.raises(UsageError, match="ris_elements must be an integer, got 8.5"):
            parse_args(["sweep", "--var", "ris_elements", "--values", "8.5"])

    def test_missing_figure_id(self):
        with pytest.raises(UsageError):
            parse_args(["figure"])

    @pytest.mark.parametrize(
        "token",
        ["12", "-1e-3", "+.5", "5.", "1_000.2_5e1_0", "1E+05", "inf", "-Infinity", "NaN", "\u0661\u0662",
         "two", "1__0", "_1", "1_", "1_.5", "e5", ".", "1e", "1e+", "0x10", "1j", "infinit", "nann", "\u0131nf"],
    )
    def test_value_list_takes_exactly_the_numbers_float_takes(self, token):
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(UsageError) as info:
                cli._split_floats(f"1,{token},3", "--values")
            assert str(info.value) == f"argument --values: invalid number {token!r}"
        else:
            parsed = cli._split_floats(f"1, {token} ,3", "--values")
            assert np.array_equal(parsed, (1.0, expected, 3.0), equal_nan=True)

    @pytest.mark.parametrize(
        "field", [*(f.name for f in fields(ScenarioConfig)), "values", "schemes", "sweep_variable", "fig_id"]
    )
    def test_every_input_maps_to_the_sweep_flag_that_sets_it(self, field):
        # The preset id is set by figure's --id, stored as id; the sweep variable by --var, stored as var.
        dest = {"sweep_variable": "var", "fig_id": "id"}.get(field, field)
        command = "figure" if field == "fig_id" else "sweep"
        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = subparsers.choices[command]._actions
        dests = {flag: action.dest for action in actions for flag in action.option_strings}
        argvs = [["figure", "--id", "2"]] if command == "figure" else [["sweep"], ["sweep", "--values", "1"]]
        for argv in argvs:
            ns = cli._build_parser().parse_args(argv)
            message = str(cli._config_usage_error(ConfigError(field, "bad"), ns))
            if field == "values" and ns.values is None:
                assert message == f"argument --var: bad (a value of the built-in {ns.var} grid)"
                continue
            flag, text = message.removeprefix("argument ").split(": ")
            assert (dests[flag], text) == (dest, "bad")


class TestEmitCsv:
    def test_header_only_for_empty_result(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv((), str(path))
        assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(sample_result(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[:3] == ["los", "central", "snr_db"]
        # 10 significant digits
        assert fields[4] == "21.12345679"
        assert fields[5] == "0.0123456789"
        assert fields[6] == "7"
        assert fields[7] == "3"

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        calls = []

        def failing_fmt(value):
            calls.append(value)
            if len(calls) == 2:
                raise OSError("disk full")
            return format(value, ".10g")

        monkeypatch.setattr(cli, "_fmt", failing_fmt)
        with pytest.raises(OSError, match="disk full"):
            emit_csv(sample_result(), str(tmp_path / "out.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        path.write_text("previous\n", encoding="utf-8")
        monkeypatch.setattr(cli, "_fmt", lambda value: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            emit_csv(sample_result(), str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text(encoding="utf-8") == "previous\n"

    def test_reads_the_fields_without_copying_them(self, tmp_path, monkeypatch):
        # dataclasses.astuple would deep-copy every field of every row.
        def no_copies(*args, **kwargs):
            raise AssertionError("a field was deep-copied")

        monkeypatch.setattr(copy, "deepcopy", no_copies)
        path = tmp_path / "one.csv"
        emit_csv(sample_result(), str(path))
        assert path.read_bytes() == (CSV_HEADER + "\nlos,central,snr_db,10,21.12345679,0.0123456789,7,3\n").encode()

    def test_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "twice.csv"
        emit_csv(sample_result(), str(path))
        first = path.read_bytes()
        emit_csv(sample_result(), str(path))
        assert path.read_bytes() == first


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["figure", "--id", "2", "--trials", "many"]) == 1
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snr-db", "0,20"],
            ["--values", "nan"],
            ["--subcarriers", "0"],
            ["--scenario", "nlos", "--paths", "0"],
            ["--bs-antennas", "-3"],
            ["--var", "bandwidth_hz", "--values", "1e9,1e12"],
            ["--var", "ris_elements", "--values", "4,inf"],
            ["--seed", "-1"],
            ["--seed", str(2**64)],
            ["--var", "snr_db", "--values", "4000"],
            ["--snr-db", "4000", "--var", "bandwidth_hz", "--values", "1e9"],
            ["--var", "snr_db", "--values", "-4000"],
            ["--scenario", "los", "--paths", "9"],
            ["--var", "ris_elements", "--values", "16,10000000"],
            ["--schemes", "central,frobnicate"],
            ["--scenario", "los", "--schemes", "mccm"],
            ["--schemes", ","],
            ["--schemes", "central,central"],
            ["--scenario", "los", "--paths", "5"],
            ["--values", "5,5"],
            ["--var", "ris_elements", "--values", "16,16.0"],
            ["--out", ""],
            ["--out", "{tmp}"],
            ["--out", "{tmp}/nodir/x.csv"],
            ["--out", "nodir/"],
            ["--bs-antennas", "1" + "0" * 400],
        ],
        ids=["two-snr-values", "nan-value", "zero-subcarriers", "zero-paths", "negative-antennas",
             "late-bad-bandwidth", "infinite-elements", "negative-seed", "seed-past-64-bits",
             "snr-overflows-linear", "fixed-snr-overflows-linear", "snr-underflows-linear",
             "paths-on-single-path-scenario", "working-set-too-large", "unknown-scheme",
             "nlos-only-scheme-on-los", "empty-scheme-list", "repeated-scheme", "nlos-default-paths-on-los",
             "repeated-value", "repeated-element-count", "empty-out", "out-is-a-directory",
             "out-in-missing-directory", "out-names-no-file", "antennas-too-large-for-a-float"],
    )
    def test_bad_sweep_input_exits_1_before_any_trial(self, flags, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the input was rejected")

        monkeypatch.setattr(cli.experiments, "sample_path_set", no_trials)
        monkeypatch.chdir(tmp_path)
        small = ["--subcarriers", "4", "--bs-antennas", "2", "--ris-elements", "2", "--trials", "1"]
        # A later --out overrides this one, and {tmp} is the test's own directory.
        argv = ["sweep", *small, "--out", str(tmp_path / "out.csv"), *(f.format(tmp=tmp_path) for f in flags)]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "target,message",
        [
            ("", "'' names no file"),
            ("{tmp}", "'{tmp}' is a directory"),
            ("{tmp}/nodir/x.csv", "directory '{tmp}/nodir' does not exist"),
        ],
        ids=["empty", "directory", "missing-directory"],
    )
    def test_bad_out_target_is_named_on_both_subcommands(self, target, message, tmp_path, capsys):
        for subcommand in (["figure", "--id", "2"], ["sweep"]):
            assert main([*subcommand, "--trials", "1", "--out", target.format(tmp=tmp_path)]) == 1
            assert capsys.readouterr().err == f"squintsim: error: argument --out: {message.format(tmp=tmp_path)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_in_a_directory_that_cannot_be_written_exits_1(self, tmp_path, capsys, monkeypatch):
        # os.access stands in for a read-only directory, which a root user could still write to.
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        assert main(["figure", "--id", "2", "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"squintsim: error: argument --out: directory '{tmp_path}' is not writable\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--scenario", "los", "--paths", "5"],
             "argument --paths: num_paths must be an integer >= 1, and 1 on los, got 5"),
            (["sweep", "--subcarriers", "0"],
             "argument --subcarriers: num_subcarriers must be an integer >= 1, got 0"),
            (["sweep", "--trials", "0"],
             "argument --trials: trials must be an integer >= 1, got 0"),
            (["figure", "--id", "2", "--seed", "-1"],
             "argument --seed: seed must be an integer in [0, 2**64), got -1"),
            (["sweep", "--bs-antennas", "1" + "0" * 400],
             "argument --bs-antennas: num_bs_antennas must be an integer >= 1, got 1" + "0" * 400),
        ],
        ids=["paths", "subcarriers", "sweep-trials", "figure-seed", "antennas-too-large-for-a-float"],
    )
    def test_config_error_names_the_flag(self, argv, message, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"squintsim: error: {message}\n"

    @pytest.mark.parametrize(
        "flags,at_bound",
        [(["--ris-elements"], "4096"), (["--var", "ris_elements", "--values"], "16,4096")],
        ids=["fixed-size", "size-sweep"],
    )
    def test_mccm_past_the_covariance_bound_exits_1_before_any_trial(
        self, flags, at_bound, tmp_path, capsys, monkeypatch
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the input was rejected")

        monkeypatch.setattr(cli.experiments, "sample_path_set", no_trials)
        argv = ["sweep", "--scenario", "nlos", "--subcarriers", "1", "--trials", "1", *flags]
        past_bound = at_bound.replace("4096", "4097")
        assert main([*argv, past_bound, "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == (
            "squintsim: error: argument --schemes: scheme 'mccm' forms an (M, M) covariance and needs "
            "M**2 <= MAX_TABLE_ENTRIES = 16777216, got M = 4097\n"
        )
        # Without mccm that size is within the table bound; at M = 4096 mccm is too.
        assert parse_args([*argv, past_bound, "--schemes", "central"])[0][1] == ("central",)
        assert "mccm" in parse_args([*argv, at_bound])[0][1]

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--var", "bandwidth_hz", "--values", "1e9,1e12"],
             "argument --values: bandwidth_hz must be in [0, 2*carrier_hz), got 1000000000000.0"),
            (["--values", "5,5"], "argument --values: snr_db value 5 is named twice"),
            (["--subcarriers", "100000", "--var", "ris_elements"],
             "argument --var: num_ris_elements must be an integer >= 1 with num_subcarriers * num_ris_elements"
             " <= 16777216, got 256 (a value of the built-in ris_elements grid)"),
            (["--values", ","], "argument --values: expected at least one value"),
        ],
        ids=["bad-value", "repeated-value", "built-in-grid-value", "empty-values"],
    )
    def test_sweep_value_error_names_the_flag(self, flags, message, tmp_path, capsys):
        assert main(["sweep", *flags, "--trials", "1", "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"squintsim: error: {message}\n"

    def test_unknown_figure_id_exits_1_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before the input was rejected")

        monkeypatch.setattr(cli.experiments, "sample_path_set", no_trials)
        out = tmp_path / "fig.csv"
        for fig_id in ("7", "9"):
            assert main(["figure", "--id", fig_id, "--trials", "1", "--out", str(out)]) == 1
            assert "--id" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_figure_seed_exits_1(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert main(["figure", "--id", "2", "--trials", "1", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_row_exits_2_and_writes_no_file(self, tmp_path, capsys):
        # 3082 dB is a finite linear SNR (1.58e308), but times the aligned
        # power N*M^2 = 8 of unit gains it overflows to an infinite rate.
        out = tmp_path / "out.csv"
        args = ["sweep", "--schemes", "ideal", "--gain-mode", "unit", "--var", "snr_db", "--values", "10,3082",
                "--subcarriers", "4", "--bs-antennas", "2", "--ris-elements", "2", "--trials", "3"]
        assert main([*args, "--out", str(out)]) == 2
        assert "scheme 'ideal' at snr_db=3082" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_row_prints_only_the_failure_line(self, tmp_path):
        # A child process, because pytest would capture numpy's warnings in-process.
        src = str(Path(squintsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["sweep", "--schemes", "ideal", "--gain-mode", "unit", "--var", "snr_db", "--values", "3082",
                "--subcarriers", "4", "--bs-antennas", "2", "--ris-elements", "2", "--trials", "3",
                "--out", str(tmp_path / "out.csv")]
        proc = subprocess.run(
            [sys.executable, "-m", "squintsim.cli", *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("squintsim: failure: scheme 'ideal' at snr_db=3082")

    def test_runtime_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # The output directory exists when the flags are read and is gone when the rows are written.
        directory = tmp_path / "gone"
        directory.mkdir()
        run_sweep = cli.experiments.run_sweep

        def run_then_remove_the_directory(*job):
            rows = run_sweep(*job)
            directory.rmdir()
            return rows

        monkeypatch.setattr(cli.experiments, "run_sweep", run_then_remove_the_directory)
        code = main(["figure", "--id", "2", "--trials", "1", "--seed", "0", "--out", str(directory / "out.csv")])
        assert code == 2
        assert "failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_one_path_on_los_runs(self, tmp_path):
        out = tmp_path / "los.csv"
        args = ["sweep", "--scenario", "los", "--paths", "1", "--schemes", "central", "--values", "10",
                "--subcarriers", "4", "--bs-antennas", "2", "--ris-elements", "2", "--trials", "1"]
        assert main([*args, "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2

    def test_figure_run_writes_deterministic_csv(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--scenario", "los", "--schemes", "central,random",
                "--var", "snr_db", "--values", "0,10",
                "--subcarriers", "8", "--bs-antennas", "2", "--ris-elements", "4",
                "--trials", "3", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        summary = capsys.readouterr().out
        assert "wrote 4 rows" in summary

    def test_figure_preset_small(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(["figure", "--id", "3", "--trials", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 5 * len(schemes_for(LOS))

    @pytest.mark.parametrize("fig_id", [2, 3, 4, 5, 6])
    def test_figure_matches_golden_csv(self, fig_id, tmp_path):
        # Recorded with `squintsim figure --id N --trials 4 --seed S`, one file per preset and seed.
        for seed in (1, 11):
            out = tmp_path / f"figure{fig_id}-seed{seed}.csv"
            assert main(["figure", "--id", str(fig_id), "--trials", "4", "--seed", str(seed), "--out", str(out)]) == 0
            expected = (DATA_DIR / f"figure{fig_id}-trials4-seed{seed}.csv").read_bytes()
            assert out.read_bytes() == expected, f"seed {seed}"

    def test_figure_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Two child processes, so each loads its BLAS with its own thread count.
        src = str(Path(squintsim.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"figure5-threads{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            argv = ["figure", "--id", "5", "--trials", "2", "--seed", "1", "--out", str(out)]
            subprocess.run(
                [sys.executable, "-m", "squintsim.cli", *argv], env=env, check=True, capture_output=True, timeout=300
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(not libc_has_mallopt(), reason="needs Linux and a libc with mallopt")
    def test_repeated_figure_run_reuses_freed_heap_blocks(self, tmp_path):
        # A child process, so the allocator state is the CLI's alone. Without the
        # raised thresholds glibc maps a freed 4 MiB block again, or hands it back
        # to the kernel, and writing it anew took 233 to 960 page faults after
        # figure 2, 4 or 5, against 0 with them.
        src = str(Path(squintsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        argv = ["figure", "--id", "5", "--trials", "2", "--seed", "1", "--out", str(tmp_path / "figure5.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, *argv], env=env, check=True, capture_output=True, text=True, timeout=300
        )
        assert int(proc.stdout.splitlines()[-1]) < 100

    def test_figure_runs_import_no_lazy_heavy_module(self, tmp_path):
        # A fresh child process, as the benchmark times one per run: numpy loads
        # numpy.ma on first use (np.unique is one user), at about 20 ms and 1.5 MB.
        src = str(Path(squintsim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = (
            "import sys\nfrom squintsim import cli\n"
            "for fig_id in ('4', '5'):\n"
            "    assert cli.main(['figure', '--id', fig_id, '--trials', '1', '--out', sys.argv[1]]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(tmp_path / "f.csv")],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )
        assert proc.stdout.splitlines()[-1] == "False"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "figure" in capsys.readouterr().out

    def test_sweep_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "default: 28000000000.0" in out  # carrier
        assert "default: 500" in out  # trials
        assert "user-side paths (default: 1 on los, 5 on nlos)" in out  # paths

    @pytest.mark.parametrize("subcommand", ["sweep", "figure"])
    def test_help_states_no_none_default(self, subcommand, capsys, monkeypatch):
        # A flag whose default is computed states it in its own help text.
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "(default: None)" not in out
        assert "(default: 500)" in out  # trials

    def test_sweep_help_names_every_scheme(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # one help line per flag, so no name is wrapped
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--help"])
        assert excinfo.value.code == 0
        assert f"comma-separated list of {', '.join(SCHEMES)} " in capsys.readouterr().out

    def test_figure_help_lists_every_preset(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(map(str, FIGURES)) + "}" in out
        for fig_id, (scenario, variable) in FIGURES.items():
            assert f"{fig_id}: {scenario} vs {variable}" in out
