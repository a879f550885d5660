"""Smoke test of the benchmark harness at one trial per sweep point.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert f"--trials {run.WORKLOADS[entry['name']].trials}" in entry["why"]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_second_seed_runs_clean(name):
    result, samples = run.measure(name, seed=2, seconds=0, trace=False, trials=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert got == units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert samples["environment"]["nproc"] >= 1


def test_traced_run_reports_every_layer_metric():
    result, _ = run.measure("nlos-snr", seed=3, seconds=0, trace=True, trials=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {metric: entry["unit"] for metric, entry in metrics.items()} == units("per_layer")
    for layer in run.LAYERS:
        assert metrics[f"{layer}.calls"]["value"] > 0
    assert metrics["trace.coverage"]["value"] >= 0.95


def reference_text() -> str:
    return (run.REFERENCE_DIR / "los-snr.csv").read_text(encoding="utf-8")


def gate(text: str) -> set[int]:
    workload = run.WORKLOADS["los-snr"]
    return run.check_csv(text, workload, run.RECORDED_SEED, workload.trials, reference_text())


def replace_field(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[run.CSV_HEADER.index(column)] = value
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_gate_accepts_reference_and_last_digit_rendering():
    text = reference_text()
    assert gate(text) == set()
    mean = text.splitlines()[1].split(",")[4]  # 12.57322905
    bumped = mean[:-1] + str(int(mean[-1]) + 1)
    assert gate(replace_field(text, 0, "mean_rate_bits", bumped)) == set()


@pytest.mark.parametrize(
    "row, column, value",
    [
        (1, "mean_rate_bits", "nan"),  # not finite
        (1, "std_error_bits", "-0.1"),  # negative
        (1, "mean_rate_bits", "99"),  # above ideal at its sweep point
        (6, "mean_rate_bits", "0.5"),  # drops with SNR (and differs from reference)
        (2, "mean_rate_bits", "4.77389450"),  # beyond the 10-digit rendering
        (3, "scheme", "side-index"),  # out of order
    ],
)
def test_gate_fails_corrupted_row(row, column, value):
    assert row in gate(replace_field(reference_text(), row, column, value))


def test_gate_fails_every_row_on_truncated_csv():
    lines = reference_text().splitlines(keepends=True)
    assert len(gate("".join(lines[:-1]))) == len(lines) - 1


def test_tracer_fails_loudly_on_missing_name():
    with pytest.raises(AttributeError, match="no longer exists"):
        child.Tracer().wrap(types.ModuleType("squintsim.experiments"), "gen_channels", "channel.gen_channels")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "los-snr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
