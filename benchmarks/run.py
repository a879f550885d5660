"""Benchmark harness for squintsim figure sweeps.

    python3 benchmarks/run.py --workload los-snr --seed 1 --seconds 40 --trace 0

Each run of a workload is one fresh process (child.py) that imports squintsim
from the checkout's ``src/`` and calls ``squintsim.cli.main(["figure", ...])``
exactly as the command line does. Runs repeat until ``--seconds`` have
passed; every reported time is the median over the runs. Every CSV is checked
by the correctness gate below. The headline throughput is expressed in units
of host speed, measured by a fixed calibration kernel timed before each run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics and the tracing
overhead. Either way the result is correct only if every run wrote the same
CSV bytes, so a traced CSV must equal the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted`` (CSV rows expected), ``failed`` (CSV rows that fail the gate)
and ``metrics``. The line before it records the per-run samples and the
environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"

#: The harness seed for which reference CSVs were recorded at trial count
#: ``Workload.trials``.
RECORDED_SEED = 1

#: A whole invocation must end within this many seconds.
TIME_LIMIT_S = 170.0

# The expected output, written down independently of the program so that the
# gate does not take the program's own grids on trust.
CSV_HEADER = ["scenario", "scheme", "sweep_variable", "sweep_value", "mean_rate_bits", "std_error_bits", "trials", "seed"]
LOS_SCHEMES = ("ideal", "central", "random", "random-index", "side-index")
NLOS_SCHEMES = ("ideal", "mccm", "central", "random", "random-index", "side-index")
SNR_DB_GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
RIS_ELEMENTS_GRID = (16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class Workload:
    figure_id: int
    trials: int
    scenario: str
    schemes: tuple[str, ...]
    variable: str
    values: tuple[float, ...]
    #: Layers that do no work on this workload; zero calls elsewhere is an error.
    idle_layers: frozenset[str] = frozenset()


LOS_IDLE = frozenset({"phase_design.design_mccm", "phase_design.design_subcarrier_covariance"})

#: Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "los-snr": Workload(2, 8, "los", LOS_SCHEMES, "snr_db", SNR_DB_GRID, LOS_IDLE),
    "los-elements": Workload(4, 8, "los", LOS_SCHEMES, "ris_elements", RIS_ELEMENTS_GRID, LOS_IDLE),
    "nlos-snr": Workload(5, 8, "nlos", NLOS_SCHEMES, "snr_db", SNR_DB_GRID),
}

#: Metric name -> unit, for --trace 0 and --trace 1.
END_TO_END_UNITS = {
    "trials_per_cal": "1/cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_ok_frac": "ratio",
}
LAYERS = (
    "channel.sample_path_set",
    "channel.gen_channels",
    "phase_design.design_mccm",
    "phase_design.design_subcarrier_covariance",
    "phase_design.angle_designers",
    "rate_eval.sum_rate",
    "rate_eval.ideal_rate",
)
PER_LAYER_UNITS = {
    **{f"{layer}.{field}": unit for layer in LAYERS for field, unit in (("calls", "count"), ("self_s", "s"))},
    "channel.gen_channels.bytes_out": "B",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result; exit 2, print no result."""


# --- correctness gate --------------------------------------------------------


def expected_rows(workload: Workload, seed: int, trials: int) -> list[tuple]:
    """Key columns of every row, value-major and scheme-minor."""
    return [
        (workload.scenario, scheme, workload.variable, value, trials, seed)
        for value in workload.values
        for scheme in workload.schemes
    ]


def _row_key(row: dict) -> tuple:
    return (
        row["scenario"],
        row["scheme"],
        row["sweep_variable"],
        float(row["sweep_value"]),
        int(row["trials"]),
        int(row["seed"]),
    )


def _within_rendering(value: float, reference: float) -> bool:
    """True when two numbers differ by at most one unit in the reference's
    10th significant digit, the resolution of the CSV rendering."""
    if value == reference:
        return True
    if not (math.isfinite(value) and math.isfinite(reference)) or reference == 0.0:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 9)
    return abs(value - reference) <= unit * (1 + 1e-6)


def check_csv(text: str, workload: Workload, seed: int, trials: int, reference: str | None = None) -> set[int]:
    """Indices of the expected rows that fail the gate.

    A row fails when it is missing or out of order, when its rate or standard
    error is not finite and nonnegative, when it beats ``ideal`` at its sweep
    point, when (on SNR sweeps) its mean rate is below that of the same
    scheme at the previous SNR, or when it differs from ``reference`` beyond
    the 10-significant-digit rendering. A wrong header or row count fails
    every row.
    """
    keys = expected_rows(workload, seed, trials)
    everything = set(range(len(keys)))
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_HEADER:
        return everything
    rows = list(reader)
    if len(rows) != len(keys):
        return everything

    failed = set()
    means = {}
    for i, (row, key) in enumerate(zip(rows, keys)):
        try:
            matches = _row_key(row) == key
            mean = float(row["mean_rate_bits"])
            std_error = float(row["std_error_bits"])
        except (TypeError, ValueError):
            failed.add(i)
            continue
        if not matches or not all(math.isfinite(v) and v >= 0.0 for v in (mean, std_error)):
            failed.add(i)
        else:
            means[key[3], key[1]] = (i, mean)

    for value in workload.values:
        if (value, "ideal") not in means:
            continue
        ideal = means[value, "ideal"][1]
        for scheme in workload.schemes:
            index, mean = means.get((value, scheme), (None, None))
            if index is not None and not mean <= ideal:
                failed.add(index)

    if workload.variable == "snr_db":
        for scheme in workload.schemes:
            for low, high in zip(workload.values, workload.values[1:]):
                if (low, scheme) in means and (high, scheme) in means:
                    index, mean = means[high, scheme]
                    if not mean >= means[low, scheme][1]:
                        failed.add(index)

    if reference is not None:
        ref_rows = list(csv.DictReader(io.StringIO(reference)))
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            for column in CSV_HEADER:
                if column in ("mean_rate_bits", "std_error_bits", "sweep_value"):
                    try:
                        same = _within_rendering(float(row[column]), float(ref[column]))
                    except ValueError:
                        same = False
                else:
                    same = row[column] == ref[column]
                if not same:
                    failed.add(i)
    return failed


def reference_csv(name: str, seed: int, trials: int) -> str | None:
    """The recorded CSV for this run, or None when the run is not the recorded one."""
    if seed != RECORDED_SEED or trials != WORKLOADS[name].trials:
        return None
    return (REFERENCE_DIR / f"{name}.csv").read_text(encoding="utf-8")


# --- runs --------------------------------------------------------------------


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cli_args(workload: Workload, seed: int, trials: int, out: Path) -> list[str]:
    """The only input the program receives, generated from the workload and seed."""
    return ["figure", "--id", str(workload.figure_id), "--trials", str(trials), "--seed", str(seed), "--out", str(out)]


@dataclass
class Run:
    setup_s: float
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    blas_threads: int | None
    csv: bytes
    trace: dict | None


def run_once(workload: Workload, seed: int, trials: int, trace: bool, stem: Path, deadline: float) -> Run:
    """One fresh workload process writing ``stem``.csv and ``stem``.json; waits for it to end."""
    out = stem.with_suffix(".csv")
    result_path = stem.with_suffix(".json")
    spec = {
        "src": str(SRC),
        "argv": cli_args(workload, seed, trials, out),
        "trace": trace,
        "result": str(result_path),
    }
    env = {k: v for k, v in os.environ.items() if k != "SQUINTSIM_THREADS"}
    launched = clock()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(5.0, deadline - clock()),
        check=False,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"workload process exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return Run(
        setup_s=result["ready"] - launched,
        wall_s=result["wall_s"],
        exit_code=result["exit_code"],
        peak_rss_mb=result["maxrss_kb"] / 1024.0,
        blas_threads=result["blas_threads"],
        csv=out.read_bytes() if out.exists() else b"",
        trace=result.get("trace"),
    )


def gate(run: Run, name: str, seed: int, trials: int) -> int:
    """Failed rows of one run; a nonzero exit fails every expected row."""
    workload = WORKLOADS[name]
    if run.exit_code != 0:
        return len(workload.schemes) * len(workload.values)
    text = run.csv.decode("utf-8", errors="replace")
    return len(check_csv(text, workload, seed, trials, reference_csv(name, seed, trials)))


def calibration_s() -> float:
    """Seconds one pass of the benchmark's fixed reference kernel takes.

    The kernel does the program's kinds of work on fixed data: channel-sized
    complex tensors built and contracted as in ``gen_channels`` and
    ``sum_rate``, a 64 x 64 Hermitian eigendecomposition as in
    ``design_mccm``, and a Python loop of small array operations. It never
    changes, so its time tracks only the speed of the host, which on a shared
    machine drifts by tens of percent within minutes.
    """
    rng = np.random.default_rng(0)
    base = rng.standard_normal((128, 64, 64)) + 1j * rng.standard_normal((128, 64, 64))
    rows = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
    cov = rows.conj().T @ rows
    start = clock()
    for i in range(40):
        tensor = np.exp(-2j * np.pi * i * np.arange(128) / 128)[:, None, None] * base
        eff = np.einsum("km,m,kmn->kn", rows, np.exp(1j * rows[i].real), tensor)
        np.linalg.eigh(cov)
        for k in range(128):
            np.linalg.norm(rows[k] * eff[k])
    return clock() - start


def end_to_end_metrics(
    runs: list[Run], calibrations: list[float], workload: Workload, trials: int, failed: int, attempted: int
) -> dict:
    points = trials * len(workload.values)
    values = {
        # Trial-points per calibration-kernel duration: host speed cancels.
        "trials_per_cal": statistics.median(points / r.wall_s for r in runs) * statistics.median(calibrations),
        "setup_s": statistics.median(r.setup_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "rows_ok_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(plain: list[Run], traced: list[Run], workload: Workload) -> dict:
    summaries = [r.trace for r in traced]
    layers = summaries[0]["layers"]
    for other in summaries[1:]:
        for layer, entry in other["layers"].items():
            if entry["calls"] != layers[layer]["calls"]:
                raise BenchmarkError(f"{layer} call count differs between identical runs")
    for layer, entry in layers.items():
        if entry["calls"] == 0 and layer not in workload.idle_layers:
            raise BenchmarkError(f"layer {layer} did no work; its traced entry point is no longer called")

    def median_self(layer: str) -> float:
        return statistics.median(s["layers"][layer]["self_s"] for s in summaries)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = layers[layer]["calls"]
        values[f"{layer}.self_s"] = median_self(layer)
    values["channel.gen_channels.bytes_out"] = layers["channel.gen_channels"]["bytes_out"]
    values["experiments.self_s"] = median_self("experiments")
    values["cli.self_s"] = median_self("cli")
    values["trace.coverage"] = statistics.median(s["coverage"] for s in summaries)
    values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# --- environment -------------------------------------------------------------


def _cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them, read only."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(blas_threads: int | None) -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        git_rev = rev.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "squintsim_threads": "unset (one sweep worker)",
        "caches": _cache_sizes(),
    }


# --- main --------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, trials: int | None = None) -> tuple[dict, dict]:
    """Run one workload for ``seconds``; return (result line, sample record)."""
    workload = WORKLOADS[name]
    trials = workload.trials if trials is None else trials
    if not (SRC / "squintsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no squintsim sources under {SRC}")
    started = clock()
    deadline = started + TIME_LIMIT_S
    plain: list[Run] = []
    traced: list[Run] = []
    calibrations: list[float] = []
    if not trace:
        calibration_s()  # warm-up: first-call costs are not host speed
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        rounds = 0
        # Stop before a round that would end after ``seconds``; run at least one.
        while rounds == 0 or (clock() - started) * (rounds + 1) / rounds <= seconds:
            rounds += 1
            # Traced runs alternate which side goes first so drift hits both equally.
            sides = [False] if not trace else [False, True] if rounds % 2 else [True, False]
            if not trace:
                calibrations.append(calibration_s())
            for traced_side in sides:
                stem = workdir / f"run-{len(plain) + len(traced)}"
                run = run_once(workload, seed, trials, traced_side, stem, deadline)
                (traced if traced_side else plain).append(run)

    runs = plain + traced
    nproc = len(os.sched_getaffinity(0))
    blas_threads = runs[0].blas_threads
    if blas_threads is not None and blas_threads > nproc:
        raise BenchmarkError(f"BLAS runs {blas_threads} threads on {nproc} processors")
    expected = len(workload.schemes) * len(workload.values)
    attempted = expected * len(runs)
    failed = sum(gate(run, name, seed, trials) for run in runs)
    # The CSV is a pure function of (configuration, seed): every run of this
    # invocation, traced or not, must write the same bytes.
    correct = failed == 0 and all(run.csv == runs[0].csv for run in runs)
    if trace:
        metrics = per_layer_metrics(plain, traced, workload)
    else:
        metrics = end_to_end_metrics(plain, calibrations, workload, trials, failed, attempted)
    samples = {
        "workload": name,
        "seed": seed,
        "trials": trials,
        "argv": cli_args(workload, seed, trials, Path("OUT.csv")),
        "runs": len(runs),
        "wall_s": [r.wall_s for r in plain],
        "trials_per_s": [trials * len(workload.values) / r.wall_s for r in plain],
        "calibration_s": calibrations,
        "traced_wall_s": [r.wall_s for r in traced],
        "setup_s": [r.setup_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "environment": environment(blas_threads),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
