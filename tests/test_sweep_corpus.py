"""Recorded custom sweeps: each CSV must come out of the CLI byte for byte.

Every file in ``tests/data/sweeps`` is one row of ``SWEEPS``, recorded in a
fresh process at one BLAS thread with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m squintsim.cli sweep \\
        <flags> --out tests/data/sweeps/<name>.csv

where ``<flags>`` is the row's full ``sweep`` argument list. The rows cover
what the preset goldens do not: surface sizes out of order and not multiples
of 16, a prime subcarrier count on both scenarios, unit gains, a widest build
of 20 paths at M = 512, ``mccm`` at full width on an SNR sweep, and draws whose
mean covariance has a repeated top eigenvalue.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import squintsim

SWEEP_DIR = Path(__file__).parent / "data" / "sweeps"

_NLOS_ELEMENTS = "--scenario nlos --var ris_elements"

#: File name -> the ``sweep`` flags that write it, all but ``--out``.
SWEEPS = {
    "nlos-elements-unordered": f"{_NLOS_ELEMENTS} --values 16,4,37,8,1,64 --trials 4 --seed 3",
    "nlos-elements-k131": f"{_NLOS_ELEMENTS} --values 37,17,100 --subcarriers 131 --trials 4 --seed 4",
    # 20 paths at M = 512, the widest build; the name is kept so the recorded file keeps its id.
    "nlos-elements-two-chunks": f"{_NLOS_ELEMENTS} --values 512,64,100 --paths 20 --trials 2 --seed 1",
    # Trial 6 has an 8-fold top eigenvalue of the mean covariance at M = 255 and 256.
    "nlos-elements-degenerate": f"{_NLOS_ELEMENTS} --values 255,256 --bandwidth-hz 8e9 --trials 7 --seed 21",
    "los-elements-k131-unit": (
        "--scenario los --var ris_elements --values 16,4,37,8,1,64 --subcarriers 131 --gain-mode unit "
        "--trials 4 --seed 1"
    ),
    # One mccm design per trial, on all M = 256 elements.
    "nlos-snr-k131-m256": "--scenario nlos --subcarriers 131 --ris-elements 256 --trials 4 --seed 1",
}


def run_sweep(name: str, threads: int, tmp_path: Path) -> bytes:
    """The CSV of sweep ``name``, written by a child process at ``threads`` BLAS threads."""
    src = str(Path(squintsim.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / f"{name}-threads{threads}.csv"
    argv = ["sweep", *SWEEPS[name].split(), "--out", str(out)]
    cmd = [sys.executable, "-m", "squintsim.cli", *argv]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=300)
    return out.read_bytes()


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_its_recorded_csv(name, tmp_path):
    assert run_sweep(name, 1, tmp_path) == (SWEEP_DIR / f"{name}.csv").read_bytes()


def test_every_recorded_csv_has_a_sweep():
    assert sorted(path.stem for path in SWEEP_DIR.glob("*.csv")) == sorted(SWEEPS)


@pytest.mark.parametrize(
    "name",
    [
        "nlos-elements-unordered",
        "nlos-elements-k131",
        "nlos-elements-two-chunks",
        "los-elements-k131-unit",
        "nlos-snr-k131-m256",
        pytest.param(
            "nlos-elements-degenerate",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 3: on a repeated top eigenvalue, eigh's vector at M = 256 "
                "depends on the BLAS thread count, and so do the mccm rows",
            ),
        ),
    ],
)
def test_sweep_bytes_do_not_depend_on_blas_threads(name, tmp_path):
    assert run_sweep(name, 1, tmp_path) == run_sweep(name, 2, tmp_path)
