"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import time
from dataclasses import replace

import numpy as np

from squintsim.channel import FrequencyGrid, gen_channels, sample_path_set
from squintsim.cli import main
from squintsim.experiments import LOS, NLOS, ScenarioConfig, per_trial_rates
from squintsim.phase_design import (
    design_central,
    design_ideal,
    design_mccm,
    design_random,
)
from squintsim.rate_eval import ideal_rate, sum_rate

from reference import (
    BS_DEPARTURES,
    effective_channel,
    h_bs_ris,
    rate_upper_bound,
    spatial_angle,
    subcarrier_rate,
    user_rows,
    z_factor,
)

SNR_10DB = 10.0

N_BS = 64
M_RIS = 64
K_SUB = 128
DEFAULT_GRID = FrequencyGrid(28e9, 2e9, K_SUB)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def paired_gap(a, b):
    """Mean paired difference and three paired standard errors."""
    d = np.asarray(a) - np.asarray(b)
    return float(d.mean()), float(3.0 * d.std(ddof=1) / np.sqrt(len(d)))


def test_criterion_1_per_subcarrier_optimality_is_exact():
    started = time.monotonic()
    worst_z = 0.0
    worst_rate = 0.0
    expected = np.log2(1.0 + 10.0 * N_BS * M_RIS**2)
    for i in range(1000):
        rng = np.random.default_rng([1, i])
        paths = sample_path_set(rng, 1, gain_mode="unit")
        k = int(rng.integers(K_SUB))
        profile = design_ideal(paths, DEFAULT_GRID, M_RIS, k)
        z = z_factor(paths, profile, DEFAULT_GRID, M_RIS, k)
        worst_z = max(worst_z, abs(abs(z) - M_RIS))
        channels = gen_channels(paths, DEFAULT_GRID, N_BS, M_RIS)
        row = user_rows(channels)[k]
        for aod, delay in BS_DEPARTURES:
            eff = effective_channel(row, profile, h_bs_ris(channels, aod, delay, k))
            rate = subcarrier_rate(eff, SNR_10DB)
            worst_rate = max(worst_rate, abs(rate - expected) / expected)
    elapsed = time.monotonic() - started
    ok = worst_z < 1e-9 and worst_rate < 1e-9 and elapsed < 10.0
    report(
        1,
        ok,
        f"max | |z|-M | = {worst_z:.2e} (<1e-9), max rate rel err = {worst_rate:.2e} (<1e-9), "
        f"runtime {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_jensen_bound_never_violated():
    worst = -np.inf
    for i in range(1000):
        rng = np.random.default_rng([2, i])
        paths = sample_path_set(rng, 1, gain_mode="unit")
        channels = gen_channels(paths, DEFAULT_GRID, N_BS, M_RIS)
        profile = design_random(rng, M_RIS)
        mean_rate = sum_rate(channels, profile, SNR_10DB)
        bound = rate_upper_bound(paths, profile, DEFAULT_GRID, M_RIS, N_BS, SNR_10DB)
        worst = max(worst, mean_rate - bound)
    ok = worst <= 1e-12
    report(2, ok, f"max (mean rate - upper bound) = {worst:.2e} over 1000 instances (<=1e-12)")


def test_criterion_3_degenerate_collapse():
    worst_central = 0.0
    for i in range(20):
        rng = np.random.default_rng([3, i])
        paths = sample_path_set(rng, 1)
        for grid in (FrequencyGrid(28e9, 2e9, 1), FrequencyGrid(28e9, 0.0, 16)):
            channels = gen_channels(paths, grid, 8, 16)
            central = sum_rate(channels, design_central(paths, 16), SNR_10DB)
            ideal = ideal_rate(channels, SNR_10DB)
            worst_central = max(worst_central, abs(central - ideal) / ideal)

    worst_mccm = 0.0
    single = FrequencyGrid(28e9, 2e9, 1)
    for i in range(20):
        rng = np.random.default_rng([30, i])
        paths = sample_path_set(rng, 1, gain_mode="unit")
        channels = gen_channels(paths, single, 8, 16)
        mccm = sum_rate(channels, design_mccm(channels), SNR_10DB)
        ideal = sum_rate(channels, design_ideal(paths, single, 16, 0), SNR_10DB)
        worst_mccm = max(worst_mccm, abs(mccm - ideal) / ideal)

    ok = worst_central < 1e-9 and worst_mccm < 1e-6
    report(
        3,
        ok,
        f"central vs ideal rel err = {worst_central:.2e} (<1e-9), "
        f"mccm vs ideal rel err = {worst_mccm:.2e} (<1e-6)",
    )


def test_criterion_4_exhaustive_quantized_search():
    started = time.monotonic()
    levels = 16
    step = 2.0 * np.pi / levels
    worst_excess = -np.inf
    worst_defect = -np.inf
    grid = FrequencyGrid(28e9, 2e9, 1)
    for m_ris in (2, 3, 4):
        # All level combinations of the quantized profile, shape (m, levels**m).
        combos = np.indices((levels,) * m_ris).reshape(m_ris, -1)
        quantized = np.exp(1j * step * combos)
        bound = m_ris * (1.0 - np.cos(np.pi / levels))
        for i in range(100):
            rng = np.random.default_rng([4, m_ris, i])
            paths = sample_path_set(rng, 1, gain_mode="unit")
            phi_bs = spatial_angle(grid.frequencies[0], paths.bs_ris_aoa_rad, grid.carrier_hz)
            phi_user = spatial_angle(grid.frequencies[0], paths.ru_angles_rad[0], grid.carrier_hz)
            psi = 2.0 * np.pi * np.arange(m_ris) * (phi_bs - phi_user)
            peak = float(np.abs((np.exp(1j * psi)[:, None] * quantized).sum(axis=0)).max())
            profile = design_ideal(paths, grid, m_ris, 0)
            designed = abs(z_factor(paths, profile, grid, m_ris, 0))
            worst_excess = max(worst_excess, peak - designed - bound)
            worst_defect = max(worst_defect, designed - peak - bound)
    elapsed = time.monotonic() - started
    ok = worst_excess <= 1e-9 and worst_defect <= 1e-9 and elapsed < 60.0
    report(
        4,
        ok,
        f"quantized peak never beats designed |z| by more than the bound "
        f"(worst margins {worst_excess:.2e}, {worst_defect:.2e}), runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_single_path_scheme_ordering():
    cfg = ScenarioConfig(scenario=LOS, trials=200, seed=5)
    schemes = ("ideal", "central", "random", "random-index", "side-index")
    rates = dict(zip(schemes, per_trial_rates(cfg, schemes)[0]))
    checks = [
        ("ideal > central", *paired_gap(rates["ideal"], rates["central"])),
        ("central > random-index", *paired_gap(rates["central"], rates["random-index"])),
        ("central > side-index", *paired_gap(rates["central"], rates["side-index"])),
        ("random-index > random", *paired_gap(rates["random-index"], rates["random"])),
        ("side-index > random", *paired_gap(rates["side-index"], rates["random"])),
    ]
    ok = all(gap > s3 for _, gap, s3 in checks)
    detail = ", ".join(f"{name}: {gap:.3f} (3se {s3:.3f})" for name, gap, s3 in checks)
    report(5, ok, detail)


def test_criterion_6_multipath_scheme_ordering():
    cfg = ScenarioConfig(scenario=NLOS, trials=200, seed=6)
    mccm, *others = per_trial_rates(cfg, ("mccm", "central", "random-index", "side-index"))[0]
    checks = []
    for scheme, rates in zip(("central", "random-index", "side-index"), others):
        gap, s3 = paired_gap(mccm, rates)
        checks.append((f"mccm > {scheme}", gap, s3))
    ok = all(gap > s3 for _, gap, s3 in checks)
    detail = ", ".join(f"{name}: {gap:.3f} (3se {s3:.3f})" for name, gap, s3 in checks)
    report(6, ok, detail)


def test_criterion_7_beam_squint_severity_and_trends():
    cfg = ScenarioConfig(scenario=LOS, trials=200, seed=7, gain_mode="unit")

    def gap_samples(variable, values):
        rates = per_trial_rates(cfg, ("ideal", "central"), variable, values)
        return dict(zip(values, rates[:, 0] - rates[:, 1]))

    bandwidth_gaps = gap_samples("bandwidth_hz", (0.5e9, 1e9, 2e9, 4e9))
    element_gaps = gap_samples("ris_elements", (16, 64, 256))

    wide_band = float(bandwidth_gaps[4e9].mean())  # 4 GHz at 64 elements
    large_surface = float(element_gaps[256].mean())  # 2 GHz at 256 elements
    severe = wide_band > 3.0 or large_surface > 3.0

    def nondecreasing(gaps_by_value):
        values = sorted(gaps_by_value)
        for low, high in zip(values, values[1:]):
            step, s3 = paired_gap(gaps_by_value[high], gaps_by_value[low])
            if step < -s3:
                return False
        return True

    trend_ok = nondecreasing(bandwidth_gaps) and nondecreasing(element_gaps)
    ok = severe and trend_ok
    report(
        7,
        ok,
        f"ideal-central gap at 4 GHz = {wide_band:.2f}, at 256 elements = {large_surface:.2f} "
        f"(at least one > 3 bits/s/Hz), bandwidth trend nondecreasing: {nondecreasing(bandwidth_gaps)}, "
        f"surface-size trend nondecreasing: {nondecreasing(element_gaps)}",
    )


def test_criterion_8_multipath_moderate_bandwidth_deltas():
    cfg = ScenarioConfig(scenario=NLOS, trials=500, seed=8)
    point = replace(cfg, bandwidth_hz=0.5e9)
    ideal, mccm, central = per_trial_rates(point, ("ideal", "mccm", "central"))[0]
    mccm_loss = float((ideal - mccm).mean())
    central_loss = float((ideal - central).mean())
    ok = 0.5 <= mccm_loss <= 1.6 and central_loss > mccm_loss
    report(
        8,
        ok,
        f"ideal-mccm = {mccm_loss:.3f} bits/s/Hz (in [0.5, 1.6]), "
        f"ideal-central = {central_loss:.3f} (> ideal-mccm)",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    started = time.monotonic()
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    base = ["figure", "--id", "2", "--trials", "50", "--seed", "7"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    elapsed = time.monotonic() - started
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and elapsed < 120.0
    report(9, ok, f"two runs byte-identical: {identical}, runtime {elapsed:.1f}s (<120s)")
