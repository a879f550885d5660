"""Seeded Monte Carlo sweeps comparing the phase-design schemes.

Every trial derives its own random substream from (seed, trial index, stream
id). The sweep loop is trial-major: each trial draws its paths once, builds
one channel per sweep point that needs its own (consecutive SNR points share
one), designs every scheme's profile on it once, and evaluates every SNR of
that point from one per-subcarrier power vector per scheme, since neither the
profiles nor the powers depend on the SNR. So all schemes and sweep points of
a trial see the same paths (common random numbers), and a result is a pure
function of (configuration, seed).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channel import LOS, NLOS, FrequencyGrid, _is_count, _is_real, build_frequency_grid, gen_channels, sample_path_set
from .phase_design import (
    PhaseProfile,
    design_central,
    design_indexed,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
)
from .rate_eval import ideal_rate, sum_rate

LOS_SCHEMES = ("ideal", "central", "random", "random-index", "side-index")
NLOS_SCHEMES = ("ideal", "mccm", "central", "random", "random-index", "side-index")
ALL_SCHEMES = NLOS_SCHEMES

#: Default grid of every sweep variable; each brackets the operating points
#: discussed in the scheme comparisons (500 MHz and 2 GHz bandwidth, 10 dB SNR,
#: 64 elements).
SWEEP_GRIDS = {
    "snr_db": (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    "bandwidth_hz": (0.25e9, 0.5e9, 1e9, 2e9, 4e9),
    "ris_elements": (16, 32, 64, 128, 256),
}
SWEEP_VARIABLES = tuple(SWEEP_GRIDS)

#: Largest num_subcarriers * num_ris_elements a config may ask for: one complex
#: (K, M) channel table then takes 256 MiB. A channel point holds three of them,
#: ``a_ris``, ``h_ris_user`` and ``cascade``, and ``gen_channels`` holds the
#: (L, K, M) user stack on top while it sums the paths.
MAX_TABLE_ENTRIES = 1 << 24

_CHANNEL_STREAM = 0
_PHASE_STREAM = 1
_INDEX_STREAM = 2


def _snr_linear(snr_db):
    """Linear SNR of a dB value, with unit noise power."""
    return 10.0 ** (snr_db / 10.0)


def _has_linear_snr(snr_db) -> bool:
    """Whether the sweep's own conversion, :func:`_snr_linear`, gives a finite positive SNR."""
    try:
        snr = _snr_linear(snr_db)
    except (OverflowError, ValueError):
        return False
    return 0 < snr < math.inf


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters; the defaults are the standard operating point
    (28 GHz carrier, 2 GHz bandwidth, 128 subcarriers, 64 BS antennas, 64
    surface elements, 5 user-side paths in the nlos scenario)."""

    scenario: str = LOS
    carrier_hz: float = 28e9
    bandwidth_hz: float = 2e9
    num_subcarriers: int = 128
    num_bs_antennas: int = 64
    num_ris_elements: int = 64
    num_paths: int = 5
    snr_db: float = 10.0
    trials: int = 500
    seed: int = 0
    gain_mode: str = "random"

    def __post_init__(self) -> None:
        # Comparisons with NaN are false, so NaN fails every numeric rule, and a
        # float field that is no number is checked as NaN.
        carrier, bandwidth, snr_db = (
            v if _is_real(v) else math.nan for v in (self.carrier_hz, self.bandwidth_hz, self.snr_db)
        )
        default_paths = ScenarioConfig.num_paths
        rules = {
            "scenario": (self.scenario in (LOS, NLOS), f"{LOS!r} or {NLOS!r}"),
            "carrier_hz": (0 < carrier < math.inf, "finite and positive"),
            "bandwidth_hz": (0 <= bandwidth < 2 * carrier, "in [0, 2*carrier_hz)"),
            "num_subcarriers": (_is_count(self.num_subcarriers), "an integer >= 1"),
            "num_bs_antennas": (_is_count(self.num_bs_antennas), "an integer >= 1"),
            "num_ris_elements": (
                _is_count(self.num_ris_elements) and _is_count(self.num_subcarriers)
                and self.num_subcarriers * self.num_ris_elements <= MAX_TABLE_ENTRIES,
                f"an integer >= 1 with num_subcarriers * num_ris_elements <= {MAX_TABLE_ENTRIES}",
            ),
            # A los link has one path; the field default passes too, as the CLI always sends it.
            "num_paths": (
                _is_count(self.num_paths) and (self.scenario != LOS or self.num_paths in (1, default_paths)),
                f"an integer >= 1, and 1 or {default_paths} on los",
            ),
            "snr_db": (_has_linear_snr(snr_db), "a dB value with a finite positive linear SNR"),
            "trials": (_is_count(self.trials), "an integer >= 1"),
            "seed": (
                _is_real(self.seed) and isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 1 << 64,
                "an integer in [0, 2**64)",
            ),
            "gain_mode": (self.gain_mode in ("unit", "random"), "'unit' or 'random'"),
        }
        for name, (ok, expected) in rules.items():
            if not ok:
                raise ValueError(f"{name} must be {expected}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class SweepRow:
    scenario: str
    scheme: str
    sweep_variable: str
    sweep_value: float
    mean_rate_bits: float
    std_error_bits: float
    trials: int
    seed: int


def _substream(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, int(trial), int(stream)])


def schemes_for(scenario: str) -> tuple[str, ...]:
    return LOS_SCHEMES if scenario == LOS else NLOS_SCHEMES


def central_subcarrier_index(grid: FrequencyGrid) -> int:
    """Index of the subcarrier closest to the carrier (ties take the lower one)."""
    return int(np.argmin(np.abs(grid.frequencies - grid.carrier_hz)))


def check_scheme(scheme: str, scenario: str) -> None:
    if scheme not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known schemes: {', '.join(ALL_SCHEMES)}")
    if scheme not in schemes_for(scenario):
        raise ValueError(f"scheme {scheme!r} is not available in the {scenario!r} scenario")


def _common_profile(
    cfg: ScenarioConfig,
    grid: FrequencyGrid,
    channels,
    scheme: str,
    trial: int,
) -> PhaseProfile:
    paths = channels.source_paths
    m_ris = cfg.num_ris_elements
    if scheme == "random":
        return design_random(_substream(cfg.seed, trial, _PHASE_STREAM), m_ris)
    if scheme == "mccm":
        return design_mccm(channels)
    if scheme == "central":
        if cfg.scenario == LOS:
            return design_central(paths, m_ris)
        return design_subcarrier_covariance(channels, central_subcarrier_index(grid))
    if scheme == "random-index":
        k = int(_substream(cfg.seed, trial, _INDEX_STREAM).integers(grid.num_subcarriers))
    elif scheme == "side-index":
        k = 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if cfg.scenario == LOS:
        return design_indexed(paths, grid, m_ris, k)
    return design_subcarrier_covariance(channels, k)


def _point_rates(point: ScenarioConfig, grid: FrequencyGrid, snrs, paths, schemes, trial: int) -> np.ndarray:
    """Rates of one trial at one channel point, shape (len(snrs), len(schemes)).

    Every SNR of a scheme is evaluated from one power vector. A function of
    its own so that each channel is freed before the next point's is built.
    """
    channels = gen_channels(paths, grid, point.num_bs_antennas, point.num_ris_elements)
    rates = np.empty((len(snrs), len(schemes)))
    for s, scheme in enumerate(schemes):
        if scheme == "ideal":
            rates[:, s] = ideal_rate(channels, snrs)
        else:
            profile = _common_profile(point, grid, channels, scheme, trial)
            rates[:, s] = sum_rate(channels, profile, snrs)
    return rates


def per_trial_rates(config: ScenarioConfig, schemes, sweep_variable: str = "snr_db", values=None) -> np.ndarray:
    """Mean rate of every (sweep value, scheme, trial), shape (len(values), len(schemes), trials).

    ``values=None`` evaluates the config's own point alone. Every value is
    validated before the first trial. Trials run in ascending order; each
    draws its paths from a substream of (seed, trial) only, so every scheme
    and sweep value is evaluated on the same paths.
    """
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("need at least one scheme")
    for scheme in schemes:
        check_scheme(scheme, config.scenario)
    points = (config,) if values is None else sweep_points(config, sweep_variable, values)
    # Consecutive points that differ only in SNR share one channel.
    channel_points = []
    for point, group in itertools.groupby(points, key=lambda p: replace(p, snr_db=config.snr_db)):
        grid = build_frequency_grid(point.carrier_hz, point.bandwidth_hz, point.num_subcarriers)
        channel_points.append((point, grid, np.array([_snr_linear(p.snr_db) for p in group])))
    num_paths = 1 if config.scenario == LOS else config.num_paths
    rates = np.empty((len(points), len(schemes), config.trials))
    for trial in range(config.trials):
        rng = _substream(config.seed, trial, _CHANNEL_STREAM)
        paths = sample_path_set(rng, config.scenario, num_paths, gain_mode=config.gain_mode)
        rates[:, :, trial] = np.concatenate(
            [_point_rates(point, grid, snrs, paths, schemes, trial) for point, grid, snrs in channel_points]
        )
    return rates


def sweep_points(config: ScenarioConfig, sweep_variable: str, values) -> tuple[ScenarioConfig, ...]:
    """The config of every sweep point; raises ValueError on any bad value."""
    if len(values) == 0:
        raise ValueError("need at least one sweep value")
    if sweep_variable not in SWEEP_GRIDS:
        raise ValueError(f"unknown sweep variable {sweep_variable!r}; known: {', '.join(SWEEP_VARIABLES)}")
    points = []
    for value in values:
        if sweep_variable == "ris_elements":
            if not float(value).is_integer():
                raise ValueError(f"ris_elements must be an integer, got {value}")
            points.append(replace(config, num_ris_elements=int(value)))
        else:
            points.append(replace(config, **{sweep_variable: float(value)}))
    return tuple(points)


@np.errstate(over="ignore", invalid="ignore")
def run_sweep(config: ScenarioConfig, schemes, sweep_variable: str, values) -> tuple[SweepRow, ...]:
    """Evaluate the full cross product of schemes and sweep values, one row each.

    Rows are ordered value-major, scheme-minor, and every scheme at a given
    value sees the same channel realizations. Every value is validated before
    the first trial runs, and all values are evaluated on one pass over the
    trials. Raises FloatingPointError if any mean or standard error is not
    finite; numpy's overflow and invalid-value warnings are silenced, since
    that error names the scheme and value.
    """
    schemes = tuple(schemes)
    values = tuple(values)
    rates = per_trial_rates(config, schemes, sweep_variable, values)

    rows = []
    for value, point_rates in zip(values, rates):
        for scheme, trial_rates in zip(schemes, point_rates):
            mean = float(np.mean(trial_rates))
            if len(trial_rates) > 1:
                std_error = float(np.std(trial_rates, ddof=1) / np.sqrt(len(trial_rates)))
            else:
                std_error = 0.0
            if not (math.isfinite(mean) and math.isfinite(std_error)):
                raise FloatingPointError(
                    f"scheme {scheme!r} at {sweep_variable}={value:g} has a non-finite result: "
                    f"mean {mean}, standard error {std_error}"
                )
            rows.append(
                SweepRow(
                    scenario=config.scenario,
                    scheme=scheme,
                    sweep_variable=sweep_variable,
                    sweep_value=float(value),
                    mean_rate_bits=mean,
                    std_error_bits=std_error,
                    trials=config.trials,
                    seed=config.seed,
                )
            )
    return tuple(rows)


def figure_sweep(fig_id: int, trials: int, seed: int, gain_mode: str = "random") -> tuple:
    """Arguments of :func:`run_sweep` for one of the five preset comparisons.

    2: single-path rate vs SNR; 3: vs bandwidth at 10 dB; 4: vs surface size
    at 10 dB; 5: multipath (5 paths) rate vs SNR; 6: multipath vs bandwidth
    at 10 dB.
    """
    los = ScenarioConfig(trials=trials, seed=seed, gain_mode=gain_mode)
    nlos = replace(los, scenario=NLOS)
    presets = {
        2: (los, LOS_SCHEMES, "snr_db"),
        3: (los, LOS_SCHEMES, "bandwidth_hz"),
        4: (los, LOS_SCHEMES, "ris_elements"),
        5: (nlos, NLOS_SCHEMES, "snr_db"),
        6: (nlos, NLOS_SCHEMES, "bandwidth_hz"),
    }
    if fig_id not in presets:
        raise ValueError(f"unknown figure id {fig_id}; expected 2..6")
    config, schemes, variable = presets[fig_id]
    return config, schemes, variable, SWEEP_GRIDS[variable]
