"""Seeded Monte Carlo sweeps comparing the phase-design schemes.

Every trial derives its own random substreams from (seed, trial index, stream
id). The sweep loop is trial-major: each trial draws its paths once, and its
``random`` phases and ``random-index`` subcarrier once for all sweep points.
It builds one channel per sweep point that needs its own (consecutive SNR
points share one), designs every scheme's profile on it once, and rates every
SNR of that point with one ``ideal_rate`` call and one stacked ``sum_rate``
call for the other schemes, from one power vector per profile, since neither
the profiles nor the powers depend on the SNR. So all schemes and sweep
points of a trial see the same paths (common random numbers), and a result is
a pure function of (configuration, seed).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channel import FrequencyGrid, _is_count, _is_real, build_frequency_grid, gen_channels, sample_path_set
from .phase_design import (
    PhaseProfile,
    design_central,
    design_indexed,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
)
from .rate_eval import ideal_rate, sum_rate

#: The two scenarios; they differ only in the user-side path count, which is
#: NLOS_PATHS on an nlos config that names none.
LOS = "los"
NLOS = "nlos"
NLOS_PATHS = 5

#: Every scheme, in CSV row order, with the scenarios that offer it.
SCHEMES = {
    "ideal": (LOS, NLOS),
    "mccm": (NLOS,),
    "central": (LOS, NLOS),
    "random": (LOS, NLOS),
    "random-index": (LOS, NLOS),
    "side-index": (LOS, NLOS),
}

#: Default grid of every sweep variable; each brackets the operating points
#: discussed in the scheme comparisons (500 MHz and 2 GHz bandwidth, 10 dB SNR,
#: 64 elements).
SWEEP_GRIDS = {
    "snr_db": (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
    "bandwidth_hz": (0.25e9, 0.5e9, 1e9, 2e9, 4e9),
    "ris_elements": (16, 32, 64, 128, 256),
}
SWEEP_VARIABLES = tuple(SWEEP_GRIDS)

#: Preset comparisons, figure id -> (scenario, sweep variable); each runs every
#: scheme of its scenario over the variable's default grid, at 10 dB off the SNR axis.
FIGURES = {
    2: (LOS, "snr_db"),
    3: (LOS, "bandwidth_hz"),
    4: (LOS, "ris_elements"),
    5: (NLOS, "snr_db"),
    6: (NLOS, "bandwidth_hz"),
}

#: Largest num_subcarriers * num_ris_elements a config may ask for: one complex
#: (K, M) channel table then takes 256 MiB. A channel point holds two of them,
#: ``h_ris_user`` and ``cascade``. While it is built, the (L, K, M) user stack
#: and the surface steering table it multiplies into ``cascade`` sit on top.
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


class ConfigError(ValueError):
    """A :class:`ScenarioConfig` value that breaks its field's rule; ``field`` names the field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters; the defaults are the standard operating point
    (28 GHz carrier, 2 GHz bandwidth, 128 subcarriers, 64 BS antennas, 64
    surface elements). Los takes exactly one user-side path; ``num_paths=None``
    sets the count at construction, to 1 on los and ``NLOS_PATHS`` on nlos, so
    ``dataclasses.replace(cfg, scenario=...)`` keeps it."""

    scenario: str = LOS
    carrier_hz: float = 28e9
    bandwidth_hz: float = 2e9
    num_subcarriers: int = 128
    num_bs_antennas: int = 64
    num_ris_elements: int = 64
    num_paths: int | None = None
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
        if self.num_paths is None:
            object.__setattr__(self, "num_paths", 1 if self.scenario == LOS else NLOS_PATHS)
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
            "num_paths": (
                _is_count(self.num_paths) and (self.scenario != LOS or self.num_paths == 1),
                "an integer >= 1, and 1 on los",
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
                raise ConfigError(name, f"{name} must be {expected}, got {getattr(self, name)!r}")


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
    """The schemes a scenario offers, in CSV row order."""
    return tuple(scheme for scheme, scenarios in SCHEMES.items() if scenario in scenarios)


def central_subcarrier_index(grid: FrequencyGrid) -> int:
    """Index of the subcarrier closest to the carrier (ties take the lower one)."""
    return int(np.argmin(np.abs(grid.frequencies - grid.carrier_hz)))


def check_schemes(schemes: tuple[str, ...], scenario: str) -> None:
    """Raise ValueError unless ``schemes`` is a non-empty list of distinct schemes the scenario offers."""
    if not schemes:
        raise ValueError("need at least one scheme")
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; known schemes: {', '.join(SCHEMES)}")
        if scenario not in SCHEMES[scheme]:
            raise ValueError(f"scheme {scheme!r} is not available in the {scenario!r} scenario")
        if scheme in schemes[:i]:
            raise ValueError(f"scheme {scheme!r} is named twice")


def _trial_draws(config: ScenarioConfig, schemes, trial: int, num_ris_elements: int) -> tuple:
    """The trial's scheme-side draws, made once for all of its sweep points.

    Returns the ``random`` phases at ``num_ris_elements``, the sweep's largest
    M (a point with fewer elements takes a prefix: ``Generator.uniform`` fills
    in order, so the prefix is the draw at that size), and the ``random-index``
    subcarrier, since K is the same at every point. Either is None when its
    scheme is not asked for, and its substream is not built.
    """
    phases = index = None
    if "random" in schemes:
        phases = design_random(_substream(config.seed, trial, _PHASE_STREAM), num_ris_elements).phases_rad
    if "random-index" in schemes:
        index = int(_substream(config.seed, trial, _INDEX_STREAM).integers(config.num_subcarriers))
    return phases, index


def _common_profile(cfg: ScenarioConfig, grid: FrequencyGrid, channels, scheme: str, draws: tuple) -> PhaseProfile:
    """The profile of a scheme other than ``ideal``, common to all subcarriers."""
    paths = channels.source_paths
    m_ris = cfg.num_ris_elements
    random_phases, random_index = draws
    if scheme == "random":
        return PhaseProfile(random_phases[:m_ris])
    if scheme == "mccm":
        return design_mccm(channels)
    if scheme == "central" and cfg.scenario == LOS:
        return design_central(paths, m_ris)
    if scheme == "central":
        k = central_subcarrier_index(grid)
    elif scheme == "random-index":
        k = random_index
    else:
        k = 0
    if cfg.scenario == LOS:
        return design_indexed(paths, grid, m_ris, k)
    return design_subcarrier_covariance(channels, k)


def _point_rates(point: ScenarioConfig, grid: FrequencyGrid, snrs, paths, schemes, draws: tuple) -> np.ndarray:
    """Rates of one trial at one channel point, shape (len(snrs), len(schemes)).

    ``ideal`` takes one ``ideal_rate`` call and every other scheme shares one
    stacked ``sum_rate`` call, which evaluates all SNRs from one power vector
    per profile. A function of its own so that each channel is freed before
    the next point's is built.
    """
    channels = gen_channels(paths, grid, point.num_bs_antennas, point.num_ris_elements)
    rates = np.empty((len(snrs), len(schemes)))
    if "ideal" in schemes:
        rates[:, schemes.index("ideal")] = ideal_rate(channels, snrs)
    common = [s for s, scheme in enumerate(schemes) if scheme != "ideal"]
    if common:
        profiles = [_common_profile(point, grid, channels, schemes[s], draws) for s in common]
        rates[:, common] = sum_rate(channels, profiles, snrs)
    return rates


def per_trial_rates(config: ScenarioConfig, schemes, sweep_variable: str = "snr_db", values=None) -> np.ndarray:
    """Mean rate of every (sweep value, scheme, trial), shape (len(values), len(schemes), trials).

    ``values=None`` evaluates the config's own point alone. Every value is
    validated before the first trial. Trials run in ascending order; each
    draws its paths from a substream of (seed, trial) only, so every scheme
    and sweep value is evaluated on the same paths, and makes its scheme-side
    draws once for all sweep values.
    """
    schemes = tuple(schemes)
    check_schemes(schemes, config.scenario)
    points = (config,) if values is None else sweep_points(config, sweep_variable, values)
    # Consecutive points that differ only in SNR share one channel.
    channel_points = []
    for point, group in itertools.groupby(points, key=lambda p: replace(p, snr_db=config.snr_db)):
        grid = build_frequency_grid(point.carrier_hz, point.bandwidth_hz, point.num_subcarriers)
        channel_points.append((point, grid, np.array([_snr_linear(p.snr_db) for p in group])))
    m_max = max(point.num_ris_elements for point in points)
    rates = np.empty((len(points), len(schemes), config.trials))
    for trial in range(config.trials):
        rng = _substream(config.seed, trial, _CHANNEL_STREAM)
        paths = sample_path_set(rng, config.num_paths, gain_mode=config.gain_mode)
        draws = _trial_draws(config, schemes, trial, m_max)
        rates[:, :, trial] = np.concatenate(
            [_point_rates(point, grid, snrs, paths, schemes, draws) for point, grid, snrs in channel_points]
        )
    return rates


def sweep_points(config: ScenarioConfig, sweep_variable: str, values) -> tuple[ScenarioConfig, ...]:
    """The config of every sweep point; raises ValueError on any bad value."""
    if len(values) == 0:
        raise ValueError("need at least one sweep value")
    if sweep_variable not in SWEEP_GRIDS:
        raise ValueError(f"unknown sweep variable {sweep_variable!r}; known: {', '.join(SWEEP_VARIABLES)}")
    points = []
    for i, value in enumerate(values):
        if float(value) in map(float, values[:i]):
            raise ValueError(f"{sweep_variable} value {value:g} is named twice")
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
    """Arguments of :func:`run_sweep` for the preset comparison ``FIGURES[fig_id]``."""
    if fig_id not in FIGURES:
        raise ValueError(f"unknown figure id {fig_id}; known: {', '.join(map(str, FIGURES))}")
    scenario, variable = FIGURES[fig_id]
    config = ScenarioConfig(scenario=scenario, trials=trials, seed=seed, gain_mode=gain_mode)
    return config, schemes_for(scenario), variable, SWEEP_GRIDS[variable]
