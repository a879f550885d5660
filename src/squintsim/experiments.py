"""Seeded Monte Carlo sweeps comparing the phase-design schemes.

Every trial derives its own random substreams from (seed, trial index, stream
id). The sweep loop is trial-major: each trial draws its paths once, and its
``random`` phases and ``random-index`` subcarrier once for all sweep points.
Points that differ only in SNR or surface size share one channel build per
trial, at their largest M, whose first m elements are bit for bit the channel
built at m; a bandwidth sweep builds one per point. A build designs every
profile once, and ``mccm``, whose profile at m is no prefix of a wider one,
once per surface size on the first m elements of that build. It rates every
SNR, size and profile with one ``ideal_rate`` call and one stacked
``sum_rate`` call. So all schemes and sweep points of a trial see the same
paths (common random numbers), and a result is a pure function of
(configuration, seed).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .channel import GAIN_MODES, ConfigError, FrequencyGrid, _check_rules, _grid_rules, _is_count, _is_real, _real
from .channel import gen_channels, sample_path_set
from .phase_design import PhaseProfile, design_central, design_mccm, design_random, design_subcarrier_covariance
# Unused here; benchmarks/child.py traces it under this module.
from .phase_design import design_ideal as design_indexed  # noqa: F401
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
#: (K, M) table then takes 256 MiB; steering tables are filled to exactly M
#: columns, so that holds at any M. A channel point holds one table, ``cascade``,
#: summed from one path table at a time, each with its factor table of
#: (K/C + C) rows of M (C the largest divisor of K not above sqrt(K), so about
#: half a table at most; at a prime K the coarse rows are the table), and the
#: first path's table is the sum itself. So a build peaks below about
#: 16 * 2.5 * K*M bytes whatever L, 2.5 tables or 640 MiB at the cap. Traced
#: peaks at a quarter of the cap, M = 1024, one table of 64 MiB:
#:
#:   K \ L             1      5     20     40
#:   4096            66.1  130.2  130.2  130.2  MiB
#:   4078 = 2*2039   95.9  159.7  159.7  159.7
#:   4093, prime     69.2  133.2  133.2  133.2
#:
#: A surface-size sweep builds once, at its largest M. An ``mccm`` design at
#: size m adds, only while it runs, the (K, m) user rows it forms from the
#: cascade, their conjugate and the (m, m) covariance, which ``check_schemes``
#: bounds by M**2 <= MAX_TABLE_ENTRIES (M <= 4096), one table at most. So an
#: ``mccm`` sweep holds at most four tables, 1 GiB at both caps. Traced peaks
#: of a one-trial ``mccm`` sweep at M = 1024 (the covariance a quarter table),
#: for L of 1, 5 and 20 and K of 4096, 4078 and 4093: 207 to 209 MiB with
#: sizes (1024,) and with (1023, 1024).
MAX_TABLE_ENTRIES = 1 << 24

_CHANNEL_STREAM = 0
_PHASE_STREAM = 1
_INDEX_STREAM = 2


def _snr_linear(snr_db):
    """Linear SNR of a dB value, with unit noise power, worked out in Python floats."""
    return 10.0 ** (float(snr_db) / 10.0)


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
    surface elements). Los takes exactly one user-side path; ``num_paths=None``
    sets the count at construction, to 1 on los and ``NLOS_PATHS`` on nlos, so
    ``dataclasses.replace(cfg, scenario=...)`` keeps it.

    The constructor checks one rule table and raises ConfigError naming the
    first field that fails; the carrier, bandwidth and subcarrier rules are
    the grid's own, from ``channel``, so a config and a ``FrequencyGrid``
    reject a bad grid with one message. A number too large for a float fails
    like one that is no real number, and the K*M and (in ``check_schemes``)
    M**2 caps are formed in Python integers, so numpy counts cannot wrap."""

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
        if self.num_paths is None:
            object.__setattr__(self, "num_paths", 1 if self.scenario == LOS else NLOS_PATHS)
        # The grid's own rules sit after the scenario's, in FrequencyGrid's order.
        _check_rules(self, {
            "scenario": (self.scenario in (LOS, NLOS), f"{LOS!r} or {NLOS!r}"),
            **_grid_rules(self),
            "num_bs_antennas": (_is_count(self.num_bs_antennas), "an integer >= 1"),
            "num_ris_elements": (
                _is_count(self.num_ris_elements) and _is_count(self.num_subcarriers)
                and int(self.num_subcarriers) * int(self.num_ris_elements) <= MAX_TABLE_ENTRIES,
                f"an integer >= 1 with num_subcarriers * num_ris_elements <= {MAX_TABLE_ENTRIES}",
            ),
            "num_paths": (
                _is_count(self.num_paths) and (self.scenario != LOS or self.num_paths == 1),
                "an integer >= 1, and 1 on los",
            ),
            "snr_db": (_has_linear_snr(_real(self.snr_db)), "a dB value with a finite positive linear SNR"),
            "trials": (_is_count(self.trials), "an integer >= 1"),
            "seed": (
                _is_real(self.seed) and isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 1 << 64,
                "an integer in [0, 2**64)",
            ),
            "gain_mode": (self.gain_mode in GAIN_MODES, " or ".join(map(repr, GAIN_MODES))),
        })


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


def _sequence(field: str, items) -> tuple:
    """``items`` as a tuple; a str, which ``tuple`` would split into characters, raises ConfigError naming ``field``."""
    if isinstance(items, (str, bytes)):
        raise ConfigError(field, f"{field} must be a sequence, got the string {items!r}")
    return tuple(items)


def _substream(seed: int, trial: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, int(trial), int(stream)])


def schemes_for(scenario: str) -> tuple[str, ...]:
    """The schemes a scenario offers, in CSV row order."""
    return tuple(scheme for scheme, scenarios in SCHEMES.items() if scenario in scenarios)


def central_subcarrier_index(grid: FrequencyGrid) -> int:
    """Middle index ``(K - 1) // 2``: nearest the carrier on the symmetric grid, the lower of two at even K."""
    return (grid.num_subcarriers - 1) // 2


def check_schemes(schemes: tuple[str, ...], scenario: str, num_ris_elements: int) -> None:
    """Raise ConfigError (field ``schemes``) unless ``schemes`` is a non-empty list of distinct schemes the
    scenario offers, and without ``mccm`` if the sweep's largest M, ``num_ris_elements``, has
    M**2 > ``MAX_TABLE_ENTRIES``."""
    if not schemes:
        raise ConfigError("schemes", "need at least one scheme")
    for i, scheme in enumerate(schemes):
        if scheme not in SCHEMES:
            raise ConfigError("schemes", f"unknown scheme {scheme!r}; known schemes: {', '.join(SCHEMES)}")
        if scenario not in SCHEMES[scheme]:
            raise ConfigError("schemes", f"scheme {scheme!r} is not available in the {scenario!r} scenario")
        if scheme in schemes[:i]:
            raise ConfigError("schemes", f"scheme {scheme!r} is named twice")
        if scheme == "mccm" and int(num_ris_elements) ** 2 > MAX_TABLE_ENTRIES:
            bound = f"M**2 <= MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}"
            message = f"scheme 'mccm' forms an (M, M) covariance and needs {bound}, got M = {num_ris_elements}"
            raise ConfigError("schemes", message)


def _trial_draws(config: ScenarioConfig, schemes, trial: int, num_ris_elements: int) -> tuple:
    """The trial's scheme-side draws, made once for all of its sweep points.

    Returns the ``random`` profile at ``num_ris_elements``, the sweep's largest
    M and so the M of every build (a point with fewer elements is rated on a
    prefix: ``Generator.uniform`` fills in order, so the prefix is the draw at
    that size), and the ``random-index`` subcarrier, since K is the same at
    every point. Either is None when its scheme is not asked for, and its
    substream is not built.
    """
    profile = index = None
    if "random" in schemes:
        profile = design_random(_substream(config.seed, trial, _PHASE_STREAM), num_ris_elements)
    if "random-index" in schemes:
        index = int(_substream(config.seed, trial, _INDEX_STREAM).integers(config.num_subcarriers))
    return profile, index


def _common_profile(scenario: str, channels, scheme: str, draws: tuple) -> PhaseProfile:
    """The profile of a scheme other than ``ideal`` and ``mccm``, common to all subcarriers.

    Every indexed scheme co-phases its subcarrier's cascade row; only the los
    ``central`` profile has a closed form of its own. Each of these profiles
    is prefix-consistent: its first m phases are the profile on the first m
    elements, bit for bit.
    """
    random_profile, random_index = draws
    if scheme == "random":
        return random_profile
    if scheme == "central" and scenario == LOS:
        return design_central(channels.source_paths, channels.num_ris_elements)
    if scheme == "central":
        k = central_subcarrier_index(channels.grid)
    elif scheme == "random-index":
        k = random_index
    else:
        k = 0
    return design_subcarrier_covariance(channels, k)


def _build_rates(out: np.ndarray, config: ScenarioConfig, build: tuple, paths, schemes, draws: tuple) -> None:
    """Fill the (point, scheme) rows ``out`` of every point that shares one channel build.

    ``build`` holds the grid, the linear SNRs, the surface sizes and the rows
    of its points, which differ in SNR or in size, never in both, so the
    (SNR, size) rates in order are the rows in order. The channel is built
    at the largest size. ``mccm`` is designed once per size m on the first m
    elements of that build, and its Z profiles are rated in the same stacked
    ``sum_rate`` call as the shared ones, profile z read at size z. A
    function of its own so that each trial's widest table is freed before
    the next build.
    """
    grid, snrs, sizes, rows = build
    widest = gen_channels(paths, grid, config.num_bs_antennas, max(sizes))
    rates = np.empty((len(snrs), len(sizes), len(schemes)))
    if "ideal" in schemes:
        rates[..., schemes.index("ideal")] = ideal_rate(widest, snrs, sizes)
    shared = [s for s, scheme in enumerate(schemes) if scheme not in ("ideal", "mccm")]
    mccm = [design_mccm(widest, m) for m in sizes] if "mccm" in schemes else []
    profiles = [_common_profile(config.scenario, widest, schemes[s], draws) for s in shared] + mccm
    if profiles:
        table = sum_rate(widest, profiles, snrs, sizes)
        rates[..., shared] = table[..., : len(shared)]
        if mccm:
            rates[..., schemes.index("mccm")] = np.diagonal(table[..., len(shared) :], axis1=1, axis2=2)
    out[rows] = rates.reshape(len(rows), len(schemes))


def per_trial_rates(config: ScenarioConfig, schemes, sweep_variable: str = "snr_db", values=None) -> np.ndarray:
    """Mean rate of every (sweep value, scheme, trial), shape (len(values), len(schemes), trials).

    ``values=None`` evaluates the config's own point alone. A bad sweep value
    or scheme list raises ConfigError, whose ``field`` names the input, before
    the first trial. Points that share a grid share one channel build per
    trial and take its rates in order. Trials run in ascending order; each
    draws its paths from a substream of (seed, trial) only, so every scheme
    and sweep value is evaluated on the same paths, and makes its scheme-side
    draws once for all sweep values.
    """
    schemes = _sequence("schemes", schemes)
    points = (config,) if values is None else sweep_points(config, sweep_variable, values)
    m_max = max(point.num_ris_elements for point in points)
    check_schemes(schemes, config.scenario, m_max)
    # Points on one grid differ only in SNR or only in surface size, and no two are
    # equal, so they share one channel build per trial and take its rates in order.
    # SNRs are keyed by dB value, since two distinct dB values can round to one linear SNR.
    builds = {}
    for row, point in enumerate(points):
        grid = FrequencyGrid(point.carrier_hz, point.bandwidth_hz, point.num_subcarriers)
        snrs, sizes, rows = builds.setdefault(grid, ({}, {}, []))
        snrs[point.snr_db] = sizes[point.num_ris_elements] = None
        rows.append(row)
    channel_builds = [
        (grid, np.array([_snr_linear(snr_db) for snr_db in snrs]), tuple(sizes), rows)
        for grid, (snrs, sizes, rows) in builds.items()
    ]
    rates = np.empty((len(points), len(schemes), config.trials))
    for trial in range(config.trials):
        rng = _substream(config.seed, trial, _CHANNEL_STREAM)
        paths = sample_path_set(rng, config.num_paths, gain_mode=config.gain_mode)
        draws = _trial_draws(config, schemes, trial, m_max)
        for build in channel_builds:
            _build_rates(rates[:, :, trial], config, build, paths, schemes, draws)
    return rates


def sweep_points(config: ScenarioConfig, sweep_variable: str, values) -> tuple[ScenarioConfig, ...]:
    """The config of every sweep point.

    Raises ConfigError on any bad value with field ``values``, keeping the
    message of the config field the value breaks, and on an unknown variable
    with field ``sweep_variable``. ``values`` is a sequence, not a string, of
    real numbers; a bool or a complex number is no sweep value, nor is one
    too large for a float. Each value is converted to a float once, and the
    duplicate and integer checks read that float; a surface size is
    ``int`` of the value as given.
    """
    values = _sequence("values", values)
    if len(values) == 0:
        raise ConfigError("values", "need at least one sweep value")
    if sweep_variable not in SWEEP_GRIDS:
        known = ", ".join(SWEEP_GRIDS)
        raise ConfigError("sweep_variable", f"unknown sweep variable {sweep_variable!r}; known: {known}")
    points, seen = [], set()
    for value in values:
        if not _is_real(value):
            raise ConfigError("values", f"{sweep_variable} value must be a real number, got {value!r}")
        try:
            number = float(value)
            if number in seen:
                raise ConfigError("values", f"{sweep_variable} value {value:g} is named twice")
            if sweep_variable == "ris_elements" and not number.is_integer():
                raise ConfigError("values", f"ris_elements must be an integer, got {value}")
            seen.add(number)
            point = {"num_ris_elements": int(value)} if sweep_variable == "ris_elements" else {sweep_variable: number}
            points.append(replace(config, **point))
        except (ConfigError, OverflowError) as exc:
            raise ConfigError("values", str(exc)) from exc
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
    schemes, values = _sequence("schemes", schemes), _sequence("values", values)
    rates = per_trial_rates(config, schemes, sweep_variable, values)

    trials = rates.shape[-1]
    means = rates.mean(axis=-1)
    std_errors = rates.std(axis=-1, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros_like(means)
    rows = []
    for value, point_means, point_errors in zip(values, means.tolist(), std_errors.tolist()):
        for scheme, mean, std_error in zip(schemes, point_means, point_errors):
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
    """Arguments of :func:`run_sweep` for the preset comparison ``FIGURES[fig_id]``.

    An id that is no key of ``FIGURES`` raises ConfigError with field ``fig_id``.
    """
    if fig_id not in FIGURES:
        raise ConfigError("fig_id", f"unknown figure id {fig_id}; known: {', '.join(map(str, FIGURES))}")
    scenario, variable = FIGURES[fig_id]
    config = ScenarioConfig(scenario=scenario, trials=trials, seed=seed, gain_mode=gain_mode)
    return config, schemes_for(scenario), variable, SWEEP_GRIDS[variable]
