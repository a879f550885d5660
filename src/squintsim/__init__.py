"""Monte Carlo simulator for RIS phase-shift design in wideband mmWave OFDM links."""

from .channel import (
    DELAY_MAX_S,
    ChannelRealization,
    FrequencyGrid,
    PathSet,
    gen_channels,
    rate_bits,
    sample_path_set,
)
from .experiments import (
    LOS,
    NLOS,
    SCHEMES,
    SWEEP_GRIDS,
    ScenarioConfig,
    SweepRow,
    central_subcarrier_index,
    per_trial_rates,
    run_sweep,
    schemes_for,
)
from .phase_design import (
    PhaseProfile,
    design_central,
    design_ideal,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
    mean_channel_covariance,
    phase_extraction,
    principal_direction,
)
from .rate_eval import (
    ideal_rate,
    sum_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "DELAY_MAX_S",
    "FrequencyGrid",
    "LOS",
    "NLOS",
    "PathSet",
    "PhaseProfile",
    "SCHEMES",
    "SWEEP_GRIDS",
    "ScenarioConfig",
    "SweepRow",
    "central_subcarrier_index",
    "design_central",
    "design_ideal",
    "design_mccm",
    "design_random",
    "design_subcarrier_covariance",
    "gen_channels",
    "ideal_rate",
    "mean_channel_covariance",
    "per_trial_rates",
    "phase_extraction",
    "principal_direction",
    "rate_bits",
    "run_sweep",
    "sample_path_set",
    "schemes_for",
    "sum_rate",
]
