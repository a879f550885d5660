"""Every public record and entry that takes a value rejects one that is not finite.

Each row calls one entry with one bad value in the place of a value, and the
error must name what is at fault.
"""

import dataclasses
import math

import numpy as np
import pytest

from squintsim.channel import FrequencyGrid, PathSet, gen_channels, rate_bits
from squintsim.experiments import ScenarioConfig
from squintsim.phase_design import PhaseProfile, mean_channel_covariance, phase_extraction, principal_direction

NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}
#: Gains are complex: a part that is not finite is enough.
NONFINITE_GAINS = {**NONFINITE, "nan-imag": complex(1.0, math.nan), "inf-real": complex(math.inf, 0.0)}

PATHS = PathSet(0.4, 0.8 - 0.3j, (2.0, 0.7), (1.0 + 0j, 0.5j), (3e-9, 1e-9))
CHANNELS = gen_channels(PATHS, FrequencyGrid(28e9, 2e9, 4), 2, 8)


def phases_with(value):
    phases = np.zeros(8)
    phases[3] = value
    return phases


#: Each entry -> (the entry called with one bad value, the bad values, the message it must match).
ENTRIES = {
    "FrequencyGrid-carrier": (lambda v: FrequencyGrid(v, 2e9, 8), NONFINITE, "^carrier_hz must be finite"),
    "FrequencyGrid-bandwidth": (lambda v: FrequencyGrid(28e9, v, 8), NONFINITE, "^bandwidth_hz"),
    "PathSet-aoa": (
        lambda v: dataclasses.replace(PATHS, bs_ris_aoa_rad=v), NONFINITE, "^bs_ris_aoa_rad must be finite"
    ),
    "PathSet-gain": (lambda v: dataclasses.replace(PATHS, bs_ris_gain=v), NONFINITE_GAINS, "^bs_ris_gain must be finite"),
    "PathSet-user-angles": (
        lambda v: dataclasses.replace(PATHS, ru_angles_rad=(0.3, v)), NONFINITE, "^ru_angles_rad must be finite"
    ),
    "PathSet-user-gains": (
        lambda v: dataclasses.replace(PATHS, ru_gains=(1.0, v)), NONFINITE_GAINS, "^ru_gains must be finite"
    ),
    "PathSet-user-delays": (
        lambda v: dataclasses.replace(PATHS, ru_delays_s=(v, 1e-9)), NONFINITE, "^ru_delays_s must be finite"
    ),
    "PhaseProfile": (lambda v: PhaseProfile(phases_with(v)), NONFINITE, "^phases_rad must be finite"),
    "ScenarioConfig-carrier": (lambda v: ScenarioConfig(carrier_hz=v), NONFINITE, "^carrier_hz must be"),
    "ScenarioConfig-bandwidth": (lambda v: ScenarioConfig(bandwidth_hz=v), NONFINITE, "^bandwidth_hz must be"),
    "ScenarioConfig-snr": (lambda v: ScenarioConfig(snr_db=v), NONFINITE, "^snr_db must be"),
    "rate_bits-snr": (lambda v: rate_bits(v, np.ones(4)), NONFINITE, "^snr must be a positive linear value and finite"),
    "rate_bits-power": (lambda v: rate_bits(1.0, phases_with(v)), NONFINITE, "^power must be finite"),
    "received_power": (
        lambda v: CHANNELS.received_power(np.array([1.0] * 7 + [v])), NONFINITE_GAINS, "^diagonal must be finite"
    ),
    "mean_channel_covariance": (
        lambda v: mean_channel_covariance([[v, 1.0]]), NONFINITE_GAINS, "every entry finite, got array"
    ),
    "phase_extraction": (lambda v: phase_extraction([v, 1.0]), NONFINITE_GAINS, "^vector must be finite"),
    "principal_direction": (
        principal_direction,
        {
            "nan-off-diagonal": np.array([[1.0, math.nan], [math.nan, 1.0]]),
            "all-nan": np.full((3, 3), math.nan),
            "inf-identity": np.diag([math.inf, math.inf]),
        },
        "^covariance must be finite",
    ),
}

CASES = [
    pytest.param(entry, value, match, id=f"{name}-{label}")
    for name, (entry, values, match) in ENTRIES.items()
    for label, value in values.items()
]


@pytest.mark.parametrize("entry,value,match", CASES)
def test_rejects_a_value_that_is_not_finite(entry, value, match):
    with pytest.raises(ValueError, match=match):
        entry(value)
