"""Every public entry that takes a count rejects one that is no integer >= 1."""

import dataclasses

import numpy as np
import pytest

from squintsim.channel import (
    ChannelRealization,
    FrequencyGrid,
    PathSet,
    gen_channels,
    sample_path_set,
)
from squintsim import phase_design
from squintsim.phase_design import PhaseProfile, design_central, design_ideal, design_mccm, design_random
from squintsim.rate_eval import ideal_rate, sum_rate

GRID = FrequencyGrid(28e9, 2e9, 8)
PATHS = PathSet(0.4, 0.8 - 0.3j, (2.0,), (1.0 + 0j,), (3e-9,))
CHANNELS = gen_channels(PATHS, GRID, 4, 6)

#: Each entry called with one count n in the place of a count.
ENTRIES = {
    "FrequencyGrid": lambda n: FrequencyGrid(28e9, 2e9, n),
    "ChannelRealization-antennas": lambda n: ChannelRealization(PATHS, GRID, n, 6),
    "ChannelRealization-elements": lambda n: ChannelRealization(PATHS, GRID, 4, n),
    "replace-antennas": lambda n: dataclasses.replace(CHANNELS, num_bs_antennas=n),
    "replace-elements": lambda n: dataclasses.replace(CHANNELS, num_ris_elements=n),
    "gen_channels-antennas": lambda n: gen_channels(PATHS, GRID, n, 6),
    "gen_channels-elements": lambda n: gen_channels(PATHS, GRID, 4, n),
    "sample_path_set": lambda n: sample_path_set(np.random.default_rng(0), n),
    "design_central": lambda n: design_central(PATHS, n),
    "design_ideal": lambda n: design_ideal(PATHS, GRID, n, 0),
    "design_random": lambda n: design_random(np.random.default_rng(0), n),
    "design_mccm": lambda n: design_mccm(CHANNELS, n),
    "received_power-sizes": lambda n: CHANNELS.received_power(np.ones(6), (n,)),
    "aligned_power-sizes": lambda n: CHANNELS.aligned_power((1, n)),
    "sum_rate-sizes": lambda n: sum_rate(CHANNELS, PhaseProfile(np.zeros(6)), 10.0, (1, n)),
    "ideal_rate-sizes": lambda n: ideal_rate(CHANNELS, 10.0, (n, 1)),
}

BY_ENTRY = pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))


@BY_ENTRY
@pytest.mark.parametrize("count", [0, 2.5, 4.0, True, -3], ids=["zero", "fraction", "integral-float", "bool", "negative"])
def test_rejects_count_that_is_no_integer_of_at_least_one(entry, count):
    with pytest.raises(ValueError, match="integer"):
        entry(count)


@BY_ENTRY
@pytest.mark.parametrize("count", [4, np.int64(4)], ids=["int", "numpy-int"])
def test_accepts_a_count(entry, count):
    entry(count)


#: The entries that take a sequence of sizes, each called with that sequence.
SIZED = {
    "received_power": lambda sizes: CHANNELS.received_power(np.ones(6), sizes),
    "aligned_power": lambda sizes: CHANNELS.aligned_power(sizes),
    "sum_rate": lambda sizes: sum_rate(CHANNELS, PhaseProfile(np.zeros(6)), 10.0, sizes),
    "ideal_rate": lambda sizes: ideal_rate(CHANNELS, 10.0, sizes),
}

BY_SIZED = pytest.mark.parametrize("entry", list(SIZED.values()), ids=list(SIZED))


@BY_SIZED
@pytest.mark.parametrize("count", [7, 100], ids=["m-plus-one", "far-above-m"])
def test_sizes_reject_more_elements_than_the_realization_has(entry, count):
    with pytest.raises(ValueError, match=r"integer in \[1, 6\], got " + str(count)):
        entry((1, count))


@BY_SIZED
@pytest.mark.parametrize("sizes", [(), [], np.array([], dtype=int)], ids=["tuple", "list", "array"])
def test_sizes_reject_an_empty_sequence(entry, sizes):
    with pytest.raises(ValueError, match="at least one surface size"):
        entry(sizes)


@pytest.mark.parametrize(
    "count", [0, 2.5, True, -3, 7], ids=["zero", "fraction", "bool", "negative", "m-plus-one"]
)
def test_design_mccm_rejects_a_count_before_forming_a_covariance(monkeypatch, count):
    def no_covariance(*args):
        raise AssertionError("a covariance was formed before the count was checked")

    monkeypatch.setattr(phase_design, "mean_channel_covariance", no_covariance)
    with pytest.raises(ValueError, match=r"integer in \[1, 6\], got " + str(count)):
        design_mccm(CHANNELS, count)
