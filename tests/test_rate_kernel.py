"""Differential tests: the factored rate kernel against the dense reference path.

``sum_rate`` and ``ideal_rate`` go through ``ChannelRealization.received_power``
and ``aligned_power``, which never form the (K, M, N) BS-to-surface tensor.
These properties pin both to the per-subcarrier reference of the test module
``reference`` (the dense ``h_bs_ris`` view, ``effective_channel`` and
``subcarrier_rate``) at every BS departure angle and delay of
``BS_DEPARTURES``, pin the
SNR-array form of both to one call per SNR, pin the stacked form of
``received_power`` and ``sum_rate`` to one call per profile, and pin the
``sizes`` form of both rates to one call on the channel built at each size.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squintsim.channel import FrequencyGrid, gen_channels, rate_bits, sample_path_set
from squintsim.phase_design import (
    PhaseProfile,
    design_central,
    design_ideal,
    design_random,
    design_subcarrier_covariance,
    phase_extraction,
)
from squintsim.rate_eval import ideal_rate, sum_rate

from reference import (
    BS_DEPARTURES,
    TABLE_TOL,
    bits,
    cascade_direct,
    effective_channel,
    h_bs_ris,
    rank_one_direction,
    receive_phases_at,
    subcarrier_rate,
    user_rows,
)

RTOL = 1e-9
ATOL = 1e-12


CASES = st.fixed_dictionaries(
    {
        "num_paths": st.integers(1, 4),
        "bandwidth_hz": st.sampled_from((0.0, 0.5e9, 2e9, 8e9)),
        "num_subcarriers": st.integers(1, 6),
        "num_bs_antennas": st.integers(1, 6),
        "num_ris_elements": st.integers(1, 6),
        "gain_mode": st.sampled_from(("unit", "random")),
        "seed": st.integers(0, 2**32 - 1),
        "snr_db": st.sampled_from((-10.0, 0.0, 10.0, 20.0)),
    }
)
#: K = M = N = 1 at zero bandwidth with unit gains, with one and with three user paths.
EDGE_CASES = [
    dict(
        num_paths=num_paths, bandwidth_hz=0.0, num_subcarriers=1, num_bs_antennas=1,
        num_ris_elements=1, gain_mode="unit", seed=0, snr_db=10.0,
    )
    for num_paths in (1, 3)
]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return settings(derandomize=True, deadline=None)(given(CASES)(test))


def realize(case):
    """Channels, a generator for scheme randomness and the linear SNR of one drawn case."""
    grid = FrequencyGrid(28e9, case["bandwidth_hz"], case["num_subcarriers"])
    rng = np.random.default_rng(case["seed"])
    paths = sample_path_set(rng, case["num_paths"], gain_mode=case["gain_mode"])
    channels = gen_channels(paths, grid, case["num_bs_antennas"], case["num_ris_elements"])
    return channels, rng, 10.0 ** (case["snr_db"] / 10.0)


def dense_rates(channels, profile, snr, aod, delay):
    dense, rows = h_bs_ris(channels, aod, delay), user_rows(channels)
    return np.array(
        [
            subcarrier_rate(effective_channel(rows[k], profile, dense[k]), snr)
            for k in range(channels.grid.num_subcarriers)
        ]
    )


def covariance_profile_by_power(channels, k, aod, delay):
    """The oracle's per-subcarrier covariance profile with its conjugate candidate.

    Both phase-extraction candidates of the rank-one covariance are scored by
    their dense reflected power at subcarrier k; ties keep the unconjugated one.
    """
    receive = receive_phases_at(channels, channels.grid.frequencies[k])
    row = user_rows(channels)[k]
    vector, _ = rank_one_direction(row)
    h_bs_k = h_bs_ris(channels, aod, delay, k)
    best_phases, best_power = None, -np.inf
    for candidate in (vector, np.conj(vector)):
        phases = receive + phase_extraction(candidate)
        eff = (row * np.exp(1j * phases)) @ h_bs_k
        power = float(np.sum(np.abs(eff) ** 2))
        if power > best_power:
            best_phases, best_power = phases, power
    return PhaseProfile(best_phases)


def reference_ideal_rates(channels, snr, aod, delay):
    """Per-subcarrier designer loop: redesign the surface at every subcarrier."""
    paths, rows = channels.source_paths, user_rows(channels)
    per_k = np.empty(channels.grid.num_subcarriers)
    for k in range(channels.grid.num_subcarriers):
        if len(paths.ru_angles_rad) == 1:
            profile = design_ideal(paths, channels.grid, channels.num_ris_elements, k)
        else:
            profile = covariance_profile_by_power(channels, k, aod, delay)
        eff = effective_channel(rows[k], profile, h_bs_ris(channels, aod, delay, k))
        per_k[k] = subcarrier_rate(eff, snr)
    return per_k


@with_edge_cases
def test_sum_rate_matches_dense_reference(case):
    channels, rng, snr = realize(case)
    profile = design_random(rng, channels.num_ris_elements)
    per_k = rate_bits(snr, channels.received_power(profile.unit_diagonal()))
    for aod, delay in BS_DEPARTURES:
        np.testing.assert_allclose(per_k, dense_rates(channels, profile, snr, aod, delay), RTOL, ATOL)
    assert sum_rate(channels, profile, snr) == pytest.approx(np.mean(per_k), rel=1e-15)


@with_edge_cases
def test_ideal_rate_matches_per_subcarrier_designer_loop(case):
    channels, _, snr = realize(case)
    per_k = rate_bits(snr, channels.aligned_power())
    for aod, delay in BS_DEPARTURES:
        np.testing.assert_allclose(per_k, reference_ideal_rates(channels, snr, aod, delay), RTOL, ATOL)
    assert ideal_rate(channels, snr) == pytest.approx(np.mean(per_k), rel=1e-15)


@with_edge_cases
def test_received_power_never_exceeds_aligned_power(case):
    channels, rng, _ = realize(case)
    diag = design_random(rng, channels.num_ris_elements).unit_diagonal()
    aligned = channels.aligned_power()
    assert np.all(channels.received_power(diag) <= aligned * (1 + RTOL) + ATOL)


SNR_CASES = st.fixed_dictionaries(
    {
        "num_paths": st.integers(1, 4),
        "bandwidth_hz": st.sampled_from((0.0, 2e9)),
        "num_subcarriers": st.sampled_from((1, 2, 7, 129)),
        "num_bs_antennas": st.integers(1, 4),
        "num_ris_elements": st.integers(1, 8),
        "gain_mode": st.sampled_from(("unit", "random")),
        "seed": st.integers(0, 2**32 - 1),
        "snrs_db": st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=5),
    }
)


def with_snr_edge_cases(test):
    base = dict(
        num_paths=3, bandwidth_hz=2e9, num_bs_antennas=3, num_ris_elements=5,
        gain_mode="random", seed=1,
    )
    for num_subcarriers in (1, 7, 129):
        for snrs_db in ([10.0], [-10.0, 0.0, 10.0, 20.0]):
            test = example(dict(base, num_subcarriers=num_subcarriers, snrs_db=snrs_db))(test)
    return settings(derandomize=True, deadline=None)(given(SNR_CASES)(test))


def assert_rows_match_single_snr_calls(snrs, power, rate_of):
    """Row i of the rates for V SNRs equals the one-SNR call on SNR i, bit for bit."""
    per_k, rates = rate_bits(snrs, power), rate_of(snrs)
    assert per_k.shape == (len(snrs), len(power)) and rates.shape == (len(snrs),)
    for i, snr in enumerate(snrs.tolist()):
        assert isinstance(rate_of(snr), float)
        assert np.array_equal(rates[i], rate_of(snr))
        assert np.array_equal(per_k[i], rate_bits(snr, power))


@with_snr_edge_cases
def test_snr_array_matches_one_call_per_snr(case):
    channels, rng, _ = realize(dict(case, snr_db=0.0))
    snrs = np.array([10.0 ** (snr / 10.0) for snr in case["snrs_db"]])
    profile = design_random(rng, channels.num_ris_elements)

    power = channels.received_power(profile.unit_diagonal())
    assert_rows_match_single_snr_calls(snrs, power, lambda snr: sum_rate(channels, profile, snr))
    assert_rows_match_single_snr_calls(snrs, channels.aligned_power(), lambda snr: ideal_rate(channels, snr))


@pytest.mark.parametrize("gain_mode", ["unit", "random"])
@pytest.mark.parametrize("num_paths", [1, 1, 5, 9], ids=["los-1", "nlos-1", "nlos-5", "nlos-9"])
@pytest.mark.parametrize("num_ris_elements", [1, 16, 37, 64, 100, 256])
def test_stored_cascade_powers_match_the_per_call_product(num_ris_elements, num_paths, gain_mode):
    # The powers read the cascade stored at construction: bit for bit the
    # products formed from it per call, within the bound TABLE_TOL implies of
    # those formed from the one-exponential h_ris_user_direct * a_ris, and near the dense path.
    case = dict(
        num_paths=num_paths, bandwidth_hz=2e9, num_subcarriers=8, num_bs_antennas=4,
        num_ris_elements=num_ris_elements, gain_mode=gain_mode, seed=31, snr_db=10.0,
    )
    channels, rng, snr = realize(case)
    profile = design_random(rng, num_ris_elements)
    diag = profile.unit_diagonal()
    cascade, oracle = channels.cascade, cascade_direct(channels)
    gain = channels.bs_ris_power_gain
    power, aligned = channels.received_power(diag), channels.aligned_power()
    assert np.array_equal(power, gain * np.abs(cascade @ diag) ** 2)
    assert np.array_equal(aligned, gain * np.sum(np.abs(cascade), axis=1) ** 2)
    # M entries of unit-modulus weight, each within `entry` of the oracle's, put a
    # sum within M * entry of the oracle's sum s; its square within that times 2|s| + M * entry.
    gains = channels.source_paths.ru_gains
    sum_error = num_ris_elements * TABLE_TOL * sum(map(abs, gains)) / np.sqrt(num_paths)
    for sums, got in ((np.abs(oracle @ diag), power), (np.sum(np.abs(oracle), axis=1), aligned)):
        assert np.all(np.abs(got - gain * sums**2) <= gain * (2 * sums + sum_error) * sum_error)
    for aod, delay in BS_DEPARTURES:
        np.testing.assert_allclose(rate_bits(snr, power), dense_rates(channels, profile, snr, aod, delay), RTOL, ATOL)
        np.testing.assert_allclose(rate_bits(snr, aligned), reference_ideal_rates(channels, snr, aod, delay), RTOL, ATOL)


@pytest.mark.parametrize("num_subcarriers", [1, 7, 128])
@pytest.mark.parametrize("num_ris_elements", [1, 16, 33, 256])
def test_stacked_profiles_match_one_call_per_profile(num_subcarriers, num_ris_elements):
    # S profiles in one received_power or sum_rate call give, row for row, the
    # bits of S single-profile calls and of the per-row matrix-vector product.
    case = dict(
        num_paths=3, bandwidth_hz=2e9, num_subcarriers=num_subcarriers, num_bs_antennas=4,
        num_ris_elements=num_ris_elements, gain_mode="random", seed=num_subcarriers + num_ris_elements, snr_db=10.0,
    )
    channels, rng, snr = realize(case)
    snrs = np.array([0.1, 1.0, snr, 100.0])
    gain = channels.bs_ris_power_gain
    for count in range(1, 7):
        profiles = [design_random(rng, num_ris_elements) for _ in range(count)]
        diags = np.stack([profile.unit_diagonal() for profile in profiles])
        power = channels.received_power(diags)
        one_snr, many_snrs = sum_rate(channels, profiles, snr), sum_rate(channels, profiles, snrs)
        assert power.shape == (count, num_subcarriers)
        assert one_snr.shape == (count,) and many_snrs.shape == (len(snrs), count)
        for s, (profile, diag) in enumerate(zip(profiles, diags)):
            assert np.array_equal(power[s], channels.received_power(diag))
            assert np.array_equal(power[s], gain * np.abs(channels.cascade @ diag) ** 2)
            assert np.array_equal(one_snr[s], sum_rate(channels, profile, snr))
            assert np.array_equal(many_snrs[:, s], sum_rate(channels, profile, snrs))


@pytest.mark.parametrize("num_subcarriers", [7, 128, 131])
@pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
def test_sizes_match_one_call_per_direct_build(num_paths, num_subcarriers):
    # One call over surface sizes, unordered, repeated or the full width alone,
    # gives, entry for entry, the bits of the call on gen_channels at m with
    # the first m phases of each profile, for one and for S profiles and for one
    # and for V SNRs; so does each row of the aligned power, summed from one
    # |cascade| table.
    rng = np.random.default_rng(100 * num_paths + num_subcarriers)
    paths = sample_path_set(rng, num_paths)
    grid = FrequencyGrid(28e9, 2e9, num_subcarriers)
    widest = gen_channels(paths, grid, 4, 256)
    profiles = [design_random(rng, 256), design_subcarrier_covariance(widest, num_subcarriers // 2)]
    if num_paths == 1:
        profiles.append(design_central(paths, 256))
    direct = {m: gen_channels(paths, grid, 4, m) for m in (1, 2, 16, 17, 37, 64, 100, 255, 256)}
    for sizes in ((37, 1, 256, 16, 100, 64), (256,), (17, 17, 255, 2)):
        aligned = widest.aligned_power(sizes)
        assert aligned.shape == (len(sizes), num_subcarriers)
        for z, m in enumerate(sizes):
            assert bits(aligned[z]) == bits(direct[m].aligned_power())
        for snr in (10.0, np.array([0.1, 1.0, 10.0, 100.0])):
            ideal = ideal_rate(widest, snr, sizes)
            one = sum_rate(widest, profiles[0], snr, sizes)
            many = sum_rate(widest, profiles, snr, sizes)
            assert ideal.shape == one.shape == np.shape(snr) + (len(sizes),)
            assert many.shape == ideal.shape + (len(profiles),)
            for z, m in enumerate(sizes):
                cut = [PhaseProfile(profile.phases_rad[:m]) for profile in profiles]
                assert bits(ideal[..., z]) == bits(ideal_rate(direct[m], snr))
                assert bits(one[..., z]) == bits(sum_rate(direct[m], cut[0], snr))
                assert bits(many[..., z, :]) == bits(sum_rate(direct[m], cut, snr))


def test_sizes_take_one_exponential_and_one_call_per_power(monkeypatch):
    channels, rng, snr = realize(dict(EDGE_CASES[0], num_subcarriers=8, num_ris_elements=32, seed=5))
    profiles = [design_random(rng, 32) for _ in range(3)]
    counts = {"exp": 0, "received_power": 0, "aligned_power": 0}
    exp, received_power, aligned_power = np.exp, type(channels).received_power, type(channels).aligned_power

    def counted(name, inner):
        def wrapper(*args):
            counts[name] += 1
            return inner(*args)

        return wrapper

    monkeypatch.setattr(np, "exp", counted("exp", exp))
    monkeypatch.setattr(type(channels), "received_power", counted("received_power", received_power))
    monkeypatch.setattr(type(channels), "aligned_power", counted("aligned_power", aligned_power))
    sum_rate(channels, profiles, snr, (4, 32, 8))
    ideal_rate(channels, snr, (4, 32, 8))
    # Each power takes all three prefixes of one table in one call.
    assert counts == {"exp": 1, "received_power": 1, "aligned_power": 1}


@pytest.mark.parametrize("width", [31, 33])
def test_sizes_reject_a_profile_that_is_not_m_wide(width):
    channels, _, snr = realize(dict(EDGE_CASES[0], num_subcarriers=8, num_ris_elements=32))
    with pytest.raises(ValueError, match=rf"trailing length \({width},\), expected M = 32"):
        sum_rate(channels, PhaseProfile(np.zeros(width)), snr, (4, 8))
