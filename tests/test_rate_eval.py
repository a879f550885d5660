import dataclasses

import numpy as np
import pytest

from squintsim.channel import (
    FrequencyGrid,
    gen_channels,
    rate_bits,
    sample_path_set,
)
from squintsim.phase_design import PhaseProfile, design_central, design_ideal, design_random
from squintsim.rate_eval import ideal_rate, sum_rate

from reference import (
    BS_DEPARTURES,
    bits,
    effective_channel,
    h_bs_ris,
    mrt_beamformer,
    rate_upper_bound,
    subcarrier_rate,
    user_rows,
    z_factor,
)

SNR = 10.0


def zero_profile(m):
    return PhaseProfile(np.zeros(m))


def per_subcarrier(channels, profile):
    return rate_bits(SNR, channels.received_power(profile.unit_diagonal()))


class TestSnrCheck:
    @pytest.mark.parametrize("snr", [0.0, -1.0, np.nan, np.array([10.0, -2.0]), np.array([1.0, np.nan])])
    def test_rejects_nonpositive(self, snr):
        paths = sample_path_set(np.random.default_rng(1), 1)
        channels = gen_channels(paths, FrequencyGrid(28e9, 2e9, 4), 2, 4)
        with pytest.raises(ValueError, match="snr must be a positive linear value"):
            rate_bits(snr, np.ones(4))
        with pytest.raises(ValueError, match="snr must be a positive linear value"):
            sum_rate(channels, zero_profile(4), snr)
        with pytest.raises(ValueError, match="snr must be a positive linear value"):
            ideal_rate(channels, snr)


class TestRateBits:
    @pytest.mark.parametrize(
        "snr,power",
        [
            (10.0, 2.5),
            (np.float64(10.0), np.array(2.5)),
            (np.array(10.0), np.array(2.5)),
            (np.array([0.1, 1.0, 10.0]), np.arange(1.0, 13.0).reshape(4, 3)),
            (np.array([0.1, 10.0]), np.arange(1.0, 61.0).reshape(5, 4, 3)),
            (7, np.array([1, 2, 3])),
        ],
        ids=["scalars", "scalar-and-0d", "0d-pair", "v-by-s-k", "v-by-z-s-k", "integers"],
    )
    def test_is_the_out_of_place_formula_bit_for_bit(self, snr, power):
        expected = np.log2(1.0 + np.multiply.outer(snr, power))
        rates = rate_bits(snr, power)
        assert type(rates) is type(expected)
        assert bits(rates) == bits(expected)


class TestEffectiveChannel:
    def test_zero_user_link_gives_zero(self):
        h_br = np.ones((4, 3), dtype=complex)
        eff = effective_channel(np.zeros(4, dtype=complex), zero_profile(4), h_br)
        assert np.allclose(eff, 0.0)

    def test_zero_phases_reduce_to_plain_product(self):
        rng = np.random.default_rng(0)
        h_ru = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        h_br = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert np.allclose(effective_channel(h_ru, zero_profile(4), h_br), h_ru @ h_br)

    def test_global_phase_shift_scales_output(self):
        rng = np.random.default_rng(1)
        h_ru = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        h_br = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        profile = design_random(rng, 5)
        shifted = PhaseProfile(profile.phases_rad + 0.7)
        base = effective_channel(h_ru, profile, h_br)
        moved = effective_channel(h_ru, shifted, h_br)
        assert np.allclose(moved, np.exp(0.7j) * base, atol=1e-12)
        assert np.linalg.norm(moved) == pytest.approx(np.linalg.norm(base), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            effective_channel(np.zeros(3, dtype=complex), zero_profile(4), np.ones((4, 2)))
        with pytest.raises(ValueError):
            effective_channel(np.zeros(4, dtype=complex), zero_profile(4), np.ones((5, 2)))


class TestMrtBeamformer:
    def test_power_normalization(self):
        eff = np.array([1 + 2j, -0.5, 3j])
        f = mrt_beamformer(eff, 4.0)
        assert np.linalg.norm(f) == pytest.approx(2.0, rel=1e-12)

    def test_single_direction(self):
        f = mrt_beamformer(np.array([1.0, 0.0, 0.0], dtype=complex), 1.0)
        assert np.allclose(f, [1.0, 0.0, 0.0])

    def test_conjugate_alignment(self):
        rng = np.random.default_rng(2)
        eff = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = mrt_beamformer(eff, 3.0)
        received = eff @ f
        assert abs(received.imag) < 1e-12
        assert received.real == pytest.approx(np.sqrt(3.0) * np.linalg.norm(eff), rel=1e-12)

    def test_zero_channel_maps_to_zero_vector(self):
        f = mrt_beamformer(np.zeros(4, dtype=complex), 2.0)
        assert np.array_equal(f, np.zeros(4, dtype=complex))


class TestSubcarrierRate:
    def test_zero_channel_rate(self):
        assert subcarrier_rate(np.zeros(3, dtype=complex), SNR) == 0.0

    def test_unity_point(self):
        assert subcarrier_rate(np.array([1.0 + 0j]), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_aligned_closed_form(self):
        # 64 antennas, 64 elements, unit gains, 10 dB: the fully aligned
        # subcarrier rate is log2(1 + 10 * 64 * 64^2) = log2(2621441).
        grid = FrequencyGrid(28e9, 2e9, 128)
        paths = sample_path_set(np.random.default_rng(3), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 64, 64)
        k = 17
        profile = design_ideal(paths, grid, 64, k)
        for aod, delay in BS_DEPARTURES:
            eff = effective_channel(user_rows(channels)[k], profile, h_bs_ris(channels, aod, delay, k))
            assert subcarrier_rate(eff, SNR) == pytest.approx(np.log2(2621441), rel=1e-9)


class TestSumRate:
    def test_single_subcarrier_report(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        paths = sample_path_set(np.random.default_rng(4), 1)
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_central(paths, 8)
        rate = sum_rate(channels, profile, SNR)
        for aod, delay in BS_DEPARTURES:
            eff = effective_channel(user_rows(channels)[0], profile, h_bs_ris(channels, aod, delay, 0))
            assert rate == pytest.approx(subcarrier_rate(eff, SNR), rel=1e-12)
        assert len(per_subcarrier(channels, profile)) == 1

    def test_mean_matches_per_subcarrier(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = sample_path_set(np.random.default_rng(5), 3)
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_random(np.random.default_rng(6), 8)
        per_k = per_subcarrier(channels, profile)
        assert sum_rate(channels, profile, SNR) == np.mean(per_k)
        assert np.all(per_k >= 0)

    def test_zero_bandwidth_rates_are_flat(self):
        grid = FrequencyGrid(28e9, 0.0, 8)
        paths = sample_path_set(np.random.default_rng(7), 1)
        channels = gen_channels(paths, grid, 4, 8)
        per_k = per_subcarrier(channels, design_central(paths, 8))
        assert np.all(per_k == per_k[0])

    def test_subcarrier_permutation_invariance(self):
        # A grid is arithmetic by construction, so the subcarriers are put in
        # another order where sum_rate reads them: the received-power rows.
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(8), 4)
        channels = gen_channels(paths, grid, 4, 8)
        perm = np.random.default_rng(9).permutation(8)

        class Shuffled:
            @staticmethod
            def received_power(diag, sizes=None):
                return channels.received_power(diag, sizes)[..., perm]

        profile = design_random(np.random.default_rng(10), 8)
        a = sum_rate(channels, profile, SNR)
        b = sum_rate(Shuffled, profile, SNR)
        assert a == pytest.approx(b, rel=1e-12)
        diag = profile.unit_diagonal()
        assert not np.array_equal(Shuffled.received_power(diag), channels.received_power(diag))

    def test_strictly_increasing_in_snr(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(11), 3)
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_random(np.random.default_rng(12), 8)
        low = sum_rate(channels, profile, 10.0**0.5)
        high = sum_rate(channels, profile, 10.0)
        assert high > low


class TestIdealRate:
    def test_unit_gain_per_subcarrier_closed_form(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = sample_path_set(np.random.default_rng(13), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 8, 16)
        expected = np.log2(1 + 10.0 * 8 * 16**2)
        assert np.allclose(rate_bits(SNR, channels.aligned_power()), expected, rtol=1e-9)
        assert ideal_rate(channels, SNR) == pytest.approx(expected, rel=1e-9)

    def test_single_subcarrier_equals_central(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        paths = sample_path_set(np.random.default_rng(14), 1)
        channels = gen_channels(paths, grid, 4, 8)
        ideal = ideal_rate(channels, SNR)
        central = sum_rate(channels, design_central(paths, 8), SNR)
        assert ideal == pytest.approx(central, rel=1e-12)

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los-1", "nlos-5"])
    def test_dominates_common_profiles_per_subcarrier(self, num_paths):
        grid = FrequencyGrid(28e9, 2e9, 16)
        rng = np.random.default_rng(15)
        for _ in range(5):
            paths = sample_path_set(rng, num_paths)
            channels = gen_channels(paths, grid, 4, 8)
            per_ideal = rate_bits(SNR, channels.aligned_power())
            for profile in (design_random(rng, 8), zero_profile(8)):
                per_common = per_subcarrier(channels, profile)
                assert np.all(per_ideal + 1e-9 >= per_common)


class TestZFactor:
    def test_single_element_is_unit_modulus(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(16), 1)
        profile = design_random(np.random.default_rng(17), 1)
        assert abs(z_factor(paths, profile, grid, 1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_matched_angles_with_zero_profile(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(18), 1)
        matched = dataclasses.replace(paths, ru_angles_rad=(paths.bs_ris_aoa_rad,))
        z = z_factor(matched, zero_profile(6), grid, 6, 1)
        assert z == pytest.approx(6.0 + 0j, abs=1e-12)

    def test_capped_by_element_count(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        rng = np.random.default_rng(19)
        for _ in range(50):
            paths = sample_path_set(rng, 1)
            profile = design_random(rng, 12)
            k = int(rng.integers(8))
            assert abs(z_factor(paths, profile, grid, 12, k)) <= 12 + 1e-12

    def test_cap_attained_only_by_aligned_profile(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(33), 1)
        aligned = design_ideal(paths, grid, 6, 2)
        assert abs(z_factor(paths, aligned, grid, 6, 2)) == pytest.approx(6.0, abs=1e-12)
        nudged = aligned.phases_rad.copy()
        nudged[3] += 0.3
        detuned = PhaseProfile(nudged)
        assert abs(z_factor(paths, detuned, grid, 6, 2)) < 6.0 - 1e-3

    def test_rejects_multipath(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(20), 2)
        with pytest.raises(ValueError):
            z_factor(paths, zero_profile(4), grid, 4, 0)

    def test_rejects_wrong_profile_length(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(21), 1)
        with pytest.raises(ValueError):
            z_factor(paths, zero_profile(3), grid, 4, 0)


class TestRateUpperBound:
    def test_tight_on_single_subcarrier(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        paths = sample_path_set(np.random.default_rng(22), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_random(np.random.default_rng(23), 8)
        bound = rate_upper_bound(paths, profile, grid, 8, 4, SNR)
        assert bound == pytest.approx(sum_rate(channels, profile, SNR), rel=1e-12)

    def test_tight_when_rates_are_flat(self):
        grid = FrequencyGrid(28e9, 0.0, 8)
        paths = sample_path_set(np.random.default_rng(24), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_random(np.random.default_rng(25), 8)
        bound = rate_upper_bound(paths, profile, grid, 8, 4, SNR)
        assert bound == pytest.approx(sum_rate(channels, profile, SNR), rel=1e-9)

    def test_dominates_mean_rate(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        rng = np.random.default_rng(26)
        for _ in range(100):
            paths = sample_path_set(rng, 1, gain_mode="unit")
            channels = gen_channels(paths, grid, 4, 8)
            profile = design_random(rng, 8)
            mean_rate = sum_rate(channels, profile, SNR)
            bound = rate_upper_bound(paths, profile, grid, 8, 4, SNR)
            assert mean_rate <= bound + 1e-12

    @pytest.mark.parametrize("k_sub,m_ris,bandwidth", [(1, 1, 2e9), (7, 5, 0.0), (129, 64, 2e9), (16, 256, 8e9)])
    def test_matches_per_subcarrier_z_factor_loop(self, k_sub, m_ris, bandwidth):
        grid = FrequencyGrid(28e9, bandwidth, k_sub)
        rng = np.random.default_rng(k_sub * m_ris)
        for _ in range(10):
            paths = sample_path_set(rng, 1)
            profile = design_random(rng, m_ris)
            z_sq = [abs(z_factor(paths, profile, grid, m_ris, k)) ** 2 for k in range(k_sub)]
            expected = np.log2(1.0 + SNR * 3 * np.mean(z_sq))
            bound = rate_upper_bound(paths, profile, grid, m_ris, 3, SNR)
            assert bound == pytest.approx(expected, rel=1e-12)

    def test_rejects_multipath(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(27), 3)
        with pytest.raises(ValueError):
            rate_upper_bound(paths, zero_profile(4), grid, 4, 4, SNR)

    def test_rejects_profile_size_mismatch(self):
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = sample_path_set(np.random.default_rng(27), 1)
        with pytest.raises(ValueError, match="profile has 3 phases, expected 4"):
            rate_upper_bound(paths, zero_profile(3), grid, 4, 4, SNR)


class TestPhysicalConsistency:
    def test_los_rate_ignores_delays(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(28), 1)
        moved = dataclasses.replace(paths, ru_delays_s=(11e-9,))
        profile = design_random(np.random.default_rng(29), 8)
        channels = gen_channels(paths, grid, 4, 8)
        a = per_subcarrier(channels, profile)
        b = per_subcarrier(gen_channels(moved, grid, 4, 8), profile)
        assert np.allclose(a, b, atol=1e-12)
        # The BS delay (and departure angle) of the dense chain moves no rate either.
        rows = user_rows(channels)
        for aod, delay in BS_DEPARTURES:
            dense = [
                subcarrier_rate(effective_channel(rows[k], profile, h_bs_ris(channels, aod, delay, k)), SNR)
                for k in range(8)
            ]
            assert np.allclose(dense, a, atol=1e-12)

    def test_mrt_receive_chain_matches_closed_form(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        rng = np.random.default_rng(30)
        for _ in range(10):
            paths = sample_path_set(rng, 3)
            channels = gen_channels(paths, grid, 4, 8)
            profile = design_random(rng, 8)
            k = int(rng.integers(8))
            for aod, delay in BS_DEPARTURES:
                eff = effective_channel(user_rows(channels)[k], profile, h_bs_ris(channels, aod, delay, k))
                f = mrt_beamformer(eff, SNR)  # unit noise power: the transmit power is the SNR
                explicit = np.log2(1.0 + abs(eff @ f) ** 2)
                assert explicit == pytest.approx(subcarrier_rate(eff, SNR), abs=1e-10)
                assert explicit == pytest.approx(per_subcarrier(channels, profile)[k], rel=1e-9)

    def test_global_phase_neutrality(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(31), 4)
        channels = gen_channels(paths, grid, 4, 8)
        profile = design_random(np.random.default_rng(32), 8)
        shifted = PhaseProfile(profile.phases_rad + 2.13)
        a = per_subcarrier(channels, profile)
        b = per_subcarrier(channels, shifted)
        assert np.allclose(a, b, atol=1e-9)


@pytest.mark.parametrize("sizes", [None, (2, 6)], ids=["full", "sizes"])
class TestWidthChecks:
    @staticmethod
    def channels():
        return gen_channels(sample_path_set(np.random.default_rng(51), 3), FrequencyGrid(28e9, 2e9, 8), 4, 6)

    @pytest.mark.parametrize("width", [5, 7, 20])
    def test_received_power_names_both_widths(self, sizes, width):
        channels = self.channels()
        for shape in ((width,), (3, width)):
            with pytest.raises(ValueError, match=rf"^diagonal has trailing length \({width},\), expected M = 6$"):
                channels.received_power(np.ones(shape, dtype=complex), sizes)
        with pytest.raises(ValueError, match="expected M = 6"):
            sum_rate(channels, zero_profile(width), SNR, sizes)

    def test_received_power_rejects_a_scalar_diagonal(self, sizes):
        with pytest.raises(ValueError, match=r"trailing length \(\), expected M = 6"):
            self.channels().received_power(1.0, sizes)

    def test_profile_of_a_stack_of_phases_is_rejected(self, sizes):
        # sum_rate would read a (2, M) phase array as a stack of two profiles
        # and return two rates.
        channels = self.channels()
        with pytest.raises(ValueError, match=r"phases_rad must be 1-D, got shape \(2, 6\)"):
            PhaseProfile(-np.angle(channels.cascade[:2]))
        with pytest.raises(ValueError, match=r"phases_rad must be 1-D, got shape \(\)"):
            PhaseProfile(0.5)
        rates = sum_rate(channels, PhaseProfile(-np.angle(channels.cascade[0])), SNR, sizes)
        assert np.shape(rates) == (() if sizes is None else (len(sizes),))
