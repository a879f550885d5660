import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import squintsim.channel as channel_module
from squintsim.channel import (
    DELAY_MAX_S,
    FrequencyGrid,
    PathSet,
    _band_table,
    _steering_table,
    gen_channels,
    sample_path_set,
)
from squintsim.phase_design import design_mccm
from squintsim.rate_eval import ideal_rate, sum_rate

from reference import (
    BS_DEPARTURES,
    TABLE_TOL,
    a_bs,
    a_ris,
    array_response,
    array_response_direct,
    bits,
    h_bs_ris,
    spatial_angle,
    summed_cascade,
    table_deviation,
    user_rows,
)

ORACLE_SIZES = (1, 2, 3, 5, 16, 17, 63, 64, 255, 256, 257, 1000, 1023, 1024)


def los_paths(aoa=0.4, ru_angle=2.0, gain=1.0 + 0j, ru_delay=3e-9):
    return PathSet(
        bs_ris_aoa_rad=aoa,
        bs_ris_gain=gain,
        ru_angles_rad=(ru_angle,),
        ru_gains=(gain,),
        ru_delays_s=(ru_delay,),
    )


class TestFrequencyGrid:
    def test_default_grid_endpoints(self):
        # 28 GHz carrier, 2 GHz over 128 subcarriers: edges at +/- 63.5 spacings.
        grid = FrequencyGrid(28e9, 2e9, 128)
        assert grid.frequencies[0] == 27.0078125e9
        assert grid.frequencies[-1] == 28.9921875e9
        assert grid.num_subcarriers == 128

    def test_single_subcarrier_sits_at_carrier(self):
        grid = FrequencyGrid(28e9, 1.7e9, 1)
        assert grid.frequencies.tolist() == [28e9]

    def test_mean_is_carrier(self):
        grid = FrequencyGrid(28e9, 2e9, 128)
        assert np.mean(grid.frequencies) == 28e9

    def test_symmetry_about_carrier(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            carrier = rng.uniform(1e9, 100e9)
            bandwidth = rng.uniform(0, carrier)
            k = int(rng.integers(1, 257))
            grid = FrequencyGrid(carrier, bandwidth, k)
            folded = grid.frequencies + grid.frequencies[::-1]
            assert np.allclose(folded, 2 * carrier, rtol=1e-12)

    def test_strictly_increasing_with_positive_bandwidth(self):
        grid = FrequencyGrid(28e9, 0.5e9, 64)
        assert np.all(np.diff(grid.frequencies) > 0)

    @pytest.mark.parametrize(
        "carrier,bandwidth,k",
        [
            (28e9, 2e9, 0), (0.0, 2e9, 8), (-1e9, 2e9, 8), (28e9, -1e9, 8), (28e9, 56e9, 8), (28e9, 60e9, 8),
            (28e9, 2e9, 2.5), (28e9, 2e9, 4.0), (28e9, 2e9, True),
            (math.nan, 2e9, 4), (28e9, math.nan, 4), (math.inf, 2e9, 4), (28e9, math.inf, 4), ("x", 2e9, 4),
            (28e9, None, 4), (True, 2e9, 4),
        ],
    )
    def test_rejects_bad_parameters(self, carrier, bandwidth, k):
        with pytest.raises(ValueError):
            FrequencyGrid(carrier, bandwidth, k)

    @pytest.mark.parametrize(
        "carrier,bandwidth,k,message",
        [
            (28e9, 2e9, 0, "num_subcarriers must be an integer >= 1, got 0"),
            (28e9, 2e9, True, "num_subcarriers must be an integer >= 1, got True"),
            (math.nan, 2e9, 4, "carrier_hz must be finite and positive, got nan"),
            ("x", 2e9, 4, "carrier_hz must be finite and positive, got 'x'"),
            (28e9, None, 4, "bandwidth_hz must be a nonnegative number, got None"),
            (28e9, 56e9, 8, "bandwidth_hz=56000000000.0 >= 2*carrier_hz=56000000000.0 would produce nonpositive"),
        ],
        ids=["zero-subcarriers", "bool-subcarriers", "nan-carrier", "text-carrier", "no-bandwidth", "wide-band"],
    )
    def test_constructor_rejects_bad_parameters(self, carrier, bandwidth, k, message):
        # The grid checks itself: the constructor is the one place a grid is validated.
        with pytest.raises(ValueError) as error:
            FrequencyGrid(carrier, bandwidth, k)
        assert str(error.value).startswith(message)

    def test_frequencies_are_derived_from_the_fields(self):
        grid = FrequencyGrid(28e9, 2e9, 128)
        assert grid.spacing_hz == 2e9 / 128
        assert np.array_equal(grid.frequencies, 28e9 + grid.spacing_hz * (np.arange(128) - 63.5))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(grid, frequencies=grid.frequencies[::-1])
        with pytest.raises(ValueError, match="read-only"):
            grid.frequencies[0] = 28e9
        wider = dataclasses.replace(grid, bandwidth_hz=4e9)
        assert np.array_equal(wider.frequencies, FrequencyGrid(28e9, 4e9, 128).frequencies)
        assert wider == FrequencyGrid(28e9, 4e9, 128) != grid


class TestSpatialAngle:
    def test_zero_at_broadside(self):
        assert spatial_angle(31e9, 0.0, 28e9) == 0.0

    def test_half_sine_at_carrier(self):
        assert spatial_angle(28e9, np.pi / 2, 28e9) == pytest.approx(0.5, abs=1e-15)

    def test_scales_with_frequency(self):
        assert spatial_angle(1.05 * 28e9, np.pi / 2, 28e9) == pytest.approx(0.525, abs=1e-12)

    def test_strictly_increasing_in_frequency(self):
        f = np.linspace(27e9, 29e9, 50)
        phi = spatial_angle(f, 0.7, 28e9)
        assert np.all(np.diff(phi) > 0)

    def test_narrowband_grid_collapses_to_half_sine(self):
        grid = FrequencyGrid(28e9, 0.0, 16)
        phi = spatial_angle(grid.frequencies, 1.3, grid.carrier_hz)
        assert np.allclose(phi, 0.5 * np.sin(1.3), rtol=1e-15)


class TestArrayResponse:
    def test_single_element(self):
        assert array_response(1, 0.37).tolist() == [1.0 + 0j]

    def test_broadside_is_uniform(self):
        assert np.allclose(array_response(4, 0.0), 0.5 * np.ones(4))

    def test_half_spatial_angle_alternates_sign(self):
        vec = array_response(8, 0.5)
        expected = ((-1.0) ** np.arange(8)) / np.sqrt(8)
        assert np.allclose(vec, expected, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 7, 64, 129):
            phi = rng.uniform(-2, 2)
            assert abs(np.linalg.norm(array_response(n, phi)) - 1.0) < 1e-12

    def test_vector_angles_give_matrix(self):
        out = array_response(4, np.array([0.1, 0.2, 0.3]))
        assert out.shape == (4, 3)
        assert np.allclose(out[:, 1], array_response(4, 0.2))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @pytest.mark.parametrize("bandwidth", [2e9, 8e9])
    def test_matches_one_exponential_form(self, n, bandwidth):
        # Spatial angles of a full band, and the largest one alone as a scalar.
        grid = FrequencyGrid(28e9, bandwidth, 64)
        phis = spatial_angle(grid.frequencies, 1.3, grid.carrier_hz)
        for phi, shape in ((phis[-1], (n,)), (phis, (n, 64))):
            out = array_response(n, phi)
            assert out.shape == shape
            assert np.max(np.abs(out - array_response_direct(n, phi))) * np.sqrt(n) <= 2e-12
            assert np.max(np.abs(np.abs(out) * np.sqrt(n) - 1.0)) <= 2e-15

    def test_single_element_is_exactly_one_for_every_angle(self):
        phis = spatial_angle(FrequencyGrid(28e9, 8e9, 16).frequencies, 4.0, 28e9)
        assert array_response(1, phis[0]).tolist() == [1.0 + 0j]
        assert array_response(1, phis).tolist() == [[1.0 + 0j] * 16]


class TestBandTable:
    @pytest.mark.parametrize("k", [1, 7, 128])
    @pytest.mark.parametrize("m", [1, 16, 37, 256, 1024])
    @pytest.mark.parametrize("num_angles", [1, 5])
    @pytest.mark.parametrize("bandwidth", [0.0, 2e9, 8e9])
    def test_matches_one_exponential_form(self, k, m, num_angles, bandwidth):
        # One (K, M) table per angle, one call each.
        grid = FrequencyGrid(28e9, bandwidth, k)
        for theta in np.random.default_rng(27).uniform(0, 2 * np.pi, num_angles):
            out = _band_table(m, grid, np.sin(theta))
            direct = array_response_direct(m, spatial_angle(grid.frequencies, theta, grid.carrier_hz)).T * np.sqrt(m)
            assert out.shape == direct.shape == (k, m)
            assert np.max(np.abs(out - direct)) <= 2e-12
            assert np.max(np.abs(np.abs(out) - 1.0)) <= 4e-15


    @pytest.mark.parametrize("k", [1, 7, 128, 131])
    @pytest.mark.parametrize("num_angles", [1, 5])
    def test_is_a_prefix_of_any_wider_table(self, k, num_angles):
        # The block of the steering table does not depend on n, and no entry
        # carries a 1/sqrt(n): the table of n elements is the first n columns
        # of the table of n' > n, bit for bit.
        grid = FrequencyGrid(28e9, 2e9, k)
        for sin_theta in np.sin(np.random.default_rng(k).uniform(0, 2 * np.pi, num_angles)):
            widest = _band_table(300, grid, sin_theta)
            for n in (1, 2, 15, 16, 17, 31, 32, 33, 64, 100, 256, 299):
                assert np.array_equal(_band_table(n, grid, sin_theta), widest[:, :n])
            for n, wider in ((1, 16), (16, 17), (37, 64), (64, 256)):
                assert np.array_equal(_band_table(n, grid, sin_theta), _band_table(wider, grid, sin_theta)[:, :n])

    @pytest.mark.parametrize("k", [7, 131])
    @pytest.mark.parametrize("m", [1, 16, 256])
    def test_prime_subcarrier_count_skips_the_product_with_the_unit_row(self, k, m):
        # At a prime K the fine factor is the single row s = 0, exactly 1 + 0j,
        # so the coarse rows alone equal the broadcast product.
        grid = FrequencyGrid(28e9, 2e9, k)
        for sin_theta in np.sin(np.random.default_rng(m).uniform(0, 2 * np.pi, 5)):
            coarse_phi = (grid.frequencies / (2.0 * grid.carrier_hz)) * sin_theta
            table = _steering_table(m, np.append(coarse_phi, 0.0))
            assert np.array_equal(table[k], np.ones(m, dtype=complex))
            product = table[:k, None, :] * table[None, k:, :]
            assert np.array_equal(_band_table(m, grid, sin_theta), product.reshape(k, m))


class TestUserRows:
    @staticmethod
    def channels(k=16, num_paths=5, m=64):
        paths = sample_path_set(np.random.default_rng([k, num_paths, 31]), num_paths)
        return gen_channels(paths, FrequencyGrid(28e9, 2e9, k), 4, m)

    @pytest.mark.parametrize("k", [7, 128, 131])
    @pytest.mark.parametrize("num_paths", [1, 5])
    def test_is_the_band_table_at_the_arrival_angle_scaled_by_the_cascade(self, k, num_paths):
        # Bit for bit (signed zeros included) one band table at -sin(theta_bs),
        # scaled in place by the first m cascade columns.
        channels = self.channels(k, num_paths)
        for m in (1, 17, 64):
            expected = _band_table(m, channels.grid, -np.sin(channels.source_paths.bs_ris_aoa_rad))
            expected *= channels.cascade[:, :m]
            assert bits(channels.user_rows(m)) == bits(expected)

    @pytest.mark.parametrize("m", [0, 65, 2.5, True], ids=["zero", "above-M", "fraction", "bool"])
    def test_rejects_a_size_that_is_no_integer_in_one_to_m(self, m):
        with pytest.raises(ValueError, match=re.escape("element count must be an integer in [1, 64]")):
            self.channels().user_rows(m)

    def test_size_is_required(self):
        with pytest.raises(TypeError):
            self.channels().user_rows()

    @pytest.mark.parametrize("m", [1, 17, 64])
    def test_returns_a_fresh_writable_contiguous_table(self, m):
        channels = self.channels()
        rows = channels.user_rows(m)
        assert rows.shape == (16, m) and rows.dtype == complex
        assert rows.flags.c_contiguous and rows.flags.writeable
        assert not np.shares_memory(rows, channels.cascade)
        again = channels.user_rows(m)
        assert not np.shares_memory(rows, again)
        rows[:] = 0
        assert bits(channels.user_rows(m)) == bits(again)


class TestPathSet:
    def test_finite_draws_are_kept(self):
        paths = sample_path_set(np.random.default_rng(3), 2)
        assert dataclasses.replace(paths) == paths


class TestSamplePathSet:
    def test_same_seed_reproduces_paths(self):
        a = sample_path_set(np.random.default_rng(7), 5)
        b = sample_path_set(np.random.default_rng(7), 5)
        assert a == b

    def test_nlos_path_count(self):
        paths = sample_path_set(np.random.default_rng(0), 5)
        assert len(paths.ru_angles_rad) == len(paths.ru_gains) == len(paths.ru_delays_s) == 5

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError):
            sample_path_set(np.random.default_rng(0), 0)

    @pytest.mark.parametrize("num_paths", [2.5, True], ids=["fraction", "bool"])
    def test_rejects_count_that_is_no_integer(self, num_paths):
        with pytest.raises(ValueError, match="num_paths must be an integer >= 1"):
            sample_path_set(np.random.default_rng(0), num_paths)

    @pytest.mark.parametrize("gain_mode", ["bogus", "Unit", None])
    def test_rejects_gain_mode_before_any_draw(self, gain_mode):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=re.escape(f"gain_mode must be 'unit' or 'random', got {gain_mode!r}")):
            sample_path_set(rng, 1, gain_mode=gain_mode)
        assert rng.bit_generator.state == state

    def test_delay_moments(self):
        # U(0, 20 ns] has mean 10 ns and sd 20ns/sqrt(12).
        rng = np.random.default_rng(3)
        delays = np.array([sample_path_set(rng, 1).ru_delays_s[0] for _ in range(10**5)])
        std_error = (DELAY_MAX_S / np.sqrt(12)) / np.sqrt(len(delays))
        assert abs(delays.mean() - 10e-9) < 3 * std_error
        assert delays.min() > 0
        assert delays.max() <= DELAY_MAX_S

    @pytest.mark.parametrize("gain_mode", ["random", "unit"])
    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
    def test_matches_rng_uniform_draws(self, monkeypatch, num_paths, gain_mode):
        def draw(seed):
            rng = np.random.default_rng(seed)
            return [sample_path_set(rng, num_paths, gain_mode=gain_mode) for _ in range(50)]

        fast = {seed: draw(seed) for seed in (0, 1, 7, 2**63 + 5)}
        monkeypatch.setattr(channel_module, "_open_closed_uniform", lambda rng, high: high - rng.uniform(0.0, high))
        assert fast == {seed: draw(seed) for seed in fast}

    def test_angles_in_half_open_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            paths = sample_path_set(rng, 3)
            angles = [paths.bs_ris_aoa_rad, *paths.ru_angles_rad]
            assert all(0 < a <= 2 * np.pi for a in angles)

    def test_unit_gain_mode(self):
        paths = sample_path_set(np.random.default_rng(5), 4, gain_mode="unit")
        assert paths.bs_ris_gain == 1.0 + 0j
        assert all(g == 1.0 + 0j for g in paths.ru_gains)

    def test_random_gain_moments(self):
        rng = np.random.default_rng(6)
        gains = np.array([sample_path_set(rng, 1).bs_ris_gain for _ in range(20000)])
        assert abs(np.mean(np.abs(gains) ** 2) - 1.0) < 0.05
        assert abs(gains.mean()) < 0.02


class TestGenChannels:
    def test_bs_ris_slices_are_rank_one(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        channels = gen_channels(los_paths(), grid, 6, 5)
        for aod, delay in BS_DEPARTURES:
            for k in range(8):
                s = np.linalg.svd(h_bs_ris(channels, aod, delay, k), compute_uv=False)
                assert s[1] < 1e-9 * s[0]

    def test_bs_ris_frobenius_norm(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        gain = 0.8 - 0.3j
        channels = gen_channels(los_paths(gain=gain), grid, 6, 5)
        for aod, delay in BS_DEPARTURES:
            for k in range(8):
                norm = np.linalg.norm(h_bs_ris(channels, aod, delay, k))
                assert norm == pytest.approx(np.sqrt(30) * abs(gain), rel=1e-12)

    def test_los_user_link_norm(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        channels = gen_channels(los_paths(), grid, 4, 16)
        norms = np.linalg.norm(user_rows(channels), axis=1)
        assert np.allclose(norms, 4.0, rtol=1e-12)

    def test_zero_bandwidth_freezes_all_subcarriers(self):
        grid = FrequencyGrid(28e9, 0.0, 8)
        paths = sample_path_set(np.random.default_rng(8), 3)
        channels = gen_channels(paths, grid, 4, 6)
        rows = user_rows(channels)
        for k in range(1, 8):
            for aod, delay in BS_DEPARTURES:
                assert np.array_equal(h_bs_ris(channels, aod, delay, k), h_bs_ris(channels, aod, delay, 0))
            assert np.array_equal(rows[k], rows[0])

    def test_pure_function_of_inputs(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(9), 5)
        a = gen_channels(paths, grid, 4, 6)
        b = gen_channels(paths, grid, 4, 6)
        for aod, delay in BS_DEPARTURES:
            assert np.array_equal(h_bs_ris(a, aod, delay), h_bs_ris(b, aod, delay))
        assert np.array_equal(user_rows(a), user_rows(b))

    def test_shapes(self):
        grid = FrequencyGrid(28e9, 2e9, 3)
        channels = gen_channels(los_paths(), grid, 4, 6)
        assert h_bs_ris(channels, *BS_DEPARTURES[0]).shape == (3, 6, 4)
        assert user_rows(channels).shape == (3, 6)
        assert channels.grid.num_subcarriers == 3
        assert not hasattr(channels, "num_subcarriers")
        assert channels.num_ris_elements == 6
        assert channels.num_bs_antennas == 4

    @pytest.mark.parametrize("num_paths", [1, 4], ids=["los-1", "nlos-4"])
    @pytest.mark.parametrize("bandwidth", [0.0, 2e9])
    def test_lazy_bs_views_match_eager_construction(self, num_paths, bandwidth):
        grid = FrequencyGrid(28e9, bandwidth, 9)
        paths = sample_path_set(np.random.default_rng(12), num_paths)
        channels = gen_channels(paths, grid, 5, 7)
        # The steering vectors and dense tensor as gen_channels once stored
        # them, from one exponential per entry.
        f = grid.frequencies
        eager_a_ris = array_response_direct(7, spatial_angle(f, paths.bs_ris_aoa_rad, grid.carrier_hz)).T
        assert np.array_equal(a_ris(channels), eager_a_ris)
        for aod, delay in BS_DEPARTURES:
            eager_a_bs = array_response_direct(5, spatial_angle(f, aod, grid.carrier_hz)).T
            scale = np.sqrt(7 * 5) * paths.bs_ris_gain * np.exp(-2j * np.pi * delay * f)
            eager_h_bs_ris = np.einsum("k,km,kn->kmn", scale, eager_a_ris, np.conj(eager_a_bs))
            assert np.array_equal(a_bs(channels, aod), eager_a_bs)
            assert np.array_equal(h_bs_ris(channels, aod, delay), eager_h_bs_ris)
            for k in range(9):
                assert np.array_equal(a_bs(channels, aod, k), eager_a_bs[k])
                assert np.array_equal(h_bs_ris(channels, aod, delay, k), eager_h_bs_ris[k])

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los-1", "nlos-5"])
    @pytest.mark.parametrize("m", [1, 7, 64, 256])
    def test_tables_match_one_exponential_build(self, num_paths, m):
        grid = FrequencyGrid(28e9, 2e9, 32)
        paths = sample_path_set(np.random.default_rng(13), num_paths)
        channels = gen_channels(paths, grid, 4, m)
        f = grid.frequencies
        oracle_a_ris = array_response_direct(m, spatial_angle(f, paths.bs_ris_aoa_rad, grid.carrier_hz)).T
        h_ris_user = np.zeros((32, m), dtype=complex)
        for angle, gain, delay_s in zip(paths.ru_angles_rad, paths.ru_gains, paths.ru_delays_s):
            a_ru = array_response_direct(m, spatial_angle(f, angle, grid.carrier_hz)).T
            delay = np.exp(-2j * np.pi * delay_s * f)
            h_ris_user += (gain * delay)[:, None] * np.conj(a_ru)
        h_ris_user *= np.sqrt(m / num_paths)
        cascade = h_ris_user * oracle_a_ris * np.sqrt(m)
        for table, oracle in ((user_rows(channels), h_ris_user), (channels.cascade, cascade)):
            assert table.shape == (32, m)
            assert np.allclose(table, oracle, rtol=0, atol=1e-12 * np.max(np.abs(oracle)))

    def test_builds_each_steering_table_from_about_two_sqrt_m_exponentials(self, monkeypatch):
        # Each of the L band tables factors K = 128 as 16 coarse rows times
        # C = 8 fine ones, and takes 2 * sqrt(M) exponentials for each of those
        # K/C + C angles; the delay phases add one per subcarrier and path, and
        # one per subcarrier for the BS hop. A separate surface table, or a table
        # of K angles, exceeds the bound and fails.
        k, m, num_paths, step = 128, 256, 5, 8
        evaluated = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            evaluated.append(np.size(out))
            return out

        paths = sample_path_set(np.random.default_rng(14), num_paths)
        grid = FrequencyGrid(28e9, 2e9, k)
        monkeypatch.setattr(np, "exp", counting_exp)
        gen_channels(paths, grid, 4, m)
        assert evaluated
        assert sum(evaluated) <= num_paths * ((k // step + step) * 2 * math.ceil(math.sqrt(m)) + k) + k

    def test_rejects_bad_dimensions(self):
        grid = FrequencyGrid(28e9, 2e9, 3)
        with pytest.raises(ValueError):
            gen_channels(los_paths(), grid, 0, 6)

    @pytest.mark.parametrize(
        "n,m", [(2.5, 8), (True, 8), (4, 8.0), (4, True)], ids=["fraction", "bool", "float-elements", "bool-elements"]
    )
    def test_rejects_count_that_is_no_integer(self, n, m):
        grid = FrequencyGrid(28e9, 2e9, 3)
        with pytest.raises(ValueError, match="counts must be integers >= 1"):
            gen_channels(los_paths(), grid, n, m)

    @pytest.mark.parametrize("num_paths", [1, 5, 9])
    @pytest.mark.parametrize("m", [16, 37, 100])
    def test_user_rows_are_the_coefficient_first_products(self, m, num_paths):
        # The user rows, formed from the cascade, against the sum over paths of
        # gain * delay phase * conj(a(theta_l)) accumulated path by path, one
        # exponential per entry. The rows vary across the band.
        paths = sample_path_set(np.random.default_rng(21), num_paths)
        channels = gen_channels(paths, FrequencyGrid(28e9, 2e9, 32), 4, m)
        rows = user_rows(channels)
        assert rows.shape == (32, m)
        assert table_deviation(channels)[1] <= TABLE_TOL
        assert not np.allclose(rows[0], rows[-1])

    @pytest.mark.parametrize("bandwidth", [0.0, 2e9, 8e9])
    @pytest.mark.parametrize("num_paths", [1, 5, 9])
    @pytest.mark.parametrize("m", [1, 16, 37, 256, 1024])
    @pytest.mark.parametrize("k", [1, 7, 128])
    def test_cascade_and_rows_match_one_exponential_form(self, k, m, num_paths, bandwidth):
        # Both tables within TABLE_TOL of the one-exponential oracle (see
        # reference.TABLE_TOL for the units). These draws reach 1.4e-12 for the
        # cascade and 1.5e-12 for the rows; other draws reach 2.6e-12 and 2.2e-12.
        paths = sample_path_set(np.random.default_rng([k, m, num_paths]), num_paths)
        channels = gen_channels(paths, FrequencyGrid(28e9, bandwidth, k), 4, m)
        cascade_error, rows_error = table_deviation(channels)
        assert channels.cascade.shape == user_rows(channels).shape == (k, m)
        assert cascade_error <= TABLE_TOL and rows_error <= TABLE_TOL

    @pytest.mark.parametrize("num_paths", [1, 1, 5], ids=["los-1", "nlos-1", "nlos-5"])
    def test_one_steering_table_call_per_path_and_per_design(self, monkeypatch, num_paths):
        # gen_channels makes one band table per path, at its difference angle,
        # in path order. The realization keeps no user rows, so each design_mccm
        # call forms its own with one more, at -sin(theta_bs). Each makes one
        # steering-table call over K/C + C = 4 + 4 angles, not K = 16.
        band_shapes, angle_shapes = [], []

        def counting_band(n_elements, grid, sin_theta):
            band_shapes.append(np.shape(sin_theta))
            return _band_table(n_elements, grid, sin_theta)

        def counting_table(n_elements, phi):
            angle_shapes.append(np.shape(phi))
            return _steering_table(n_elements, phi)

        paths = sample_path_set(np.random.default_rng(22), num_paths)
        grid = FrequencyGrid(28e9, 2e9, 16)
        monkeypatch.setattr(channel_module, "_band_table", counting_band)
        monkeypatch.setattr(channel_module, "_steering_table", counting_table)
        channels = gen_channels(paths, grid, 4, 8)
        assert band_shapes == [()] * num_paths
        assert angle_shapes == [(8,)] * num_paths
        design_mccm(channels)
        design_mccm(channels, 3)
        assert band_shapes == [()] * (num_paths + 2)
        assert angle_shapes == [(8,)] * (num_paths + 2)


class TestCascade:
    @staticmethod
    def channels():
        grid = FrequencyGrid(28e9, 2e9, 8)
        return gen_channels(sample_path_set(np.random.default_rng(23), 3), grid, 4, 6)

    def test_replace_recomputes_cascade_and_powers(self):
        # New user paths through replace must give the cascade, powers and rows
        # of those paths: nothing built for the old ones is kept.
        channels = self.channels()
        old_rows = user_rows(channels)
        rng = np.random.default_rng(24)
        paths = sample_path_set(rng, 3)
        diag = np.exp(2j * np.pi * rng.uniform(size=6))
        moved = dataclasses.replace(channels, source_paths=paths)
        fresh = gen_channels(paths, channels.grid, 4, 6)
        cascade, gain = moved.cascade, moved.bs_ris_power_gain
        assert np.array_equal(cascade, fresh.cascade)
        assert gain == fresh.bs_ris_power_gain != channels.bs_ris_power_gain
        assert np.array_equal(user_rows(moved), user_rows(fresh))
        assert not np.allclose(user_rows(moved), old_rows)
        assert max(table_deviation(moved)) <= TABLE_TOL
        assert np.array_equal(moved.received_power(diag), gain * np.abs(cascade @ diag) ** 2)
        assert np.array_equal(moved.aligned_power(), gain * np.sum(np.abs(cascade), axis=1) ** 2)

    @pytest.mark.parametrize("change", ["source_paths", "grid"])
    def test_replace_recomputes_the_bs_hop(self, change):
        # A new arrival angle and BS gain, or a grid of another bandwidth, must
        # give the power gain and cascade of the new paths or grid, not the old.
        channels = self.channels()
        if change == "source_paths":
            aoa = channels.source_paths.bs_ris_aoa_rad + 0.3
            source = dataclasses.replace(channels.source_paths, bs_ris_aoa_rad=aoa, bs_ris_gain=0.5 - 0.25j)
            moved = dataclasses.replace(channels, source_paths=source)
            assert moved.bs_ris_power_gain != channels.bs_ris_power_gain
        else:
            moved = dataclasses.replace(channels, grid=FrequencyGrid(28e9, 3e9, 8))
        assert moved.bs_ris_power_gain == 4 * abs(moved.source_paths.bs_ris_gain) ** 2
        assert table_deviation(moved)[0] <= TABLE_TOL
        assert not np.allclose(moved.cascade, channels.cascade)

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
    def test_stores_one_table_and_the_scale(self, num_paths):
        # Its fields hold cascade (K, M), complex128, and the one float bs_ris_power_gain.
        k, m = 16, 12
        grid = FrequencyGrid(28e9, 2e9, k)
        channels = gen_channels(sample_path_set(np.random.default_rng(26), num_paths), grid, 4, m)
        stored = sum(getattr(getattr(channels, f.name), "nbytes", 0) for f in dataclasses.fields(channels))
        assert stored == k * m * 16
        assert isinstance(channels.bs_ris_power_gain, float)

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
    def test_a_size_sweep_adds_no_attribute(self, num_paths):
        # The designs and rates of a whole size sweep read the realization and
        # leave it as built: no rows or other table is kept on it.
        sizes = (16, 4, 37, 8, 1, 64)
        grid = FrequencyGrid(28e9, 2e9, 16)
        channels = gen_channels(sample_path_set(np.random.default_rng(25), num_paths), grid, 4, max(sizes))
        snrs = np.array([0.1, 10.0])
        profiles = [design_mccm(channels, m) for m in sizes]
        assert sum_rate(channels, profiles, snrs, sizes).shape == (2, len(sizes), len(sizes))
        assert ideal_rate(channels, snrs, sizes).shape == (2, len(sizes))
        assert list(vars(channels)) == [f.name for f in dataclasses.fields(channels)]

    @pytest.mark.parametrize("num_bs_antennas,num_ris_elements", [(1, 1), (4, 6), (64, 256), (7, 1000)])
    @pytest.mark.parametrize("gain", [None, 1.0 + 0j, 0.8 - 0.3j, 0j], ids=["drawn", "unit", "fixed", "zero"])
    def test_power_gain_is_n_times_the_squared_bs_gain(self, num_bs_antennas, num_ris_elements, gain):
        # Exactly N*|g_bs|^2, whatever the BS delay and M: the delay phase is
        # common to all M elements, so |sqrt(N) g_bs exp(-j*2*pi*tau*f_k)|^2 is the
        # same up to rounding, and the sqrt(M) goes with the modulus-1 element responses.
        paths = sample_path_set(np.random.default_rng(27), 3)
        if gain is not None:
            paths = dataclasses.replace(paths, bs_ris_gain=gain)
        grid = FrequencyGrid(28e9, 2e9, 8)
        channels = gen_channels(paths, grid, num_bs_antennas, num_ris_elements)
        expected = num_bs_antennas * abs(paths.bs_ris_gain) ** 2
        assert channels.bs_ris_power_gain == expected
        for _, delay in BS_DEPARTURES:
            delayed = np.sqrt(num_bs_antennas) * paths.bs_ris_gain
            delayed = np.abs(delayed * np.exp(-2j * np.pi * delay * grid.frequencies)) ** 2
            np.testing.assert_allclose(delayed, expected, rtol=1e-14, atol=0)
        assert np.all(np.isfinite(channels.aligned_power()))

    def test_cascade_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            self.channels().cascade[0] *= 2

    def test_rows_are_no_constructor_argument(self):
        with pytest.raises(TypeError, match="h_ris_user"):
            dataclasses.replace(self.channels(), h_ris_user=np.ones((8, 6), dtype=complex))


class TestPathSum:
    #: Bytes of the two operand buffers, np.getbufsize() complex entries each,
    #: that numpy allocates for _band_table's broadcast product: 256 KiB.
    UFUNC_BUFFERS = 2 * np.getbufsize() * 16

    @staticmethod
    def build_peak(num_paths, k, m) -> int:
        """Traced peak bytes of one ``gen_channels`` call with L = ``num_paths`` on K = ``k``, M = ``m``."""
        paths = sample_path_set(np.random.default_rng(num_paths), num_paths)
        grid = FrequencyGrid(28e9, 2e9, k)
        tracemalloc.start()
        try:
            gen_channels(paths, grid, 4, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("gain", ["drawn", "zero", "signed-zero-first"])
    @pytest.mark.parametrize("m", [1, 37, 64])
    @pytest.mark.parametrize("k", [7, 128, 131])
    @pytest.mark.parametrize("num_paths", [1, 2, 5, 9, 20])
    def test_path_by_path_build_is_the_summed_stack_bit_for_bit(self, num_paths, k, m, gain):
        # Tabled one path at a time, the cascade has the bits of the summed
        # (L, K, M) stack, signed zeros included: zero gains make scaled tables
        # of signed zeros, which the sum's zero start turns to 0.0.
        grid = FrequencyGrid(28e9, 2e9, k)
        drawn = sample_path_set(np.random.default_rng([num_paths, k, m]), num_paths)
        ru_gains = {
            "drawn": drawn.ru_gains,
            "zero": (0j,) * num_paths,
            "signed-zero-first": (complex(-0.0, -0.0),) + drawn.ru_gains[1:],
        }[gain]
        channels = gen_channels(dataclasses.replace(drawn, ru_gains=ru_gains), grid, 4, m)
        assert bits(channels.cascade) == bits(summed_cascade(channels))

    def test_one_path_peaks_at_one_table_and_its_factor_rows(self):
        # K = M = 512: one (K, M) table of 4 MiB, and K/C + C = 32 + 16 factor
        # rows of M entries. The table is scaled and kept as the cascade, with
        # no second table for a sum; the slack is the product's operand buffers.
        k = m = 512
        table, factor_rows = k * m * 16, (32 + 16) * m * 16
        assert self.build_peak(1, k, m) < table + factor_rows + self.UFUNC_BUFFERS

    @pytest.mark.parametrize("m", [16, 37])
    @pytest.mark.parametrize("k", [128, 131])
    def test_one_path_cascade_holds_no_padded_columns(self, k, m):
        # Steering tables are filled to exactly M columns, so at a prime K, where
        # the one-path table is kept as the cascade, no part block of 16 is held.
        channels = gen_channels(sample_path_set(np.random.default_rng(k), 1), FrequencyGrid(28e9, 2e9, k), 4, m)
        held = channels.cascade if channels.cascade.base is None else channels.cascade.base
        assert channels.cascade.flags.c_contiguous
        assert held.nbytes == k * m * 16

    @pytest.mark.parametrize("num_paths", [5, 20, 40])
    def test_many_paths_peak_at_two_tables_and_one_paths_factor_rows(self, num_paths):
        # K = M = 512: the (K, M) sum and one path's table of 4 MiB each, that
        # path's K/C + C = 32 + 16 factor rows of M entries and its one
        # coefficient row of K entries. No second path table or coefficient
        # row is held while one is added; the slack is the product's operand buffers.
        k = m = 512
        table, factor_rows, coef_row = k * m * 16, (32 + 16) * m * 16, k * 16
        assert self.build_peak(num_paths, k, m) < 2 * table + factor_rows + coef_row + self.UFUNC_BUFFERS

    @pytest.mark.parametrize("num_paths", [20, 40])
    def test_many_paths_peak_does_not_grow_with_the_path_count(self, num_paths):
        # K = 4096, M = 16: a coefficient row of K entries is a sizable part
        # of a table, so rows held for every path would show at once.
        k, m = 4096, 16
        assert self.build_peak(num_paths, k, m) <= self.build_peak(5, k, m) + 64 * 1024


class TestSizes:
    @pytest.mark.parametrize("k", [7, 128, 131])
    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
    def test_is_the_direct_build_bit_for_bit(self, num_paths, k):
        # Row z of either power over sizes is, bit for bit, that power of
        # gen_channels at sizes[z], on the first m entries of each diagonal.
        grid = FrequencyGrid(28e9, 2e9, k)
        paths = sample_path_set(np.random.default_rng([num_paths, k]), num_paths)
        widest = gen_channels(paths, grid, 8, 256)
        diags = np.exp(2j * np.pi * np.random.default_rng(k).uniform(size=(3, 256)))
        sizes = (1, 2, 15, 16, 17, 37, 64, 128, 200, 255, 256)
        stacked, one, aligned = (
            widest.received_power(diags, sizes), widest.received_power(diags[0], sizes), widest.aligned_power(sizes)
        )
        assert stacked.shape == (len(sizes), 3, k) and one.shape == aligned.shape == (len(sizes), k)
        for z, m in enumerate(sizes):
            direct = gen_channels(paths, grid, 8, m)
            assert np.array_equal(widest.cascade[:, :m], direct.cascade)
            assert bits(stacked[z]) == bits(direct.received_power(diags[:, :m]))
            assert bits(one[z]) == bits(direct.received_power(diags[0, :m]))
            assert bits(aligned[z]) == bits(direct.aligned_power())


class TestPathSetValidation:
    @staticmethod
    def path_set(angles=(1.0,), gains=(1.0,), delays=(1e-9,)):
        return PathSet(0.1, 1.0, angles, gains, delays)

    def test_requires_at_least_one_path(self):
        with pytest.raises(ValueError, match="at least one surface-to-user path"):
            self.path_set((), (), ())

    @pytest.mark.parametrize("delays", [(1e-9, -1e-9), (-1e-9, 2e-9)], ids=["user", "first-user"])
    def test_rejects_negative_delay(self, delays):
        with pytest.raises(ValueError, match="path delays must be nonnegative"):
            self.path_set((1.0, 2.0), (1.0, 1.0), delays)

    @pytest.mark.parametrize(
        "angles,gains,delays",
        [((1.0, 2.0), (1.0,), (1e-9,)), ((1.0,), (1.0, 1.0), (1e-9,)), ((1.0,), (1.0,), (1e-9, 2e-9)), ((), (1.0,), ())],
        ids=["angles", "gains", "delays", "empty-angles"],
    )
    def test_rejects_user_tuples_of_different_lengths(self, angles, gains, delays):
        with pytest.raises(ValueError, match="differ in length"):
            self.path_set(angles, gains, delays)
