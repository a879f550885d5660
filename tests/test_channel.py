import dataclasses
import math

import numpy as np
import pytest

import squintsim.channel as channel_module
from squintsim.channel import (
    DELAY_MAX_S,
    PathSet,
    _steering_table,
    array_response,
    build_frequency_grid,
    gen_channels,
    sample_path_set,
    spatial_angle,
)

from reference import a_bs, a_ris, array_response_direct, h_bs_ris

ORACLE_SIZES = (1, 2, 3, 5, 16, 17, 63, 64, 255, 256, 257, 1000, 1023, 1024)


def los_paths(aoa=0.4, aod=1.1, ru_angle=2.0, gain=1.0 + 0j, delay=5e-9, ru_delay=3e-9):
    return PathSet(
        bs_ris_aoa_rad=aoa,
        bs_ris_aod_rad=aod,
        bs_ris_gain=gain,
        bs_ris_delay_s=delay,
        ru_angles_rad=(ru_angle,),
        ru_gains=(gain,),
        ru_delays_s=(ru_delay,),
    )


class TestFrequencyGrid:
    def test_default_grid_endpoints(self):
        # 28 GHz carrier, 2 GHz over 128 subcarriers: edges at +/- 63.5 spacings.
        grid = build_frequency_grid(28e9, 2e9, 128)
        assert grid.frequencies[0] == 27.0078125e9
        assert grid.frequencies[-1] == 28.9921875e9
        assert grid.num_subcarriers == 128

    def test_single_subcarrier_sits_at_carrier(self):
        grid = build_frequency_grid(28e9, 1.7e9, 1)
        assert grid.frequencies.tolist() == [28e9]

    def test_mean_is_carrier(self):
        grid = build_frequency_grid(28e9, 2e9, 128)
        assert np.mean(grid.frequencies) == 28e9

    def test_symmetry_about_carrier(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            carrier = rng.uniform(1e9, 100e9)
            bandwidth = rng.uniform(0, carrier)
            k = int(rng.integers(1, 257))
            grid = build_frequency_grid(carrier, bandwidth, k)
            folded = grid.frequencies + grid.frequencies[::-1]
            assert np.allclose(folded, 2 * carrier, rtol=1e-12)

    def test_strictly_increasing_with_positive_bandwidth(self):
        grid = build_frequency_grid(28e9, 0.5e9, 64)
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
            build_frequency_grid(carrier, bandwidth, k)


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
        grid = build_frequency_grid(28e9, 0.0, 16)
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

    def test_rejects_zero_elements(self):
        with pytest.raises(ValueError):
            array_response(0, 0.1)

    @pytest.mark.parametrize("n", [2.5, 4.0, True], ids=["fraction", "integral-float", "bool"])
    def test_rejects_count_that_is_no_integer(self, n):
        with pytest.raises(ValueError, match="n_elements must be an integer >= 1"):
            array_response(n, 0.1)

    def test_vector_angles_give_matrix(self):
        out = array_response(4, np.array([0.1, 0.2, 0.3]))
        assert out.shape == (4, 3)
        assert np.allclose(out[:, 1], array_response(4, 0.2))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @pytest.mark.parametrize("bandwidth", [2e9, 8e9])
    def test_matches_one_exponential_form(self, n, bandwidth):
        # Spatial angles of a full band, and the largest one alone as a scalar.
        grid = build_frequency_grid(28e9, bandwidth, 64)
        phis = spatial_angle(grid.frequencies, 1.3, grid.carrier_hz)
        for phi, shape in ((phis[-1], (n,)), (phis, (n, 64))):
            out = array_response(n, phi)
            assert out.shape == shape
            assert np.max(np.abs(out - array_response_direct(n, phi))) * np.sqrt(n) <= 2e-12
            assert np.max(np.abs(np.abs(out) * np.sqrt(n) - 1.0)) <= 2e-15

    def test_single_element_is_exactly_one_for_every_angle(self):
        phis = spatial_angle(build_frequency_grid(28e9, 8e9, 16).frequencies, 4.0, 28e9)
        assert array_response(1, phis[0]).tolist() == [1.0 + 0j]
        assert array_response(1, phis).tolist() == [[1.0 + 0j] * 16]


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

    def test_delay_moments(self):
        # U(0, 20 ns] has mean 10 ns and sd 20ns/sqrt(12).
        rng = np.random.default_rng(3)
        delays = np.array([sample_path_set(rng, 1).bs_ris_delay_s for _ in range(10**5)])
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
            angles = [paths.bs_ris_aoa_rad, paths.bs_ris_aod_rad] + list(paths.ru_angles_rad)
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
        grid = build_frequency_grid(28e9, 2e9, 8)
        channels = gen_channels(los_paths(), grid, 6, 5)
        for k in range(8):
            s = np.linalg.svd(h_bs_ris(channels, k), compute_uv=False)
            assert s[1] < 1e-9 * s[0]

    def test_bs_ris_frobenius_norm(self):
        grid = build_frequency_grid(28e9, 2e9, 8)
        gain = 0.8 - 0.3j
        channels = gen_channels(los_paths(gain=gain), grid, 6, 5)
        for k in range(8):
            norm = np.linalg.norm(h_bs_ris(channels, k))
            assert norm == pytest.approx(np.sqrt(30) * abs(gain), rel=1e-12)

    def test_los_user_link_norm(self):
        grid = build_frequency_grid(28e9, 2e9, 8)
        channels = gen_channels(los_paths(), grid, 4, 16)
        norms = np.linalg.norm(channels.h_ris_user, axis=1)
        assert np.allclose(norms, 4.0, rtol=1e-12)

    def test_zero_bandwidth_freezes_all_subcarriers(self):
        grid = build_frequency_grid(28e9, 0.0, 8)
        paths = sample_path_set(np.random.default_rng(8), 3)
        channels = gen_channels(paths, grid, 4, 6)
        for k in range(1, 8):
            assert np.array_equal(h_bs_ris(channels, k), h_bs_ris(channels, 0))
            assert np.array_equal(channels.h_ris_user[k], channels.h_ris_user[0])

    def test_pure_function_of_inputs(self):
        grid = build_frequency_grid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(9), 5)
        a = gen_channels(paths, grid, 4, 6)
        b = gen_channels(paths, grid, 4, 6)
        assert np.array_equal(h_bs_ris(a), h_bs_ris(b))
        assert np.array_equal(a.h_ris_user, b.h_ris_user)

    def test_shapes(self):
        grid = build_frequency_grid(28e9, 2e9, 3)
        channels = gen_channels(los_paths(), grid, 4, 6)
        assert h_bs_ris(channels).shape == (3, 6, 4)
        assert channels.h_ris_user.shape == (3, 6)
        assert channels.num_subcarriers == 3
        assert channels.num_ris_elements == 6
        assert channels.num_bs_antennas == 4

    @pytest.mark.parametrize("num_paths", [1, 4], ids=["los-1", "nlos-4"])
    @pytest.mark.parametrize("bandwidth", [0.0, 2e9])
    def test_lazy_bs_views_match_eager_construction(self, num_paths, bandwidth):
        grid = build_frequency_grid(28e9, bandwidth, 9)
        paths = sample_path_set(np.random.default_rng(12), num_paths)
        channels = gen_channels(paths, grid, 5, 7)
        # The BS steering vectors and dense tensor as gen_channels once stored
        # them, from one exponential per entry. The dense tensor takes the
        # reference surface table, which must match the one-exponential build to rounding.
        f = grid.frequencies
        direct_a_ris = array_response_direct(7, spatial_angle(f, paths.bs_ris_aoa_rad, grid.carrier_hz)).T
        eager_a_bs = array_response_direct(5, spatial_angle(f, paths.bs_ris_aod_rad, grid.carrier_hz)).T
        scale = np.sqrt(7 * 5) * paths.bs_ris_gain * np.exp(-2j * np.pi * paths.bs_ris_delay_s * f)
        eager_h_bs_ris = np.einsum("k,km,kn->kmn", scale, a_ris(channels), np.conj(eager_a_bs))
        assert np.allclose(a_ris(channels), direct_a_ris, rtol=0, atol=1e-12)
        assert np.array_equal(a_bs(channels), eager_a_bs)
        assert np.array_equal(h_bs_ris(channels), eager_h_bs_ris)
        for k in range(9):
            assert np.array_equal(a_bs(channels, k), eager_a_bs[k])
            assert np.array_equal(h_bs_ris(channels, k), eager_h_bs_ris[k])

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los-1", "nlos-5"])
    @pytest.mark.parametrize("m", [1, 7, 64, 256])
    def test_tables_match_one_exponential_build(self, num_paths, m):
        grid = build_frequency_grid(28e9, 2e9, 32)
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
        for table, oracle in ((channels.h_ris_user, h_ris_user), (channels.cascade, h_ris_user * oracle_a_ris)):
            assert table.shape == (32, m)
            assert np.allclose(table, oracle, rtol=0, atol=1e-12 * np.max(np.abs(oracle)))

    def test_builds_each_steering_table_from_about_two_sqrt_m_exponentials(self, monkeypatch):
        # One exponential per entry would take (1 + L) * K * (M + 1); the +2 per
        # subcarrier covers the delay phase of each path and rounding.
        k, m, num_paths = 128, 256, 5
        evaluated = []
        real_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            out = real_exp(x, *args, **kwargs)
            evaluated.append(np.size(out))
            return out

        paths = sample_path_set(np.random.default_rng(14), num_paths)
        grid = build_frequency_grid(28e9, 2e9, k)
        monkeypatch.setattr(np, "exp", counting_exp)
        gen_channels(paths, grid, 4, m)
        assert evaluated
        assert sum(evaluated) <= (1 + num_paths) * k * (2 * math.ceil(math.sqrt(m)) + 2)

    def test_rejects_bad_dimensions(self):
        grid = build_frequency_grid(28e9, 2e9, 3)
        with pytest.raises(ValueError):
            gen_channels(los_paths(), grid, 0, 6)

    @pytest.mark.parametrize(
        "n,m", [(2.5, 8), (True, 8), (4, 8.0), (4, True)], ids=["fraction", "bool", "float-elements", "bool-elements"]
    )
    def test_rejects_count_that_is_no_integer(self, n, m):
        grid = build_frequency_grid(28e9, 2e9, 3)
        with pytest.raises(ValueError, match="counts must be integers >= 1"):
            gen_channels(los_paths(), grid, n, m)

    @pytest.mark.parametrize("num_paths", [1, 5, 9])
    @pytest.mark.parametrize("m", [16, 37, 100])
    def test_user_rows_are_the_coefficient_first_products(self, m, num_paths):
        # The stacked path tables are scaled in place and summed over the path
        # axis; the result must equal accumulating coef * table path by path
        # from zero, bit for bit. The product keeps the operand order of
        # coef * table, which numpy rounds differently from table * coef.
        paths = sample_path_set(np.random.default_rng(21), num_paths)
        grid = build_frequency_grid(28e9, 2e9, 32)
        f = grid.frequencies
        expected = np.zeros((32, m), dtype=complex)
        for angle, gain, delay_s in zip(paths.ru_angles_rad, paths.ru_gains, paths.ru_delays_s):
            coef = gain * np.exp(-2j * np.pi * delay_s * f)
            expected += coef[:, None] * _steering_table(m, -spatial_angle(f, angle, grid.carrier_hz))
        expected *= np.sqrt(m / num_paths)
        assert np.array_equal(gen_channels(paths, grid, 4, m).h_ris_user, expected)

    @pytest.mark.parametrize("num_paths", [1, 1, 5], ids=["los-1", "nlos-1", "nlos-5"])
    def test_two_steering_table_calls_for_any_path_count(self, monkeypatch, num_paths):
        # One call for the (L, K) user angles, then one for the surface table
        # the realization builds its cascade from, whatever L is.
        shapes = []

        def counting_table(n_elements, phi):
            shapes.append(np.shape(phi))
            return _steering_table(n_elements, phi)

        paths = sample_path_set(np.random.default_rng(22), num_paths)
        grid = build_frequency_grid(28e9, 2e9, 16)
        monkeypatch.setattr(channel_module, "_steering_table", counting_table)
        gen_channels(paths, grid, 4, 8)
        assert shapes == [(num_paths, 16), (16,)]


class TestCascade:
    @staticmethod
    def channels():
        grid = build_frequency_grid(28e9, 2e9, 8)
        return gen_channels(sample_path_set(np.random.default_rng(23), 3), grid, 4, 6)

    def test_replace_recomputes_cascade_and_powers(self):
        # The subcarrier permutation test in test_rate_eval.py passes even with a
        # stale cascade, because |bs_ris_scale| does not vary with k. Rows that do
        # vary with k change every power, so a cascade carried over by replace shows.
        channels = self.channels()
        rng = np.random.default_rng(24)
        h = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        diag = np.exp(2j * np.pi * rng.uniform(size=6))
        moved = dataclasses.replace(channels, h_ris_user=h)
        cascade = h * a_ris(moved)
        scale = np.abs(moved.bs_ris_scale)
        assert np.array_equal(moved.cascade, cascade)
        assert np.array_equal(moved.received_power(diag), scale**2 * np.abs(cascade @ diag) ** 2)
        assert np.array_equal(moved.aligned_power(), (scale * np.sum(np.abs(cascade), axis=1)) ** 2)

    @pytest.mark.parametrize("change", ["source_paths", "grid"])
    def test_replace_recomputes_the_bs_hop(self, change):
        # A new arrival angle, or the same subcarriers in another order, must
        # give the scale and surface table of the new paths or grid, not the old.
        channels = self.channels()
        if change == "source_paths":
            aoa = channels.source_paths.bs_ris_aoa_rad + 0.3
            moved = dataclasses.replace(channels, source_paths=dataclasses.replace(channels.source_paths, bs_ris_aoa_rad=aoa))
        else:
            frequencies = channels.grid.frequencies[np.random.default_rng(25).permutation(8)]
            moved = dataclasses.replace(channels, grid=dataclasses.replace(channels.grid, frequencies=frequencies))
        paths, f = moved.source_paths, moved.grid.frequencies
        scale = np.sqrt(6 * 4) * paths.bs_ris_gain * np.exp(-2j * np.pi * paths.bs_ris_delay_s * f)
        assert np.array_equal(moved.bs_ris_scale, scale)
        assert np.array_equal(moved.cascade, channels.h_ris_user * a_ris(moved))
        assert not np.array_equal(moved.cascade, channels.cascade)

    @pytest.mark.parametrize("num_paths", [1, 5], ids=["los", "nlos"])
    def test_stores_two_tables_and_the_scale(self, num_paths):
        # h_ris_user and cascade (K, M), and bs_ris_scale (K,), all complex128.
        k, m = 16, 12
        grid = build_frequency_grid(28e9, 2e9, k)
        channels = gen_channels(sample_path_set(np.random.default_rng(26), num_paths), grid, 4, m)
        stored = sum(getattr(getattr(channels, f.name), "nbytes", 0) for f in dataclasses.fields(channels))
        assert stored == (2 * k * m + k) * 16

    @pytest.mark.parametrize("name", ["bs_ris_scale", "h_ris_user", "cascade"])
    def test_arrays_are_read_only(self, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(self.channels(), name)[0] *= 2


class TestPathSetValidation:
    @staticmethod
    def path_set(angles=(1.0,), gains=(1.0,), delays=(1e-9,), bs_delay=1e-9):
        return PathSet(0.1, 0.2, 1.0, bs_delay, angles, gains, delays)

    def test_requires_at_least_one_path(self):
        with pytest.raises(ValueError, match="at least one surface-to-user path"):
            self.path_set((), (), ())

    @pytest.mark.parametrize("bs_delay,delays", [(1e-9, (1e-9, -1e-9)), (-1e-9, (1e-9, 2e-9))], ids=["user", "bs"])
    def test_rejects_negative_delay(self, bs_delay, delays):
        with pytest.raises(ValueError, match="path delays must be nonnegative"):
            self.path_set((1.0, 2.0), (1.0, 1.0), delays, bs_delay)

    @pytest.mark.parametrize(
        "angles,gains,delays",
        [((1.0, 2.0), (1.0,), (1e-9,)), ((1.0,), (1.0, 1.0), (1e-9,)), ((1.0,), (1.0,), (1e-9, 2e-9)), ((), (1.0,), ())],
        ids=["angles", "gains", "delays", "empty-angles"],
    )
    def test_rejects_user_tuples_of_different_lengths(self, angles, gains, delays):
        with pytest.raises(ValueError, match="differ in length"):
            self.path_set(angles, gains, delays)
