import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squintsim import phase_design
from squintsim.channel import (
    FrequencyGrid,
    PathSet,
    gen_channels,
    rate_bits,
    sample_path_set,
)
from squintsim.experiments import _CHANNEL_STREAM, SWEEP_GRIDS, _substream
from squintsim.phase_design import (
    CANDIDATE_SNR,
    PhaseProfile,
    _receive_phases,
    design_central,
    design_ideal,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
    mean_channel_covariance,
    phase_extraction,
    principal_direction,
    unit_diagonal,
)
from squintsim.rate_eval import sum_rate

from reference import (
    BS_DEPARTURES,
    array_response,
    bits,
    h_bs_ris,
    rank_one_direction,
    rate_upper_bound,
    spatial_angle,
    subcarrier_covariance_profile,
    user_rows,
    z_factor,
)

SNR = 10.0

#: Surface sizes every designer that takes one rejects, with the design_random message.
NO_COUNTS = pytest.mark.parametrize(
    "count", [True, 2.0, 2.5, 0], ids=["bool", "integral-float", "fraction", "zero"]
)


def assert_phases_equal(a, b, atol=1e-9):
    """Phase vectors compared modulo 2*pi."""
    assert np.allclose(np.exp(1j * (np.asarray(a) - np.asarray(b))), 1.0, atol=atol)


def jensen_kernel(paths, grid, num_ris_elements):
    """``D(d) = sum_k cos(pi*s*d*(f_k - f_c)/f_c)`` for lags d < M, with s = sin(user) - sin(bs)."""
    s = np.sin(paths.ru_angles_rad[0]) - np.sin(paths.bs_ris_aoa_rad)
    offsets = (grid.frequencies - grid.carrier_hz) / grid.carrier_hz
    return np.cos(np.pi * s * np.multiply.outer(np.arange(num_ris_elements), offsets)).sum(axis=1)


def los_paths(aoa, ru_angle, gain=1.0 + 0j):
    return PathSet(
        bs_ris_aoa_rad=aoa,
        bs_ris_gain=gain,
        ru_angles_rad=(ru_angle,),
        ru_gains=(gain,),
        ru_delays_s=(2e-9,),
    )


class TestDesignIdeal:
    def test_matched_angles_need_no_compensation(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = los_paths(aoa=0.9, ru_angle=0.9)
        profile = design_ideal(paths, grid, 8, 3)
        assert np.allclose(profile.phases_rad, 0.0)

    def test_quarter_spatial_gap_example(self):
        # At zero bandwidth the spatial angles sit at sin/2, so angles 0 and
        # asin(0.5) give a per-element phase step of 2*pi*0.25.
        grid = FrequencyGrid(28e9, 0.0, 4)
        paths = los_paths(aoa=0.0, ru_angle=np.arcsin(0.5))
        profile = design_ideal(paths, grid, 4, 2)
        assert np.allclose(profile.phases_rad, [0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-12)

    def test_alignment_sum_reaches_element_count(self):
        grid = FrequencyGrid(28e9, 2e9, 32)
        rng = np.random.default_rng(0)
        for _ in range(25):
            paths = sample_path_set(rng, 1)
            k = int(rng.integers(32))
            profile = design_ideal(paths, grid, 16, k)
            assert abs(z_factor(paths, profile, grid, 16, k)) == pytest.approx(16.0, abs=1e-9)

    def test_center_index_matches_central_on_odd_grid(self):
        grid = FrequencyGrid(28e9, 2e9, 11)
        paths = los_paths(aoa=0.8, ru_angle=4.4)
        indexed = design_ideal(paths, grid, 8, 5)
        assert grid.frequencies[5] == grid.carrier_hz
        assert_phases_equal(indexed.phases_rad, design_central(paths, 8).phases_rad, atol=1e-12)

    def test_uses_edge_frequency(self):
        grid = FrequencyGrid(28e9, 2e9, 128)
        paths = los_paths(aoa=0.8, ru_angle=4.4)
        indexed = design_ideal(paths, grid, 8, 0)
        f0 = 27.0078125e9
        delta = spatial_angle(f0, 4.4, 28e9) - spatial_angle(f0, 0.8, 28e9)
        assert np.allclose(indexed.phases_rad, 2 * np.pi * np.arange(8) * delta, atol=1e-12)

    def test_rejects_multipath(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = sample_path_set(np.random.default_rng(1), 3)
        with pytest.raises(ValueError, match="design_ideal needs a single-path surface-to-user link, got 3 paths"):
            design_ideal(paths, grid, 8, 0)

    def test_rejects_out_of_range_subcarrier(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        with pytest.raises(ValueError):
            design_ideal(los_paths(0.3, 0.9), grid, 8, 16)

    @NO_COUNTS
    def test_rejects_count_that_is_no_integer(self, count):
        with pytest.raises(ValueError, match="num_ris_elements must be an integer >= 1"):
            design_ideal(los_paths(0.3, 0.9), FrequencyGrid(28e9, 2e9, 16), count, 0)


class TestDesignCentral:
    def test_matched_angles(self):
        profile = design_central(los_paths(aoa=0.7, ru_angle=0.7), 6)
        assert np.allclose(profile.phases_rad, 0.0)

    def test_unit_sine_gap_example(self):
        profile = design_central(los_paths(aoa=0.0, ru_angle=np.pi / 2), 3)
        assert np.allclose(profile.phases_rad, [0.0, np.pi, 2 * np.pi], atol=1e-12)

    def test_equals_ideal_on_single_subcarrier_grid(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        paths = los_paths(aoa=0.3, ru_angle=2.1)
        assert_phases_equal(
            design_central(paths, 8).phases_rad,
            design_ideal(paths, grid, 8, 0).phases_rad,
            atol=1e-12,
        )

    def test_is_mean_of_per_subcarrier_ideals(self):
        grid = FrequencyGrid(28e9, 1.5e9, 7)
        paths = los_paths(aoa=1.9, ru_angle=5.2)
        stack = np.array([design_ideal(paths, grid, 8, k).phases_rad for k in range(7)])
        central = design_central(paths, 8).phases_rad
        assert np.allclose(stack.mean(axis=0), central, atol=1e-9)

    def test_rejects_multipath(self):
        paths = sample_path_set(np.random.default_rng(2), 2)
        with pytest.raises(ValueError, match="design_central needs a single-path surface-to-user link, got 2 paths"):
            design_central(paths, 4)

    @NO_COUNTS
    def test_rejects_count_that_is_no_integer(self, count):
        with pytest.raises(ValueError, match="num_ris_elements must be an integer >= 1"):
            design_central(los_paths(0.3, 0.9), count)

    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bandwidth=st.sampled_from((0.25e9, 0.5e9, 2e9, 4e9, 8e9)),
        num_subcarriers=st.sampled_from((1, 2, 7, 32, 128)),
        m_ris=st.sampled_from((1, 2, 5, 16, 64)),
    )
    def test_maximizes_jensen_bound_when_kernel_is_nonnegative(self, seed, bandwidth, num_subcarriers, m_ris):
        # sum_k |z_k|^2 = sum_{m,n} exp(j(t_m - t_n)) D(m - n) with t the profile
        # minus central; central (t = 0) reaches sum D, and no profile exceeds
        # sum |D|, so D >= 0 at every lag makes central the maximizer.
        grid = FrequencyGrid(28e9, bandwidth, num_subcarriers)
        paths = sample_path_set(np.random.default_rng(seed), 1, gain_mode="unit")
        assume(np.all(jensen_kernel(paths, grid, m_ris) >= 0))
        central = rate_upper_bound(paths, design_central(paths, m_ris), grid, m_ris, 4, SNR)
        rivals = [design_ideal(paths, grid, m_ris, k) for k in range(num_subcarriers)]
        rivals.append(design_mccm(gen_channels(paths, grid, 4, m_ris)))
        for profile in rivals:
            assert rate_upper_bound(paths, profile, grid, m_ris, 4, SNR) <= central + 1e-12

    def test_indexed_profile_can_beat_jensen_bound_when_kernel_has_negative_lobe(self):
        grid = FrequencyGrid(28e9, 4e9, 128)
        paths = sample_path_set(np.random.default_rng(11), 1, gain_mode="unit")
        assert jensen_kernel(paths, grid, 64).min() < -27.0
        central = rate_upper_bound(paths, design_central(paths, 64), grid, 64, 4, SNR)
        indexed = rate_upper_bound(paths, design_ideal(paths, grid, 64, 43), grid, 64, 4, SNR)
        assert indexed - central == pytest.approx(0.018861, abs=1e-6)


class TestDesignRandom:
    def test_deterministic_given_seed(self):
        a = design_random(np.random.default_rng(5), 16)
        b = design_random(np.random.default_rng(5), 16)
        assert np.array_equal(a.phases_rad, b.phases_rad)

    def test_uniform_moments(self):
        phases = design_random(np.random.default_rng(6), 10**5).phases_rad
        std_error = (2 * np.pi / np.sqrt(12)) / np.sqrt(len(phases))
        assert abs(phases.mean() - np.pi) < 3 * std_error
        assert phases.min() >= 0
        assert phases.max() < 2 * np.pi

    def test_prefix_of_a_larger_draw_is_the_smaller_draw(self):
        # A sweep over surface sizes draws once at the largest M and slices.
        for seed in range(20):
            largest = design_random(np.random.default_rng(seed), 256).phases_rad
            for m_ris in SWEEP_GRIDS["ris_elements"]:
                assert np.array_equal(largest[:m_ris], design_random(np.random.default_rng(seed), m_ris).phases_rad)

    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            design_random(np.random.default_rng(0), 0)

    @NO_COUNTS
    def test_rejects_count_that_is_no_integer(self, count):
        with pytest.raises(ValueError, match="num_ris_elements must be an integer >= 1"):
            design_random(np.random.default_rng(0), count)


class TestMeanChannelCovariance:
    def test_single_subcarrier_is_rank_one(self):
        h = np.array([[1.0 + 1j, 2.0, -1j]])
        cov = mean_channel_covariance(h)
        eigenvalues = np.linalg.eigvalsh(cov)
        assert eigenvalues[-1] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)
        assert np.allclose(eigenvalues[:-1], 0.0, atol=1e-12)
        assert np.trace(cov).real == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)

    def test_los_unit_gain_trace_is_element_count(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = sample_path_set(np.random.default_rng(7), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 4, 12)
        cov = mean_channel_covariance(user_rows(channels))
        assert np.trace(cov).real == pytest.approx(12.0, rel=1e-12)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        cov = mean_channel_covariance(h)
        assert np.max(np.abs(cov - cov.conj().T)) < 1e-10

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            mean_channel_covariance(np.zeros((0, 4)))


class TestPrincipalDirection:
    def test_rank_one_recovers_steering_vector(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        paths = sample_path_set(np.random.default_rng(9), 1, gain_mode="unit")
        channels = gen_channels(paths, grid, 4, 16)
        vector, degenerate = principal_direction(mean_channel_covariance(user_rows(channels)))
        phi = spatial_angle(grid.frequencies[0], paths.ru_angles_rad[0], grid.carrier_hz)
        steering = array_response(16, phi)
        assert abs(np.vdot(vector, steering)) == pytest.approx(1.0, abs=1e-9)
        assert not degenerate

    def test_isotropic_covariance_is_degenerate(self):
        _, degenerate = principal_direction(np.eye(5, dtype=complex))
        assert degenerate

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            h = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
            cov = mean_channel_covariance(h)
            v, _ = principal_direction(cov)
            eigenvalue = np.vdot(v, cov @ v).real  # Rayleigh quotient of the unit vector
            residual = np.linalg.norm(cov @ v - eigenvalue * v)
            assert residual < 1e-8 * eigenvalue

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError):
            principal_direction(-np.eye(3, dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            principal_direction(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="must be square"):
            principal_direction(np.zeros(shape))

    def test_accepts_nested_list(self):
        vector, _ = principal_direction([[2.0, 0.0], [0.0, 1.0]])
        assert np.allclose(vector, [1.0, 0.0])

    @staticmethod
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    @pytest.mark.parametrize("size", [2, 5, 16, 64])
    def test_fallback_matches_the_eigh_route(self, monkeypatch, size):
        # Where eigh does not converge, eigvalsh and the SVD give the canonical
        # vector of the eigh route on gapped PSD matrices of rank 1, 3 and full,
        # and the same flag there and on a matrix whose top eigenvalue repeats.
        rng = np.random.default_rng(41 + size)
        matrices = [
            mean_channel_covariance(rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size)))
            for rows in (1, 3, size + 2)
            for _ in range(3)
        ] + [np.diag([1.0] * 2 + [0.5] * (size - 2)).astype(complex)]
        expected = [principal_direction(matrix) for matrix in matrices]
        assert [degenerate for _, degenerate in expected] == [False] * 9 + [True]
        monkeypatch.setattr(np.linalg, "eigh", self.failing_eigh)
        for matrix, (vector, degenerate) in zip(matrices, expected):
            got, got_degenerate = principal_direction(matrix)
            assert got_degenerate == degenerate
            if not degenerate:
                assert np.max(np.abs(got - vector)) <= 1e-12

    @pytest.mark.parametrize("diagonal", [[2.0, -1.0], [1.0, 1.0, -1e-6]], ids=["indefinite", "slightly-negative"])
    def test_fallback_still_rejects_indefinite(self, monkeypatch, diagonal):
        monkeypatch.setattr(np.linalg, "eigh", self.failing_eigh)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            principal_direction(np.diag(diagonal).astype(complex))

    def test_non_converging_draw_gives_a_degenerate_profile(self):
        # Trial 14 of seed 0 in an nlos sweep at 8 GHz, M = 256, L = 3: its mean
        # covariance has a top eigenvalue repeated to about 15 digits, on which
        # LAPACK's heevd can fail to converge. Either route flags it.
        paths = sample_path_set(_substream(0, 14, _CHANNEL_STREAM), 3)
        profile = design_mccm(gen_channels(paths, FrequencyGrid(28e9, 8e9, 128), 64, 256))
        assert profile.degenerate
        assert np.all(np.isfinite(profile.phases_rad))


class TestRankOneShortcut:
    """The oracle's closed-form direction of a rank-one covariance, against the generic eigh route."""

    def test_closed_form_matches_eigendecomposition(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            closed, closed_degenerate = rank_one_direction(h)
            generic, generic_degenerate = principal_direction(mean_channel_covariance(h[None, :]))
            assert np.allclose(closed, generic, atol=1e-8)
            assert closed_degenerate == generic_degenerate

    def test_zero_row_is_degenerate(self):
        _, degenerate = rank_one_direction(np.zeros(4, dtype=complex))
        assert degenerate


class TestPhaseExtraction:
    def test_arguments_example(self):
        phases = phase_extraction(np.array([1 + 1j, -2.0, 1j]))
        assert np.allclose(phases, [np.pi / 4, np.pi, np.pi / 2], atol=1e-12)

    def test_steering_vector_structure(self):
        phi = 0.37
        phases = phase_extraction(array_response(6, phi))
        assert_phases_equal(phases, 2 * np.pi * np.arange(6) * phi, atol=1e-12)

    def test_global_phase_covariance(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        c = 0.83
        base = phase_extraction(v)
        rotated = phase_extraction(np.exp(1j * c) * v)
        assert_phases_equal(rotated, base + c, atol=1e-12)

    def test_zero_entry_convention(self):
        phases = phase_extraction(np.array([0.0, 1j]))
        assert phases[0] == 0.0
        # A zero with a negative real part is still phase 0, not +-pi.
        signed = phase_extraction(np.array([complex(-0.0, 0.0), complex(-0.0, -0.0), 0j]))
        assert np.array_equal(signed, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "vector,zeros",
        [([0.0, 1j, 0.0], 2), ([complex(-0.0, 0.0), 1.0], 1), ([1j, -2.0], 0)],
        ids=["two-zeros", "signed-zero", "no-zeros"],
    )
    def test_zero_entries_log_one_warning_naming_their_count(self, vector, zeros, caplog):
        with caplog.at_level(logging.WARNING, logger=phase_design.__name__):
            phase_extraction(np.array(vector))
        records = [record for record in caplog.records if record.name == phase_design.__name__]
        assert [(record.levelno, record.getMessage()) for record in records] == (
            [(logging.WARNING, f"phase extraction hit {zeros} exactly-zero entries; their phase is set to 0")]
            if zeros
            else []
        )


class TestDesignMccm:
    def test_matches_ideal_on_rank_one_link(self):
        grid = FrequencyGrid(28e9, 2e9, 1)
        rng = np.random.default_rng(12)
        for _ in range(5):
            paths = sample_path_set(rng, 1, gain_mode="unit")
            channels = gen_channels(paths, grid, 8, 16)
            mccm_rate = sum_rate(channels, design_mccm(channels), SNR)
            ideal = sum_rate(channels, design_ideal(paths, grid, 16, 0), SNR)
            assert mccm_rate == pytest.approx(ideal, rel=1e-9)

    @pytest.mark.parametrize("num_paths", [1, 5])
    def test_stacked_scoring_picks_as_one_call_per_candidate(self, num_paths):
        grid = FrequencyGrid(28e9, 2e9, 16)
        rng = np.random.default_rng(21)
        for _ in range(20):
            channels = gen_channels(sample_path_set(rng, num_paths), grid, 4, 16)
            receive = _receive_phases(channels)
            vector, _ = principal_direction(mean_channel_covariance(user_rows(channels)))
            candidates = [receive + phase_extraction(v) for v in (vector, np.conj(vector))]
            rates = [np.mean(rate_bits(CANDIDATE_SNR, channels.received_power(np.exp(1j * p)))) for p in candidates]
            assert np.array_equal(design_mccm(channels).phases_rad, candidates[int(np.argmax(rates))])

    def test_beats_random_on_average(self):
        grid = FrequencyGrid(28e9, 2e9, 16)
        gaps = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            paths = sample_path_set(rng, 1)
            channels = gen_channels(paths, grid, 4, 16)
            mccm_rate = sum_rate(channels, design_mccm(channels), SNR)
            random_rate = sum_rate(channels, design_random(rng, 16), SNR)
            gaps.append(mccm_rate - random_rate)
        assert np.mean(gaps) > 0

    def test_uniform_user_channel_gives_constant_forward_phases(self):
        # A broadside user path (sin 0 = 0) with no delay and unit gain gives
        # rows of ones at every subcarrier, up to rounding.
        grid = FrequencyGrid(28e9, 2e9, 4)
        paths = dataclasses.replace(
            sample_path_set(np.random.default_rng(13), 1), ru_angles_rad=(0.0,), ru_gains=(1.0,), ru_delays_s=(0.0,)
        )
        channels = gen_channels(paths, grid, 4, 6)
        assert np.allclose(user_rows(channels), 1.0, rtol=0, atol=1e-14)
        profile = design_mccm(channels)
        receive = -2 * np.pi * np.arange(6) * spatial_angle(
            grid.carrier_hz, paths.bs_ris_aoa_rad, grid.carrier_hz
        )
        forward = profile.phases_rad - receive
        assert_phases_equal(forward, np.full(6, forward[0]), atol=1e-9)

    def test_propagates_degeneracy_flag(self, monkeypatch):
        # Orthonormal rows give the covariance I/2, whose top eigenvalue is double.
        grid = FrequencyGrid(28e9, 2e9, 2)
        paths = sample_path_set(np.random.default_rng(14), 2)
        monkeypatch.setattr(phase_design, "_user_rows", lambda channels, m: np.eye(2, dtype=complex))
        assert design_mccm(gen_channels(paths, grid, 4, 2)).degenerate

    @pytest.mark.parametrize(
        "num_subcarriers,num_paths,widest",
        [(7, 1, 256), (7, 5, 256), (128, 1, 256), (128, 5, 256), (131, 1, 256), (131, 5, 256), (128, 20, 512)],
    )
    def test_design_at_a_size_is_the_design_of_the_build_at_that_size(self, num_subcarriers, num_paths, widest):
        # The first m phases are the design of a build at m bit for bit, and
        # the rest is the receive part; M = 512 at L = 20 tables two path chunks.
        grid = FrequencyGrid(28e9, 2e9, num_subcarriers)
        paths = sample_path_set(np.random.default_rng(num_subcarriers * num_paths), num_paths)
        wide = gen_channels(paths, grid, 8, widest)
        receive = _receive_phases(wide)
        for m in (1, 16, 17, 37, 64, 100, 255):
            profile = design_mccm(wide, m)
            direct = design_mccm(gen_channels(paths, grid, 8, m))
            assert np.array_equal(profile.phases_rad[:m], direct.phases_rad)
            assert profile.degenerate == direct.degenerate
            assert np.array_equal(profile.phases_rad[m:], receive[m:])

    def test_design_at_a_size_keeps_a_degenerate_draw(self):
        # Trial 6 of the 8 GHz, seed-21 sweep has a repeated top eigenvalue at M = 255.
        grid = FrequencyGrid(28e9, 8e9, 128)
        paths = sample_path_set(_substream(21, 6, _CHANNEL_STREAM), 5)
        wide = gen_channels(paths, grid, 64, 256)
        profile, direct = design_mccm(wide, 255), design_mccm(gen_channels(paths, grid, 64, 255))
        assert profile.degenerate and direct.degenerate
        assert np.array_equal(profile.phases_rad[:255], direct.phases_rad)
        assert np.array_equal(profile.phases_rad[255:], _receive_phases(wide)[255:])

    @pytest.mark.parametrize("num_subcarriers", [7, 128, 131])
    @pytest.mark.parametrize("num_paths", [1, 5, 20])
    def test_rows_at_a_size_are_the_rows_of_the_build_at_that_size(self, num_subcarriers, num_paths):
        # The rows a design forms from the first m cascade columns are a fresh,
        # contiguous table, bit for bit (signed zeros included) those of a build at m.
        grid = FrequencyGrid(28e9, 2e9, num_subcarriers)
        paths = sample_path_set(np.random.default_rng([num_subcarriers, num_paths]), num_paths)
        wide = gen_channels(paths, grid, 4, 256)
        for m in (1, 2, 15, 16, 17, 37, 100, 255, 256):
            rows = user_rows(wide, m)
            assert rows.flags.c_contiguous and not np.shares_memory(rows, wide.cascade)
            assert bits(rows) == bits(user_rows(gen_channels(paths, grid, 4, m)))

    def test_design_at_full_width_is_the_default(self):
        channels = gen_channels(sample_path_set(np.random.default_rng(16), 5), FrequencyGrid(28e9, 2e9, 16), 4, 37)
        assert np.array_equal(design_mccm(channels, 37).phases_rad, design_mccm(channels).phases_rad)

    def test_gain_scale_invariance(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(15), 4)
        scaled = dataclasses.replace(
            paths,
            bs_ris_gain=3.7 * paths.bs_ris_gain,
            ru_gains=tuple(3.7 * g for g in paths.ru_gains),
        )
        a = design_mccm(gen_channels(paths, grid, 4, 8))
        b = design_mccm(gen_channels(scaled, grid, 4, 8))
        assert np.allclose(a.phases_rad, b.phases_rad, atol=1e-8)


def assert_same_up_to_global_phase(a, b, atol):
    """Phase vectors equal modulo 2*pi once their mean offset is removed, to ``atol`` rad."""
    diff = np.asarray(a) - np.asarray(b)
    offset = np.angle(np.sum(np.exp(1j * diff)))
    assert np.max(np.abs(np.angle(np.exp(1j * (diff - offset))))) <= atol


class TestDesignSubcarrierCovariance:
    @pytest.mark.parametrize("num_paths", [1, 2, 5])
    @pytest.mark.parametrize(
        "num_subcarriers,num_ris_elements", [(1, 1), (16, 64), (128, 256), (131, 1024), (7, 1000)]
    )
    def test_matches_covariance_route_and_aligns_every_term(self, num_paths, num_subcarriers, num_ris_elements):
        # The designer reads cascade row k alone; the oracle takes the receive
        # part at f_k and the rank-one direction of user row k. K = 131 and
        # 7 are prime, and 8 GHz is the widest sweep bandwidth.
        grid = FrequencyGrid(28e9, 8e9, num_subcarriers)
        rng = np.random.default_rng(1000 * num_paths + num_subcarriers + num_ris_elements)
        paths = sample_path_set(rng, num_paths)
        channels = gen_channels(paths, grid, 4, num_ris_elements)
        aligned = channels.aligned_power()
        for k in {0, num_subcarriers // 2, num_subcarriers - 1, int(rng.integers(num_subcarriers))}:
            profile = design_subcarrier_covariance(channels, k)
            assert not profile.degenerate
            oracle = subcarrier_covariance_profile(channels, k)
            assert_same_up_to_global_phase(profile.phases_rad, oracle.phases_rad, atol=1e-11)
            if num_paths == 1:
                ideal = design_ideal(paths, grid, num_ris_elements, k)
                assert_same_up_to_global_phase(profile.phases_rad, ideal.phases_rad, atol=1e-11)
            power = channels.received_power(unit_diagonal(profile.phases_rad))[k]
            assert power == pytest.approx(aligned[k], rel=1e-12)

    @pytest.mark.parametrize("num_paths", [1, 3])
    @pytest.mark.parametrize("num_ris_elements", [1, 2, 8])
    def test_zero_row_gives_zero_phases(self, num_paths, num_ris_elements):
        # Every user gain 0 zeroes the cascade: no direction to co-phase, so the
        # phases are 0 and the profile is degenerate wherever M >= 2.
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(41), num_paths)
        silent = dataclasses.replace(paths, ru_gains=(0j,) * num_paths)
        channels = gen_channels(silent, grid, 4, num_ris_elements)
        assert not np.any(channels.cascade)
        for k in (0, 5):
            profile = design_subcarrier_covariance(channels, k)
            assert np.array_equal(profile.phases_rad, np.zeros(num_ris_elements))
            assert profile.degenerate == (num_ris_elements >= 2)

    def test_matches_angle_design_on_single_path(self):
        # On a single-path link the covariance route reduces to the ideal
        # profile of that subcarrier up to a constant phase offset.
        grid = FrequencyGrid(28e9, 2e9, 16)
        paths = sample_path_set(np.random.default_rng(16), 1)
        channels = gen_channels(paths, grid, 4, 8)
        for k in (0, 7, 15):
            cov_profile = design_subcarrier_covariance(channels, k)
            ideal = design_ideal(paths, grid, 8, k)
            diff = cov_profile.phases_rad - ideal.phases_rad
            assert_phases_equal(diff, np.full(8, diff[0]), atol=1e-9)

    def test_maximizes_own_subcarrier_power(self):
        # The designed profile aligns every element, so the reflected power at
        # its own subcarrier attains the triangle-inequality maximum
        # (sum_m |h_m| * ||row_m of the rank-one BS link||)^2.
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(17), 5)
        channels = gen_channels(paths, grid, 4, 6)
        k = 3
        profile = design_subcarrier_covariance(channels, k)
        row = user_rows(channels)[k]
        for aod, delay in BS_DEPARTURES:
            h_bs_k = h_bs_ris(channels, aod, delay, k)
            eff = (row * np.exp(1j * profile.phases_rad)) @ h_bs_k
            achieved = float(np.sum(np.abs(eff) ** 2))
            best = float(np.sum(np.abs(row) * np.linalg.norm(h_bs_k, axis=1)) ** 2)
            assert achieved == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("k", [2.5, True, 3.0, None], ids=["fraction", "bool", "integral-float", "none"])
@pytest.mark.parametrize("designer", ["ideal", "subcarrier-covariance"])
def test_indexed_designers_reject_index_that_is_no_integer(designer, k):
    grid = FrequencyGrid(28e9, 2e9, 16)
    paths = los_paths(0.3, 0.9)
    design = {
        "ideal": lambda: design_ideal(paths, grid, 8, k),
        "subcarrier-covariance": lambda: design_subcarrier_covariance(gen_channels(paths, grid, 4, 8), k),
    }[designer]
    with pytest.raises(ValueError, match=rf"^subcarrier index must be an integer in \[0, 16\), got {k!r}$"):
        design()


def test_indexed_designers_take_numpy_integer_index():
    grid = FrequencyGrid(28e9, 2e9, 16)
    paths = los_paths(0.3, 0.9)
    channels = gen_channels(paths, grid, 4, 8)
    for k in (np.int64(3), np.uint8(3)):
        assert np.array_equal(design_ideal(paths, grid, 8, k).phases_rad, design_ideal(paths, grid, 8, 3).phases_rad)
        assert np.array_equal(
            design_subcarrier_covariance(channels, k).phases_rad, design_subcarrier_covariance(channels, 3).phases_rad
        )


class TestProfileProperties:
    def test_unit_modulus_diagonal(self):
        rng = np.random.default_rng(18)
        profile = design_random(rng, 32)
        assert np.allclose(np.abs(unit_diagonal(profile.phases_rad)), 1.0, atol=1e-15)

    def test_angle_designers_ignore_gain_scale(self):
        grid = FrequencyGrid(28e9, 2e9, 8)
        paths = sample_path_set(np.random.default_rng(19), 1)
        scaled = dataclasses.replace(
            paths,
            bs_ris_gain=2.5 * paths.bs_ris_gain,
            ru_gains=(2.5 * paths.ru_gains[0],),
        )
        assert np.array_equal(design_central(paths, 8).phases_rad, design_central(scaled, 8).phases_rad)
        assert np.array_equal(
            design_ideal(paths, grid, 8, 2).phases_rad, design_ideal(scaled, grid, 8, 2).phases_rad
        )

    def test_profile_keeps_a_read_only_float_copy(self):
        phases = np.arange(4)
        profile = PhaseProfile(phases)
        phases[0] = 7
        assert profile.phases_rad.dtype == float and profile.phases_rad.tolist() == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            profile.phases_rad[0] = 1.0
        assert PhaseProfile([0.5, 1.5]).phases_rad.tolist() == [0.5, 1.5]

    def test_stacked_unit_diagonal_is_each_profile_s_diagonal(self):
        rng = np.random.default_rng(14)
        profiles = [design_random(rng, 9) for _ in range(3)]
        stacked = unit_diagonal(np.stack([profile.phases_rad for profile in profiles]))
        assert stacked.shape == (3, 9)
        for row, profile in zip(stacked, profiles):
            assert np.array_equal(row, unit_diagonal(profile.phases_rad))

    def test_degenerate_is_keyword_only(self):
        # A positional second argument (the old scheme tag) must not pass as the flag.
        with pytest.raises(TypeError):
            PhaseProfile(np.zeros(4), "zeros")
        assert PhaseProfile(np.zeros(4), degenerate=True).degenerate
        assert not PhaseProfile(np.zeros(4)).degenerate
