"""Achievable-rate evaluation for a given channel realization and phase profile.

The transmitter steers with a maximum ratio beamformer per subcarrier, so the
per-subcarrier rate is ``log2(1 + snr * ||h Phi H||^2)`` (:func:`rate_bits`),
read off the received power of :class:`ChannelRealization`. Every SNR is a
linear value with unit noise power. For single-path links the power factors
through the element alignment sum ``z_k``, whose magnitude is capped at M; this
yields a Jensen upper bound on the mean rate of any common profile.
"""

from __future__ import annotations

import numpy as np

from .channel import LOS, ChannelRealization, FrequencyGrid, PathSet, _steering_table, rate_bits, spatial_angle
# The two designers are unused here; benchmarks/child.py traces them under this module.
from .phase_design import PhaseProfile, design_ideal, design_subcarrier_covariance  # noqa: F401


def sum_rate(channels: ChannelRealization, profile: PhaseProfile, snr):
    """Mean achievable rate of a common profile across all subcarriers.

    ``snr`` is one linear SNR or an array of V of them; the received power
    does not depend on it, so every SNR is evaluated from one power vector.
    Returns a float for one SNR and shape (V,) for V.
    """
    return np.mean(rate_bits(snr, channels.received_power(profile.unit_diagonal())), axis=-1)


def ideal_rate(channels: ChannelRealization, snr):
    """Benchmark rate with a separate profile optimized for every subcarrier.

    Relaxing the common-phase constraint lets every subcarrier co-phase all M
    reflected terms, so its power is :meth:`ChannelRealization.aligned_power`
    and this dominates every common profile subcarrier by subcarrier. On a
    single-path link that power is ``N * M^2 * |g_bs * g_user|^2``, the value the
    per-subcarrier angle profile of :func:`design_ideal` reaches. ``snr`` and
    the result are as in :func:`sum_rate`.
    """
    return np.mean(rate_bits(snr, channels.aligned_power()), axis=-1)


def rate_upper_bound(
    paths: PathSet,
    profile: PhaseProfile,
    grid: FrequencyGrid,
    num_ris_elements: int,
    num_bs_antennas: int,
    snr: float,
) -> float:
    """Jensen bound ``log2(1 + snr*N/K * sum_k |z_k|^2)`` on the mean rate.

    Uses the unit-gain convention, so it bounds the mean rate of the same
    profile on a unit-gain single-path realization.
    """
    if paths.scenario != LOS:
        raise ValueError("rate_upper_bound is defined for the single-path (los) scenario only")
    if len(profile.phases_rad) != num_ris_elements:
        raise ValueError(f"profile has {len(profile.phases_rad)} phases, expected {num_ris_elements}")
    # z_k is the alignment sum of subcarrier k.
    phi_bs = spatial_angle(grid.frequencies, paths.bs_ris_aoa_rad, grid.carrier_hz)
    phi_user = spatial_angle(grid.frequencies, paths.ru_paths[0].angle_rad, grid.carrier_hz)
    z = np.sqrt(num_ris_elements) * (_steering_table(num_ris_elements, phi_bs - phi_user) @ profile.unit_diagonal())
    mean_z_sq = float(np.mean(np.abs(z) ** 2))
    return float(rate_bits(snr, num_bs_antennas * mean_z_sq))
