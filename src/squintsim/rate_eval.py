"""Achievable-rate evaluation for a given channel realization and phase profile.

The transmitter steers with a maximum ratio beamformer per subcarrier, so the
per-subcarrier rate is ``log2(1 + snr * ||h Phi H||^2)`` (:func:`rate_bits`),
read off the received power of :class:`ChannelRealization`. Every SNR is a
linear value with unit noise power.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, rate_bits
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

