"""Achievable-rate evaluation for a given channel realization and phase profile.

The transmitter steers with a maximum ratio beamformer per subcarrier, so the
per-subcarrier rate is ``log2(1 + snr * ||h Phi H||^2)`` (:func:`rate_bits`),
read off the received power of :class:`ChannelRealization`. Every SNR is a
linear value with unit noise power. Both rates take ``sizes``, surface sizes
m <= M, each rated as on the channel built at m.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, rate_bits
from .phase_design import PhaseProfile, unit_diagonal
# The two designers are unused here; benchmarks/child.py traces them under this module.
from .phase_design import design_ideal, design_subcarrier_covariance  # noqa: F401


def sum_rate(channels: ChannelRealization, profiles, snr, sizes=None):
    """Mean achievable rate of common profiles across all subcarriers.

    ``profiles`` is one :class:`PhaseProfile` or a sequence of S of them; a
    sequence is rated in one stacked ``received_power`` call, and each of its
    rates is bit for bit the rate of that profile alone. ``snr`` is one linear
    SNR or an array of V of them; the received power does not depend on it, so
    every SNR is evaluated from one power vector. Returns a float for one
    profile and one SNR and shape (V,) for V SNRs; a sequence adds a trailing
    S axis, (S,) or (V, S). A sequence of Z ``sizes`` in [1, M] rates the first
    m phases of each profile on the first m elements, still in one
    ``received_power`` call, and adds a Z axis before any S axis; every entry
    equals the call on ``gen_channels`` at m alone, bit for bit.
    """
    phases = profiles.phases_rad if isinstance(profiles, PhaseProfile) else np.stack([p.phases_rad for p in profiles])
    return np.mean(rate_bits(snr, channels.received_power(unit_diagonal(phases), sizes)), axis=-1)


def ideal_rate(channels: ChannelRealization, snr, sizes=None):
    """Benchmark rate with a separate profile optimized for every subcarrier.

    Relaxing the common-phase constraint lets every subcarrier co-phase all M
    reflected terms, so its power is :meth:`ChannelRealization.aligned_power`
    and this dominates every common profile subcarrier by subcarrier. On a
    single-path link that power is ``N * M^2 * |g_bs * g_user|^2``, the value the
    per-subcarrier angle profile of :func:`design_ideal` reaches. ``snr``,
    ``sizes`` and the result are as in :func:`sum_rate` for one profile; all
    sizes are summed from one ``|cascade|`` table.
    """
    return np.mean(rate_bits(snr, channels.aligned_power(sizes)), axis=-1)
