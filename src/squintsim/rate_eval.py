"""Achievable-rate evaluation for a given channel realization and phase profile.

The transmitter steers with a maximum ratio beamformer per subcarrier, so the
per-subcarrier rate is ``log2(1 + snr * ||h Phi H||^2)``, read off the received
power of :class:`ChannelRealization`. For single-path links the power factors
through the element alignment sum ``z_k``, whose magnitude is capped at M; this
yields a Jensen upper bound on the mean rate of any common profile.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import LOS, ChannelRealization, FrequencyGrid, PathSet, spatial_angle
# The two designers are unused here; benchmarks/child.py traces them under this module.
from .phase_design import PhaseProfile, design_ideal, design_subcarrier_covariance  # noqa: F401


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and noise power in linear units."""

    transmit_power: float
    noise_power: float = 1.0

    def __post_init__(self) -> None:
        if self.transmit_power <= 0:
            raise ValueError(f"transmit_power must be positive, got {self.transmit_power}")
        if self.noise_power <= 0:
            raise ValueError(f"noise_power must be positive, got {self.noise_power}")

    @property
    def snr_linear(self) -> float:
        return self.transmit_power / self.noise_power

    @classmethod
    def from_snr_db(cls, snr_db: float, noise_power: float = 1.0) -> "LinkBudget":
        """Unit noise power by convention; only the ratio enters the rate."""
        return cls(transmit_power=noise_power * 10.0 ** (snr_db / 10.0), noise_power=noise_power)


@dataclass(frozen=True)
class RateReport:
    """Per-subcarrier rates plus their mean, in bits/s/Hz.

    For one budget the shapes are (K,) and a float; for a sequence of V
    budgets they are (V, K) and (V,).
    """

    per_subcarrier_bits: np.ndarray
    sum_rate_bits: float | np.ndarray


def _rate_report(power: np.ndarray, budget: LinkBudget | Sequence[LinkBudget]) -> RateReport:
    """Rates of one per-subcarrier power vector at one budget or at each of a sequence."""
    if isinstance(budget, LinkBudget):
        snr = budget.snr_linear
    else:
        snr = np.array([b.snr_linear for b in budget])
    per_k = np.log2(1.0 + np.multiply.outer(snr, power))
    mean = np.mean(per_k, axis=-1)
    return RateReport(per_k, float(mean) if per_k.ndim == 1 else mean)


def sum_rate(
    channels: ChannelRealization, profile: PhaseProfile, budget: LinkBudget | Sequence[LinkBudget]
) -> RateReport:
    """Mean achievable rate of a common profile across all subcarriers.

    ``budget`` is one :class:`LinkBudget` or a sequence of them; the received
    power does not depend on it, so a sequence is evaluated from one power
    vector (see :class:`RateReport` for the shapes).
    """
    return _rate_report(channels.received_power(profile.unit_diagonal()), budget)


def ideal_rate(channels: ChannelRealization, budget: LinkBudget | Sequence[LinkBudget]) -> RateReport:
    """Benchmark rate with a separate profile optimized for every subcarrier.

    Relaxing the common-phase constraint lets every subcarrier co-phase all M
    reflected terms, so its power is :meth:`ChannelRealization.aligned_power`
    and this dominates every common profile subcarrier by subcarrier. On a
    single-path link that power is ``N * M^2 * |g_bs * g_user|^2``, the value the
    per-subcarrier angle profile of :func:`design_ideal` reaches. ``budget`` is
    one :class:`LinkBudget` or a sequence of them, as in :func:`sum_rate`.
    """
    return _rate_report(channels.aligned_power(), budget)


def rate_upper_bound(
    paths: PathSet,
    profile: PhaseProfile,
    grid: FrequencyGrid,
    num_ris_elements: int,
    num_bs_antennas: int,
    budget: LinkBudget,
) -> float:
    """Jensen bound ``log2(1 + snr*N/K * sum_k |z_k|^2)`` on the mean rate.

    Uses the unit-gain convention, so it bounds the mean rate of the same
    profile on a unit-gain single-path realization.
    """
    if paths.scenario != LOS:
        raise ValueError("rate_upper_bound is defined for the single-path (los) scenario only")
    if profile.num_elements != num_ris_elements:
        raise ValueError(
            f"profile has {profile.num_elements} phases, expected {num_ris_elements}"
        )
    # Row k holds the M terms of the alignment sum z_k.
    phi_bs = spatial_angle(grid.frequencies, paths.bs_ris_aoa_rad, grid.carrier_hz)
    phi_user = spatial_angle(grid.frequencies, paths.ru_paths[0].angle_rad, grid.carrier_hz)
    m = np.arange(num_ris_elements)
    terms = np.exp(1j * (np.multiply.outer(phi_bs - phi_user, 2.0 * np.pi * m) + profile.phases_rad))
    mean_z_sq = float(np.mean(np.abs(np.sum(terms, axis=1)) ** 2))
    return float(np.log2(1.0 + budget.snr_linear * num_bs_antennas * mean_z_sq))
