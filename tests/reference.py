"""Dense reference path of the rate model, kept only as a test oracle.

The package builds steering vectors as products of two short exponential
tables, and evaluates rates through ``ChannelRealization.received_power`` and
``aligned_power``, which never form the BS steering vectors or the dense
BS-to-surface channel. This module builds steering vectors with one exponential
per entry, forms the dense channel explicitly, and chains them through the
per-subcarrier effective channel, the maximum ratio beamformer and the
subcarrier rate, plus the single-path element alignment sum ``z_k`` and the
Jensen upper bound it yields on the mean rate, so the tests can check the
fast path against the textbook formulas. The one exception is ``a_ris``: the
realization does not keep its surface table, so it is rebuilt here with the
package's builder, bit for bit the table ``cascade`` was formed from.
"""

from __future__ import annotations

import numpy as np

from squintsim import experiments
from squintsim.channel import ChannelRealization, FrequencyGrid, PathSet, _steering_table, rate_bits, spatial_angle
from squintsim.phase_design import (
    PhaseProfile,
    design_central,
    design_ideal,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
)


def array_response_direct(n_elements: int, phi) -> np.ndarray:
    """ULA response with one exponential per entry: ``exp(j*2*pi*m*phi) / sqrt(n)``, shape (n, ...)."""
    m = np.arange(n_elements)
    phase = 2j * np.pi * np.multiply.outer(m, np.asarray(phi, dtype=float))
    return np.exp(phase) / np.sqrt(n_elements)


def a_bs(channels: ChannelRealization, k: int | None = None) -> np.ndarray:
    """BS steering vectors at the departure angle: (K, N), or (N,) at subcarrier k."""
    f = channels.grid.frequencies if k is None else channels.grid.frequencies[k]
    phi_out = spatial_angle(f, channels.source_paths.bs_ris_aod_rad, channels.grid.carrier_hz)
    return array_response_direct(channels.num_bs_antennas, phi_out).T


def a_ris(channels: ChannelRealization) -> np.ndarray:
    """Surface steering vectors at the arrival angle, (K, M), from the table builder as ``cascade`` used them."""
    phi_in = spatial_angle(channels.grid.frequencies, channels.source_paths.bs_ris_aoa_rad, channels.grid.carrier_hz)
    return _steering_table(channels.num_ris_elements, phi_in)


def h_bs_ris(channels: ChannelRealization, k: int | None = None) -> np.ndarray:
    """Dense BS-to-surface channel: (K, M, N), or the (M, N) slice of subcarrier k.

    Slice k is ``bs_ris_scale[k] * outer(a_ris[k], conj(a_bs[k]))``; a single
    slice is built from the steering vectors of f_k alone.
    """
    index = slice(None) if k is None else k
    return np.einsum(
        "...,...m,...n->...mn", channels.bs_ris_scale[index], a_ris(channels)[index], np.conj(a_bs(channels, k))
    )


def effective_channel(h_ru_k, profile: PhaseProfile, h_br_k) -> np.ndarray:
    """Composite row vector ``h_ru * diag(exp(j*phases)) * h_br`` of length N."""
    h_ru = np.asarray(h_ru_k, dtype=complex)
    h_br = np.asarray(h_br_k, dtype=complex)
    if h_ru.shape != (len(profile.phases_rad),) or h_br.shape[0] != len(profile.phases_rad):
        raise ValueError(
            f"dimension mismatch: h_ru {h_ru.shape}, profile {len(profile.phases_rad)}, h_br {h_br.shape}"
        )
    return (h_ru * profile.unit_diagonal()) @ h_br


def mrt_beamformer(effective, transmit_power: float) -> np.ndarray:
    """Maximum ratio beamformer ``sqrt(P) * effective^H / ||effective||``.

    A zero effective channel maps to the zero vector (zero rate) rather than
    an error.
    """
    eff = np.asarray(effective, dtype=complex)
    norm = np.linalg.norm(eff)
    if norm == 0:
        return np.zeros_like(eff)
    return np.sqrt(transmit_power) * eff.conj() / norm


def subcarrier_rate(effective, snr: float) -> float:
    """Rate of one subcarrier at linear SNR ``snr`` (unit noise): ``log2(1 + snr * ||effective||^2)``."""
    eff = np.asarray(effective, dtype=complex)
    return float(np.log2(1.0 + snr * np.sum(np.abs(eff) ** 2)))


def z_factor(
    paths: PathSet,
    profile: PhaseProfile,
    grid: FrequencyGrid,
    num_ris_elements: int,
    k: int,
) -> complex:
    """Element alignment sum of a single-path link at subcarrier k.

    ``z_k = sum_m exp(j * (2*pi*m*(phi_bs - phi_user) + phase_m))`` whose
    magnitude never exceeds M and reaches M exactly when the profile matches
    the per-subcarrier optimum.
    """
    if len(paths.ru_angles_rad) != 1:
        raise ValueError("z_factor is defined for a single-path surface-to-user link only")
    if len(profile.phases_rad) != num_ris_elements:
        raise ValueError(
            f"profile has {len(profile.phases_rad)} phases, expected {num_ris_elements}"
        )
    if not 0 <= k < grid.num_subcarriers:
        raise ValueError(f"subcarrier index {k} out of range [0, {grid.num_subcarriers})")
    f_k = grid.frequencies[k]
    phi_bs = spatial_angle(f_k, paths.bs_ris_aoa_rad, grid.carrier_hz)
    phi_user = spatial_angle(f_k, paths.ru_angles_rad[0], grid.carrier_hz)
    m = np.arange(num_ris_elements)
    terms = np.exp(1j * (2.0 * np.pi * m * (phi_bs - phi_user) + profile.phases_rad))
    return complex(np.sum(terms))


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
    if len(paths.ru_angles_rad) != 1:
        raise ValueError("rate_upper_bound is defined for a single-path surface-to-user link only")
    if len(profile.phases_rad) != num_ris_elements:
        raise ValueError(f"profile has {len(profile.phases_rad)} phases, expected {num_ris_elements}")
    # z_k is the alignment sum of subcarrier k.
    phi_bs = spatial_angle(grid.frequencies, paths.bs_ris_aoa_rad, grid.carrier_hz)
    phi_user = spatial_angle(grid.frequencies, paths.ru_angles_rad[0], grid.carrier_hz)
    z = np.sqrt(num_ris_elements) * (_steering_table(num_ris_elements, phi_bs - phi_user) @ profile.unit_diagonal())
    mean_z_sq = float(np.mean(np.abs(z) ** 2))
    return float(rate_bits(snr, num_bs_antennas * mean_z_sq))


def reference_profile(cfg, grid: FrequencyGrid, channels: ChannelRealization, scheme: str, trial: int) -> PhaseProfile:
    """Common profile of one (scheme, trial), written out as one if-chain per scheme.

    The sweep's own dispatch, ``experiments._common_profile``, is checked
    against this. Indexed los profiles call ``design_ideal`` at subcarrier k,
    the definition of an indexed profile; ``ideal`` itself has no common
    profile and is rejected like any unknown name.
    """
    paths = channels.source_paths
    m_ris = cfg.num_ris_elements
    if scheme == "random":
        return design_random(experiments._substream(cfg.seed, trial, experiments._PHASE_STREAM), m_ris)
    if scheme == "mccm":
        return design_mccm(channels)
    if scheme == "central":
        if cfg.scenario == experiments.LOS:
            return design_central(paths, m_ris)
        return design_subcarrier_covariance(channels, experiments.central_subcarrier_index(grid))
    if scheme == "random-index":
        k = int(experiments._substream(cfg.seed, trial, experiments._INDEX_STREAM).integers(grid.num_subcarriers))
    elif scheme == "side-index":
        k = 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if cfg.scenario == experiments.LOS:
        return design_ideal(paths, grid, m_ris, k)
    return design_subcarrier_covariance(channels, k)
