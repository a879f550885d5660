"""Dense reference path of the rate model, kept only as a test oracle.

The package builds steering vectors as products of two short exponential
tables, and evaluates rates through ``ChannelRealization.received_power`` and
``aligned_power``, which never form the BS steering vectors or the dense
BS-to-surface channel. This module builds steering vectors with one exponential
per entry, forms the dense channel explicitly, and chains them through the
per-subcarrier effective channel, the maximum ratio beamformer and the
subcarrier rate, plus the single-path element alignment sum ``z_k`` and the
Jensen upper bound it yields on the mean rate, so the tests can check the
fast path against the textbook formulas. ``array_response`` is the package's
steering table scaled to unit norm, which those tests hold against the
one-exponential ``array_response_direct``. ``h_ris_user_direct`` and
``cascade_direct`` rebuild the surface-to-user rows and the cascade path by
path the same way; the package's cascade, and the rows ``user_rows`` forms
from it as ``design_mccm`` does, stay within ``TABLE_TOL`` of them. ``spatial_angle`` is
the textbook spatial angle of a path, which the package writes inline.
The paths hold no BS departure angle or delay, since no rate reads them, so
``a_bs`` and ``h_bs_ris`` take both as arguments, and the dense-chain tests
run at every pair of ``BS_DEPARTURES``. ``summed_cascade`` is
the cascade as one summed stack of path tables, which the package's
path-by-path build matches bit for bit.
``band_table`` is the band table with its divisor C and factor angles
worked out on every call from the grid's frequencies; the package's table,
which reads them from the grid's ``_band_factor``, must give its bits.
``subcarrier_covariance_profile`` is the per-subcarrier covariance designer
written out as the mean-covariance route: a receive part at f_k and the closed
form principal direction of the rank-one covariance of the user row k.
"""

from __future__ import annotations

import math

import numpy as np

from squintsim import experiments
from squintsim.channel import (
    ChannelRealization,
    FrequencyGrid,
    PathSet,
    _band_table,
    _steering_table,
    rate_bits,
)
from squintsim.phase_design import (
    PhaseProfile,
    _canonical_phase,
    design_central,
    design_mccm,
    design_random,
    design_subcarrier_covariance,
    phase_extraction,
    unit_diagonal,
)


#: (departure angle in radians, delay in seconds) pairs of the BS-to-surface
#: hop; every dense-chain test gives the same rates at each.
BS_DEPARTURES = ((1.1, 5e-9), (4.4, 17e-9))


def spatial_angle(f_hz, theta_rad, carrier_hz: float):
    """Frequency-dependent spatial angle of a path for half-wavelength spacing.

    The element spacing is fixed to half the carrier wavelength, so the value
    is ``(f / (2 * carrier)) * sin(theta)``. At ``f == carrier`` this reduces
    to the familiar frequency-flat ``sin(theta) / 2``; away from the carrier
    the angle drifts linearly with frequency (beam squint). Accepts scalar or
    array ``f_hz`` / ``theta_rad``.
    """
    return (np.asarray(f_hz, dtype=float) / (2.0 * carrier_hz)) * np.sin(theta_rad)


def array_response(n_elements: int, phi) -> np.ndarray:
    """Unit-norm ULA response ``_steering_table(n, phi) / sqrt(n)`` with the element index first, shape (n, ...).

    Entries are products of two of about n/16 + 16 exponentials; they agree
    with :func:`array_response_direct` to about 1e-12 at n = 1024, the rounding
    of the phase ``2*pi*m*phi``.
    """
    return np.moveaxis(_steering_table(n_elements, phi), -1, 0) / np.sqrt(n_elements)


def array_response_direct(n_elements: int, phi) -> np.ndarray:
    """ULA response with one exponential per entry: ``exp(j*2*pi*m*phi) / sqrt(n)``, shape (n, ...)."""
    m = np.arange(n_elements)
    phase = 2j * np.pi * np.multiply.outer(m, np.asarray(phi, dtype=float))
    return np.exp(phase) / np.sqrt(n_elements)


def a_bs(channels: ChannelRealization, aod_rad: float, k: int | None = None) -> np.ndarray:
    """BS steering vectors at departure angle ``aod_rad``: (K, N), or (N,) at subcarrier k."""
    f = channels.grid.frequencies if k is None else channels.grid.frequencies[k]
    phi_out = spatial_angle(f, aod_rad, channels.grid.carrier_hz)
    return array_response_direct(channels.num_bs_antennas, phi_out).T


def a_ris(channels: ChannelRealization) -> np.ndarray:
    """Surface steering vectors at the arrival angle, (K, M)."""
    phi_in = spatial_angle(channels.grid.frequencies, channels.source_paths.bs_ris_aoa_rad, channels.grid.carrier_hz)
    return array_response_direct(channels.num_ris_elements, phi_in).T


def h_ris_user_direct(channels: ChannelRealization) -> np.ndarray:
    """Surface-to-user rows (K, M): ``sqrt(M/L)`` times the sum over the user
    paths of gain, delay phase and conjugate steering vector."""
    paths, f, m = channels.source_paths, channels.grid.frequencies, channels.num_ris_elements
    rows = np.zeros((len(f), m), dtype=complex)
    for angle, gain, delay_s in zip(paths.ru_angles_rad, paths.ru_gains, paths.ru_delays_s):
        a_user = array_response_direct(m, spatial_angle(f, angle, channels.grid.carrier_hz)).T
        rows += (gain * np.exp(-2j * np.pi * delay_s * f))[:, None] * np.conj(a_user)
    return rows * np.sqrt(m / len(paths.ru_angles_rad))


def user_rows(channels: ChannelRealization, m: int | None = None) -> np.ndarray:
    """``channels.user_rows(m)``, the surface-to-user rows (K, m) that ``design_mccm`` forms, with m defaulting to M."""
    return channels.user_rows(channels.num_ris_elements if m is None else m)


def cascade_direct(channels: ChannelRealization) -> np.ndarray:
    """Cascaded channel ``h_ris_user_direct * sqrt(M) * a_ris`` (K, M), element responses of modulus 1."""
    return h_ris_user_direct(channels) * (a_ris(channels) * np.sqrt(channels.num_ris_elements))


def band_table(n_elements: int, grid: FrequencyGrid, sin_theta: float) -> np.ndarray:
    """``_band_table`` with its grid factor worked out on every call, from ``frequencies`` and ``spacing_hz``."""
    k_sub = grid.num_subcarriers
    step = next(c for c in range(math.isqrt(k_sub), 0, -1) if k_sub % c == 0)
    coarse_phi = (grid.frequencies[::step] / (2.0 * grid.carrier_hz)) * sin_theta
    if step == 1:
        return _steering_table(n_elements, coarse_phi)
    fine_phi = (grid.spacing_hz * np.arange(step) / (2.0 * grid.carrier_hz)) * sin_theta
    rows = k_sub // step
    table = _steering_table(n_elements, np.concatenate((coarse_phi, fine_phi)))
    return (table[:rows, None, :] * table[None, rows:, :]).reshape(k_sub, n_elements)


def summed_cascade(channels: ChannelRealization) -> np.ndarray:
    """Cascade (K, M) built as one coefficient-scaled (L, K, M) stack of band tables, one per path,
    summed over axis 0 and scaled by ``1/sqrt(L)``: the package's path-by-path build must give these bits."""
    paths, f = channels.source_paths, channels.grid.frequencies
    sin_diff = np.sin(paths.bs_ris_aoa_rad) - np.sin(paths.ru_angles_rad)
    tables = np.stack([_band_table(channels.num_ris_elements, channels.grid, s) for s in sin_diff])
    coef = np.array(paths.ru_gains)[:, None] * np.exp(-2j * np.pi * np.array(paths.ru_delays_s)[:, None] * f)
    cascade = np.multiply(coef[..., None], tables, out=tables).sum(axis=0)
    cascade *= 1.0 / np.sqrt(len(paths.ru_angles_rad))
    return cascade


def bits(values) -> tuple:
    """Shape, dtype and bytes of an array or scalar: equal only bit for bit, so ``-0.0`` is not ``0.0``."""
    values = np.asarray(values)
    return values.shape, values.dtype, values.tobytes()


#: Largest deviation of ``cascade`` and ``user_rows`` from the two tables above,
#: in units of ``sum_l |gain_l| / sqrt(L)``, the largest magnitude an entry of
#: either can reach. A single steering table stays within 2e-12 of the
#: one-exponential form in its unit, 1, up to M = 1024; ``cascade`` takes its
#: phases at difference angles, up to twice as large, so its phase rounding is
#: up to twice that.
TABLE_TOL = 4e-12


def table_deviation(channels: ChannelRealization) -> tuple[float, float]:
    """Deviation of ``cascade`` and of ``user_rows`` from the direct tables, in the units of ``TABLE_TOL``."""
    paths = channels.source_paths
    unit = sum(abs(g) for g in paths.ru_gains) / np.sqrt(len(paths.ru_angles_rad))
    cascade = np.max(np.abs(channels.cascade - cascade_direct(channels)))
    rows = np.max(np.abs(user_rows(channels) - h_ris_user_direct(channels)))
    return cascade / unit, rows / unit


def h_bs_ris(channels: ChannelRealization, aod_rad: float, delay_s: float, k: int | None = None) -> np.ndarray:
    """Dense BS-to-surface channel at departure angle ``aod_rad`` and delay ``delay_s``: (K, M, N), or slice k (M, N).

    Slice k is ``sqrt(M*N) * gain * exp(-j*2*pi*tau*f_k) * outer(a_ris[k],
    conj(a_bs[k]))``, built from the paths and the two arguments: the
    realization stores only the hop's power gain. A single slice takes the
    steering vectors of f_k alone.
    """
    paths, f = channels.source_paths, channels.grid.frequencies
    index = slice(None) if k is None else k
    gain = np.sqrt(channels.num_ris_elements * channels.num_bs_antennas) * paths.bs_ris_gain
    scale = gain * np.exp(-2j * np.pi * delay_s * f)
    return np.einsum("...,...m,...n->...mn", scale[index], a_ris(channels)[index], np.conj(a_bs(channels, aod_rad, k)))


def effective_channel(h_ru_k, profile: PhaseProfile, h_br_k) -> np.ndarray:
    """Composite row vector ``h_ru * diag(exp(j*phases)) * h_br`` of length N."""
    h_ru = np.asarray(h_ru_k, dtype=complex)
    h_br = np.asarray(h_br_k, dtype=complex)
    if h_ru.shape != (len(profile.phases_rad),) or h_br.shape[0] != len(profile.phases_rad):
        raise ValueError(
            f"dimension mismatch: h_ru {h_ru.shape}, profile {len(profile.phases_rad)}, h_br {h_br.shape}"
        )
    return (h_ru * unit_diagonal(profile.phases_rad)) @ h_br


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
    z = _steering_table(num_ris_elements, phi_bs - phi_user) @ unit_diagonal(profile.phases_rad)
    mean_z_sq = float(np.mean(np.abs(z) ** 2))
    return float(rate_bits(snr, num_bs_antennas * mean_z_sq))


def receive_phases_at(channels: ChannelRealization, f_hz: float) -> np.ndarray:
    """Phases ``-2*pi*m*phi_in(f)`` that cancel the incident steering progression at ``f_hz``."""
    phi_incident = spatial_angle(f_hz, channels.source_paths.bs_ris_aoa_rad, channels.grid.carrier_hz)
    return -2.0 * np.pi * np.arange(channels.num_ris_elements) * phi_incident


def rank_one_direction(h_row) -> tuple[np.ndarray, bool]:
    """Principal direction of the rank-one covariance ``h^H h`` in closed form, and whether it is degenerate.

    Equals ``principal_direction(mean_channel_covariance([h]))`` without an
    eigendecomposition: the single nonzero eigenvalue is ``||h||^2``. A zero
    row gives the first basis vector, degenerate when it has two or more entries.
    """
    h_row = np.asarray(h_row, dtype=complex)
    norm = float(np.linalg.norm(h_row))
    if norm == 0.0:
        basis = np.zeros(len(h_row), dtype=complex)
        basis[0] = 1.0
        return basis, len(h_row) >= 2
    return _canonical_phase(np.conj(h_row) / norm), False


def subcarrier_covariance_profile(channels: ChannelRealization, k: int) -> PhaseProfile:
    """Subcarrier k's covariance profile by the mean-covariance route.

    The receive part flattens the incident wave at f_k, and the forward part
    is the phase of the principal direction of ``h_k^H h_k``, h_k the user row k.
    """
    receive = receive_phases_at(channels, channels.grid.frequencies[k])
    vector, degenerate = rank_one_direction(user_rows(channels)[k])
    return PhaseProfile(receive + phase_extraction(vector), degenerate=degenerate)


def reference_profile(cfg, grid: FrequencyGrid, channels: ChannelRealization, scheme: str, trial: int) -> PhaseProfile:
    """Common profile of one (scheme, trial), written out as one if-chain per scheme.

    The sweep's own dispatch, ``experiments._common_profile``, is checked
    against this. Every indexed profile, on either scenario, co-phases the
    cascade row of its subcarrier k; only the los ``central`` profile is the
    closed form of ``design_central``. ``ideal`` itself has no common profile
    and is rejected like any unknown name.
    """
    m_ris = cfg.num_ris_elements
    if scheme == "random":
        return design_random(experiments._substream(cfg.seed, trial, experiments._PHASE_STREAM), m_ris)
    if scheme == "mccm":
        return design_mccm(channels)
    if scheme == "central" and cfg.scenario == experiments.LOS:
        return design_central(channels.source_paths, m_ris)
    if scheme == "central":
        k = experiments.central_subcarrier_index(grid)
    elif scheme == "random-index":
        k = int(experiments._substream(cfg.seed, trial, experiments._INDEX_STREAM).integers(grid.num_subcarriers))
    elif scheme == "side-index":
        k = 0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return design_subcarrier_covariance(channels, k)
