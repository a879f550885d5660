"""Phase-shift profile designers for the reflecting surface.

Every designer returns a :class:`PhaseProfile`: the real phase vector
``phases_rad``, whose materialized diagonal has unit modulus by construction,
and the ``degenerate`` flag of the covariance-based designers. The angle-based
designers (per-subcarrier optimal, carrier-frequency, indexed) need a
single-path surface-to-user link; the covariance-based designers work on any
realization by splitting the profile into a receive part that aligns the
incident wave and a forward part extracted from a channel covariance matrix.
The steps of that extraction take and return plain arrays: the mean covariance
(M, M), its principal direction as ``(vector, degenerate)``, and the phases of
that vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, PathSet, _is_count, rate_bits, spatial_angle

logger = logging.getLogger(__name__)

#: Linear SNR (10 dB) used only to rank the two phase-extraction candidates
#: inside design_mccm; the selection is deterministic and independent of the
#: SNR the caller later evaluates with.
CANDIDATE_SNR = 10.0


@dataclass(frozen=True)
class PhaseProfile:
    """Common phase shifts of the M surface elements, in radians.

    Phases are stored unconstrained in R; two profiles are equivalent when
    their phases agree modulo 2*pi. ``degenerate`` marks profiles built from
    a covariance matrix whose top eigenvalue was not unique.
    """

    phases_rad: np.ndarray
    degenerate: bool = field(default=False, kw_only=True)

    def unit_diagonal(self) -> np.ndarray:
        """Diagonal of the reflection matrix; every entry has modulus one."""
        return np.exp(1j * np.asarray(self.phases_rad, dtype=float))


def _require_single_path(paths: PathSet, designer: str) -> None:
    if len(paths.ru_angles_rad) != 1:
        raise ValueError(f"{designer} needs a single-path surface-to-user link, got {len(paths.ru_angles_rad)} paths")


def _check_subcarrier(grid: FrequencyGrid, k: int) -> None:
    if not 0 <= k < grid.num_subcarriers:
        raise ValueError(f"subcarrier index {k} out of range [0, {grid.num_subcarriers})")


def design_ideal(paths: PathSet, grid: FrequencyGrid, num_ris_elements: int, k: int) -> PhaseProfile:
    """Optimal profile for one subcarrier of a single-path link.

    Element m gets ``2*pi*m*(phi_user - phi_bs)`` with both spatial angles
    evaluated at subcarrier k, which puts all M reflected contributions
    exactly in phase at that subcarrier.
    """
    _require_single_path(paths, "design_ideal")
    _check_subcarrier(grid, k)
    f_k = grid.frequencies[k]
    phi_bs = spatial_angle(f_k, paths.bs_ris_aoa_rad, grid.carrier_hz)
    phi_user = spatial_angle(f_k, paths.ru_angles_rad[0], grid.carrier_hz)
    phases = 2.0 * np.pi * np.arange(num_ris_elements) * (phi_user - phi_bs)
    return PhaseProfile(phases)


def design_central(paths: PathSet, num_ris_elements: int) -> PhaseProfile:
    """Carrier-frequency profile built from long-term physical angles only.

    Element m gets ``pi*m*s`` with ``s = sin(theta_user) - sin(theta_bs)``,
    the ideal phase at the carrier. Equivalently this is the per-element
    average of the per-subcarrier optimal phases over any symmetric grid.

    It maximizes the Jensen bound ``log2(1 + snr*N/K * sum_k |z_k|^2)`` over
    all common profiles whenever ``D(d) = sum_k cos(pi*s*d*(f_k - f_c)/f_c)``
    is nonnegative at every lag ``d < M``: the sum is ``sum_{m,n} D(m - n)``
    here, and no profile exceeds ``sum_{m,n} |D(m - n)|``. Where D has a
    negative lobe, an indexed profile can bound higher.
    """
    _require_single_path(paths, "design_central")
    delta = np.sin(paths.ru_angles_rad[0]) - np.sin(paths.bs_ris_aoa_rad)
    phases = np.pi * np.arange(num_ris_elements) * delta
    return PhaseProfile(phases)


def design_indexed(paths: PathSet, grid: FrequencyGrid, num_ris_elements: int, k: int) -> PhaseProfile:
    """Profile that is optimal at subcarrier k but applied to all subcarriers."""
    return design_ideal(paths, grid, num_ris_elements, k)


def design_random(rng: np.random.Generator, num_ris_elements: int) -> PhaseProfile:
    """Independent uniform phases on [0, 2*pi); deterministic given the seed."""
    if not _is_count(num_ris_elements):
        raise ValueError(f"num_ris_elements must be an integer >= 1, got {num_ris_elements!r}")
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_ris_elements)
    return PhaseProfile(phases)


def mean_channel_covariance(h_ris_user) -> np.ndarray:
    """Average of ``h_k^H h_k`` over the subcarriers, an M x M Hermitian PSD matrix."""
    h = np.atleast_2d(np.asarray(h_ris_user, dtype=complex))
    if h.shape[0] == 0 or h.shape[1] == 0:
        raise ValueError("need at least one nonempty channel row vector")
    return (h.conj().T @ h) / h.shape[0]


def _canonical_phase(vector: np.ndarray) -> np.ndarray:
    # Rotate the global phase so the largest-magnitude entry is real nonnegative.
    anchor = int(np.argmax(np.abs(vector)))
    pivot = vector[anchor]
    if pivot != 0:
        vector = vector * (np.conj(pivot) / abs(pivot))
    return vector


def principal_direction(covariance) -> tuple[np.ndarray, bool]:
    """Unit-norm eigenvector of the largest eigenvalue, and whether that eigenvalue is not unique.

    ``covariance`` must be square, Hermitian and positive semidefinite. The
    global phase is canonicalized so the largest-magnitude entry is real and
    nonnegative, making the result invariant under positive rescaling of the
    covariance. A top eigenvalue that is not unique (to 1e-9 relative) is
    reported through the returned flag rather than as an error.
    """
    matrix = np.asarray(covariance)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"covariance must be square, got shape {matrix.shape}")
    trace = np.trace(matrix)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-10 * max(1.0, float(abs(trace))):
        raise ValueError("covariance matrix is not Hermitian")
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if eigenvalues[0] < -1e-10 * max(float(trace.real), np.finfo(float).tiny):
        raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {eigenvalues[0]:.3e})")
    top = float(eigenvalues[-1])
    degenerate = False
    if len(matrix) >= 2:
        gap = top - float(eigenvalues[-2])
        degenerate = gap <= 1e-9 * max(abs(top), np.finfo(float).tiny)
    return _canonical_phase(eigenvectors[:, -1]), degenerate


def _rank_one_direction(h_row: np.ndarray) -> tuple[np.ndarray, bool]:
    """Principal direction of the rank-one covariance ``h^H h`` in closed form.

    Equals ``principal_direction(mean_channel_covariance([h]))`` but avoids an
    eigendecomposition; the single nonzero eigenvalue is ``||h||^2``.
    """
    norm = float(np.linalg.norm(h_row))
    size = len(h_row)
    if norm == 0.0:
        basis = np.zeros(size, dtype=complex)
        basis[0] = 1.0
        return basis, size >= 2
    return _canonical_phase(np.conj(h_row) / norm), False


def phase_extraction(v) -> np.ndarray:
    """Phases of the entries of ``v``, discarding magnitudes.

    Entries that are exactly zero get phase 0 by convention.
    """
    vec = np.asarray(v, dtype=complex)
    zeros = int(np.count_nonzero(vec == 0))
    if zeros:
        logger.warning("phase extraction hit %d exactly-zero entries; their phase is set to 0", zeros)
    return np.angle(vec)


def _receive_phases(channels: ChannelRealization, f_hz: float) -> np.ndarray:
    # Cancels the incident steering progression at f_hz so the reflected wavefront is flat.
    phi_incident = spatial_angle(f_hz, channels.source_paths.bs_ris_aoa_rad, channels.grid.carrier_hz)
    return -2.0 * np.pi * np.arange(channels.num_ris_elements) * phi_incident


def design_mccm(channels: ChannelRealization) -> PhaseProfile:
    """Covariance-based common profile for an arbitrary number of user paths.

    The profile is the elementwise sum of a receive part, which flattens the
    incident wave of the carrier-frequency BS-to-surface channel, and a
    forward part obtained by phase extraction of the principal direction of
    the mean channel covariance. Because an eigenvector is only defined up to
    conjugation, both extraction candidates are scored by their mean rate at
    a fixed reference SNR and the better one is kept (ties keep the
    unconjugated candidate).
    """
    receive = _receive_phases(channels, channels.grid.carrier_hz)
    vector, degenerate = principal_direction(mean_channel_covariance(channels.h_ris_user))
    candidates = [receive + phase_extraction(v) for v in (vector, np.conj(vector))]
    rates = [np.mean(rate_bits(CANDIDATE_SNR, channels.received_power(np.exp(1j * p)))) for p in candidates]
    best_phases = candidates[int(np.argmax(rates))]  # argmax keeps the first of tied candidates
    return PhaseProfile(best_phases, degenerate=degenerate)


def design_subcarrier_covariance(channels: ChannelRealization, k: int) -> PhaseProfile:
    """Single-subcarrier analog of :func:`design_mccm`.

    Uses the BS-to-surface spatial angle at subcarrier k for the receive part
    and the covariance of that subcarrier's channel alone for the forward
    part. Its principal direction ``conj(h_k)`` co-phases every reflected
    term, so the profile reaches ``aligned_power`` at subcarrier k.
    """
    _check_subcarrier(channels.grid, k)
    receive = _receive_phases(channels, channels.grid.frequencies[k])
    vector, degenerate = _rank_one_direction(channels.h_ris_user[k])
    return PhaseProfile(receive + phase_extraction(vector), degenerate=degenerate)
