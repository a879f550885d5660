"""Phase-shift profile designers for the reflecting surface.

Every designer returns a :class:`PhaseProfile`: the real phase vector
``phases_rad``, whose materialized diagonal has unit modulus by construction,
and the ``degenerate`` flag of the covariance-based designers. The angle-based
designers (per-subcarrier optimal, carrier-frequency) need a single-path
surface-to-user link. The covariance-based designers work on any
realization. The per-subcarrier one co-phases row k of the cascaded channel,
which is the principal direction of that subcarrier's rank-one covariance.
:func:`design_mccm` splits the profile into a receive part that aligns the
incident wave and a forward part extracted from the mean channel covariance.
The steps of that extraction take and return plain arrays: the mean covariance
(M, M), its principal direction as ``(vector, degenerate)``, and the phases of
that vector.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, FrequencyGrid, PathSet, _is_count, _is_real, rate_bits

#: Linear SNR (10 dB) used only to rank the two phase-extraction candidates
#: inside design_mccm; the selection is deterministic and independent of the
#: SNR the caller later evaluates with.
CANDIDATE_SNR = 10.0


@dataclass(frozen=True)
class PhaseProfile:
    """Common phase shifts of the M surface elements, in radians.

    Phases are stored unconstrained in R; two profiles are equivalent when
    their phases agree modulo 2*pi. ``degenerate`` marks profiles built from
    a covariance matrix whose top eigenvalue was not unique. The phases are
    one vector of finite values, kept as a read-only float copy.
    """

    phases_rad: np.ndarray
    degenerate: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        phases = np.array(self.phases_rad, dtype=float)
        if phases.ndim != 1:
            raise ValueError(f"phases_rad must be 1-D, got shape {phases.shape}")
        if not np.isfinite(phases).all():
            raise ValueError(f"phases_rad must be finite, got {phases}")
        phases.flags.writeable = False
        object.__setattr__(self, "phases_rad", phases)


def unit_diagonal(phases_rad) -> np.ndarray:
    """Reflection-matrix diagonals ``exp(j*phases)`` of phases (..., M); every entry has modulus one."""
    return np.exp(1j * np.asarray(phases_rad, dtype=float))


def _require_single_path(paths: PathSet, designer: str) -> None:
    if len(paths.ru_angles_rad) != 1:
        raise ValueError(f"{designer} needs a single-path surface-to-user link, got {len(paths.ru_angles_rad)} paths")


def _check_subcarrier(grid: FrequencyGrid, k: int) -> None:
    if not (_is_real(k) and isinstance(k, numbers.Integral) and 0 <= k < grid.num_subcarriers):
        raise ValueError(f"subcarrier index must be an integer in [0, {grid.num_subcarriers}), got {k!r}")


def _check_elements(num_ris_elements: int) -> None:
    if not _is_count(num_ris_elements):
        raise ValueError(f"num_ris_elements must be an integer >= 1, got {num_ris_elements!r}")


def design_ideal(paths: PathSet, grid: FrequencyGrid, num_ris_elements: int, k: int) -> PhaseProfile:
    """Optimal profile for one subcarrier of a single-path link.

    Element m gets ``2*pi*m*(phi_user - phi_bs)`` with both spatial angles
    ``(f_k / 2f_c) * sin(theta)`` at subcarrier k, which puts all M reflected
    contributions exactly in phase at that subcarrier.
    """
    _require_single_path(paths, "design_ideal")
    _check_elements(num_ris_elements)
    _check_subcarrier(grid, k)
    scale = grid.frequencies[k] / (2.0 * grid.carrier_hz)
    phi_bs = scale * np.sin(paths.bs_ris_aoa_rad)
    phi_user = scale * np.sin(paths.ru_angles_rad[0])
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
    _check_elements(num_ris_elements)
    delta = np.sin(paths.ru_angles_rad[0]) - np.sin(paths.bs_ris_aoa_rad)
    phases = np.pi * np.arange(num_ris_elements) * delta
    return PhaseProfile(phases)


def design_random(rng: np.random.Generator, num_ris_elements: int) -> PhaseProfile:
    """Independent uniform phases on [0, 2*pi); deterministic given the seed."""
    _check_elements(num_ris_elements)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_ris_elements)
    return PhaseProfile(phases)


def mean_channel_covariance(h_ris_user) -> np.ndarray:
    """Average of ``h_k^H h_k`` over the subcarriers, an M x M Hermitian PSD matrix; every entry must be finite."""
    h = np.atleast_2d(np.asarray(h_ris_user, dtype=complex))
    if h.shape[0] == 0 or h.shape[1] == 0 or not np.isfinite(h).all():
        raise ValueError(f"need at least one nonempty channel row vector, every entry finite, got {h!r}")
    cov = h.conj().T @ h
    # Divided in place: the same bits as the quotient, without a second (M, M) matrix.
    cov /= h.shape[0]
    return cov


def _canonical_phase(vector: np.ndarray) -> np.ndarray:
    # Rotate the global phase so the largest-magnitude entry is real nonnegative.
    pivot = vector[np.argmax(np.abs(vector))]
    if pivot != 0:
        vector = vector * (np.conj(pivot) / abs(pivot))
    return vector


def principal_direction(covariance) -> tuple[np.ndarray, bool]:
    """Unit-norm eigenvector of the largest eigenvalue, and whether that eigenvalue is not unique.

    ``covariance`` must be square, finite, Hermitian and positive
    semidefinite. The global phase is canonicalized so the largest-magnitude
    entry is real and nonnegative, making the result invariant under positive
    rescaling of the covariance. A top eigenvalue that is not unique (to 1e-9 relative) is
    reported through the returned flag rather than as an error. Where ``eigh``
    does not converge, ``eigvalsh`` and the SVD stand in, under the same checks.
    """
    matrix = np.asarray(covariance)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"covariance must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("covariance must be finite")
    trace = np.trace(matrix)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-10 * max(1.0, float(abs(trace))):
        raise ValueError("covariance matrix is not Hermitian")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError:  # heevd can fail to converge on a nearly repeated top eigenvalue
        eigenvalues, eigenvectors = np.linalg.eigvalsh(matrix), np.linalg.svd(matrix)[0][:, ::-1]
    if eigenvalues[0] < -1e-10 * max(float(trace.real), np.finfo(float).tiny):
        raise ValueError(f"covariance is not positive semidefinite (min eigenvalue {eigenvalues[0]:.3e})")
    top = float(eigenvalues[-1])
    degenerate = len(matrix) >= 2 and top - float(eigenvalues[-2]) <= 1e-9 * max(abs(top), np.finfo(float).tiny)
    return _canonical_phase(eigenvectors[:, -1]), degenerate


def phase_extraction(v) -> np.ndarray:
    """Phases of the entries of ``v``, discarding magnitudes.

    Entries that are exactly zero get phase 0 by convention, and a call that
    meets any issues one RuntimeWarning naming their count; every entry must
    be finite.
    """
    vec = np.asarray(v, dtype=complex)
    if not np.isfinite(vec).all():
        raise ValueError(f"vector must be finite, got {vec!r}")
    zeros = int(np.count_nonzero(vec == 0))
    if zeros:
        message = f"phase extraction hit {zeros} exactly-zero entries; their phase is set to 0"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return np.where(vec == 0, 0.0, np.angle(vec))


def _receive_phases(channels: ChannelRealization) -> np.ndarray:
    # Flattens the reflected wavefront at the carrier, where the spatial angle is 0.5 * sin(theta).
    phi_incident = 0.5 * np.sin(channels.source_paths.bs_ris_aoa_rad)
    return -2.0 * np.pi * np.arange(channels.num_ris_elements) * phi_incident


def design_mccm(channels: ChannelRealization, num_ris_elements: int | None = None) -> PhaseProfile:
    """Covariance-based common profile for an arbitrary number of user paths.

    The profile is the elementwise sum of a receive part, which flattens the
    incident wave of the carrier-frequency BS-to-surface channel, and a
    forward part obtained by phase extraction of the principal direction of
    the mean channel covariance of the surface-to-user rows. Because an
    eigenvector is only defined up to conjugation, both extraction candidates
    are scored, in one stacked ``received_power`` call, by their mean rate at
    a fixed reference SNR and the better one is kept (ties keep the
    unconjugated candidate).

    ``num_ris_elements``, m in [1, M] (default M), designs on the first m
    elements: their rows ``channels.user_rows(m)`` (K, m), held only until
    their covariance is formed, and candidates scored with ``sizes=(m,)``. So
    the first m phases are bit for bit ``design_mccm`` of ``gen_channels`` at
    m; phases m onward are the receive part alone, which no size up to m
    reads. An m that is no integer in [1, M] raises ValueError.
    """
    m = channels.num_ris_elements if num_ris_elements is None else num_ris_elements
    vector, degenerate = principal_direction(mean_channel_covariance(channels.user_rows(m)))
    candidates = np.stack([_receive_phases(channels)] * 2)
    candidates[:, :m] += [phase_extraction(v) for v in (vector, np.conj(vector))]
    rates = np.mean(rate_bits(CANDIDATE_SNR, channels.received_power(unit_diagonal(candidates), (m,))[0]), axis=-1)
    # argmax keeps the first of tied candidates.
    return PhaseProfile(candidates[int(np.argmax(rates))], degenerate=degenerate)


def design_subcarrier_covariance(channels: ChannelRealization, k: int) -> PhaseProfile:
    """Profile that co-phases every reflected term at subcarrier k, on any number of user paths.

    Subcarrier k's covariance ``c_k^H c_k``, with ``c_k`` row k of the cascaded
    channel, has rank one, and its principal direction is ``conj(c_k)``. Its
    phases ``-angle(c_k)`` put the M reflected terms in phase, so the profile
    reaches ``aligned_power`` at subcarrier k. On a single-path link this is
    :func:`design_ideal`'s profile up to a global phase. An all-zero row has
    no direction: its phases are 0, and it is ``degenerate`` when M >= 2.
    """
    _check_subcarrier(channels.grid, k)
    row = channels.cascade[k]
    return PhaseProfile(-np.angle(row), degenerate=len(row) >= 2 and not np.any(row))
