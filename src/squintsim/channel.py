"""Beam-squint channel generation for a RIS-aided wideband mmWave OFDM link.

The base station reaches the user only through a reflecting surface, and both
hops are modeled with frequency-dependent steering vectors. Because the array
spacing is tuned to the carrier, the effective spatial angle of every path
drifts with the subcarrier frequency, which is exactly the effect the phase
designers in :mod:`squintsim.phase_design` try to mitigate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

#: Path delays are sampled from (0, DELAY_MAX_S].
DELAY_MAX_S = 20e-9


def _is_real(value) -> bool:
    # bool is a numbers.Integral, but True is no count, seed or frequency.
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_real(value) and isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class FrequencyGrid:
    """OFDM subcarrier frequencies, symmetric about the carrier."""

    carrier_hz: float
    bandwidth_hz: float
    num_subcarriers: int
    frequencies: np.ndarray


@dataclass(frozen=True)
class PathSet:
    """Geometric description of one channel realization.

    The BS-to-surface hop is always a single path; the surface-to-user hop
    carries ``L >= 1`` paths (one on a los link). User path l has angle
    ``ru_angles_rad[l]``, gain ``ru_gains[l]`` and delay ``ru_delays_s[l]``;
    the three are tuples of length L, so the record keeps ``==`` and hashing.
    Angles are physical angles in radians, gains are complex amplitudes.
    """

    bs_ris_aoa_rad: float
    bs_ris_aod_rad: float
    bs_ris_gain: complex
    bs_ris_delay_s: float
    ru_angles_rad: tuple[float, ...]
    ru_gains: tuple[complex, ...]
    ru_delays_s: tuple[float, ...]

    def __post_init__(self) -> None:
        num_paths = len(self.ru_angles_rad)
        if not len(self.ru_gains) == len(self.ru_delays_s) == num_paths:
            raise ValueError("ru_angles_rad, ru_gains and ru_delays_s differ in length")
        if num_paths < 1:
            raise ValueError("at least one surface-to-user path is required")
        if self.bs_ris_delay_s < 0 or any(delay < 0 for delay in self.ru_delays_s):
            raise ValueError(f"path delays must be nonnegative, got {self.bs_ris_delay_s} and {self.ru_delays_s}")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-subcarrier channels for one realization.

    It is built from the N BS antennas, the surface-to-user rows
    ``h_ris_user`` (K, M) and the grid and paths they came from. The
    BS-to-surface hop is a single path, so its slice at subcarrier k is the
    rank-one matrix ``bs_ris_scale[k] * outer(a_M[k], conj(a_N[k]))``, with
    ``a_M[k]`` and ``a_N[k]`` the surface and BS steering vectors at f_k.
    That hop is derived from ``source_paths`` and ``grid``, not passed: at
    construction (``dataclasses.replace`` builds it again) the realization
    stores ``bs_ris_scale`` (K,) and ``cascade = h_ris_user * a_M`` (K, M),
    and drops the table of the ``a_M[k]``. No rate depends on the unit-norm
    vectors ``a_N[k]``, so only their count N is stored. The three arrays are
    made read-only, so an in-place edit cannot leave ``cascade`` stale.
    """

    num_bs_antennas: int
    h_ris_user: np.ndarray
    grid: FrequencyGrid
    source_paths: PathSet
    bs_ris_scale: np.ndarray = field(init=False, repr=False, compare=False)
    cascade: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        paths, f, m_ris = self.source_paths, self.grid.frequencies, self.h_ris_user.shape[1]
        delay = np.exp(-2j * np.pi * paths.bs_ris_delay_s * f)
        scale = np.sqrt(m_ris * self.num_bs_antennas) * paths.bs_ris_gain * delay
        a_ris = _steering_table(m_ris, spatial_angle(f, paths.bs_ris_aoa_rad, self.grid.carrier_hz))
        object.__setattr__(self, "bs_ris_scale", scale)
        object.__setattr__(self, "cascade", self.h_ris_user * a_ris)
        for array in (self.bs_ris_scale, self.h_ris_user, self.cascade):
            array.flags.writeable = False

    def received_power(self, diag) -> np.ndarray:
        """MRT power ``||h_ru[k] diag(d) H_k||^2`` per subcarrier for surface diagonal ``d``.

        ``||a_N[k]|| = 1`` reduces it to ``|scale_k|^2 |sum_m cascade[k,m] d_m|^2``.
        ``diag`` has shape (..., M) and the result (..., K): a stack of S
        diagonals is one batched matrix-vector product, and every row is bit
        for bit the power of that diagonal alone.
        """
        sums = np.matmul(self.cascade, np.asarray(diag)[..., None])[..., 0]
        return np.abs(self.bs_ris_scale) ** 2 * np.abs(sums) ** 2

    def aligned_power(self) -> np.ndarray:
        """Largest ``received_power`` any diagonal reaches: all M terms co-phased.

        It is ``(|scale_k| sum_m |cascade[k,m]|)^2``.
        """
        return (np.abs(self.bs_ris_scale) * np.sum(np.abs(self.cascade), axis=1)) ** 2

    @property
    def num_subcarriers(self) -> int:
        return self.cascade.shape[0]

    @property
    def num_ris_elements(self) -> int:
        return self.cascade.shape[1]


def rate_bits(snr, power) -> np.ndarray:
    """Rate ``log2(1 + snr * power)`` in bits/s/Hz of every SNR at every power.

    ``snr`` is one linear SNR (unit noise power) or an array of them; the
    result has shape ``np.shape(snr) + np.shape(power)``.
    """
    if not np.all(np.asarray(snr) > 0):
        raise ValueError(f"snr must be a positive linear value, got {snr!r}")
    return np.log2(1.0 + np.multiply.outer(snr, power))


def build_frequency_grid(carrier_hz: float, bandwidth_hz: float, num_subcarriers: int) -> FrequencyGrid:
    """Build the K subcarrier frequencies centered on the carrier.

    Subcarrier k (0-based) sits at ``carrier + (bandwidth/K) * (k - (K-1)/2)``,
    so the grid is symmetric and its mean is the carrier frequency.
    """
    if not _is_count(num_subcarriers):
        raise ValueError(f"num_subcarriers must be an integer >= 1, got {num_subcarriers!r}")
    # Comparisons with NaN are false, so a value that is no real number is
    # checked as NaN and fails every range.
    carrier, bandwidth = (v if _is_real(v) else math.nan for v in (carrier_hz, bandwidth_hz))
    if not 0 < carrier < math.inf:
        raise ValueError(f"carrier_hz must be finite and positive, got {carrier_hz!r}")
    if not 0 <= bandwidth:
        raise ValueError(f"bandwidth_hz must be a nonnegative number, got {bandwidth_hz!r}")
    if not bandwidth < 2 * carrier:
        raise ValueError(
            f"bandwidth_hz={bandwidth_hz} >= 2*carrier_hz={2 * carrier_hz} would "
            "produce nonpositive subcarrier frequencies"
        )
    k = np.arange(num_subcarriers, dtype=float)
    spacing = bandwidth_hz / num_subcarriers
    frequencies = carrier_hz + spacing * (k - (num_subcarriers - 1) / 2)
    return FrequencyGrid(carrier_hz, bandwidth_hz, num_subcarriers, frequencies)


def spatial_angle(f_hz, theta_rad, carrier_hz: float):
    """Frequency-dependent spatial angle of a path for half-wavelength spacing.

    The element spacing is fixed to half the carrier wavelength, so the value
    is ``(f / (2 * carrier)) * sin(theta)``. At ``f == carrier`` this reduces
    to the familiar frequency-flat ``sin(theta) / 2``; away from the carrier
    the angle drifts linearly with frequency (beam squint). Accepts scalar or
    array ``f_hz`` / ``theta_rad``.
    """
    return (np.asarray(f_hz, dtype=float) / (2.0 * carrier_hz)) * np.sin(theta_rad)


def _steering_table(n_elements: int, phi) -> np.ndarray:
    """ULA responses ``exp(j*2*pi*m*phi) / sqrt(n)``, shape ``np.shape(phi) + (n,)``.

    With ``m = q*B + r`` and ``B = ceil(sqrt(n))`` an entry is ``exp(j*2*pi*q*B*phi)
    * exp(j*2*pi*r*phi)``: about 2*sqrt(n) exponentials per angle, not n.
    """
    phi = np.asarray(phi, dtype=float)[..., None]
    block = math.isqrt(n_elements - 1) + 1
    coarse = np.exp(2j * np.pi * (np.arange(0, n_elements, block) * phi)) / np.sqrt(n_elements)
    fine = np.exp(2j * np.pi * (np.arange(block) * phi))
    table = coarse[..., :, None] * fine[..., None, :]
    return table.reshape(phi.shape[:-1] + (-1,))[..., :n_elements]


def array_response(n_elements: int, phi) -> np.ndarray:
    """Unit-norm ULA response vector for spatial angle ``phi``.

    Entry m equals ``exp(j*2*pi*m*phi) / sqrt(n)``. A scalar ``phi`` yields a
    vector of shape (n,), an array of angles yields shape (n, ...). Entries are
    products of two of about 2*sqrt(n) exponentials; they agree with the one-exp
    form to about 1e-12 at n = 1024, the rounding of the phase ``2*pi*m*phi``.
    """
    if not _is_count(n_elements):
        raise ValueError(f"n_elements must be an integer >= 1, got {n_elements!r}")
    return np.moveaxis(_steering_table(n_elements, phi), -1, 0)


def _open_closed_uniform(rng: np.random.Generator, high: float) -> float:
    # high * rng.random() is the draw rng.uniform(0.0, high) makes, bit for bit, without
    # its argument handling; mirroring moves the support from [0, high) to (0, high].
    return high - high * rng.random()


def _sample_gain(rng: np.random.Generator, gain_mode: str) -> complex:
    if gain_mode == "unit":
        return 1.0 + 0.0j
    if gain_mode == "random":
        re, im = rng.standard_normal(2)
        return complex(re, im) / np.sqrt(2.0)
    raise ValueError(f"gain_mode must be 'unit' or 'random', got {gain_mode!r}")


def sample_path_set(
    rng: np.random.Generator,
    num_paths: int = 1,
    gain_mode: str = "random",
) -> PathSet:
    """Draw a random path geometry with ``num_paths`` user paths.

    All angles are i.i.d. uniform on (0, 2*pi], delays uniform on
    (0, 20 ns], and gains are complex standard normal unless
    ``gain_mode='unit'`` pins every gain to 1 (handy for closed-form checks).
    The draw is a pure function of the generator state, so reusing a seed
    reproduces the same paths.
    """
    if not _is_count(num_paths):
        raise ValueError(f"num_paths must be an integer >= 1, got {num_paths!r}")

    two_pi = 2.0 * np.pi
    aoa = _open_closed_uniform(rng, two_pi)
    aod = _open_closed_uniform(rng, two_pi)
    delay = _open_closed_uniform(rng, DELAY_MAX_S)
    gain = _sample_gain(rng, gain_mode)

    # Each user path draws its angle, then its gain, then its delay.
    draws = [
        (_open_closed_uniform(rng, two_pi), _sample_gain(rng, gain_mode), _open_closed_uniform(rng, DELAY_MAX_S))
        for _ in range(num_paths)
    ]
    return PathSet(aoa, aod, gain, delay, *zip(*draws))


def gen_channels(
    paths: PathSet,
    grid: FrequencyGrid,
    num_bs_antennas: int,
    num_ris_elements: int,
) -> ChannelRealization:
    """Generate the per-subcarrier channels for one path realization.

    The surface-to-user row vector at subcarrier k sums the L paths, each with
    its gain and delay phase, scaled by ``sqrt(M/L)``; the L steering tables
    come from one call, as an (L, K, M) stack. The realization derives the
    BS-to-surface hop ``sqrt(M*N) * gain * exp(-j*2*pi*tau*f_k) * a_M(phi_in)
    * a_N(phi_out)^H`` itself, with both spatial angles evaluated at f_k, from
    one more call. Pure function of its inputs.
    """
    if not (_is_count(num_bs_antennas) and _is_count(num_ris_elements)):
        raise ValueError("antenna and element counts must be integers >= 1")
    f = grid.frequencies
    m_ris = num_ris_elements
    # The conjugate response is the response at the negated angle.
    tables = _steering_table(m_ris, -spatial_angle(f, np.array(paths.ru_angles_rad)[:, None], grid.carrier_hz))
    coef = np.array(paths.ru_gains)[:, None] * np.exp(-2j * np.pi * np.array(paths.ru_delays_s)[:, None] * f)
    # Scales the stack in place, coefficient first: numpy's complex multiply
    # is not operand-symmetric, and this order keeps every bit of coef * table.
    h_ris_user = np.multiply(coef[..., None], tables, out=tables).sum(axis=0)
    h_ris_user *= np.sqrt(m_ris / len(paths.ru_angles_rad))

    return ChannelRealization(num_bs_antennas, h_ris_user, grid, paths)
