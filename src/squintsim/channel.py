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

#: Path-gain modes of :func:`sample_path_set`: pinned to 1, or complex standard normal.
GAIN_MODES = ("unit", "random")


def _is_real(value) -> bool:
    # bool is a numbers.Integral, but True is no count, seed or frequency.
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_real(value) and isinstance(value, numbers.Integral) and value >= 1


@dataclass(frozen=True)
class FrequencyGrid:
    """OFDM subcarrier frequencies, symmetric about the carrier.

    Subcarrier k (0-based) sits at ``carrier + spacing * (k - (K-1)/2)``, with
    ``spacing_hz = bandwidth/K``, so the grid is arithmetic and its mean is the
    carrier frequency. ``frequencies`` is derived from the three fields at
    construction and is read-only; it is no argument, so no grid, not even one
    made by ``dataclasses.replace``, holds frequencies that disagree with them.
    """

    carrier_hz: float
    bandwidth_hz: float
    num_subcarriers: int
    frequencies: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_count(self.num_subcarriers):
            raise ValueError(f"num_subcarriers must be an integer >= 1, got {self.num_subcarriers!r}")
        # Comparisons with NaN are false, so a value that is no real number is
        # checked as NaN and fails every range.
        carrier, bandwidth = (v if _is_real(v) else math.nan for v in (self.carrier_hz, self.bandwidth_hz))
        if not 0 < carrier < math.inf:
            raise ValueError(f"carrier_hz must be finite and positive, got {self.carrier_hz!r}")
        if not 0 <= bandwidth:
            raise ValueError(f"bandwidth_hz must be a nonnegative number, got {self.bandwidth_hz!r}")
        if not bandwidth < 2 * carrier:
            raise ValueError(
                f"bandwidth_hz={self.bandwidth_hz} >= 2*carrier_hz={2 * self.carrier_hz} would "
                "produce nonpositive subcarrier frequencies"
            )
        k = np.arange(self.num_subcarriers, dtype=float)
        frequencies = self.carrier_hz + self.spacing_hz * (k - (self.num_subcarriers - 1) / 2)
        frequencies.flags.writeable = False
        object.__setattr__(self, "frequencies", frequencies)

    @property
    def spacing_hz(self) -> float:
        return self.bandwidth_hz / self.num_subcarriers


@dataclass(frozen=True)
class PathSet:
    """Geometric description of one channel realization.

    The BS-to-surface hop is one path, kept as its arrival angle and gain:
    MRT removes its departure angle and delay from every rate. The
    surface-to-user hop carries ``L >= 1`` paths (one on a los link). User
    path l has angle ``ru_angles_rad[l]``, gain ``ru_gains[l]`` and delay
    ``ru_delays_s[l]``; the three are tuples of length L, so the record keeps
    ``==`` and hashing. Angles are physical angles in radians, gains are
    complex amplitudes; every value must be finite.
    """

    bs_ris_aoa_rad: float
    bs_ris_gain: complex
    ru_angles_rad: tuple[float, ...]
    ru_gains: tuple[complex, ...]
    ru_delays_s: tuple[float, ...]

    def __post_init__(self) -> None:
        num_paths = len(self.ru_angles_rad)
        if not len(self.ru_gains) == len(self.ru_delays_s) == num_paths:
            raise ValueError("ru_angles_rad, ru_gains and ru_delays_s differ in length")
        if num_paths < 1:
            raise ValueError("at least one surface-to-user path is required")
        # x - x is 0 exactly when x, a real or a complex number, is finite.
        values = (self.bs_ris_aoa_rad, self.bs_ris_gain, *self.ru_angles_rad, *self.ru_gains, *self.ru_delays_s)
        if not all(v - v == 0 for v in values):
            name, value = next((n, v) for n, v in vars(self).items() if not np.isfinite(v).all())
            raise ValueError(f"{name} must be finite, got {value!r}")
        if any(delay < 0 for delay in self.ru_delays_s):
            raise ValueError(f"path delays must be nonnegative, got {self.ru_delays_s}")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-subcarrier channels for one realization.

    It is built from the N BS antennas, the M surface elements, the grid and
    the paths, checks the two counts and derives the rest. The BS-to-surface
    hop is one path, ``sqrt(M*N) * g_bs * exp(-j*2*pi*tau*f_k) *
    outer(a_M[k], conj(a_N[k]))`` at f_k, with unit-norm responses; its delay
    phase is common to all M elements and ``||a_N[k]|| = 1``, so after MRT only
    the power gain ``bs_ris_power_gain = N*|g_bs|^2`` and the element responses
    ``sqrt(M) * a_M[k]``, of modulus 1, are left in any rate, and the paths
    hold neither tau nor the departure angle. Besides that gain it stores one
    table, the cascaded channel ``cascade`` (K, M): the surface-to-user rows
    times ``sqrt(M) * a_M``. Both hops squint linearly in frequency, so the
    cascade of user path l is one modulus-1 steering vector, at the difference
    angle ``(f_k / 2f_c) * (sin(theta_bs) - sin(theta_l))``, scaled by the
    path's gain, delay phase and ``1/sqrt(L)``: :func:`_path_sum` builds it
    one path at a time, reading each path's angle, gain and delay from the
    paths just before that path's :func:`_band_table` call. The
    surface-to-user rows are not kept: :meth:`user_rows` forms those of the
    first m elements from the cascade on each call, and ``design_mccm`` is its
    one caller in the package. The cascade is read-only, and
    ``dataclasses.replace`` builds a new realization from its four arguments,
    so no value can be stale.

    No entry depends on M: the cascade of the first m elements is the first m
    columns of this one, bit for bit, so both power methods rate any surface
    size m <= M from it (their ``sizes``).
    """

    num_bs_antennas: int
    num_ris_elements: int
    grid: FrequencyGrid
    source_paths: PathSet
    bs_ris_power_gain: float = field(init=False, repr=False, compare=False)
    cascade: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (_is_count(self.num_bs_antennas) and _is_count(self.num_ris_elements)):
            raise ValueError("antenna and element counts must be integers >= 1")
        paths = self.source_paths
        cascade = _path_sum(self.num_ris_elements, self.grid, paths)
        # sqrt(M/L) of the user rows times the 1/sqrt(M) of each unit-norm user response
        # leaves 1/sqrt(L), which is 1 for one path.
        if len(paths.ru_gains) > 1:
            cascade *= 1.0 / np.sqrt(len(paths.ru_gains))
        cascade.flags.writeable = False
        object.__setattr__(self, "bs_ris_power_gain", self.num_bs_antennas * abs(paths.bs_ris_gain) ** 2)
        object.__setattr__(self, "cascade", cascade)

    def received_power(self, diag, sizes=None) -> np.ndarray:
        """MRT power ``||h_ru[k] diag(d) H_k||^2`` per subcarrier for surface diagonal ``d``.

        ``||a_N[k]|| = 1`` reduces it to ``bs_ris_power_gain * |sum_m cascade[k,m] d_m|^2``.
        ``diag`` has shape (..., M) and the result (..., K): a stack of S
        diagonals is one batched matrix-vector product, and every row is bit
        for bit the power of that diagonal alone. A sequence of Z ``sizes`` in
        [1, M] gives shape (Z, ..., K), row z the power of the first m =
        ``sizes[z]`` entries of each diagonal on the first m elements, bit for
        bit the call on ``gen_channels`` at m; ``sizes=None`` is ``(M,)``
        without the size axis. Raises ValueError when the trailing length of
        ``diag`` is not M or an entry is not finite.
        """
        diag = np.asarray(diag)
        if diag.shape[-1:] != (self.num_ris_elements,):
            raise ValueError(f"diagonal has trailing length {diag.shape[-1:]}, expected M = {self.num_ris_elements}")
        if not np.isfinite(diag).all():
            raise ValueError(f"diagonal must be finite, got {diag!r}")
        # A contiguous copy of each prefix: the operands of a build at m, so the same bits.
        prefixes = ((self.cascade[:, :m], np.ascontiguousarray(diag[..., :m])) for m in self._check_sizes(sizes))
        sums = [np.matmul(table, rows[..., None])[..., 0] for table, rows in prefixes]
        return self.bs_ris_power_gain * np.abs(sums[0] if sizes is None else np.stack(sums)) ** 2

    def aligned_power(self, sizes=None) -> np.ndarray:
        """Largest ``received_power`` any diagonal reaches: all M terms co-phased.

        It is ``bs_ris_power_gain * (sum_m |cascade[k,m]|)^2``, shape (K,). A
        sequence of Z ``sizes`` in [1, M] gives shape (Z, K), row z the power
        of ``gen_channels`` at ``sizes[z]`` bit for bit: each sums a prefix of
        one ``|cascade|`` table. ``sizes=None`` is ``(M,)`` without the size axis.
        """
        magnitude = np.abs(self.cascade)
        sums = [np.sum(magnitude[:, :m], axis=1) for m in self._check_sizes(sizes)]
        return self.bs_ris_power_gain * (sums[0] if sizes is None else np.stack(sums)) ** 2

    def user_rows(self, m: int) -> np.ndarray:
        """The surface-to-user rows of the first m elements, a fresh, contiguous (K, m) table.

        They are ``cascade[:, :m]`` times ``conj(sqrt(m) * a_m)``, the
        modulus-1 conjugate element responses at the arrival angle, from one
        :func:`_band_table` call: the inverse of the build's element factor,
        and so bit for bit the rows of ``gen_channels`` at m. The realization
        keeps no rows; each call forms them anew. Raises ValueError when m is
        no integer in [1, M].
        """
        self._check_sizes((m,))
        rows = _band_table(m, self.grid, -np.sin(self.source_paths.bs_ris_aoa_rad))
        rows *= self.cascade[:, :m]
        return rows

    def _check_sizes(self, sizes):
        """``sizes``, ``(M,)`` for None; raises ValueError when it is empty or a count is no integer in [1, M]."""
        if sizes is None:
            return (self.num_ris_elements,)
        if len(sizes) == 0:
            raise ValueError("sizes must hold at least one surface size")
        for m in sizes:
            if not (_is_count(m) and m <= self.num_ris_elements):
                raise ValueError(f"element count must be an integer in [1, {self.num_ris_elements}], got {m!r}")
        return sizes


def rate_bits(snr, power) -> np.ndarray:
    """Rate ``log2(1 + snr * power)`` in bits/s/Hz of every SNR at every power.

    ``snr`` is one linear SNR (unit noise power) or an array of them; the
    result has shape ``np.shape(snr) + np.shape(power)``. Raises ValueError
    on an SNR that is not finite and positive or a power that is not finite.
    """
    if not ((np.asarray(snr) > 0) & np.isfinite(snr)).all():
        raise ValueError(f"snr must be a positive linear value and finite, got {snr!r}")
    if not np.isfinite(power).all():
        raise ValueError(f"power must be finite, got {power!r}")
    # The product is its own result: 1 is added and the logarithm taken in
    # place, and ``[()]`` turns a 0-d result back into a numpy scalar.
    rates = np.asarray(np.multiply.outer(snr, power), dtype=float)
    rates += 1.0
    return np.log2(rates, out=rates)[()]


#: Element block of every steering table. It does not depend on n, so the table
#: of n elements is the first n columns of any wider one, bit for bit.
_BLOCK = 16


def _steering_table(n_elements: int, phi) -> np.ndarray:
    """ULA responses ``exp(j*2*pi*m*phi)`` of modulus 1, shape ``np.shape(phi) + (n,)``.

    With ``m = q*B + r`` and the fixed block ``B = 16`` an entry is
    ``exp(j*2*pi*q*B*phi) * exp(j*2*pi*r*phi)``: about ``n/B + B``
    exponentials per angle, not n (2*sqrt(n) at n = 256), and entry m is the
    same for every n above m. Over a subcarrier grid, :func:`_band_table` needs fewer.
    """
    phi = np.asarray(phi, dtype=float)[..., None]
    block = min(n_elements, _BLOCK)
    full, rest = divmod(n_elements, block)
    coarse = np.exp(2j * np.pi * (np.arange(0, n_elements, block) * phi))
    fine = np.exp(2j * np.pi * (np.arange(block) * phi))
    # Filled to exactly n columns: the full blocks are one broadcast product
    # into a view of the table, a part block one more, so no padding is held.
    table = np.empty(phi.shape[:-1] + (n_elements,), dtype=complex)
    blocks = table[..., : full * block].reshape(phi.shape[:-1] + (full, block))
    np.multiply(coarse[..., :full, None], fine[..., None, :], out=blocks)
    if rest:
        np.multiply(coarse[..., full:], fine[..., :rest], out=table[..., full * block :])
    return table


def _band_table(n_elements: int, grid: FrequencyGrid, sin_theta: float) -> np.ndarray:
    """``_steering_table(n, (f_k / 2f_c) * sin(theta))`` at every subcarrier, shape (K, n), for one angle theta.

    The spatial angle of half-carrier-wavelength spacing is linear in
    frequency, so on the arithmetic grid it is
    ``phi_k = phi_0 + k*delta``, with delta the angle of one subcarrier
    spacing. With C the largest divisor of K not above sqrt(K) and
    ``k = p*C + s``, entry (k, m) is ``exp(j*2*pi*m*phi_{pC}) *
    exp(j*2*pi*m*s*delta)``: both factors come from one table call over
    K/C + C angles, about 2*sqrt(K) * (n/B + B) exponentials instead of
    K * (n/B + B), and meet in one broadcast product. At a prime K, C = 1
    and the fine factor is the single row s = 0, exactly one, so the coarse
    rows are the table. Like the steering table, the table of n elements is
    the first n columns of any wider one.
    """
    k_sub = grid.num_subcarriers
    step = next(c for c in range(math.isqrt(k_sub), 0, -1) if k_sub % c == 0)
    coarse_phi = (grid.frequencies[::step] / (2.0 * grid.carrier_hz)) * sin_theta
    if step == 1:
        return _steering_table(n_elements, coarse_phi)
    fine_phi = (grid.spacing_hz * np.arange(step) / (2.0 * grid.carrier_hz)) * sin_theta
    rows = k_sub // step
    table = _steering_table(n_elements, np.concatenate((coarse_phi, fine_phi)))
    return (table[:rows, None, :] * table[None, rows:, :]).reshape(k_sub, n_elements)


def _path_sum(n_elements: int, grid: FrequencyGrid, paths: PathSet) -> np.ndarray:
    """``sum_l coef_l[:, None] * _band_table(n, grid, sin(theta_bs) - sin(theta_l))``, shape (K, n).

    ``coef_l = g_l * exp(-j*2*pi*tau_l*f_k)`` is user path l's coefficient
    row over the K subcarriers. The sum equals numpy's axis-0 sum of the
    coefficient-scaled stack, bit for bit: the paths are added in order onto
    a zero start. Each path forms its difference angle and coefficient row
    just before its own table call, so at most one path table, its factor
    rows, one coefficient row and the (K, n) sum are held at once, however
    many paths there are; the first path's table is the sum itself.
    """
    total = None
    for angle, gain, delay in zip(paths.ru_angles_rad, paths.ru_gains, paths.ru_delays_s):
        table = _band_table(n_elements, grid, np.sin(paths.bs_ris_aoa_rad) - np.sin(angle))
        coef_l = gain * np.exp(-2j * np.pi * delay * grid.frequencies)
        # Scales the table in place, in the operand order of coef * table.
        np.multiply(coef_l[:, None], table, out=table)
        if total is None:
            # The sum's zero start turns -0.0 into 0.0.
            total = np.add(table, 0.0, out=table)
        else:
            total += table
        # Freed before the next path is tabled.
        del table
    return total


def _open_closed_uniform(rng: np.random.Generator, high: float) -> float:
    # high * rng.random() is the draw rng.uniform(0.0, high) makes, bit for bit, without
    # its argument handling; mirroring moves the support from [0, high) to (0, high].
    return high - high * rng.random()


def _sample_gain(rng: np.random.Generator, gain_mode: str) -> complex:
    if gain_mode == "unit":
        return 1.0 + 0.0j
    # Two scalar draws are the draw standard_normal(2) makes, bit for bit, without the array.
    return complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)


def sample_path_set(
    rng: np.random.Generator,
    num_paths: int = 1,
    gain_mode: str = "random",
) -> PathSet:
    """Draw a random path geometry with ``num_paths`` user paths.

    All angles are i.i.d. uniform on (0, 2*pi], delays uniform on
    (0, 20 ns], and gains are complex standard normal unless
    ``gain_mode='unit'`` pins every gain to 1 (handy for closed-form checks).
    The BS departure angle and delay are drawn but not kept (no rate reads
    them), so every later draw keeps its place. The draw is a pure function
    of the generator state, so reusing a seed reproduces the same paths. A
    count or gain mode that is not valid raises ValueError before any draw.
    """
    if not _is_count(num_paths):
        raise ValueError(f"num_paths must be an integer >= 1, got {num_paths!r}")
    if gain_mode not in GAIN_MODES:
        raise ValueError(f"gain_mode must be {' or '.join(map(repr, GAIN_MODES))}, got {gain_mode!r}")

    two_pi = 2.0 * np.pi
    aoa = _open_closed_uniform(rng, two_pi)
    rng.random(2)  # the BS departure angle and delay
    gain = _sample_gain(rng, gain_mode)

    # Each user path draws its angle, then its gain, then its delay.
    draws = [
        (_open_closed_uniform(rng, two_pi), _sample_gain(rng, gain_mode), _open_closed_uniform(rng, DELAY_MAX_S))
        for _ in range(num_paths)
    ]
    return PathSet(aoa, gain, *zip(*draws))


def gen_channels(
    paths: PathSet,
    grid: FrequencyGrid,
    num_bs_antennas: int,
    num_ris_elements: int,
) -> ChannelRealization:
    """Generate the per-subcarrier channels for one path realization.

    The BS-to-surface hop is ``sqrt(M*N) * gain * exp(-j*2*pi*tau*f_k) *
    a_M(phi_in) * a_N(phi_out)^H`` and the surface-to-user row ``sqrt(M/L)``
    times the sum of each path's gain, delay phase and conjugate response,
    every spatial angle evaluated at f_k. The :class:`ChannelRealization`
    checks the counts and stores the cascade of the two hops, with element
    responses of modulus 1, and the power gain ``N*|gain|^2``, which is all
    MRT leaves of the BS hop: neither tau nor phi_out enters a rate.
    Pure function of its inputs.
    """
    return ChannelRealization(num_bs_antennas, num_ris_elements, grid, paths)
