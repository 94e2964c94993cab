"""One thermostated phase-space step: transport, friction, momentum filter.

The conservative part advances the amplitude along classical
characteristics with a symmetric split step: half drift (diagonal in
(k_R, P)), full force kick (diagonal in (R, k_P)), half drift. Both
factors are pure phases, so the step is exactly unitary and its
splitting error is second order in dt.

Friction contracts momentum by rescaling the amplitude's P argument,
psi(R, P) -> e^{s/2} psi(R, e^s P) with s = gamma*dt, realized by
band-limited resampling; amplitude stretched past the grid edge is
dropped and the lost mass is reported as a boundary leak.

Diffusion multiplies the (R, k_P) components by cos(sigma_H k_P) and
renormalizes; the squared norm before renormalization is the success
probability of the postselected filter. The filter width sigma_H is
calibrated against friction by the discrete fluctuation-dissipation
relation sigma_H^2 = 2 mu T_int (1 - e^{-2s}), where the internal
temperature T_int = T_phys / (1 + tanh(s)/2) pre-compensates the
second-order kinetic bias of the cosine filter.

All three blocks are real operators: they map a real amplitude, such as
the canonical sqrt(rho), to a real one. For transport this holds on the
grid only with the zero-phase Nyquist convention: the Nyquist wavenumber
-pi/d has no partner +pi/d on an even grid, so the drift and kick tables
use 0 there (multiplier exactly 1), as in spectral differentiation of
odd order. Transport then commutes with complex conjugation and stays
exactly unitary. The friction interpolant and the cosine filter are even
in k and need no such choice.

On a centered P grid (p_min = -p_max) the time reversal T: P -> -P is
the index mirror j -> -j mod N_P. Its one unpaired node, p_min, gets
drift velocity 0 (multiplier exactly 1), the P-space mirror of the
zero-phase Nyquist, so that T D T = D^-1 and T K T = K^-1 hold exactly
for the drift and kick tables and transport is exactly time-reversal
symmetric. The transport autocorrelation builds on that.

`NvePropagator` keeps complex full tables for the conservative chains
behind the spectral readout. `LangevinStepper` steps one real (R, P)
table, such as the canonical sqrt(rho); a complex table is refused
unless its imaginary part is all zero. Between steps the table rests as
its rfft_R half spectrum, shape (N_R//2 + 1, N_P), and a step is half
drift, irfft_R, rfft_P, kick, irfft_P, rfft_R, half drift, then friction
and filter on those complex k_R rows: the real P -> P resampling table
applied to their real and imaginary parts, fft_P, cosine filter, ifft_P.
The half tables are rows (columns) 0..N/2 of the full ones. All
transforms are orthonormal, so norms keep their meaning in every
representation once the half-spectrum rows carry the Hermitian weights
1, 2, ..., 2, 1.

A step needs two state-sized arrays besides its tables: the resting
half spectrum, which `relax` and `step` advance in place, and one real
(N_R + 2, N_P) plane. The kick's (R, k_P) half spectrum lives in the
output, which is dead between irfft_R and rfft_R and holds N_P - N_R
more complex values than the spectrum, so only an N_R > N_P grid gives
the stepper a separate spectrum buffer. The transforms use the plane's
first N_R rows. Once rfft_R has read them, friction takes all
N_R + 2 = 2 (N_R/2 + 1): the real or imaginary part of the k_R rows is
copied into one half, so that BLAS reads a contiguous operand, and
multiplied into the other. Without the two extra rows numpy would make
that copy itself, in a buffer of its own outside the working set.

Friction has two implementations of one interpolant, because its two
callers differ. A Langevin step multiplies its N_R/2 + 1 rows per
product by the real N_P x N_P table `FrictionOperator.matrix`, which
spreads the table over all of them; there a chirp-z transform was
measured slower. The bias experiment steps one real row, which would
stream the whole table per product, so it takes `_RowDilation`: the same
interpolant by chirp-z, in O(N_P log N_P) time and O(N_P) memory.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .electronic import PesModel
from .errors import (BoundaryLeakWarning, ConfigurationError,
                     ConvergenceError, FilterBandWarning, FilterCollapseError,
                     MemoryBudgetError, NonFiniteAmplitudeError)
from .grid import KvnState, PhaseSpaceGrid

BOUNDARY_LEAK_TOLERANCE = 1e-3
FILTER_COLLAPSE_FLOOR = 1e-6
TIME_REVERSAL_TOLERANCE = 1e-13


@dataclass(frozen=True)
class LangevinParams:
    """Calibrated thermostat parameters (atomic units throughout)."""

    mu: float
    gamma: float
    dt: float
    t_phys: float
    t_int: float
    sigma_h: float
    correction: bool = True

    @property
    def s(self) -> float:
        return self.gamma * self.dt


@dataclass
class StepReport:
    """Bookkeeping for the non-unitary parts of one step."""

    success_probability: float
    log_success: float
    friction_leak: float = 0.0


@dataclass(frozen=True)
class BiasResult:
    bias: float
    n_steps: int


def corrected_internal_temperature(t_phys: float, s: float) -> float:
    """Internal target temperature compensating the filter's kinetic bias."""
    return t_phys / (1.0 + 0.5 * math.tanh(s))


def calibrate(mu: float, gamma: float, dt: float, t_phys: float,
              correction: bool = True) -> LangevinParams:
    """Fix T_int and the filter width from the physical inputs."""
    if mu <= 0 or gamma <= 0 or dt <= 0 or t_phys <= 0:
        raise ConfigurationError(
            "mu, gamma, dt and t_phys must all be strictly positive")
    s = gamma * dt
    t_int = corrected_internal_temperature(t_phys, s) if correction else t_phys
    sigma_h = math.sqrt(2.0 * mu * t_int * (1.0 - math.exp(-2.0 * s)))
    return LangevinParams(mu=mu, gamma=gamma, dt=dt, t_phys=t_phys,
                          t_int=t_int, sigma_h=sigma_h, correction=correction)


_MEMINFO = "/proc/meminfo"


def _proc_kb_bytes(path: str, field: str) -> int | None:
    """The kB figure of the first line of a /proc file that starts with
    `field` (e.g. "VmHWM:"), in bytes; None where the file, the line or
    its number cannot be read."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(field):
                    return 1024 * int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _available_memory() -> int | None:
    """Bytes of memory available to a new computation: the host's
    MemAvailable where it reports one (Linux; it counts reclaimable cache,
    which MemFree and SC_AVPHYS_PAGES leave out), else its physical
    memory; None where neither can be read."""
    available = _proc_kb_bytes(_MEMINFO, "MemAvailable:")
    if available is not None:
        return available
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf on Windows
        return None


def _preflight(owner: str, need: int,
               remedy: str = "use fewer qubits") -> None:
    """Refuse a computation whose tables and working arrays cannot fit.

    Skipped where the host reports no memory figure.
    """
    have = _available_memory()
    if have is not None and need > have:
        raise MemoryBudgetError(
            f"{owner} needs about {need / 2 ** 30:.1f} GiB for its tables "
            f"and working arrays, more than the {have / 2 ** 30:.1f} GiB "
            f"of available memory; {remedy}")


def _state_bytes(grid: PhaseSpaceGrid, copies: int = 2) -> int:
    """Working copies of a complex128 (R, P) amplitude table."""
    n_r, n_p = grid.shape
    return copies * 16 * n_r * n_p


def _zero_nyquist(k: np.ndarray) -> np.ndarray:
    """Copy of an FFT-ordered wavenumber axis with its Nyquist entry 0."""
    k = k.copy()
    k[len(k) // 2] = 0.0
    return k


def _is_centered(grid: PhaseSpaceGrid) -> bool:
    return grid.p_min == -grid.p_max


def _drift_momenta(grid: PhaseSpaceGrid) -> np.ndarray:
    """The P nodes as the drift sees them.

    On a centered grid this is the odd part of P under the mirror
    j -> -j mod N_P: P itself wherever the nodes are exactly
    antisymmetric, and 0 at the unpaired p_min.
    """
    p = grid.P
    if _is_centered(grid):
        p = 0.5 * (p - p[-np.arange(len(p)) % len(p)])
    return p


def _phase_tables(grid: PhaseSpaceGrid, force: np.ndarray, mu: float,
                  dt: float, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """Half-drift (k_R, P) and kick (R, k_P) phase tables.

    With `half` the tables keep only the rows (columns) 0..N/2 that an
    rfft along R (P) produces.
    """
    k_r, k_p = _zero_nyquist(grid.k_R), _zero_nyquist(grid.k_P)
    if half:
        n_r, n_p = grid.shape
        k_r, k_p = k_r[:n_r // 2 + 1], k_p[:n_p // 2 + 1]
    # each table is formed in place in its own complex array, in the
    # operation order of exp(-0.5j dt outer / mu), so the bits are the
    # same and the real outer product is the only other temporary
    drift = np.multiply(-0.5j * dt, np.outer(k_r, _drift_momenta(grid)))
    drift /= mu
    kick = np.multiply(-1j * dt, np.outer(force, k_p))
    return np.exp(drift, out=drift), np.exp(kick, out=kick)


def _mirrored_dot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum_ij a[-i, -j] b[i, j], indices mod N, on views of a and b."""
    rev = slice(None, 0, -1)
    return (a[0, 0] * b[0, 0] + a[0, 1:] @ b[0, rev] + a[1:, 0] @ b[rev, 0]
            + np.einsum("ij,ij->", a[1:, 1:], b[rev, rev]))


def _hermitian_weights(n: int) -> np.ndarray:
    """Parseval weights 1, 2, ..., 2, 1 of the n//2 + 1 rfft rows, n even."""
    w = np.full(n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _norm2(x: np.ndarray, row_weights: np.ndarray) -> float:
    """sum_i w_i sum_j |x_ij|^2 over the contiguous P rows x[i, :]; the
    weights by a (1, n) @ (n,) product, as a dot can round otherwise."""
    v = x.view(np.float64)  # a complex row reads as (re, im) pairs
    sums = np.einsum("ij,ij->i", v, v)
    return float((sums[None] @ row_weights)[0])


class NvePropagator:
    """Precomputed phase tables for the conservative step at fixed dt."""

    def __init__(self, grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                 dt: float):
        _preflight("NvePropagator", self.memory_estimate(grid))
        self.grid = grid
        self.mu = mu
        self.dt = dt
        self.force = pes.f(grid.R)
        self.half_drift, self.kick = _phase_tables(grid, self.force, mu, dt,
                                                   half=False)

    @staticmethod
    def memory_estimate(grid: PhaseSpaceGrid) -> int:
        """Bytes of the two complex phase tables plus three state copies:
        the (R, P) input of an autocorrelation, live through the call,
        and the chain's two working tables (the transformed state and
        its bra or the previous power)."""
        n_r, n_p = grid.shape
        return 2 * 16 * n_r * n_p + _state_bytes(grid, copies=3)

    def _kick(self, a: np.ndarray) -> None:
        """Force kick on a (k_R, P) table, in place."""
        np.fft.ifft(a, axis=0, norm="ortho", out=a)
        np.fft.fft(a, axis=1, norm="ortho", out=a)
        a *= self.kick
        np.fft.ifft(a, axis=1, norm="ortho", out=a)
        np.fft.fft(a, axis=0, norm="ortho", out=a)

    def transport(self, a: np.ndarray, out: np.ndarray | None = None) \
            -> np.ndarray:
        """Drift-kick-drift on a (k_R, P) table; in place when out is a."""
        x = np.multiply(a, self.half_drift, out=out)
        self._kick(x)
        x *= self.half_drift
        return x

    def step(self, state: KvnState) -> KvnState:
        a = np.fft.fft(state.amplitudes, axis=0, norm="ortho")
        self.transport(a, out=a)
        np.fft.ifft(a, axis=0, norm="ortho", out=a)
        return KvnState(a, state.grid)

    def _time_symmetric(self, amplitudes: np.ndarray) -> bool:
        """Whether ||T psi - conj(psi)|| <= TIME_REVERSAL_TOLERANCE ||psi||
        for an (R, P) table psi, T the P mirror of a centered grid."""
        if not _is_centered(self.grid):
            return False
        residual = np.conjugate(amplitudes)
        residual[:, 0] -= amplitudes[:, 0]
        residual[:, 1:] -= amplitudes[:, :0:-1]
        return np.vdot(residual, residual).real <= \
            TIME_REVERSAL_TOLERANCE ** 2 * np.vdot(amplitudes, amplitudes).real

    def autocorrelation(self, amplitudes: np.ndarray, n_lags: int,
                        stride: int = 1) -> np.ndarray:
        """c_d = <psi|U^(d*stride)|psi> dR dP for d < n_lags.

        psi is an (R, P) table and U the one-step propagator. Adjacent
        half drifts of the chain fuse into full drifts.

        When psi is time-reversal symmetric, T psi = conj(psi) for the P
        mirror T of a centered grid (to TIME_REVERSAL_TOLERANCE ||psi||,
        which bounds the relative error of every lag), T U T = U^-1 and
        the real U give c(j + k) = sum phi_k(R, -P) phi_j(R, P) dR dP
        with phi_k = U^(k*stride) psi. A chain of n_lags // 2 powers then
        reads two lags per power: c(2k) from phi_k with itself and
        c(2k + 1) from phi_k and phi_(k+1). In (k_R, P) the form pairs
        (-k_R, -P) with (k_R, P); the chain alternates between two
        buffers, so phi_k outlives the step to phi_(k+1) without a copy.

        Otherwise the chain runs n_lags - 1 powers and keeps the state
        before its last half drift; that drift moves into the bra
        conj(fft_R psi) * half_drift, built once, and each power reads
        one lag.
        """
        cell = self.grid.cell
        doubled = self._time_symmetric(amplitudes)
        a = np.fft.fft(amplitudes, axis=0, norm="ortho")
        corr = np.empty(n_lags, dtype=complex)
        corr[0] = np.vdot(a, a).real * cell
        if doubled:
            n_powers = n_lags // 2
            prev, a = a, a * self.half_drift
        else:
            n_powers = n_lags - 1
            bra = a * self.half_drift.conj()  # np.vdot conjugates it back
            a *= self.half_drift
        for n in range(1, n_powers * stride + 1):
            self._kick(a)
            if n % stride == 0:
                d = n // stride
                if doubled:
                    a *= self.half_drift
                    corr[2 * d - 1] = _mirrored_dot(prev, a) * cell
                    if 2 * d < n_lags:
                        corr[2 * d] = _mirrored_dot(a, a) * cell
                    prev, a = a, np.multiply(a, self.half_drift, out=prev)
                    continue
                corr[d] = np.vdot(bra, a) * cell
            a *= self.half_drift
            a *= self.half_drift
        return corr


def _friction_norm(b: np.ndarray, row_weights: np.ndarray) \
        -> tuple[float, float]:
    """Squared norm and boundary leak |1 - norm^2| of dilated rows.

    Warns when the leak exceeds BOUNDARY_LEAK_TOLERANCE: the packet is
    being squeezed against the momentum-grid edge.
    """
    n2 = _norm2(b, row_weights)
    if not math.isfinite(n2):
        raise NonFiniteAmplitudeError(
            f"friction output has non-finite norm {n2}")
    leak = abs(1.0 - n2)
    if leak > BOUNDARY_LEAK_TOLERANCE:
        warnings.warn(
            f"momentum-grid boundary leak {leak:.2e} exceeds "
            f"{BOUNDARY_LEAK_TOLERANCE:.0e}; widen the P range",
            BoundaryLeakWarning)
    if n2 <= 0.0:
        raise FilterCollapseError("friction removed the entire state")
    return n2, leak


class FrictionOperator:
    """Band-limited momentum dilation psi(P) -> e^{s/2} psi(e^s P).

    Resampling at the stretched abscissas is done with the exact discrete
    Fourier interpolant; requests landing outside the covered momentum
    interval evaluate to zero, which is where the boundary leak comes
    from. The Nyquist column uses the symmetric cosine convention, which
    makes the interpolant the real periodic sinc
    D(x) = sin(pi x) cot(pi x / n) / n between node k and abscissa u_j.

    `matrix` is that real P -> P table with the e^{s/2} amplitude factor,
    so that rows @ matrix are the dilated P rows. `LangevinStepper` uses
    it: one product spreads the table over N_R/2 + 1 rows. For one row
    the product streams the whole table, so `momentum_bias_experiment`
    evaluates the same interpolant by chirp-z (`_RowDilation`) instead.
    """

    def __init__(self, grid: PhaseSpaceGrid, s: float):
        if s < 0:
            raise ConfigurationError("gamma*dt must be nonnegative")
        _preflight("FrictionOperator", self.memory_estimate(grid, s))
        self.grid = grid
        self.s = s
        if s == 0.0:
            self.matrix = None
            return
        n = grid.shape[1]
        target = np.exp(s) * grid.P
        u = (target - grid.p_min) / grid.dP
        valid = (target >= grid.p_min) & (target < grid.p_min + n * grid.dP)
        # sin(pi (u - k)) = (-1)^k sin(pi u); reducing u to its nearest
        # integer first keeps the sine accurate where u - k is small
        nearest = np.rint(u)
        frac = u - nearest
        sin_u = np.sin(np.pi * frac)
        sin_u[nearest % 2 == 1] *= -1.0
        d = u[None, :] - np.arange(n)[:, None]
        # the tangent has period n in u - k, and only row 0 comes near its
        # zero at pi, where u is near n: take the image u - n there, which
        # keeps the precision of frac
        d[0] = np.where(nearest > n // 2, (nearest - n) + frac, u)
        d *= np.pi / n
        np.tan(d, out=d)
        # d is zero only where u is node k itself, at most one row per
        # column; the 0/0 there is overwritten with the limit n
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(sin_u, d, out=d)
        d[1::2] *= -1.0
        cols = np.flatnonzero((u == nearest) & (u >= 0) & (u < n))
        d[nearest[cols].astype(np.intp), cols] = n
        d[:, ~valid] = 0.0
        d *= math.exp(0.5 * s) / n
        self.matrix = d

    @staticmethod
    def memory_estimate(grid: PhaseSpaceGrid, s: float) -> int:
        """Bytes of the real N_P x N_P table (none for s = 0) plus the
        working state."""
        return _friction_table_bytes(grid, s) + _state_bytes(grid)

    def apply(self, state: KvnState) -> tuple[KvnState, float]:
        """The renormalized state and the boundary leak |1 - norm^2|."""
        if self.matrix is None:
            return state.copy(), 0.0
        b = _dilate(state.amplitudes.astype(np.complex128), self.matrix)
        n2, leak = _friction_norm(
            b, np.full(state.grid.shape[0], state.grid.cell))
        b *= 1.0 / math.sqrt(n2)
        return KvnState(b, state.grid), leak


def _friction_table_bytes(grid: PhaseSpaceGrid, s: float) -> int:
    """Bytes of the real N_P x N_P friction table, none for s = 0."""
    n_p = grid.shape[1]
    return 8 * n_p * n_p if s > 0.0 else 0


def _dilate(x: np.ndarray, friction: np.ndarray,
            plane: np.ndarray | None = None) -> np.ndarray:
    """x @ friction for the complex rows x[i, :] over P, in place.

    Their real and imaginary planes go through a real product each,
    half the work of one complex product. `plane` is a real array with
    x's columns and at least twice its rows, or None for a fresh one:
    each part is copied into rows [n, 2n) of it, n the rows of x,
    multiplied into rows [0, n) and written back. x.real and x.imag
    are views with a 16-byte stride, which BLAS cannot read, so numpy
    would copy each operand into a buffer of its own anyway; the
    contiguous copy in the plane takes the place of that buffer. Real
    rows take `_RowDilation` instead.
    """
    n = len(x)
    if plane is None:
        plane = np.empty((2 * n, x.shape[1]))
    product, operand = plane[:n], plane[n:2 * n]
    for part in (x.real, x.imag):
        operand[...] = part
        np.matmul(operand, friction, out=product)
        part[...] = product
    return x


def _exact_chirp(a: float, n: int) -> np.ndarray:
    """exp(i pi a t^2 / n) for t = 0..n - 1, a the float as given.

    a t^2 / n is reduced mod 2 in integers, as the exact quotient of
    a's integer ratio, so each phase is correctly rounded in [0, 2)
    however large t^2 grows.
    """
    num, den = a.as_integer_ratio()
    period, scale = 2 * n * den, n * den
    phase = np.fromiter((num * t * t % period / scale for t in range(n)),
                        np.float64, n)
    return np.exp(1j * np.pi * phase)


class _RowDilation:
    """`FrictionOperator`'s dilation of real P rows by chirp-z, no table.

    It evaluates the table's interpolant, the symmetric-cosine Nyquist
    term and the e^{s/2} factor included and zero where e^s P leaves the
    grid, at the affine abscissas u_j = e^s j + (e^s - 1) p_min / dP.
    With X = fft_P(x) of a real row that is

        e^{s/2} / N [Re sum_{m < N/2} c_m X_m e^{2 pi i m u_j / N}
                     + X_{N/2} cos(pi u_j)],    c_0 = 1, c_m = 2,

    whose sum is a chirp-z transform (Bluestein's m j = (m^2 + j^2 -
    (j - m)^2) / 2): a pre-chirp, one length-L circular convolution by
    FFT with L the power of two >= N + N/2 - 1, and a post-chirp, in
    O(N log N) time and O(N) memory.

    Only the bias experiment uses it: a product with the N x N table
    would stream all of the table for its one row. A Langevin step
    spreads the table over N_R/2 + 1 rows per product, where the matrix
    product is faster, so `LangevinStepper` keeps `FrictionOperator`.
    """

    def __init__(self, grid: PhaseSpaceGrid, s: float):
        if s < 0:
            raise ConfigurationError("gamma*dt must be nonnegative")
        n = grid.shape[1]
        half, length = n // 2, self._length(n)
        a = float(np.exp(s))  # the table's factor, so both drop the same P
        target = a * grid.P
        valid = (target >= grid.p_min) & (target < grid.p_min + n * grid.dP)
        offset = (a - 1.0) * grid.p_min / grid.dP
        u = a * np.arange(n) + offset
        # cos(pi u) = (-1)^k cos(pi (u - k)) for the integer k nearest u
        nearest = np.rint(u)
        scale = math.exp(0.5 * s) / n
        chirp = _exact_chirp(a, n)
        kernel = np.zeros(length, np.complex128)
        kernel[:n] = chirp.conj()
        kernel[length - half + 1:] = kernel[half - 1:0:-1]
        self._kernel = np.fft.fft(kernel, out=kernel)
        shift = (np.arange(half) * offset / n) % 1.0  # e^{2 pi i m c / N}
        self._pre = chirp[:half] * np.exp(2j * np.pi * shift)
        self._pre *= 2.0 * scale
        self._pre[0] *= 0.5
        self._post = np.where(valid, chirp, 0.0)
        self._nyquist = np.where(
            valid, scale * np.cos(np.pi * (u - nearest)), 0.0)
        self._nyquist[nearest % 2 == 1] *= -1.0

    @staticmethod
    def _length(n: int) -> int:
        """The convolution length: the power of two >= n + n/2 - 1."""
        return 1 << (n + n // 2 - 2).bit_length()

    @staticmethod
    def memory_estimate(grid: PhaseSpaceGrid) -> int:
        """Bytes that the bias experiment holds for its operator and one
        step: the kernel and one work row of length L (complex), and
        twelve real rows of length N for the chirps, the Nyquist term,
        the Maxwell row, P^2, the filter and the spectra and outputs of
        a step."""
        n = grid.shape[1]
        return 2 * 16 * _RowDilation._length(n) + 12 * 8 * n

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The dilated real rows x[..., :] over P, as a fresh array."""
        n, half = x.shape[-1], x.shape[-1] // 2
        spectrum = np.fft.rfft(x, axis=-1)
        work = np.zeros(x.shape[:-1] + self._kernel.shape, np.complex128)
        np.multiply(spectrum[..., :half], self._pre, out=work[..., :half])
        np.fft.fft(work, axis=-1, out=work)
        work *= self._kernel
        np.fft.ifft(work, axis=-1, out=work)
        rows = work[..., :n]
        rows *= self._post
        return rows.real + spectrum[..., half:].real * self._nyquist


def _filtered(x: np.ndarray, friction: np.ndarray | _RowDilation | None,
              cos_filter: np.ndarray, row_weights: np.ndarray,
              plane: np.ndarray | None = None) \
        -> tuple[np.ndarray, StepReport]:
    """Friction, cosine filter and renormalization of rows over P.

    x[i, :] are rows over P, row i carrying the quadrature weight
    row_weights[i]; both blocks act on the P axis alone, so the rows may
    be R rows or half-spectrum k_R rows. `friction` is None for s = 0;
    otherwise complex rows take FrictionOperator.matrix, with `plane`
    the optional real scratch of its products (see `_dilate`), and
    real rows a `_RowDilation`. `cos_filter` is the filter over k_P.
    Returns the renormalized rows over P.

    Complex rows are overwritten and filtered by fft_P. Real rows stay
    real under both blocks (the dilation is real, the filter even), so
    they take rfft_P, the filter's first N_P//2 + 1 entries and irfft_P
    instead; they are kept, and the result is a fresh array.
    """
    if friction is None:
        n2, leak = 1.0, 0.0
    else:
        x = friction(x) if callable(friction) else _dilate(x, friction,
                                                           plane)
        n2, leak = _friction_norm(x, row_weights)
    if np.iscomplexobj(x):
        np.fft.fft(x, axis=-1, norm="ortho", out=x)
        x *= cos_filter
        b = np.fft.ifft(x, axis=-1, norm="ortho", out=x)
    else:
        n_p = x.shape[-1]
        spectrum = np.fft.rfft(x, axis=-1, norm="ortho")
        spectrum *= cos_filter[:n_p // 2 + 1]
        b = np.fft.irfft(spectrum, n_p, axis=-1, norm="ortho")
    kept = _norm2(b, row_weights)
    p_success = kept / n2
    if not math.isfinite(p_success):
        raise NonFiniteAmplitudeError(
            f"filter success probability is {p_success}")
    if p_success < FILTER_COLLAPSE_FLOOR:
        raise FilterCollapseError(
            f"filter success probability {p_success:.3e} below "
            f"{FILTER_COLLAPSE_FLOOR:.0e}")
    b *= 1.0 / math.sqrt(kept)  # dividing runs numpy's slow complex loop
    return b, StepReport(success_probability=p_success,
                         log_success=math.log(p_success),
                         friction_leak=leak)


def _real_table(amplitudes: np.ndarray) -> np.ndarray:
    """The real part of an (R, P) table; ConfigurationError unless its
    imaginary part is all zero: relax and vdos both take sqrt(rho)."""
    if np.iscomplexobj(amplitudes) and np.any(amplitudes.imag):
        raise ConfigurationError(
            "expected a real (R, P) table such as sqrt(rho); this one "
            "has a nonzero imaginary part")
    return amplitudes.real


def _rp_table(a: np.ndarray, n_r: int) -> np.ndarray:
    """Real (R, P) table of a resting half spectrum, as a fresh array."""
    return np.fft.irfft(a, n_r, axis=0, norm="ortho")


class LangevinStepper:
    """Fused step with all operator tables built once.

    Order per step: conservative transport, friction, diffusion filter,
    renormalization. `advance` is the array-level core on the resting
    layout, the rfft_R half spectrum of one real table (see
    `to_half_spectra`); `step` wraps it for (R, P) states and refuses a
    complex table with a nonzero imaginary part.

    The stepper also owns the scratch of a step, allocated at its first
    use and kept: a real (N_R + 2, N_P) plane, and on an N_R > N_P grid
    the (N_R, N_P//2 + 1) half spectrum of the kick, which otherwise
    lives in the output (see the module docstring). The transforms use
    the plane's rows [0, N_R); friction takes all N_R + 2 = 2 (N_R/2 + 1)
    rows, half for the contiguous copy of an operand and half for its
    product (see `_dilate`). A step into an output the caller supplies
    allocates nothing else.
    """

    def __init__(self, grid: PhaseSpaceGrid, pes: PesModel,
                 params: LangevinParams):
        _preflight("LangevinStepper", self.memory_estimate(grid, params.s))
        self.grid = grid
        self.params = params
        self.half_drift, self.kick = _phase_tables(
            grid, pes.f(grid.R), params.mu, params.dt, half=True)
        self.friction = FrictionOperator(grid, params.s)
        self.cos_filter = np.cos(params.sigma_h * grid.k_P)
        self.row_weights = grid.cell * _hermitian_weights(grid.shape[0])
        self._scratch: tuple[np.ndarray, np.ndarray | None] | None = None
        # transport shears density into high k_P; if the filter argument
        # leaves the first quarter-wave there, |cos| ~ 1 lobes let that
        # content survive and alias instead of diffusing away, which can
        # destabilize long runs. Keeping dP >= 2 sigma_H avoids the lobes.
        band_edge = params.sigma_h * float(np.max(np.abs(grid.k_P)))
        if band_edge > 0.5 * math.pi:
            warnings.warn(
                f"filter argument reaches {band_edge:.2f} rad at the k_P "
                f"band edge (> pi/2); widen the momentum range so that "
                f"dP >= 2*sigma_H = {2.0 * params.sigma_h:.3g} or reduce "
                f"the step", FilterBandWarning)

    @staticmethod
    def memory_estimate(grid: PhaseSpaceGrid, s: float) -> int:
        """Bytes of the fixed working set: the half phase tables, the
        friction table for s = gamma*dt, the one resting half spectrum,
        stepped in place, the real plane of N_R + 2 rows, and on an
        N_R > N_P grid the kick's half spectrum."""
        n_r, n_p = grid.shape
        rows, cols = n_r // 2 + 1, n_p // 2 + 1
        half_tables = 16 * (rows * n_p + n_r * cols)
        resting = 16 * rows * n_p
        plane = 8 * 2 * rows * n_p
        spectrum = 16 * n_r * cols if n_r > n_p else 0
        return (half_tables + _friction_table_bytes(grid, s)
                + resting + plane + spectrum)

    def _planes(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Real plane and, on an N_R > N_P grid, the kick's half spectrum
        (None otherwise), allocated at the first call."""
        if self._scratch is None:
            n_r, n_p = self.grid.shape
            spectrum = None
            if n_r > n_p:
                spectrum = np.empty((n_r, n_p // 2 + 1), np.complex128)
            self._scratch = (np.empty((n_r + 2, n_p)), spectrum)
        return self._scratch

    @staticmethod
    def to_half_spectra(amplitudes: np.ndarray) -> np.ndarray:
        """Resting layout of an (R, P) table: the rfft_R of its real
        table (see `_real_table`), shape (N_R//2 + 1, N_P). It needs no
        tables, so a caller may form it before the stepper exists."""
        return np.fft.rfft(_real_table(amplitudes), axis=0, norm="ortho")

    def from_half_spectra(self, a: np.ndarray) -> np.ndarray:
        """Real (R, P) table of a resting half spectrum."""
        return _rp_table(a, self.grid.shape[0])

    def density(self, a: np.ndarray) -> np.ndarray:
        """|psi|^2 of a resting half spectrum on the (R, P) grid.

        It is formed in the real plane, so the next `advance` or
        `density` overwrites it.
        """
        n_r = self.grid.shape[0]
        rho = np.fft.irfft(a, n_r, axis=0, norm="ortho",
                           out=self._planes()[0][:n_r])
        return np.square(rho, out=rho)

    def advance(self, a: np.ndarray, out: np.ndarray | None = None) \
            -> tuple[np.ndarray, StepReport]:
        """One step of a resting half spectrum into `out`, a C-contiguous
        array of the shape of `a`, or into a new one without it. `a` is
        kept unless it is `out`: `advance(a, out=a)` steps it in place,
        with the same bits, and a step that raises leaves it overwritten."""
        n_r, n_p = self.grid.shape
        plane, y = self._planes()
        x = plane[:n_r]
        b = np.multiply(a, self.half_drift, out=out)
        np.fft.irfft(b, n_r, axis=0, norm="ortho", out=x)
        if y is None:  # b is dead until rfft_R refills it
            shape = (n_r, n_p // 2 + 1)
            y = b.reshape(-1)[:math.prod(shape)].reshape(shape)
        np.fft.rfft(x, axis=1, norm="ortho", out=y)
        y *= self.kick
        np.fft.irfft(y, n_p, axis=1, norm="ortho", out=x)
        np.fft.rfft(x, axis=0, norm="ortho", out=b)
        b *= self.half_drift
        return _filtered(b, self.friction.matrix, self.cos_filter,
                         self.row_weights, plane)

    def step(self, state: KvnState) -> tuple[KvnState, StepReport]:
        """One step of a real (R, P) state; the result is float64. Its
        fresh half spectrum is stepped in place, so it holds the one that
        the constructor's preflight counts."""
        a = self.to_half_spectra(state.amplitudes)
        a, report = self.advance(a, out=a)
        return KvnState(self.from_half_spectra(a), state.grid), report


def momentum_bias_experiment(grid: PhaseSpaceGrid, params: LangevinParams,
                             n_steps_max: int = 20000, window: int = 50,
                             rel_tol: float = 1e-8) -> BiasResult:
    """Measure the stationary kinetic-temperature bias of the thermostat.

    Runs friction + diffusion only (no transport, so the potential is
    irrelevant and R is a spectator axis: one row, weighted as all of
    them) from a Maxwell packet at T_int, a real row that both blocks
    keep real, until the kinetic temperature is stationary: relative
    change below rel_tol across a `window`-step window. Returns the
    relative deviation of T_kin from T_int.

    Friction is a `_RowDilation`, preflighted with its estimate: the
    dense table would be streamed whole for the one row of every step.
    """
    _preflight("_RowDilation", _RowDilation.memory_estimate(grid))
    friction = _RowDilation(grid, params.s)
    cos_filter = np.cos(params.sigma_h * grid.k_P)
    weight = grid.shape[0] * grid.cell

    p_sq = grid.P[None, :] ** 2
    row = np.exp(-p_sq / (4.0 * params.mu * params.t_int))
    row /= np.sqrt(np.sum(row ** 2) * weight)

    history = deque(maxlen=window + 1)  # T_kin now and `window` steps ago
    for step in range(1, n_steps_max + 1):
        row, _ = _filtered(row, friction, cos_filter, np.array([weight]))
        t_kin = float(np.sum(row ** 2 * p_sq) * weight / params.mu)
        history.append(t_kin)
        if step > window:
            if abs(t_kin - history[0]) < rel_tol * t_kin:
                bias = (t_kin - params.t_int) / params.t_int
                return BiasResult(bias=bias, n_steps=step)
    raise ConvergenceError(
        f"kinetic temperature not stationary after {n_steps_max} steps")
