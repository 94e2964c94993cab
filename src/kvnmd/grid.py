"""Uniform phase-space grids and grid wavefunctions.

A state is an amplitude table psi[j, l] over a centered (R, P)
rectangle with 2**n_r x 2**n_p points, complex in general and float64
where it is real, as for a zero-phase packet. Densities are |psi|^2 and all
quadrature is the plain Riemann sum with weight dR*dP. A state always
lives in (R, P): every basis change happens inside the operator that
needs it, and `fourier_R` / `fourier_P` return a bare array, never a
state. The conjugate (k_R, k_P) axes follow FFT-natural ordering. Fourier
transforms are orthonormal, so sum|psi|^2 is exactly preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ResolutionError

MIN_QUBITS = 3
MAX_QUBITS = 14


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Immutable grid geometry: nodes, spacings and conjugate axes."""

    n_r: int
    n_p: int
    r_min: float
    r_max: float
    p_min: float
    p_max: float
    R: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    k_R: np.ndarray = field(repr=False)
    k_P: np.ndarray = field(repr=False)
    dR: float = 0.0
    dP: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return (1 << self.n_r, 1 << self.n_p)

    @property
    def cell(self) -> float:
        """Phase-space quadrature weight dR*dP."""
        return self.dR * self.dP


@dataclass
class KvnState:
    """Amplitude table psi[j, l] on the (R, P) nodes of its grid."""

    amplitudes: np.ndarray
    grid: PhaseSpaceGrid

    def copy(self) -> "KvnState":
        return replace(self, amplitudes=self.amplitudes.copy())


def build_grid(n_r: int, n_p: int,
               r_range: tuple[float, float],
               p_range: tuple[float, float]) -> PhaseSpaceGrid:
    """Build a 2**n_r x 2**n_p rectangle covering [r_min, r_max) x [p_min, p_max).

    The conjugate axes are k = 2*pi*fftfreq(N, d), i.e. FFT-natural order
    with spacing 2*pi/(N*d) covering [-pi/d, pi/d).
    """
    for name, n in (("n_r", n_r), ("n_p", n_p)):
        if not (MIN_QUBITS <= n <= MAX_QUBITS):
            raise ConfigurationError(
                f"{name}={n} outside supported qubit range "
                f"[{MIN_QUBITS}, {MAX_QUBITS}]")
    r_min, r_max = map(float, r_range)
    p_min, p_max = map(float, p_range)
    if not (r_max > r_min) or not (p_max > p_min):
        raise ConfigurationError(
            f"reversed or empty range: R=({r_min}, {r_max}), P=({p_min}, {p_max})")

    nr, np_ = 1 << n_r, 1 << n_p
    dr = (r_max - r_min) / nr
    dp = (p_max - p_min) / np_
    r = r_min + dr * np.arange(nr)
    p = p_min + dp * np.arange(np_)
    k_r = 2.0 * np.pi * np.fft.fftfreq(nr, d=dr)
    k_p = 2.0 * np.pi * np.fft.fftfreq(np_, d=dp)
    return PhaseSpaceGrid(n_r=n_r, n_p=n_p, r_min=r_min, r_max=r_max,
                          p_min=p_min, p_max=p_max, R=r, P=p,
                          k_R=k_r, k_P=k_p, dR=dr, dP=dp)


def norm_squared(state: KvnState) -> float:
    """sum |psi|^2 dR dP."""
    g = state.grid
    return float(np.sum(np.abs(state.amplitudes) ** 2) * g.cell)


def normalize(state: KvnState) -> KvnState:
    n2 = norm_squared(state)
    if n2 <= 0.0:
        raise ValueError("cannot normalize a zero state")
    return KvnState(state.amplitudes / np.sqrt(n2), state.grid)


def encode_gaussian(grid: PhaseSpaceGrid, r0: float, p0: float,
                    s_r: float, s_p: float) -> KvnState:
    """Normalized Gaussian amplitude whose *density* std devs are (s_r, s_p).

    Amplitudes go as exp[-(R-r0)^2/(4 s_r^2) - (P-p0)^2/(4 s_p^2)], so
    |psi|^2 is the Gaussian density with variances s_r^2, s_p^2. The
    table has zero phase and is float64.
    """
    if not (grid.r_min <= r0 < grid.r_max) or not (grid.p_min <= p0 < grid.p_max):
        raise ConfigurationError(
            f"packet center ({r0}, {p0}) outside grid ranges")
    if s_r < 2.0 * grid.dR or s_p < 2.0 * grid.dP:
        raise ResolutionError(
            f"packet widths ({s_r}, {s_p}) must be at least two grid "
            f"spacings ({2 * grid.dR:.3g}, {2 * grid.dP:.3g})")
    rr = (grid.R[:, None] - r0) ** 2 / (4.0 * s_r ** 2)
    pp = (grid.P[None, :] - p0) ** 2 / (4.0 * s_p ** 2)
    return normalize(KvnState(np.exp(-(rr + pp)), grid))


def fourier_R(state: KvnState) -> np.ndarray:
    """The (k_R, P) table of a state: its orthonormal FFT along R."""
    return np.fft.fft(state.amplitudes, axis=0, norm="ortho")


def fourier_P(state: KvnState) -> np.ndarray:
    """The (R, k_P) table of a state: its orthonormal FFT along P."""
    return np.fft.fft(state.amplitudes, axis=1, norm="ortho")


def density(state: KvnState) -> np.ndarray:
    """|psi|^2 on the (R, P) rectangle. Integrates to 1 with weight dR*dP."""
    return np.abs(state.amplitudes) ** 2
