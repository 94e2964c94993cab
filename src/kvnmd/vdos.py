"""Vibrational spectra from phase-estimation readout of the transport step.

The readout excites the equilibrium state along one rotating branch,
A_pm = Q -+ i*Pi with Q = R - <R> and Pi = P/(mu*omega_ref), then computes
the exact ancilla distribution of textbook phase estimation run against
powers of the conservative one-step propagator. Because that propagator
is unitary, the full distribution follows from the autocorrelation
sequence c_d = <alpha|U^d|alpha> alone, so the sweep over 2^m readout
bins costs one chain of propagator applications, O(1) state memory and
one length-2^m FFT.

The equilibrium state is the canonical sqrt(rho), a real (R, P) table
with zero phase. A complex table is accepted only when its imaginary
part is all zero, and reads as its float64 table; any other raises
ConfigurationError before anything is allocated. U is a real operator,
so the minus branch of a real table is the conjugate of the plus branch
and its lags the conjugates of the plus chain's: one chain serves both.
U is also time-reversal symmetric, and the branch states of a real,
P-even equilibrium amplitude satisfy T alpha = conj(alpha) for the
reflection T: P -> -P; the chain then reads two lags per power and takes
about 2^(m-1) applications instead of 2^m - 1.

A classical reference turns a trajectory ensemble into a spectrum on the
identical bin grid: its windowed spectrum convolved with the same
finite-time kernel is `qpe_distribution` of the windowed correlation's
own autocorrelation at the readout's lag stride. The trajectories stream
through in time blocks, keeping two sums per record; with
`oracles.verlet_blocks` every block is the one reused R array, read in
place before the next block overwrites it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .constants import WAVENUMBER_PER_HARTREE
from .electronic import PesModel
from .errors import (ConfigurationError, DomainError, NonFiniteAmplitudeError,
                     SingularityError)
from .grid import KvnState, PhaseSpaceGrid
from .oracles import TrajectoryEnsemble
from .propagator import NvePropagator, _preflight, _real_table

ZERO_BRANCH_FLOOR = 1e-12


@dataclass(frozen=True)
class QpeConfig:
    """Readout geometry: 2^m bins of width 2*pi/(tau*2^m) above omega_shift.

    tau is the evolution time per controlled power. inner_steps splits
    each power into that many transport sub-steps of size tau/inner_steps,
    which keeps the splitting error small when tau spans several
    vibration radians.
    """

    m: int
    tau: float
    omega_shift: float = 0.0
    inner_steps: int = 1

    def __post_init__(self):
        if not 1 <= self.m <= 16:
            raise ConfigurationError(f"ancilla count m={self.m} outside [1, 16]")
        if not math.isfinite(self.tau) or self.tau <= 0.0:
            raise ConfigurationError("tau must be positive and finite")
        if self.inner_steps < 1:
            raise ConfigurationError("inner_steps must be >= 1")

    @property
    def n_bins(self) -> int:
        return 1 << self.m

    @property
    def bin_width(self) -> float:
        return 2.0 * math.pi / (self.tau * self.n_bins)

    @property
    def window_width(self) -> float:
        return 2.0 * math.pi / self.tau

    def bin_centers(self) -> np.ndarray:
        return self.omega_shift + self.bin_width * np.arange(self.n_bins)


@dataclass(frozen=True)
class SpectrumResult:
    """Bin-resolved probability readout of one branch."""

    omega_au: np.ndarray
    prob: np.ndarray
    branch: str
    branch_weight: float

    @property
    def omega_cm1(self) -> np.ndarray:
        return self.omega_au * WAVENUMBER_PER_HARTREE

    @property
    def peak_bin(self) -> int:
        """Strongest bin after folding onto the |omega| half-window.

        Bin j and bin M-j alias the same physical line with opposite
        rotation sense, so the argmax runs over max(P_j, P_{M-j}) for j
        below the midpoint.
        """
        m_bins = len(self.prob)
        half = m_bins // 2
        idx = np.arange(half)
        folded = np.maximum(self.prob[:half], self.prob[(-idx) % m_bins])
        return int(np.argmax(folded))


def reference_frequency(pes: PesModel, mu: float, r_nodes: np.ndarray) -> float:
    """Harmonic frequency from a local quadratic fit around the minimum.

    Fits V over the 11 nodes centered on the sampled minimum; the minimum
    must sit at least 5 nodes away from either edge.
    """
    v = pes.v(r_nodes)
    i0 = int(np.argmin(v))
    if i0 < 5 or i0 > len(r_nodes) - 6:
        raise DomainError(
            "potential minimum sits on the grid boundary; widen the range")
    window = slice(i0 - 5, i0 + 6)
    coeffs = np.polyfit(r_nodes[window] - r_nodes[i0], v[window], 2)
    curvature = 2.0 * coeffs[0]
    if curvature <= 0.0:
        raise SingularityError("no positive curvature at the sampled minimum")
    return math.sqrt(curvature / mu)


def prepare_branch_states(eq_state: KvnState, omega_ref: float, mu: float):
    """The normalized plus-branch excitation of a real equilibrium table.

    Returns (alpha_plus, weight), the weight being the squared norm of
    the unnormalized branch state. The minus branch of the real table is
    conj(alpha_plus), with the same weight. A table with a nonzero
    imaginary part raises ConfigurationError (see `_real_table`).
    """
    table = _real_table(eq_state.amplitudes)
    if omega_ref <= 0.0 or mu <= 0.0:
        raise ConfigurationError("omega_ref and mu must be positive")
    g = eq_state.grid
    rho = np.abs(table) ** 2
    r_mean = float(np.sum(rho * g.R[:, None]) * g.cell)
    q = (g.R - r_mean)[:, None]
    pi = (g.P / (mu * omega_ref))[None, :]
    amps = (q - 1j * pi) * table  # A_plus = Q - i*Pi
    w = float(np.sum(np.abs(amps) ** 2) * g.cell)
    if w < ZERO_BRANCH_FLOOR:
        raise SingularityError(
            "branch state has zero norm; the input carries no spread "
            "in either R or P")
    amps /= math.sqrt(w)
    return KvnState(amps, g), w


def qpe_distribution(corr: np.ndarray, cfg: QpeConfig) -> np.ndarray:
    """Exact ancilla distribution from the autocorrelation c_d, d < 2^m.

    c_d = <alpha|U^d|alpha> for the one-power step U. The unitarity
    identity P_j = (1/M^2) [M c_0 + 2 Re sum_d (M-d) e^{i d theta_j} c_d]
    with theta_j = omega_shift tau + 2 pi j / M equals accumulating the
    full weighted sums without 2^m live registers; the sum over d for
    all j is one length-M inverse FFT of (M-d) c_d e^{i d omega_shift tau}.
    A non-finite c_d raises NonFiniteAmplitudeError.
    """
    if not np.all(np.isfinite(corr)):
        raise NonFiniteAmplitudeError(
            "non-finite lag in the readout autocorrelation")
    m_bins = cfg.n_bins
    d_idx = np.arange(m_bins)
    weighted = (m_bins - d_idx) * corr \
        * np.exp(1j * cfg.omega_shift * cfg.tau * d_idx)
    weighted[0] = 0.0
    sums = m_bins * np.fft.ifft(weighted)
    prob = (m_bins * corr[0].real + 2.0 * sums.real) / m_bins ** 2
    return np.maximum(prob, 0.0)


def branch_memory_estimate(grid: PhaseSpaceGrid) -> int:
    """Bytes that `branch_spectra` holds: the chain
    (`NvePropagator.memory_estimate`) plus the float64 equilibrium
    table."""
    n_r, n_p = grid.shape
    return NvePropagator.memory_estimate(grid) + 8 * n_r * n_p


def branch_spectra(eq_state: KvnState, pes: PesModel, mu: float,
                   cfg: QpeConfig, omega_ref: float | None = None):
    """Read out both rotating branches of a real equilibrium table.

    Only the plus state is built and its chain propagated: transport is
    a real operator, so alpha_minus = conj(alpha_plus) and
    c_minus(d) = conj(c_plus(d)). A table with a nonzero imaginary part
    raises ConfigurationError before the memory preflight, which counts
    `branch_memory_estimate`; the float64 table it checks is what
    `prepare_branch_states` receives, so that one skips the scan.
    """
    eq_state = replace(eq_state, amplitudes=_real_table(eq_state.amplitudes))
    _preflight("branch_spectra", branch_memory_estimate(eq_state.grid))
    if omega_ref is None:
        omega_ref = reference_frequency(pes, mu, eq_state.grid.R)
    alpha_p, weight = prepare_branch_states(eq_state, omega_ref, mu)
    prop = NvePropagator(eq_state.grid, pes, mu, cfg.tau / cfg.inner_steps)
    corr = prop.autocorrelation(alpha_p.amplitudes, cfg.n_bins,
                                cfg.inner_steps)
    omega = cfg.bin_centers()
    return (SpectrumResult(omega, qpe_distribution(corr, cfg), "plus",
                           weight),
            SpectrumResult(omega, qpe_distribution(corr.conj(), cfg),
                           "minus", weight))


_WINDOWS = {
    "hann": lambda n: np.hanning(n),
    "rect": lambda n: np.ones(n),
}


def _trajectory_correlation(blocks: Iterable[TrajectoryEnsemble],
                            tau: float) -> tuple[np.ndarray, int]:
    """Centered autocorrelation c_t of an ensemble streamed in time blocks,
    and the record stride tau / dt_rec.

    A block after the first repeats the last record of the one before as
    its first, which is skipped. Each block is read in place and fully
    summed before the next is asked for, so the blocks may share one
    array, and its one block-sized temporary is dropped by then. The
    stride is checked on the first block, before the rest are
    integrated. Only two sums per record are kept:
    with r' = r - c, c the t = 0 ensemble mean, S_t = sum_i r'_t,i r'_0,i
    and M_t = sum_i r'_t,i. With m_t = M_t / N and rbar the mean of m_t
    over all records, c_t = S_t / N - rbar (m_t + m_0) + rbar^2 is the
    correlation about the all-sample mean.
    """
    s_parts, m_parts = [], []
    r0 = centre = stride = None
    for ens in blocks:
        r = ens.R
        if r.ndim != 2 or r.shape[1] == 0:
            raise ConfigurationError("empty trajectory set")
        if r0 is None:
            if len(ens.times) < 2:
                raise ConfigurationError("need at least two trajectory records")
            dt_rec = float(ens.times[1] - ens.times[0])
            stride = round(tau / dt_rec) if dt_rec > 0.0 else 0
            if stride < 1 or abs(tau - stride * dt_rec) > 1e-9 * tau:
                raise ConfigurationError(
                    f"tau = {tau:g} is not a whole number of record "
                    f"spacings {dt_rec:g}")
            centre = np.mean(r[0])
            r0 = r[0] - centre
        else:
            r = r[1:]
        shifted = r - centre
        s_parts.append(shifted @ r0)
        m_parts.append(shifted.sum(axis=1))
        del shifted  # gone before the next block is integrated
    if r0 is None:
        raise ConfigurationError("need at least two trajectory records")
    n = len(r0)
    s_t = np.concatenate(s_parts) / n
    m_t = np.concatenate(m_parts) / n
    r_bar = m_t.mean()
    return s_t - r_bar * (m_t + m_t[0]) + r_bar * r_bar, stride


def aimd_reference_spectrum(
        trajectories: TrajectoryEnsemble | Iterable[TrajectoryEnsemble],
        cfg: QpeConfig, window: str = "hann") -> SpectrumResult:
    """Bin a trajectory-ensemble spectrum onto the readout grid.

    `trajectories` is a TrajectoryEnsemble or an iterable of time blocks
    of one run, such as `oracles.verlet_blocks`; an ensemble is a single
    block. The records are spaced by tau / L for an integer L.

    The reference is the windowed correlation spectrum convolved with the
    readout's Fejer kernel, K(theta) = sum_{|d|<M} (1 - |d|/M) e^{i d theta}.
    By Wiener-Khinchin the kernel's term d picks out a(L d), the
    autocorrelation of the windowed series w_t at lag L d (zero past the
    last record), so the bins are `qpe_distribution` of the real lag
    series a(L d), d < M: the same length-M transform as the quantum
    readout. a comes from one rfft/irfft pair of length >= 2 n_t - 1,
    which does not wrap. The result is normalized to unit total weight;
    branch_weight reports <Q^2>.
    """
    if window not in _WINDOWS:
        raise ConfigurationError(f"unknown window {window!r}; "
                                 f"choose from {sorted(_WINDOWS)}")
    if isinstance(trajectories, TrajectoryEnsemble):
        trajectories = (trajectories,)
    c_t, stride = _trajectory_correlation(trajectories, cfg.tau)
    n_t = len(c_t)

    windowed = _WINDOWS[window](n_t) * c_t
    n_fft = 1 << (2 * n_t - 2).bit_length()
    power = np.abs(np.fft.rfft(windowed, n_fft)) ** 2
    lags = np.fft.irfft(power, n_fft)[:n_t:stride][:cfg.n_bins]
    corr = np.zeros(cfg.n_bins)
    corr[:len(lags)] = lags
    prob = qpe_distribution(corr, cfg)
    total = prob.sum()
    if total <= 0.0:
        raise SingularityError("trajectory spectrum carries no weight")
    return SpectrumResult(omega_au=cfg.bin_centers(), prob=prob / total,
                          branch="aimd", branch_weight=float(c_t[0]))
