"""One thermostated phase-space step: transport, friction, momentum filter.

The stepping core works on raw complex128 tables that rest in the
(k_R, P) representation between steps. The conservative part advances
the amplitude along classical characteristics with a symmetric split
step: half drift (diagonal in (k_R, P)), full force kick (diagonal in
(R, k_P)), half drift. Both factors are pure phases, so the step is
exactly unitary and its splitting error is second order in dt.

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

Friction and the filter act on the momentum axis alone, so they commute
with the R-axis transform and run directly on the k_R rows. The
resampling table is stored fused with the P -> k_P transform, which maps
P rows straight to the k_P rows the filter needs; all transforms are
orthonormal, so the friction leak and the filter yield are the same in
every representation. One Langevin step is half drift, ifft_R, fft_P,
kick, ifft_P, fft_R, half drift, fused friction, filter, ifft_P: five
FFTs, two of them along the strided R axis. Chains of conservative
steps fuse adjacent half drifts into full drifts (Strang splitting).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .electronic import PesModel, tabulate_pes
from .errors import (BasisMismatchError, BoundaryLeakWarning,
                     ConfigurationError, ConvergenceError, FilterBandWarning,
                     FilterCollapseError, NonFiniteAmplitudeError)
from .grid import Basis, KvnState, PhaseSpaceGrid

BOUNDARY_LEAK_TOLERANCE = 1e-3
FILTER_COLLAPSE_FLOOR = 1e-6


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
    t_kin: float
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


class NvePropagator:
    """Precomputed phase tables for the conservative step at fixed dt."""

    def __init__(self, grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                 dt: float):
        self.grid = grid
        self.mu = mu
        self.dt = dt
        _, self.force = tabulate_pes(pes, grid.R)
        self.half_drift = np.exp(-0.5j * dt * np.outer(grid.k_R, grid.P) / mu)
        self.kick = np.exp(-1j * dt * np.outer(self.force, grid.k_P))

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
        if state.basis is not Basis.RP:
            raise BasisMismatchError(
                f"transport expects the (R, P) basis, got {state.basis}")
        a = np.fft.fft(state.amplitudes, axis=0, norm="ortho")
        self.transport(a, out=a)
        np.fft.ifft(a, axis=0, norm="ortho", out=a)
        return KvnState(a, Basis.RP, state.grid)

    def autocorrelation(self, amplitudes: np.ndarray, n_lags: int,
                        stride: int = 1) -> np.ndarray:
        """c_d = <psi|U^(d*stride)|psi> dR dP for d < n_lags.

        psi is an (R, P) table and U the one-step propagator. Adjacent
        half drifts of the chain fuse into full drifts; the chain keeps
        the state before its last half drift, and that drift moves into
        the bra conj(fft_R psi) * half_drift, built once.
        """
        cell = self.grid.cell
        a = np.fft.fft(amplitudes, axis=0, norm="ortho")
        bra = a * self.half_drift.conj()  # np.vdot conjugates it back
        corr = np.empty(n_lags, dtype=complex)
        corr[0] = np.vdot(a, a).real * cell
        a *= self.half_drift
        for n in range(1, (n_lags - 1) * stride + 1):
            self._kick(a)
            if n % stride == 0:
                corr[n // stride] = np.vdot(bra, a) * cell
            a *= self.half_drift
            a *= self.half_drift
        return corr


def _friction_norm(b: np.ndarray, cell: float) -> tuple[float, float]:
    """Squared norm and boundary leak |1 - norm^2| of a dilated table.

    Warns when the leak exceeds BOUNDARY_LEAK_TOLERANCE: the packet is
    being squeezed against the momentum-grid edge.
    """
    n2 = float(np.vdot(b, b).real) * cell
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

    `matrix` stores that table fused with the P -> k_P transform,
    G = e^{s/2} fft_1(D(u_j - k), ortho), so that rows @ G takes P rows
    to the k_P rows of the dilated table.
    """

    def __init__(self, grid: PhaseSpaceGrid, s: float):
        if s < 0:
            raise ConfigurationError("gamma*dt must be nonnegative")
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
        sin_u = np.sin(np.pi * (u - nearest))
        sin_u[nearest % 2 == 1] *= -1.0
        d = u[None, :] - np.arange(n)[:, None]
        on_node = d == 0.0
        d *= np.pi / n
        np.tan(d, out=d)
        np.divide(sin_u, d, out=d, where=~on_node)
        d[1::2] *= -1.0
        d[on_node] = n
        d[:, ~valid] = 0.0
        self.matrix = np.fft.fft(d, axis=1, norm="ortho")
        self.matrix *= math.exp(0.5 * s) / n

    def apply(self, state: KvnState) -> tuple[KvnState, float]:
        """The renormalized state and the boundary leak |1 - norm^2|."""
        if state.basis is not Basis.RP:
            raise ConfigurationError("friction acts in the (R, P) representation")
        if self.matrix is None:
            return state.copy(), 0.0
        b = state.amplitudes @ self.matrix
        n2, leak = _friction_norm(b, state.grid.cell)
        np.fft.ifft(b, axis=1, norm="ortho", out=b)
        b *= 1.0 / math.sqrt(n2)
        return KvnState(b, Basis.RP, state.grid), leak


def _filtered(a: np.ndarray, friction: np.ndarray | None,
              cos_filter: np.ndarray, weight: float) \
        -> tuple[np.ndarray, StepReport]:
    """Friction, cosine filter and renormalization of rows of P amplitudes.

    The rows may be R rows or k_R rows: both blocks act on the P axis
    alone. `friction` is FrictionOperator.matrix (None for s = 0) and
    `weight` the quadrature weight of one table entry. Returns the
    renormalized rows, again over P. Without friction `a` is transformed
    in place; with it `a` is left as it was.
    """
    if friction is None:
        b = np.fft.fft(a, axis=1, norm="ortho", out=a)
        n2, leak = 1.0, 0.0
    else:
        b = a @ friction
        n2, leak = _friction_norm(b, weight)
    b *= cos_filter
    kept = float(np.vdot(b, b).real) * weight
    p_success = kept / n2
    if not math.isfinite(p_success):
        raise NonFiniteAmplitudeError(
            f"filter success probability is {p_success}")
    if p_success < FILTER_COLLAPSE_FLOOR:
        raise FilterCollapseError(
            f"filter success probability {p_success:.3e} below "
            f"{FILTER_COLLAPSE_FLOOR:.0e}")
    b *= 1.0 / math.sqrt(kept)  # dividing runs numpy's slow complex loop
    np.fft.ifft(b, axis=1, norm="ortho", out=b)
    return b, StepReport(success_probability=p_success,
                         log_success=math.log(p_success),
                         friction_leak=leak)


def diffusion_step(state: KvnState, sigma_h: float) -> tuple[KvnState, StepReport]:
    """Postselected cosine momentum filter (renormalization = postselection)."""
    if state.basis is not Basis.RP:
        raise BasisMismatchError(
            f"the filter expects the (R, P) basis, got {state.basis}")
    amp, report = _filtered(state.amplitudes.copy(), None,
                             np.cos(sigma_h * state.grid.k_P), state.grid.cell)
    return KvnState(amp, Basis.RP, state.grid), report


class LangevinStepper:
    """Fused step with all operator tables built once.

    Order per step: conservative transport, friction, diffusion filter,
    renormalization. `advance` is the array-level core on (k_R, P)
    tables; `step` wraps it for (R, P) states.
    """

    def __init__(self, grid: PhaseSpaceGrid, pes: PesModel,
                 params: LangevinParams):
        self.grid = grid
        self.params = params
        self.nve = NvePropagator(grid, pes, params.mu, params.dt)
        self.friction = FrictionOperator(grid, params.s)
        self.cos_filter = np.cos(params.sigma_h * grid.k_P)
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

    def advance(self, a: np.ndarray) -> tuple[np.ndarray, StepReport]:
        """One step of a (k_R, P) table; returns a new table, `a` is kept."""
        return _filtered(self.nve.transport(a), self.friction.matrix,
                          self.cos_filter, self.grid.cell)

    def step(self, state: KvnState) -> tuple[KvnState, StepReport]:
        if state.basis is not Basis.RP:
            raise BasisMismatchError(
                f"the step expects the (R, P) basis, got {state.basis}")
        a, report = self.advance(
            np.fft.fft(state.amplitudes, axis=0, norm="ortho"))
        np.fft.ifft(a, axis=0, norm="ortho", out=a)
        return KvnState(a, Basis.RP, state.grid), report


def momentum_bias_experiment(grid: PhaseSpaceGrid, params: LangevinParams,
                             n_steps_max: int = 20000, window: int = 50,
                             rel_tol: float = 1e-8) -> BiasResult:
    """Measure the stationary kinetic-temperature bias of the thermostat.

    Runs friction + diffusion only (no transport, so the potential is
    irrelevant and R is a spectator axis: one row, weighted as all of
    them) from a Maxwell packet at T_int until the kinetic temperature
    is stationary: relative change below rel_tol across a `window`-step
    window. Returns the relative deviation of T_kin from T_int.
    """
    friction = FrictionOperator(grid, params.s)
    cos_filter = np.cos(params.sigma_h * grid.k_P)
    weight = grid.shape[0] * grid.cell

    p_sq = grid.P[None, :] ** 2
    row = np.exp(-p_sq / (4.0 * params.mu * params.t_int)).astype(complex)
    row /= np.sqrt(np.sum(np.abs(row) ** 2) * weight)

    history = []
    for step in range(1, n_steps_max + 1):
        row, _ = _filtered(row, friction.matrix, cos_filter, weight)
        t_kin = float(np.sum(np.abs(row) ** 2 * p_sq) * weight / params.mu)
        history.append(t_kin)
        if step > window:
            if abs(history[-1] - history[-1 - window]) < rel_tol * history[-1]:
                bias = (t_kin - params.t_int) / params.t_int
                return BiasResult(bias=bias, t_kin=t_kin, n_steps=step)
    raise ConvergenceError(
        f"kinetic temperature not stationary after {n_steps_max} steps")
