"""Test-side reference steps and loops built from the public engine.

One-shot wrappers that build their operator tables per call, the
Gaussian stand-in for the cosine filter, a single velocity-Verlet
trajectory, the step-callable autocorrelation loop and the dense
friction interpolant. They serve as independent routes for the fused
array-level core and are not part of the package.
"""

import math

import numpy as np

from kvnmd.electronic import PesModel
from kvnmd.errors import FilterCollapseError
from kvnmd.grid import Basis, KvnState, PhaseSpaceGrid, fourier_P
from kvnmd.oracles import verlet_ensemble
from kvnmd.propagator import (FILTER_COLLAPSE_FLOOR, FrictionOperator,
                              LangevinParams, LangevinStepper, NvePropagator,
                              StepReport)


def nve_step(state: KvnState, pes: PesModel, mu: float, dt: float) -> KvnState:
    """One conservative step; builds the phase tables on the fly."""
    return NvePropagator(state.grid, pes, mu, dt).step(state)


def friction_step(state: KvnState, gamma_dt: float) -> KvnState:
    """Single friction substep on a fresh operator table."""
    out, _ = FrictionOperator(state.grid, gamma_dt).apply(state)
    return out


def langevin_step(state: KvnState, pes: PesModel,
                  params: LangevinParams) -> tuple[KvnState, StepReport]:
    """One full thermostated step (transport, friction, filter)."""
    return LangevinStepper(state.grid, pes, params).step(state)


def ideal_diffusion_step(state: KvnState, sigma_h: float) \
        -> tuple[KvnState, StepReport]:
    """Gaussian stand-in for the cosine filter (its exact quadratic part).

    With this kernel the calibrated fixed point <P^2> = mu*T_int holds
    exactly for Gaussian states.
    """
    spec = fourier_P(state)
    amp = spec.amplitudes * np.exp(-0.5 * (sigma_h * state.grid.k_P) ** 2)
    p_success = float(np.sum(np.abs(amp) ** 2) * state.grid.cell)
    if p_success < FILTER_COLLAPSE_FLOOR:
        raise FilterCollapseError(
            f"filter success probability {p_success:.3e} below "
            f"{FILTER_COLLAPSE_FLOOR:.0e}")
    out = fourier_P(KvnState(amp / np.sqrt(p_success), Basis.R_KP,
                             state.grid))
    return out, StepReport(success_probability=p_success,
                           log_success=math.log(p_success))


def verlet_trajectory(pes: PesModel, mu: float, r0: float, p0: float,
                      dt: float, n_steps: int,
                      omega_ref: float | None = None):
    """Single reference trajectory: returns (times, R, P) 1-D arrays."""
    ens = verlet_ensemble(pes, mu, r0, p0, dt, n_steps, record_every=1,
                          omega_ref=omega_ref)
    return ens.times, ens.R[:, 0], ens.P[:, 0]


def step_autocorrelation(state: KvnState, step, n_lags: int) -> np.ndarray:
    """c_d = <psi|step^d(psi)> dR dP for d < n_lags, any step callable."""
    g = state.grid
    bra = state.amplitudes.conj()
    corr = np.empty(n_lags, dtype=complex)
    corr[0] = np.sum(bra * state.amplitudes) * g.cell
    st = state.copy()
    for d in range(1, n_lags):
        st = step(st)
        corr[d] = np.sum(bra * st.amplitudes) * g.cell
    return corr


def dense_friction_table(grid: PhaseSpaceGrid, s: float) -> np.ndarray:
    """Discrete Fourier interpolant at the stretched abscissas e^s P.

    Maps the unnormalized fft of a P row to its resampled values:
    row -> e^{s/2} fft(row) @ table is the friction dilation in (R, P).
    """
    n = grid.shape[1]
    target = np.exp(s) * grid.P
    u = (target - grid.p_min) / grid.dP
    valid = (target >= grid.p_min) & (target < grid.p_min + n * grid.dP)
    m = np.rint(np.fft.fftfreq(n) * n).astype(int)
    e = np.exp(2j * np.pi * np.outer(u, m) / n) / n
    e[:, n // 2] = np.cos(np.pi * u) / n
    e[~valid, :] = 0.0
    return np.ascontiguousarray(e.T)
