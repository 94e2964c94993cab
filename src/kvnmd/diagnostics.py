"""Relaxation monitors and the thermostated relaxation driver.

Monitors are plain Riemann sums over the phase-space density: mean bond
length, kinetic temperature <P^2>/mu, mean energy, and the KL divergence
against the canonical reference at the physical temperature. The driver
repeats the thermostated step, records the monitors on the normalized
state after each step, and accumulates the postselection success
probability. All internal quantities are atomic units; the trace carries
fs/angstrom/kelvin columns ready for plotting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constants import (FS_PER_AU_TIME, bohr_to_angstrom, hartree_to_kelvin)
from .electronic import PesModel, tabulate_pes
from .errors import FilterCollapseError
from .grid import Basis, KvnState, PhaseSpaceGrid, density
from .propagator import LangevinParams, LangevinStepper

KL_FLOOR = 1e-300


def mean_R(state: KvnState) -> float:
    """Mean bond length <R> in bohr."""
    g = state.grid
    return float(np.sum(density(state) * g.R[:, None]) * g.cell)


def kinetic_temperature(state: KvnState, mu: float) -> float:
    """T_kin = <P^2>/mu in hartree."""
    g = state.grid
    p2 = float(np.sum(density(state) * g.P[None, :] ** 2) * g.cell)
    return p2 / mu


def mean_energy(state: KvnState, pes: PesModel, mu: float) -> float:
    """<P^2/2mu + V(R)> in hartree."""
    g = state.grid
    v, _ = tabulate_pes(pes, g.R)
    rho = density(state)
    return float(np.sum(rho * (g.P[None, :] ** 2 / (2.0 * mu)
                               + v[:, None])) * g.cell)


def canonical_reference(grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                        t: float) -> np.ndarray:
    """Grid-normalized canonical density exp[-(P^2/2mu + V)/T] / Z."""
    if t <= 0:
        raise ValueError("temperature must be positive")
    v, _ = tabulate_pes(pes, grid.R)
    exponent = -(grid.P[None, :] ** 2 / (2.0 * mu) + v[:, None]) / t
    exponent -= exponent.max()  # overflow guard; divides out in Z
    rho = np.exp(exponent)
    return rho / (np.sum(rho) * grid.cell)


def kl_divergence(rho: np.ndarray, rho_eq: np.ndarray, cell: float) -> float:
    """KL divergence in nats between two grid-normalized densities."""
    if rho.shape != rho_eq.shape:
        raise ValueError(
            f"density shapes differ: {rho.shape} vs {rho_eq.shape}")
    log_ratio = np.log(np.maximum(rho, KL_FLOOR)) \
        - np.log(np.maximum(rho_eq, KL_FLOOR))
    return float(np.sum(np.where(rho > 0.0, rho * log_ratio, 0.0)) * cell)


@dataclass
class RelaxationTrace:
    """Per-record monitor series of one relaxation run.

    Besides the series it keeps the largest friction leak and the
    smallest filter success probability over all completed steps, and
    the wall time spent computing the monitors.
    """

    time_fs: list[float] = field(default_factory=list)
    mean_r_angstrom: list[float] = field(default_factory=list)
    t_kin_kelvin: list[float] = field(default_factory=list)
    d_kl_nats: list[float] = field(default_factory=list)
    cum_success_prob: list[float] = field(default_factory=list)
    collapsed: bool = False
    friction_leak_max: float = 0.0
    success_probability_min: float = 1.0
    monitor_seconds: float = 0.0

    def append(self, t_fs, r_ang, t_kin, d_kl, cum_p):
        self.time_fs.append(t_fs)
        self.mean_r_angstrom.append(r_ang)
        self.t_kin_kelvin.append(t_kin)
        self.d_kl_nats.append(d_kl)
        self.cum_success_prob.append(cum_p)

    def __len__(self) -> int:
        return len(self.time_fs)


def relax(initial: KvnState, pes: PesModel, params: LangevinParams,
          n_steps: int, record_every: int = 1,
          snapshot_steps: tuple[int, ...] = ()) \
        -> tuple[RelaxationTrace, KvnState, dict[int, np.ndarray]]:
    """Drive the thermostated step and record the relaxation monitors.

    Records at step 0, every `record_every` steps, and the final step.
    A filter collapse truncates the trace at the last completed step and
    sets the collapsed flag instead of propagating. Snapshot densities
    are taken at the requested step indices. The amplitude rests in the
    half-spectrum layout of the stepping core and is transformed back to
    (R, P) only where a record or a snapshot reads it, with the dtype of
    the initial table.
    """
    if initial.basis is not Basis.RP:
        raise ValueError("relaxation starts from the (R, P) representation")
    grid = initial.grid
    stepper = LangevinStepper(grid, pes, params)
    rho_eq = canonical_reference(grid, pes, params.mu, params.t_phys)

    trace = RelaxationTrace()
    snapshots: dict[int, np.ndarray] = {}
    state = initial
    a = stepper.to_half_spectra(initial.amplitudes)
    log_cum = 0.0

    def to_rp() -> KvnState:
        return KvnState(stepper.from_half_spectra(a, initial.amplitudes.dtype),
                        Basis.RP, grid)

    def record(step: int):
        start = time.perf_counter()
        trace.append(step * params.dt * FS_PER_AU_TIME,
                     bohr_to_angstrom(mean_R(state)),
                     hartree_to_kelvin(kinetic_temperature(state, params.mu)),
                     kl_divergence(density(state), rho_eq, grid.cell),
                     math.exp(log_cum))
        trace.monitor_seconds += time.perf_counter() - start

    record(0)
    last_recorded = 0
    if 0 in snapshot_steps:
        snapshots[0] = density(state)
    for step in range(1, n_steps + 1):
        try:
            a, report = stepper.advance(a)
        except FilterCollapseError:
            if last_recorded != step - 1:
                state = to_rp()
                record(step - 1)
            trace.collapsed = True
            break
        log_cum += report.log_success
        trace.friction_leak_max = max(trace.friction_leak_max,
                                      report.friction_leak)
        trace.success_probability_min = min(trace.success_probability_min,
                                            report.success_probability)
        recording = step % record_every == 0 or step == n_steps
        if recording or step in snapshot_steps:
            state = to_rp()
        if recording:
            record(step)
            last_recorded = step
        if step in snapshot_steps:
            snapshots[step] = density(state)
    return trace, state, snapshots
