"""Relaxation monitors, the canonical density and the relaxation driver.

Monitors are plain Riemann sums over the phase-space density: mean bond
length, kinetic temperature <P^2>/mu and the KL divergence
against the canonical reference at the physical temperature. That
reference is `CanonicalDensity`, the separable product w_R(R) w_P(P) / Z
built once per temperature; the relaxation monitors, the vdos
equilibrium state and the static rate all read it. The driver repeats
the thermostated step, records the monitors on the normalized state
after each step, and accumulates the postselection success probability.
It reads <R>, T_kin and D_KL from one density per record, through its
two marginals and the factorized canonical weight, so no (R, P) table
of the reference is built. All internal quantities are atomic units;
the trace carries fs/angstrom/kelvin columns ready for plotting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .constants import (FS_PER_AU_TIME, bohr_to_angstrom, hartree_to_kelvin)
from .electronic import PesModel, tabulate_pes
from .errors import FilterCollapseError
from .grid import KvnState, PhaseSpaceGrid, density
from .propagator import (LangevinParams, LangevinStepper, _preflight,
                         _real_table, _rp_table)

KL_FLOOR = 1e-300
_LOG_BLOCK = 1 << 13  # density values per block of sum rho log rho


def mean_R(state: KvnState) -> float:
    """Mean bond length <R> in bohr."""
    g = state.grid
    return float(np.sum(density(state) * g.R[:, None]) * g.cell)


def kinetic_temperature(state: KvnState, mu: float) -> float:
    """T_kin = <P^2>/mu in hartree."""
    g = state.grid
    p2 = float(np.sum(density(state) * g.P[None, :] ** 2) * g.cell)
    return p2 / mu


def canonical_reference(grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                        t: float) -> np.ndarray:
    """Grid-normalized canonical density exp[-(P^2/2mu + V)/T] / Z, the
    table of `CanonicalDensity`'s product."""
    c = CanonicalDensity(grid, pes, mu, t)
    return np.outer(c.w_r / (c.z_r * grid.dR), c.w_p / (c.z_p * grid.dP))


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
    smallest filter success probability over all completed steps, the
    step whose filter or friction emptied the state (None when none
    did), and the wall time spent computing the monitors.
    """

    time_fs: list[float] = field(default_factory=list)
    mean_r_angstrom: list[float] = field(default_factory=list)
    t_kin_kelvin: list[float] = field(default_factory=list)
    d_kl_nats: list[float] = field(default_factory=list)
    cum_success_prob: list[float] = field(default_factory=list)
    collapsed_at_step: int | None = None
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

    @property
    def collapsed(self) -> bool:
        return self.collapsed_at_step is not None


class CanonicalDensity:
    """The canonical density rho_eq = w_R(R) w_P(P) / (Z cell) at one T.

    H = P^2/2mu + V(R) separates, so e^{-H/T} is the product of
    w_R = e^{-v/T} and w_P = e^{-k/T}, with v and k = P^2/2mu shifted by
    their minima (the shifts divide out of rho_eq), and Z = Z_R Z_P with
    Z_R = sum w_R, Z_P = sum w_P. Readers take sums over the marginals
    in O(N_R + N_P); the only (R, P) tables formed from it are
    `amplitudes` and `canonical_reference`.

    `read` gives <R>, T_kin and D_KL of a density of norm
    n = sum rho cell, with
        D_KL = sum rho log rho cell + <H>/T + n log(Z cell)
    and <H> = sum rho H cell. Only sum rho log rho needs the whole
    density. The energy shifts cancel between <H>/T and log Z. Where
    rho_eq underflows, this is its exact logarithm, where
    `kl_divergence` floors it at KL_FLOOR.
    """

    def __init__(self, grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                 t: float):
        if t <= 0:
            raise ValueError("temperature must be positive")
        v, _ = tabulate_pes(pes, grid.R)
        self.grid = grid
        self.mu = mu
        self.p2 = grid.P ** 2
        self.v_over_t = (v - v.min()) / t
        self.k_over_t = (self.p2 - self.p2.min()) / (2.0 * mu * t)
        self.w_r = np.exp(-self.v_over_t)
        self.w_p = np.exp(-self.k_over_t)
        self.z_r = float(np.sum(self.w_r))
        self.z_p = float(np.sum(self.w_p))
        self.log_z_cell = (math.log(self.z_r) + math.log(self.z_p)
                           + math.log(grid.cell))

    def amplitudes(self) -> np.ndarray:
        """sqrt(rho_eq) with zero phase: one float64 (R, P) table."""
        return np.outer(np.sqrt(self.w_r / (self.z_r * self.grid.dR)),
                        np.sqrt(self.w_p / (self.z_p * self.grid.dP)))

    def read(self, rho: np.ndarray) -> tuple[float, float, float]:
        """<R> in bohr, T_kin in hartree and D_KL in nats."""
        cell = self.grid.cell
        m_r, m_p = rho.sum(axis=1), rho.sum(axis=0)
        h_over_t = m_r @ self.v_over_t + m_p @ self.k_over_t
        d_kl = ((_sum_rho_log_rho(rho) + h_over_t) * cell
                + np.sum(m_r) * cell * self.log_z_cell)
        return (float(m_r @ self.grid.R) * cell,
                float(m_p @ self.p2) * cell / self.mu, float(d_kl))


def _sum_rho_log_rho(rho: np.ndarray) -> float:
    """sum rho log max(rho, KL_FLOOR), a block of rows at a time."""
    rows = max(1, _LOG_BLOCK // rho.shape[1])
    total = 0.0
    for i in range(0, len(rho), rows):
        block = rho[i:i + rows]
        log_block = np.maximum(block, KL_FLOOR)
        total += np.vdot(block, np.log(log_block, out=log_block))
    return total


def relax_memory_estimate(grid: PhaseSpaceGrid, params: LangevinParams,
                          n_steps: int,
                          snapshot_steps: tuple[int, ...] = ()) -> int:
    """Bytes that `relax` holds: the stepper's fixed working set for one
    half spectrum stepped in place, plus one float64 density per
    snapshot taken before the last step. The last step's snapshot is the
    density formed in the stepper's plane, which no step overwrites
    again."""
    n_r, n_p = grid.shape
    copies = set(snapshot_steps) & set(range(n_steps))
    return (LangevinStepper.memory_estimate(grid, params.s)
            + 8 * n_r * n_p * len(copies))


def relax(initial: KvnState, pes: PesModel, params: LangevinParams,
          n_steps: int, record_every: int = 1,
          snapshot_steps: tuple[int, ...] = ()) \
        -> tuple[RelaxationTrace, KvnState | None, dict[int, np.ndarray]]:
    """Drive the thermostated step and record the relaxation monitors.

    The initial table is real, such as sqrt(rho): a complex one with a
    nonzero imaginary part is refused with ConfigurationError before
    anything is allocated.

    Records at step 0, every `record_every` steps, and the final step.
    Snapshot densities are taken at the requested step indices. Step 0
    reads the initial table; afterwards the amplitude rests as the
    rfft_R half spectrum of the stepping core, one array that each step
    overwrites in place, and records and snapshots read its density from
    the stepper's real plane. The working set is the stepper's tables,
    the half spectrum and the plane. A snapshot at the last step is the
    density in the plane itself, since no step follows to overwrite it.
    The final state, a float64 (R, P) table, is formed only after the
    stepper is released. The initial table is released once it is read,
    before the stepper's tables are built, so a caller that passes a
    temporary does not hold it during the run.

    A step that collapses, in the filter or in friction, leaves no state
    from before it: the trace ends at its last record, records the
    collapsing step in `collapsed_at_step`, and the final state is None.
    """
    grid = initial.grid
    table = _real_table(initial.amplitudes)
    _preflight("relax", relax_memory_estimate(grid, params, n_steps,
                                              snapshot_steps))
    monitors = CanonicalDensity(grid, pes, params.mu, params.t_phys)

    trace = RelaxationTrace()
    snapshots: dict[int, np.ndarray] = {}
    log_cum = 0.0

    def record(step: int, rho: np.ndarray):
        start = time.perf_counter()
        r, t_kin, d_kl = monitors.read(rho)
        trace.append(step * params.dt * FS_PER_AU_TIME, bohr_to_angstrom(r),
                     hartree_to_kelvin(t_kin), d_kl, math.exp(log_cum))
        trace.monitor_seconds += time.perf_counter() - start

    a = LangevinStepper.to_half_spectra(table)
    rho = density(initial)
    del initial, table  # the last references to a caller's temporary
    # built once the initial table is gone, so that the allocator can
    # reuse its block for the friction table, the same size on a square
    # grid; a step's arrays, two rows longer, do not fit there, and the
    # block would stay resident but unused through the run
    stepper = LangevinStepper(grid, pes, params)
    record(0, rho)
    if 0 in snapshot_steps:
        snapshots[0] = rho
    rho = None
    for step in range(1, n_steps + 1):
        try:
            a, report = stepper.advance(a, out=a)
        except FilterCollapseError:
            trace.collapsed_at_step = step
            break
        log_cum += report.log_success
        trace.friction_leak_max = max(trace.friction_leak_max,
                                      report.friction_leak)
        trace.success_probability_min = min(trace.success_probability_min,
                                            report.success_probability)
        recording = step % record_every == 0 or step == n_steps
        if recording or step in snapshot_steps:
            rho = stepper.density(a)
            if step in snapshot_steps:
                snapshots[step] = rho if step == n_steps else rho.copy()
            if recording:
                record(step, rho)
    # the tables go with the stepper, and the plane too unless the last
    # snapshot is a view of it
    del stepper, rho
    if trace.collapsed:
        return trace, None, snapshots
    final = KvnState(_rp_table(a, grid.shape[0]), grid)
    return trace, final, snapshots
