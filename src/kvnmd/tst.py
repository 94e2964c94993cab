"""Static canonical rate readout on the phase-space grid.

The rate comes out of a single canonical state with no propagation at
all: the positive momentum flux through a smoothed delta at the
dividing surface, divided by the reactant-side population. The state's
density is the separable product w_R(R) w_P(P) / Z of
`diagnostics.CanonicalDensity`, so both sums factor into sums over the
two marginals, in O(N_R + N_P) time and memory with no (R, P) table;
the vdos readout encodes the same density with zero phase as its
equilibrium amplitude. Because the state covers the whole grid at once
there is no trajectory-count detection floor; a classical crossing
counter is included to exhibit exactly that floor. It counts each block
of its trajectories in the one reused R block of `oracles.verlet_blocks`
before the next block overwrites it.

Temperatures cross module boundaries in kelvin; everything else is in
atomic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SECONDS_PER_AU_TIME, kelvin_to_hartree
from .diagnostics import CanonicalDensity
from .electronic import PesModel
from .errors import ConfigurationError, ResolutionError, SingularityError
from .grid import KvnState, PhaseSpaceGrid
from .oracles import (_BLOCK, canonical_sampler, sampler_memory_estimate,
                      verlet_blocks, verlet_blocks_memory_estimate)
from .propagator import _preflight

SURFACE_MASS_TOLERANCE = 0.01
TAIL_SHARE_LIMIT = 0.5  # of delta . w_R, from beyond TAIL_SIGMAS widths
TAIL_SIGMAS = 6.0


@dataclass(frozen=True)
class TstConfig:
    """Dividing-surface placement and the temperature ladder."""

    r_dividing: float
    sigma: float | None = None  # smoothing width; default 2*dR of the grid
    temperatures: tuple[float, ...] = ()  # kelvin

    def __post_init__(self):
        if self.sigma is not None and self.sigma <= 0.0:
            raise ConfigurationError("surface smoothing width must be > 0")
        if any(t <= 0.0 for t in self.temperatures):
            raise ConfigurationError("temperatures must be positive")


@dataclass(frozen=True)
class TstResult:
    t_kelvin: float
    flux_au: float  # positive-direction surface flux, 1/a.u. time
    population: float  # reactant-side weight, dimensionless
    k_au: float

    @property
    def k_per_second(self) -> float:
        return self.k_au / SECONDS_PER_AU_TIME


@dataclass(frozen=True)
class ArrheniusFit:
    results: tuple[TstResult, ...]
    ln_prefactor: float
    activation_energy: float  # hartree, from the slope against 1/T


@dataclass(frozen=True)
class CrossingResult:
    """Finite-time trajectory-counting estimate and its detection floor."""

    n_cross: int
    k_cross: float
    k_min: float


def analytic_canonical_state(grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                             t_phys: float) -> KvnState:
    """Boltzmann amplitudes sqrt(rho_eq) with zero phase, normalized: a
    real float64 table, the outer product of the marginals' roots."""
    return KvnState(CanonicalDensity(grid, pes, mu, t_phys).amplitudes(),
                    grid)


def _check_surface(grid: PhaseSpaceGrid, cfg: TstConfig) -> None:
    if not grid.r_min < cfg.r_dividing < grid.r_max:
        raise ConfigurationError(
            f"dividing surface {cfg.r_dividing} outside the grid range "
            f"({grid.r_min}, {grid.r_max})")


def _surface_sigma(grid: PhaseSpaceGrid, cfg: TstConfig) -> float:
    return 2.0 * grid.dR if cfg.sigma is None else cfg.sigma


def _surface_weights(grid: PhaseSpaceGrid, cfg: TstConfig) -> np.ndarray:
    """Grid-renormalized Gaussian delta along R, unit mass under sum*dR."""
    _check_surface(grid, cfg)
    sigma = _surface_sigma(grid, cfg)
    if sigma < grid.dR:
        raise ResolutionError(
            f"surface width {sigma:.3g} below the grid step {grid.dR:.3g}")
    x = grid.R - cfg.r_dividing
    delta = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    mass = float(delta.sum()) * grid.dR
    if abs(mass - 1.0) > SURFACE_MASS_TOLERANCE:
        raise ResolutionError(
            f"dividing surface poorly resolved: delta mass {mass:.4f} on the "
            "grid (surface too close to a boundary or width under-resolved)")
    return delta / mass


def tst_rate(grid: PhaseSpaceGrid, pes: PesModel, mu: float, t_kelvin: float,
             cfg: TstConfig) -> TstResult:
    """Flux-over-population rate of the canonical state.

    The positive momentum flux through the grid-renormalized surface
    delta, over the reactant-side population. With rho_eq cell =
    w_R w_P / (Z_R Z_P) both sums factor:
        flux = (delta . w_R)(w_P . v_+) / (Z_R Z_P),  v_+ = max(P, 0)/mu,
        population = sum_{R < R_div} w_R / Z_R.

    At low T the delta's tail over the well, not the barrier, can set
    delta . w_R; more than TAIL_SHARE_LIMIT of it from nodes beyond
    TAIL_SIGMAS widths of R_div raises ResolutionError.
    """
    if t_kelvin <= 0.0:
        raise ConfigurationError("temperature must be positive")
    c = CanonicalDensity(grid, pes, mu, kelvin_to_hartree(t_kelvin))
    delta = _surface_weights(grid, cfg)
    surface = float(delta @ c.w_r)
    far = (np.abs(grid.R - cfg.r_dividing)
           > TAIL_SIGMAS * _surface_sigma(grid, cfg))
    tail = float(delta[far] @ c.w_r[far])
    if tail > TAIL_SHARE_LIMIT * surface:
        raise ResolutionError(
            f"surface flux at {t_kelvin:g} K is set by the tail of the "
            f"smoothed delta: {tail / surface:.3g} of it from beyond "
            f"{TAIL_SIGMAS:g} widths of R_div (limit {TAIL_SHARE_LIMIT:g})")
    velocity = np.where(grid.P > 0.0, grid.P / mu, 0.0)
    flux = surface * float(c.w_p @ velocity) / (c.z_r * c.z_p)
    population = float(np.sum(c.w_r[grid.R < cfg.r_dividing])) / c.z_r
    if population <= 0.0:
        raise SingularityError("no canonical weight on the reactant side")
    return TstResult(t_kelvin, flux, population, flux / population)


def arrhenius_sweep(grid: PhaseSpaceGrid, pes: PesModel, mu: float,
                    cfg: TstConfig) -> ArrheniusFit:
    """Rates over the temperature ladder plus a line through (1/T, ln k)."""
    if len(cfg.temperatures) < 3:
        raise ConfigurationError("Arrhenius fit needs at least 3 temperatures")
    results = tuple(tst_rate(grid, pes, mu, t, cfg)
                    for t in cfg.temperatures)
    if any(r.k_au <= 0.0 for r in results):
        raise SingularityError("non-positive rate in the Arrhenius sweep")
    inv_t = np.array([1.0 / kelvin_to_hartree(r.t_kelvin) for r in results])
    log_k = np.log([r.k_au for r in results])
    slope, intercept = np.polyfit(inv_t, log_k, 1)
    return ArrheniusFit(results, float(intercept), float(-slope))


def _crossing_steps(t_sim: float, dt: float) -> int:
    return max(1, int(round(t_sim / dt)))


def crossing_memory_estimate(n_traj: int, t_sim: float,
                             dt: float = 2.0) -> int:
    """Bytes that `crossing_reference` holds: the canonical samples, one
    R block of `verlet_blocks` with the step's vectors, and the three
    boolean arrays of a block's crossing test."""
    n_steps = _crossing_steps(t_sim, dt)
    return (sampler_memory_estimate(n_traj)
            + verlet_blocks_memory_estimate(n_steps, n_traj)
            + 3 * min(_BLOCK, n_steps) * n_traj)


def crossing_reference(pes: PesModel, mu: float, t_kelvin: float,
                       n_traj: int, t_sim: float, seed: int, cfg: TstConfig,
                       r_range: tuple[float, float],
                       dt: float = 2.0) -> CrossingResult:
    """Count positive surface crossings over finite NVE trajectories.

    Initial conditions are canonical samples; the trajectories themselves
    are conservative, so this is an equilibrium flux estimate, not a count
    of thermostated reaction events.  With zero observed crossings the
    result is pinned at the single-count floor k_min = 1/(n_traj * t_sim).
    The trajectories run in the one reused R block of `verlet_blocks`
    (_BLOCK steps; each block is counted before the next overwrites it),
    so working memory is `crossing_memory_estimate`, O(_BLOCK x n_traj)
    at any t_sim, and is preflighted against available memory first.
    """
    if n_traj < 1 or t_sim <= 0.0 or dt <= 0.0:
        raise ConfigurationError("need n_traj >= 1 and positive t_sim, dt")
    _preflight("crossing_reference",
               crossing_memory_estimate(n_traj, t_sim, dt),
               "use fewer trajectories")
    n_steps = _crossing_steps(t_sim, dt)
    t_total = n_steps * dt
    r, p = canonical_sampler(pes, mu, kelvin_to_hartree(t_kelvin), n_traj,
                             seed, r_range)
    n_cross = 0
    for block in verlet_blocks(pes, mu, r, p, dt, n_steps):
        # a block's first record is the last of the one before, so the
        # step pair straddling each block boundary is counted once
        n_cross += int(np.count_nonzero((block.R[:-1] < cfg.r_dividing)
                                        & (block.R[1:] >= cfg.r_dividing)))
    denom = n_traj * t_total
    return CrossingResult(n_cross, n_cross / denom, 1.0 / denom)
