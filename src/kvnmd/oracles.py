"""Classical reference engines used to cross-check the grid dynamics.

Nothing here touches the wavefunction machinery: trajectories are plain
(R, P) arrays, thermal states come from exact Maxwell draws plus a
Metropolis walk, and the stationary momentum-filter bias is evaluated
straight from its infinite-product form. These are the independent
"second route" for every physics claim made by the propagator and the
readout modules.

The streamed references (the surface-crossing counter and the AIMD
spectrum) read R only, so `verlet_blocks` integrates into one reused R
block: each block it yields is overwritten by the next.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SamplerWarning
from .electronic import PesModel
from .propagator import _preflight

# Verlet steps per R block of verlet_blocks; the AIMD correlation sums
# each block in one matrix product, whose rows keep their bits only for
# the same block length
_BLOCK = 256
# noise steps drawn at once by langevin_ensemble; draws of a + b steps
# equal a then b, so the ensemble does not depend on it
_NOISE_BLOCK = 64
# float vectors per trajectory of a Verlet step: r, p, f, the half drift
# and the temporaries; the bundled H2 spline force takes about 30 of
# them under tracemalloc, the Morse force about 10
_STEP_VECTORS = 32
# per trajectory of langevin_ensemble: its Generator (about 1.7 KB under
# tracemalloc) and the step's few float vectors
_TRAJECTORY_BYTES = 2048


def trajectory_stream(seed: int, index: int) -> np.random.Generator:
    """Per-trajectory RNG keyed by (seed, index), independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(index,)))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Recorded ensemble series; axis 0 is time, axis 1 the trajectory."""

    times: np.ndarray
    R: np.ndarray
    P: np.ndarray | None = None  # None for the R-only blocks of verlet_blocks


def _record_steps(n_steps: int, record_every: int) -> np.ndarray:
    steps = np.arange(0, n_steps + 1, record_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    return steps


def _own_copies(r0, p0) -> tuple[np.ndarray, np.ndarray]:
    r, p = np.broadcast_arrays(np.atleast_1d(np.asarray(r0, dtype=float)),
                               np.atleast_1d(np.asarray(p0, dtype=float)))
    return r.copy(), p.copy()


def _verlet_steps(pes: PesModel, mu: float, r: np.ndarray, p: np.ndarray,
                  dt: float, n_steps: int):
    """Step r and p in place n_steps times, yielding after each step.

    The drift is split in two halves so that the zero-friction limit of
    the thermostated integrator below reproduces this one step for step.
    """
    f = pes.f(r)
    for _ in range(n_steps):
        p += 0.5 * dt * f
        half_drift = 0.5 * dt * p / mu
        r += half_drift
        r += half_drift
        f = pes.f(r)
        p += 0.5 * dt * f
        yield


def verlet_memory_estimate(n_steps: int, n_traj: int,
                           record_every: int = 1) -> int:
    """Bytes of the R and P records of `verlet_ensemble`."""
    return 16 * n_traj * (-(-n_steps // record_every) + 1)


def verlet_ensemble(pes: PesModel, mu: float, r0, p0, dt: float,
                    n_steps: int, record_every: int = 1,
                    omega_ref: float | None = None) -> TrajectoryEnsemble:
    """Energy-conserving half-kick/drift/half-kick integration.

    The recorded R and P are preflighted against available memory before
    they are allocated.
    """
    if omega_ref is not None and dt * omega_ref >= 0.1:
        raise ValueError(
            f"dt*omega_ref = {dt * omega_ref:.3f} too large for a faithful "
            "reference trajectory (need < 0.1)")
    r, p = _own_copies(r0, p0)  # stepped in place
    _preflight("verlet_ensemble",
               verlet_memory_estimate(n_steps, len(r), record_every),
               "record fewer steps or trajectories")
    steps = _record_steps(n_steps, record_every)
    out_r = np.empty((len(steps), len(r)))
    out_p = np.empty((len(steps), len(r)))
    out_r[0], out_p[0] = r, p
    rec = 1
    for step, _ in enumerate(_verlet_steps(pes, mu, r, p, dt, n_steps), 1):
        if step == steps[rec]:
            out_r[rec], out_p[rec] = r, p
            rec += 1
    return TrajectoryEnsemble(times=steps * dt, R=out_r, P=out_p)


def verlet_blocks_memory_estimate(n_steps: int, n_traj: int) -> int:
    """Bytes that `verlet_blocks` holds: one R block of min(_BLOCK,
    n_steps) + 1 records and the step's vectors."""
    return 8 * n_traj * (min(_BLOCK, n_steps) + 1 + _STEP_VECTORS)


def verlet_blocks(pes: PesModel, mu: float, r0, p0, dt: float, n_steps: int):
    """`verlet_ensemble` over n_steps with every step recorded, R only,
    yielded lazily in blocks of _BLOCK steps.

    Every block is a view of one reused (_BLOCK + 1, n_traj) R array, so
    a block is overwritten by the next: read it before asking for the
    next, or copy it. The record at each block boundary is the last of
    one block and the first of the next; the blocks carry no P. Working
    memory is `verlet_blocks_memory_estimate`, O(_BLOCK x n_traj) at any
    n_steps, and is preflighted against available memory when the first
    block is asked for.
    """
    r, p = _own_copies(r0, p0)  # stepped in place
    _preflight("verlet_blocks", verlet_blocks_memory_estimate(n_steps, len(r)),
               "use fewer trajectories")
    block = np.empty((min(_BLOCK, n_steps) + 1, len(r)))
    block[0] = r
    row = 0
    for step, _ in enumerate(_verlet_steps(pes, mu, r, p, dt, n_steps), 1):
        row += 1
        block[row] = r
        if row == _BLOCK or step == n_steps:
            yield TrajectoryEnsemble(
                times=np.arange(step - row, step + 1) * dt, R=block[:row + 1])
            block[0] = r
            row = 0


def langevin_memory_estimate(n_steps: int, n_traj: int,
                             record_every: int = 1) -> int:
    """Bytes that `langevin_ensemble` holds: the recorded R and P, one
    noise block and one Generator per trajectory, and the record steps."""
    n_records = -(-n_steps // record_every) + 1
    return (n_traj * (16 * n_records + 8 * min(_NOISE_BLOCK, n_steps)
                      + _TRAJECTORY_BYTES) + 8 * n_records)


def langevin_ensemble(pes: PesModel, mu: float, gamma: float, t: float,
                      dt: float, n_steps: int, n_traj: int, seed: int,
                      r0, p0=0.0, record_every: int = 1) -> TrajectoryEnsemble:
    """Thermostated ensemble (kick/drift/thermostat/drift/kick splitting).

    Noise comes from one counter-based stream per trajectory, drawn in
    blocks of _NOISE_BLOCK steps, so working memory is O(_NOISE_BLOCK x
    n_traj) at any run length and results do not depend on the block
    length.
    gamma = 0 turns the thermostat substep into the exact identity and
    the integrator reduces to the energy-conserving one above. The
    working set is preflighted against available memory before any of it
    is allocated.
    """
    _preflight("langevin_ensemble",
               langevin_memory_estimate(n_steps, n_traj, record_every),
               "record fewer steps or trajectories")
    # own copies, stepped in place below
    r = np.broadcast_to(np.asarray(r0, dtype=float), (n_traj,)).copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), (n_traj,)).copy()
    c1 = np.exp(-gamma * dt)
    c2 = np.sqrt(mu * t * (1.0 - c1 * c1))
    streams = [trajectory_stream(seed, i) for i in range(n_traj)]

    steps = _record_steps(n_steps, record_every)
    out_r = np.empty((len(steps), n_traj))
    out_p = np.empty((len(steps), n_traj))
    noise = np.empty((min(_NOISE_BLOCK, n_steps), n_traj))
    f = pes.f(r)
    rec = 0
    for step in range(n_steps + 1):
        if step == steps[rec]:
            out_r[rec], out_p[rec] = r, p
            rec += 1
        if step == n_steps:
            break
        if step % _NOISE_BLOCK == 0:
            n_block = min(_NOISE_BLOCK, n_steps - step)
            for i, stream in enumerate(streams):
                noise[:n_block, i] = stream.standard_normal(n_block)
        p += 0.5 * dt * f
        r += 0.5 * dt * p / mu
        p *= c1
        p += c2 * noise[step % _NOISE_BLOCK]
        r += 0.5 * dt * p / mu
        f = pes.f(r)
        p += 0.5 * dt * f
    return TrajectoryEnsemble(times=steps * dt, R=out_r, P=out_p)


def sampler_memory_estimate(n_samples: int) -> int:
    """Bytes that `canonical_sampler` holds: per sample 8 for P and 8
    for R, harvested into one preallocated array; 64 KiB for the
    burn-in."""
    return 16 * n_samples + (1 << 16)


def canonical_sampler(pes: PesModel, mu: float, t: float, n_samples: int,
                      seed: int, r_range: tuple[float, float]):
    """Draw (R, P) from the canonical density on r_range.

    P is an exact Maxwell draw. R runs an adaptive random-walk Metropolis
    chain on exp(-V/T): 1000-sweep burn-in with step adaptation, then one
    harvest every 10 sweeps across parallel walkers. A post-adaptation
    acceptance rate outside [0.1, 0.9] emits SamplerWarning. The samples
    are preflighted against available memory before they are drawn.
    """
    _preflight("canonical_sampler", sampler_memory_estimate(n_samples),
               "draw fewer samples")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    p = rng.normal(0.0, np.sqrt(mu * t), n_samples)

    lo, hi = r_range
    scan = np.linspace(lo, hi, 1024)
    v_scan = pes.v(scan)
    n_chains = min(64, n_samples)
    start = scan[np.argmin(v_scan)]
    r = np.full(n_chains, start) + 1e-3 * (hi - lo) * rng.standard_normal(n_chains)
    r = np.clip(r, lo, hi)
    v = pes.v(r)
    step = 0.1 * (hi - lo)

    def sweep(step):
        """One Metropolis move of every walker; returns the accepted count."""
        nonlocal r, v
        prop = r + step * rng.standard_normal(n_chains)
        inside = (prop >= lo) & (prop <= hi)
        v_prop = np.where(inside, pes.v(np.clip(prop, lo, hi)), np.inf)
        accept = inside & (np.log(rng.random(n_chains))
                           < -(v_prop - v) / t)
        r = np.where(accept, prop, r)
        v = np.where(accept, v_prop, v)
        return int(np.count_nonzero(accept))

    # burn-in with step adaptation toward ~50% acceptance
    acc_window = []
    for i in range(1000):
        acc_window.append(sweep(step) / n_chains)
        if (i + 1) % 50 == 0:
            rate = float(np.mean(acc_window[-50:]))
            step *= np.exp(rate - 0.5)

    r_out = np.empty(n_samples)
    n_rounds = -(-n_samples // n_chains)
    accepted = 0
    for start in range(0, n_rounds * n_chains, n_chains):
        for _ in range(10):
            accepted += sweep(step)
        r_out[start:start + n_chains] = r[:n_samples - start]
    rate = accepted / (10 * n_rounds * n_chains)
    if not (0.1 <= rate <= 0.9):
        warnings.warn(f"Metropolis acceptance {rate:.2f} outside [0.1, 0.9] "
                      "after adaptation", SamplerWarning)
    return r_out, p


def bias_product_memory_estimate(n_points: int = 1 << 17) -> int:
    """Bytes that `cos_filter_stationary_bias` holds at its peak: five
    float64 arrays of n_points + 1 values (kappa, the mirrored product,
    and np.gradient's result and temporaries)."""
    return 40 * (n_points + 1)


def cos_filter_stationary_bias(s: float, n_terms: int = 200,
                               n_points: int = 1 << 17,
                               kappa_max: float = 10.0) -> float:
    """Relative excess of <P^2> over its target for the filtered map.

    The stationary amplitude of the dilate-then-filter momentum map is an
    infinite product of shrinking cosine filters (truncated at n_terms) in
    the variable conjugate to P. Working in units where the target second
    moment is 1, this returns <P^2> - 1 from direct quadrature of the
    truncated product and its derivative. The product is even, so it is
    evaluated on kappa >= 0 and mirrored; for a power-of-two n_points the
    kappa grid is exactly antisymmetric and the mirror changes no bit.
    """
    if s <= 0:
        return 0.0
    y = np.exp(-s)
    sigma = np.sqrt(2.0 * (1.0 - y * y))
    kappa = np.linspace(-kappa_max, kappa_max, n_points + 1)
    mid = len(kappa) // 2
    half = kappa[mid:]
    full = np.empty_like(kappa)
    psi = full[mid:]  # the product on kappa >= 0, mirrored below
    psi.fill(1.0)
    factor = np.empty_like(half)
    for r in range(n_terms):
        np.multiply(sigma * y ** r, half, out=factor)
        psi *= np.cos(factor, out=factor)
    # the dropped r >= n_terms factors have shrunk deep into their
    # quadratic/quartic regime; close the remainder analytically
    # (at small s the bare truncation would still be missing e^(-2 n s)
    # of the stationary width)
    ytail = y ** n_terms
    a_tail = sigma ** 2 * ytail ** 2 / (2.0 * (1.0 - y ** 2))
    b_tail = sigma ** 4 * ytail ** 4 / (12.0 * (1.0 - y ** 4))
    np.square(half, out=factor)
    factor *= -a_tail
    quartic = half ** 4
    quartic *= b_tail
    factor -= quartic
    psi *= np.exp(factor, out=factor)
    del factor, quartic  # before np.gradient's full-length temporaries
    full[:mid] = psi[:0:-1]
    dpsi = np.gradient(full, kappa)
    dk = np.diff(kappa)
    num = _trapezoid(np.multiply(dpsi, dpsi, out=dpsi), dk)
    den = _trapezoid(np.multiply(full, full, out=full), dk)
    return float(num / den - 1.0)


def _trapezoid(y: np.ndarray, dk: np.ndarray) -> float:
    """`np.trapezoid(y, kappa)` given dk = np.diff(kappa), in one
    temporary: the same operations, so the same bits."""
    t = y[1:] + y[:-1]
    t *= dk
    t /= 2.0
    return np.add.reduce(t)
