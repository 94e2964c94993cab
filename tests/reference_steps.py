"""Test-side reference steps and loops built from the public engine.

One-shot wrappers that build their operator tables per call, the
Gaussian stand-in for the cosine filter, a single velocity-Verlet
trajectory, the step-callable autocorrelation loop, the dense
friction interpolant and the friction table built through boolean masks
of its on-node entries. They serve as independent routes for the fused
array-level core and are not part of the package. The classical
references come in their one-pass forms: a crossing counter over the
full trajectory history, a Langevin ensemble that draws all its noise up
front and the product oracle on the whole kappa grid. Their previous
streamed forms are kept bit for bit: `rp_verlet_blocks`, the Verlet
blocks as a fresh (R, P) ensemble each, and `concatenated_filter_bias`,
the product oracle mirrored by concatenation with numpy's gradient and
trapezoid on fresh arrays. `table_relax` is
the relaxation driver with one (R, P) state per record, each monitor
read from its own density and D_KL taken against the canonical table.
`two_step_pauli_force` is the coefficient-table force from the spline's
full value and derivative rows, and `complex_bias_experiment` the bias
loop on a complex row. `fejer_loop_reference` bins a recorded
ensemble's spectrum by evaluating the Fejer kernel on a zero-padded
frequency grid, one bin at a time. `separate_buffer_advance` is the
stepping core with a buffer of its own for every intermediate, where
`LangevinStepper.advance` lets them share the output array and the real
plane. `one_expression_phase_tables` is the transport tables' formula as
one expression per table, with its table-sized temporaries. `traced_peak`
measures the peak allocation of one call.

The rest compute what no package code path needs, and serve only as
references: `diffusion_step`, the cosine filter alone on an (R, P)
state; `qpe_spectrum`, the readout of one state's own chain, and
`minus_branch`, the minus branch and its weight built directly rather
than by conjugation; `kvn_autocorrelation`, the centered coordinate's
transport autocorrelation; `fejer_kernel`, the readout's finite-time
kernel in closed form; `mean_energy`, the grid average of P^2/2mu + V;
`ground_state_energy`, the lower eigenvalue of a Pauli table's 2 x 2
Hamiltonian; and `histogram_density`, a sample histogram normalized like
a grid density.
"""

import math
import tracemalloc

import numpy as np

from kvnmd.constants import (FS_PER_AU_TIME, bohr_to_angstrom,
                             hartree_to_kelvin, kelvin_to_hartree)
from kvnmd.diagnostics import (RelaxationTrace, kinetic_temperature,
                               kl_divergence, mean_R)
from kvnmd.electronic import (PauliCoefficientTable, PesModel, _CubicTable,
                              tabulate_pes)
from kvnmd.errors import ConvergenceError, FilterCollapseError
from kvnmd.grid import KvnState, PhaseSpaceGrid, density, fourier_P
from kvnmd.oracles import (_BLOCK, TrajectoryEnsemble, canonical_sampler,
                           trajectory_stream, verlet_ensemble)
from kvnmd.propagator import (FILTER_COLLAPSE_FLOOR, BiasResult,
                              FrictionOperator, LangevinParams,
                              LangevinStepper, NvePropagator, StepReport,
                              _drift_momenta, _filtered, _zero_nyquist)
from kvnmd.tst import CrossingResult, TstConfig, _surface_weights
from kvnmd.vdos import (_WINDOWS, QpeConfig, SpectrumResult,
                        qpe_distribution)


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
    amp = fourier_P(state) * np.exp(-0.5 * (sigma_h * state.grid.k_P) ** 2)
    p_success = float(np.sum(np.abs(amp) ** 2) * state.grid.cell)
    if p_success < FILTER_COLLAPSE_FLOOR:
        raise FilterCollapseError(
            f"filter success probability {p_success:.3e} below "
            f"{FILTER_COLLAPSE_FLOOR:.0e}")
    out = KvnState(np.fft.ifft(amp / np.sqrt(p_success), axis=1,
                               norm="ortho"), state.grid)
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


def masked_friction_table(grid: PhaseSpaceGrid, s: float) -> np.ndarray:
    """`FrictionOperator.matrix` through two N_P x N_P boolean masks of
    the on-node entries, d == 0, and their complement."""
    n = grid.shape[1]
    target = np.exp(s) * grid.P
    u = (target - grid.p_min) / grid.dP
    valid = (target >= grid.p_min) & (target < grid.p_min + n * grid.dP)
    nearest = np.rint(u)
    frac = u - nearest
    sin_u = np.sin(np.pi * frac)
    sin_u[nearest % 2 == 1] *= -1.0
    d = u[None, :] - np.arange(n)[:, None]
    upper = nearest > n // 2
    d[0, upper] = (nearest - n)[upper] + frac[upper]
    on_node = d == 0.0
    d *= np.pi / n
    np.tan(d, out=d)
    np.divide(sin_u, d, out=d, where=~on_node)
    d[1::2] *= -1.0
    d[on_node] = n
    d[:, ~valid] = 0.0
    d *= math.exp(0.5 * s) / n
    return d


def table_canonical_reference(grid: PhaseSpaceGrid, pes: PesModel,
                              mu: float, t: float) -> np.ndarray:
    """Grid-normalized canonical density exp[-(P^2/2mu + V)/T] / Z from
    the full exponent table."""
    v, _ = tabulate_pes(pes, grid.R)
    exponent = -(grid.P[None, :] ** 2 / (2.0 * mu) + v[:, None]) / t
    exponent -= exponent.max()  # overflow guard; divides out in Z
    rho = np.exp(exponent)
    return rho / (np.sum(rho) * grid.cell)


def dividing_surface_flux(state: KvnState, mu: float,
                          cfg: TstConfig) -> float:
    """Positive-momentum probability flux through the dividing surface.

    Diagonal sum delta_sigma(R - R_div) * P/mu over P > 0, weighted by the
    cell probabilities |psi|^2 dR dP.
    """
    grid = state.grid
    delta = _surface_weights(grid, cfg)
    velocity = np.where(grid.P > 0.0, grid.P / mu, 0.0)
    prob = (np.abs(state.amplitudes) ** 2) * grid.cell
    return float(delta @ prob @ velocity)


def reactant_population(state: KvnState, cfg: TstConfig) -> float:
    """Total probability on the reactant side R < R_div."""
    grid = state.grid
    mask = grid.R < cfg.r_dividing
    prob = (np.abs(state.amplitudes[mask]) ** 2) * grid.cell
    return float(prob.sum())


def table_relax(initial: KvnState, pes: PesModel, params: LangevinParams,
                n_steps: int, record_every: int = 1,
                snapshot_steps: tuple[int, ...] = ()) \
        -> tuple[RelaxationTrace, KvnState, dict[int, np.ndarray]]:
    """`diagnostics.relax` with an (R, P) state per record and the
    canonical reference as a table."""
    grid = initial.grid
    stepper = LangevinStepper(grid, pes, params)
    rho_eq = table_canonical_reference(grid, pes, params.mu,
                                       params.t_phys)
    trace = RelaxationTrace()
    snapshots = {}
    state = initial
    a = stepper.to_half_spectra(initial.amplitudes)
    log_cum = 0.0

    def to_rp() -> KvnState:
        return KvnState(stepper.from_half_spectra(a), grid)

    def record(step: int):
        trace.append(step * params.dt * FS_PER_AU_TIME,
                     bohr_to_angstrom(mean_R(state)),
                     hartree_to_kelvin(kinetic_temperature(state, params.mu)),
                     kl_divergence(density(state), rho_eq, grid.cell),
                     math.exp(log_cum))

    record(0)
    if 0 in snapshot_steps:
        snapshots[0] = density(state)
    for step in range(1, n_steps + 1):
        try:
            a, report = stepper.advance(a)
        except FilterCollapseError:
            # the trace ends at its last record, with no final state
            trace.collapsed_at_step = step
            state = None
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
        if step in snapshot_steps:
            snapshots[step] = density(state)
    return trace, state, snapshots


def separate_buffer_advance(stepper: LangevinStepper, a: np.ndarray) \
        -> tuple[np.ndarray, StepReport]:
    """`LangevinStepper.advance` into a new half spectrum, with a real
    plane, the kick's half spectrum and the friction scratch of its own:
    2 (N_R/2 + 1) rows for an operand and its product."""
    n_r, n_p = stepper.grid.shape
    x = np.empty((n_r, n_p))
    y = np.empty((n_r, n_p // 2 + 1), np.complex128)
    plane = np.empty((2 * (n_r // 2 + 1), n_p))
    b = np.multiply(a, stepper.half_drift)
    np.fft.irfft(b, n_r, axis=0, norm="ortho", out=x)
    np.fft.rfft(x, axis=1, norm="ortho", out=y)
    y *= stepper.kick
    np.fft.irfft(y, n_p, axis=1, norm="ortho", out=x)
    np.fft.rfft(x, axis=0, norm="ortho", out=b)
    b *= stepper.half_drift
    return _filtered(b, stepper.friction.matrix, stepper.cos_filter,
                     stepper.row_weights, plane)


def one_expression_phase_tables(grid: PhaseSpaceGrid, force: np.ndarray,
                                mu: float, dt: float, half: bool) \
        -> tuple[np.ndarray, np.ndarray]:
    """Half-drift and kick tables, each formed by one expression."""
    k_r, k_p = _zero_nyquist(grid.k_R), _zero_nyquist(grid.k_P)
    if half:
        n_r, n_p = grid.shape
        k_r, k_p = k_r[:n_r // 2 + 1], k_p[:n_p // 2 + 1]
    return (np.exp(-0.5j * dt * np.outer(k_r, _drift_momenta(grid)) / mu),
            np.exp(-1j * dt * np.outer(force, k_p)))


def traced_peak(fn, *args):
    """(fn(*args), peak bytes that tracemalloc saw allocated during it)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def full_history_crossings(pes: PesModel, mu: float, t_kelvin: float,
                           n_traj: int, t_sim: float, seed: int,
                           cfg: TstConfig, r_range: tuple[float, float],
                           dt: float = 2.0) -> CrossingResult:
    """Upward surface crossings counted over one recorded run of n_steps."""
    n_steps = max(1, int(round(t_sim / dt)))
    r0, p0 = canonical_sampler(pes, mu, kelvin_to_hartree(t_kelvin), n_traj,
                               seed, r_range)
    ens = verlet_ensemble(pes, mu, r0, p0, dt, n_steps, record_every=1)
    upward = (ens.R[:-1] < cfg.r_dividing) & (ens.R[1:] >= cfg.r_dividing)
    n_cross = int(np.count_nonzero(upward))
    denom = n_traj * n_steps * dt
    return CrossingResult(n_cross, n_cross / denom, 1.0 / denom)


def rp_verlet_blocks(pes: PesModel, mu: float, r0, p0, dt: float,
                     n_steps: int):
    """Blocks of _BLOCK steps, each a fresh `verlet_ensemble` with R and
    P that restarts from the last record of the one before."""
    r, p = r0, p0
    for start in range(0, n_steps, _BLOCK):
        ens = verlet_ensemble(pes, mu, r, p, dt, min(_BLOCK, n_steps - start))
        yield ens
        r, p = ens.R[-1], ens.P[-1]


def one_draw_langevin(pes: PesModel, mu: float, gamma: float, t: float,
                      dt: float, n_steps: int, n_traj: int, seed: int,
                      r0, p0=0.0) -> TrajectoryEnsemble:
    """Thermostated ensemble, every step recorded, with each trajectory's
    whole noise series drawn in one call before the first step."""
    r = np.broadcast_to(np.asarray(r0, dtype=float), (n_traj,)).copy()
    p = np.broadcast_to(np.asarray(p0, dtype=float), (n_traj,)).copy()
    c1 = np.exp(-gamma * dt)
    c2 = np.sqrt(mu * t * (1.0 - c1 * c1))
    noise = np.empty((n_steps, n_traj))
    for i in range(n_traj):
        noise[:, i] = trajectory_stream(seed, i).standard_normal(n_steps)
    out_r = np.empty((n_steps + 1, n_traj))
    out_p = np.empty((n_steps + 1, n_traj))
    out_r[0], out_p[0] = r, p
    f = pes.f(r)
    for step in range(n_steps):
        p = p + 0.5 * dt * f
        r = r + 0.5 * dt * p / mu
        p = c1 * p + c2 * noise[step]
        r = r + 0.5 * dt * p / mu
        f = pes.f(r)
        p = p + 0.5 * dt * f
        out_r[step + 1], out_p[step + 1] = r, p
    return TrajectoryEnsemble(times=np.arange(n_steps + 1) * dt, R=out_r,
                              P=out_p)


def full_grid_filter_bias(s: float, n_terms: int = 200,
                          n_points: int = 1 << 17,
                          kappa_max: float = 10.0) -> float:
    """The stationary filter bias with the cosine product taken on every
    kappa node, negative ones included."""
    y = np.exp(-s)
    sigma = np.sqrt(2.0 * (1.0 - y * y))
    kappa = np.linspace(-kappa_max, kappa_max, n_points + 1)
    psi = np.ones_like(kappa)
    for r in range(n_terms):
        psi *= np.cos(sigma * y ** r * kappa)
    ytail = y ** n_terms
    a_tail = sigma ** 2 * ytail ** 2 / (2.0 * (1.0 - y ** 2))
    b_tail = sigma ** 4 * ytail ** 4 / (12.0 * (1.0 - y ** 4))
    psi = psi * np.exp(-a_tail * kappa ** 2 - b_tail * kappa ** 4)
    dpsi = np.gradient(psi, kappa)
    num = np.trapezoid(dpsi * dpsi, kappa)
    den = np.trapezoid(psi * psi, kappa)
    return float(num / den - 1.0)


def concatenated_filter_bias(s: float, n_terms: int = 200,
                             n_points: int = 1 << 17,
                             kappa_max: float = 10.0) -> float:
    """The stationary filter bias on kappa >= 0, mirrored by
    concatenation, with every product, gradient and trapezoid on fresh
    arrays."""
    y = np.exp(-s)
    sigma = np.sqrt(2.0 * (1.0 - y * y))
    kappa = np.linspace(-kappa_max, kappa_max, n_points + 1)
    half = kappa[len(kappa) // 2:]
    psi = np.ones_like(half)
    factor = np.empty_like(half)
    for r in range(n_terms):
        np.multiply(sigma * y ** r, half, out=factor)
        psi *= np.cos(factor, out=factor)
    ytail = y ** n_terms
    a_tail = sigma ** 2 * ytail ** 2 / (2.0 * (1.0 - y ** 2))
    b_tail = sigma ** 4 * ytail ** 4 / (12.0 * (1.0 - y ** 4))
    psi = psi * np.exp(-a_tail * half ** 2 - b_tail * half ** 4)
    psi = np.concatenate((psi[::-1][:len(kappa) // 2], psi))
    dpsi = np.gradient(psi, kappa)
    num = np.trapezoid(dpsi * dpsi, kappa)
    den = np.trapezoid(psi * psi, kappa)
    return float(num / den - 1.0)


def two_step_pauli_force(table: PauliCoefficientTable):
    """F(r) = -a' + (b b' + c c') / sqrt(b^2 + c^2) from the values and
    first derivatives of all three spline columns, with no domain or gap
    check."""
    spline = _CubicTable(table.R, np.column_stack((table.a, table.b, table.c)))

    def f(r):
        (_, b, c), (a1, b1, c1) = spline(r, 1)
        return -a1 + (b * b1 + c * c1) / np.hypot(b, c)

    return f


def complex_bias_experiment(grid: PhaseSpaceGrid, params: LangevinParams,
                            n_steps_max: int = 20000, window: int = 50,
                            rel_tol: float = 1e-8) -> BiasResult:
    """`momentum_bias_experiment` with its Maxwell row held as complex:
    two real friction products and fft_P per step."""
    friction = FrictionOperator(grid, params.s)
    cos_filter = np.cos(params.sigma_h * grid.k_P)
    weight = grid.shape[0] * grid.cell

    p_sq = grid.P[None, :] ** 2
    row = np.exp(-p_sq / (4.0 * params.mu * params.t_int)).astype(complex)
    row /= np.sqrt(np.sum(np.abs(row) ** 2) * weight)

    history = []
    for step in range(1, n_steps_max + 1):
        row, _ = _filtered(row, friction.matrix, cos_filter,
                           np.array([weight]))
        t_kin = float(np.sum(np.abs(row) ** 2 * p_sq) * weight / params.mu)
        history.append(t_kin)
        if step > window:
            if abs(history[-1] - history[-1 - window]) < rel_tol * history[-1]:
                bias = (t_kin - params.t_int) / params.t_int
                return BiasResult(bias=bias, t_kin=t_kin, n_steps=step)
    raise ConvergenceError(
        f"kinetic temperature not stationary after {n_steps_max} steps")


def fejer_loop_reference(trajectories: TrajectoryEnsemble, cfg: QpeConfig,
                         window: str = "hann", pad_factor: int = 16,
                         r_mean: float | None = None) -> SpectrumResult:
    """Bin a trajectory-ensemble spectrum onto the readout grid.

    The centered coordinate subtracts r_mean, estimated from all samples
    (time and ensemble average) when not given. The windowed correlation
    transform is evaluated on a zero-padded frequency grid, and the
    finite-time kernel is 2*pi-periodic, so convolving over the full fine
    grid performs the fold into the readout window automatically. The
    result is normalized to unit total weight; branch_weight reports
    <Q^2>.
    """
    r = trajectories.R
    times = trajectories.times
    dt_rec = float(times[1] - times[0])

    q = r - (np.mean(r) if r_mean is None else r_mean)
    c_t = np.mean(q * q[0], axis=1)
    n_t = len(c_t)

    windowed = _WINDOWS[window](n_t) * c_t * dt_rec
    n_fine = pad_factor * n_t
    # L*ifft supplies the e^{+i omega t} transform convention
    amp = n_fine * np.fft.ifft(windowed, n=n_fine)
    s_fine = np.abs(amp) ** 2
    omega_fine = 2.0 * math.pi * np.arange(n_fine) / (n_fine * dt_rec)
    d_omega = omega_fine[1] - omega_fine[0]

    centers = cfg.bin_centers()
    binned = np.empty(cfg.n_bins)
    for j, w_j in enumerate(centers):
        binned[j] = np.sum(fejer_kernel((omega_fine - w_j) * cfg.tau, cfg.m)
                           * s_fine) * d_omega
    return SpectrumResult(omega_au=centers, prob=binned / binned.sum(),
                          branch="aimd", branch_weight=float(c_t[0]))


def diffusion_step(state: KvnState, sigma_h: float) -> tuple[KvnState, StepReport]:
    """Postselected cosine momentum filter (renormalization = postselection)."""
    g = state.grid
    amp, report = _filtered(state.amplitudes.astype(np.complex128), None,
                            np.cos(sigma_h * g.k_P),
                            np.full(g.shape[0], g.cell))
    return KvnState(amp, g), report


def qpe_spectrum(state: KvnState, pes: PesModel, mu: float, cfg: QpeConfig,
                 branch: str = "plus",
                 branch_weight: float = 1.0) -> SpectrumResult:
    """Readout distribution of the conservative evolution of `state`."""
    prop = NvePropagator(state.grid, pes, mu, cfg.tau / cfg.inner_steps)
    corr = prop.autocorrelation(state.amplitudes, cfg.n_bins, cfg.inner_steps)
    return SpectrumResult(omega_au=cfg.bin_centers(),
                          prob=qpe_distribution(corr, cfg),
                          branch=branch, branch_weight=branch_weight)


def minus_branch(state: KvnState, omega_ref: float, mu: float) \
        -> tuple[KvnState, float]:
    """The normalized minus branch (Q + i*Pi) psi, built directly, and
    its weight, the squared norm before normalization."""
    g = state.grid
    rho = np.abs(state.amplitudes) ** 2
    r_mean = float(np.sum(rho * g.R[:, None]) * g.cell)
    q = (g.R - r_mean)[:, None]
    pi = (g.P / (mu * omega_ref))[None, :]
    amps = (q + 1j * pi) * state.amplitudes
    w = float(np.sum(np.abs(amps) ** 2) * g.cell)
    return KvnState(amps / math.sqrt(w), g), w


def kvn_autocorrelation(eq_state: KvnState, pes: PesModel, mu: float,
                        dt: float, n_t: int) -> np.ndarray:
    """Centered-coordinate autocorrelation series under pure transport.

    Entry n is <psi|Q U^n Q|psi> at t = n*dt; entry 0 is <Q^2>, real and
    nonnegative.
    """
    g = eq_state.grid
    rho = np.abs(eq_state.amplitudes) ** 2
    r_mean = float(np.sum(rho * g.R[:, None]) * g.cell)
    q_amps = (g.R - r_mean)[:, None] * eq_state.amplitudes
    return NvePropagator(g, pes, mu, dt).autocorrelation(q_amps, n_t)


def fejer_kernel(theta, m: int):
    """Finite-time readout kernel, 2*pi-periodic, peak value 2^m."""
    n = 1 << m
    th = np.asarray(theta, dtype=float)
    half = 0.5 * th
    denom = np.sin(half)
    on_peak = np.isclose(np.abs(denom), 0.0, atol=1e-12)
    safe = np.where(on_peak, 1.0, denom)
    vals = (np.sin(n * half) / safe) ** 2 / n
    return np.where(on_peak, float(n), vals)


def mean_energy(state: KvnState, pes: PesModel, mu: float) -> float:
    """<P^2/2mu + V(R)> in hartree."""
    g = state.grid
    v, _ = tabulate_pes(pes, g.R)
    rho = density(state)
    return float(np.sum(rho * (g.P[None, :] ** 2 / (2.0 * mu)
                               + v[:, None])) * g.cell)


def ground_state_energy(a, b, c):
    """Lower eigenvalue a - sqrt(b^2 + c^2) of a I + b Z + c X."""
    return np.asarray(a) - np.hypot(np.asarray(b), np.asarray(c))


def histogram_density(r_samples: np.ndarray, p_samples: np.ndarray,
                      grid: PhaseSpaceGrid) -> np.ndarray:
    """Sample histogram on node-centered cells, normalized like a density.

    Out-of-range samples are dropped but still count in the normalization,
    mirroring a grid state that simply has no mass there.
    """
    r_edges = np.append(grid.R - 0.5 * grid.dR, grid.R[-1] + 0.5 * grid.dR)
    p_edges = np.append(grid.P - 0.5 * grid.dP, grid.P[-1] + 0.5 * grid.dP)
    counts, _, _ = np.histogram2d(r_samples, p_samples,
                                  bins=(r_edges, p_edges))
    return counts / (len(r_samples) * grid.cell)
