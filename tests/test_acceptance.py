"""End-to-end acceptance gates.

One test per release criterion, each a single pass/fail line under
``pytest -v``. These run the shipped example configurations through the
command line entry point where a criterion names that interface, and the
library directly otherwise. Tolerances are frozen here; loosening them is
a release decision, not a test fix.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from kvnmd.cli import main
from kvnmd.constants import kelvin_to_hartree
from kvnmd.diagnostics import mean_R, relax
from kvnmd.electronic import PesModel, morse_pes
from kvnmd.grid import (KvnState, build_grid, density, encode_gaussian,
                        norm_squared)
from kvnmd.oracles import langevin_ensemble
from kvnmd.propagator import NvePropagator, calibrate
from kvnmd.tst import TstConfig, arrhenius_sweep, tst_rate
from kvnmd.vdos import QpeConfig, prepare_branch_states, qpe_distribution
from reference_steps import (fejer_kernel, histogram_density, minus_branch,
                             step_autocorrelation, verlet_trajectory)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MU = 918.0


def run_shipped_config(name, tmp_path, seed=None):
    out = tmp_path / "out"
    args = ["--config", str(CONFIG_DIR / name), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    start = time.perf_counter()
    code = main(args)
    return code, out, time.perf_counter() - start


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def harmonic_pes(mu, omega, re) -> PesModel:
    k = mu * omega * omega
    arr = lambda r: np.asarray(r, float)
    return PesModel(kind="harmonic", domain=(-math.inf, math.inf),
                    v=lambda r: 0.5 * k * (arr(r) - re) ** 2,
                    f=lambda r: -k * (arr(r) - re),
                    curvature=lambda r: k * np.ones_like(arr(r)))


def plateau_barrier(v_b=0.15, b=0.5) -> PesModel:
    """Barrier with a wide flat top so the surface delta sees constant V."""
    def v(r):
        return v_b * np.exp(-(np.asarray(r, float) / b) ** 8)

    def f(r):
        r = np.asarray(r, float)
        u = (r / b) ** 8
        return v_b * np.exp(-u) * 8.0 * r ** 7 / b ** 8

    def curv(r):
        r = np.asarray(r, float)
        u = (r / b) ** 8
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r == 0.0, 0.0,
                            v_b * np.exp(-u) * (64 * u * u - 56 * u) / r ** 2)

    return PesModel(kind="plateau-barrier", domain=(-math.inf, math.inf),
                    v=v, f=f, curvature=curv)


def closed_form_rate(pes, t_kelvin, r_lo, r_div, v_barrier):
    t = kelvin_to_hartree(t_kelvin)
    r = np.linspace(r_lo, r_div, 8192)
    z_reactant = np.trapezoid(np.exp(-pes.v(r) / t), r)
    return (math.sqrt(t / (2 * math.pi * MU)) * math.exp(-v_barrier / t)
            / z_reactant)


def test_criterion_1_momentum_bias_law(tmp_path):
    # free-particle thermostat on a 1024-point momentum grid: the measured
    # relative kinetic-temperature excess matches half-tanh(s) within 10%
    # and the truncated-product stationary value within 1%, in under 10 s
    code, out, wall = run_shipped_config("bias_check.ini", tmp_path)
    assert code == 0
    rows = read_csv(out / "bias_check.csv")
    assert [float(r["s"]) for r in rows] == [0.005, 0.01, 0.05]
    for row in rows:
        assert row["status"] == "PASS"
        assert float(row["rel_err_predicted"]) <= 0.10
        assert float(row["rel_err_oracle"]) <= 0.01
    assert wall < 10.0


def test_criterion_2_canonical_relaxation(tmp_path):
    # displaced hydrogen packet on the bundled surface, 128x128 grid,
    # 947 K, gamma 0.02, dt 0.5 with correction: by 48.4 fs the packet
    # sits at 0.74 +/- 0.03 angstrom, within 5% of 947 K, and the
    # divergence from the canonical reference has fallen below 0.1 nats
    code, out, wall = run_shipped_config("relax_h2.ini", tmp_path)
    assert code == 0
    rows = read_csv(out / "relax_trace.csv")
    first, last = rows[0], rows[-1]
    assert float(last["time_fs"]) == pytest.approx(48.4, abs=0.1)
    assert abs(float(last["mean_R_angstrom"]) - 0.74) <= 0.03
    assert abs(float(last["T_kin_K"]) - 947.0) / 947.0 <= 0.05
    assert float(first["D_KL_nats"]) > 1.0
    assert float(last["D_KL_nats"]) <= 0.1
    assert wall < 300.0


def test_criterion_3_thermostat_free_transport_integrity():
    # unitary transport: norm drift below 1e-10 over 1e4 steps, and the
    # packet-center error against a fine velocity-Verlet oracle shrinks
    # as dt^2 (fitted order 2.0 +/- 0.1)
    pes = morse_pes(de=0.1744, alpha=1.02764, re=1.40201)
    grid = build_grid(6, 6, (0.5, 4.5), (-22.0, 22.0))
    prop = NvePropagator(grid, pes, MU, 0.5)
    st = encode_gaussian(grid, 1.8, 0.0, 0.2, 2.0)
    for _ in range(10_000):
        st = prop.step(st)
    assert abs(norm_squared(st) - 1.0) < 1e-10

    omega, re, r0, t_end = 0.02, 1.4, 1.55, 320.0
    hpes = harmonic_pes(MU, omega, re)
    hgrid = build_grid(7, 7, (0.2, 2.6), (-26.0, 26.0))
    _, r_oracle, _ = verlet_trajectory(hpes, MU, r0, 0.0, 0.0125,
                                       int(t_end / 0.0125))
    exact = float(r_oracle[-1])
    errs = []
    dts = (4.0, 2.0, 1.0)
    for dt in dts:
        packet = encode_gaussian(hgrid, r0, 0.0, 0.08, 2.2)
        stepper = NvePropagator(hgrid, hpes, MU, dt)
        for _ in range(int(round(t_end / dt))):
            packet = stepper.step(packet)
        errs.append(abs(mean_R(packet) - exact))
    order, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    assert order == pytest.approx(2.0, abs=0.1)


def test_criterion_4_phase_estimation_kernel_fidelity():
    # an off-bin eigenstate lands on the Fejer kernel to 1e-10 per bin,
    # the readout distribution is normalized to 1e-10, and the two
    # branch preparations of a real state carry identical weight
    cfg = QpeConfig(m=7, tau=2.0, omega_shift=0.05)
    grid = build_grid(3, 3, (0.0, 1.0), (-1.0, 1.0))
    st = encode_gaussian(grid, 0.5, 0.0, 0.26, 0.5)
    omega = cfg.bin_centers()[19] + 0.31 * cfg.bin_width
    phase = np.exp(-1j * omega * cfg.tau)
    corr = step_autocorrelation(
        st, lambda s: KvnState(phase * s.amplitudes, s.grid),
        cfg.n_bins)
    prob = qpe_distribution(corr, cfg)
    ref = fejer_kernel((omega - cfg.bin_centers()) * cfg.tau,
                       cfg.m) / cfg.n_bins
    np.testing.assert_allclose(prob, ref, atol=1e-10)
    assert abs(prob.sum() - 1.0) < 1e-10

    wgrid = build_grid(6, 6, (0.5, 3.5), (-20.0, 20.0))
    real_state = encode_gaussian(wgrid, 1.5, 0.0, 0.2, 2.0)
    _, w_plus = prepare_branch_states(real_state, 0.02, MU)
    _, w_minus = minus_branch(real_state, 0.02, MU)
    assert abs(w_plus - w_minus) < 1e-10 * w_plus


def test_criterion_5_vibrational_spectrum_agreement(tmp_path):
    # bundled hydrogen table, 1024x1024 grid, 7-bit readout at 300 K:
    # the positive-branch peak bin must equal the classical-ensemble
    # reference peak bin; the absolute wavenumber is reported, not gated
    code, out, wall = run_shipped_config("vdos_h2.ini", tmp_path)
    assert code == 0
    meta = json.loads((out / "vdos_meta.json").read_text())
    plus, aimd = meta["peaks"]["plus"], meta["peaks"]["aimd"]
    assert plus["bin"] == aimd["bin"]
    assert plus["bin"] > 0
    print(f"reported fundamental: {plus['omega_cm1']:.2f} cm^-1 "
          f"(bin {plus['bin']}, width {meta['bin_width_au']:.2e} au)")
    assert wall < 600.0


def test_criterion_6_rate_constant_correctness():
    # toy-barrier rate within 2% of the quadrature closed form at three
    # temperatures, fitted activation energy within 10% of the barrier
    # height, and grid refinement moving the rate by less than 1%
    pes = plateau_barrier(v_b=0.15, b=0.5)
    grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
    temps = (2500.0, 5000.0, 10000.0)
    cfg = TstConfig(r_dividing=0.0, temperatures=temps)
    for t_kelvin in temps:
        res = tst_rate(grid, pes, MU, t_kelvin, TstConfig(r_dividing=0.0))
        ref = closed_form_rate(pes, t_kelvin, -3.0, 0.0, 0.15)
        assert res.k_au == pytest.approx(ref, rel=0.02)

    fit = arrhenius_sweep(grid, pes, MU, cfg)
    assert fit.activation_energy == pytest.approx(0.15, rel=0.10)

    sigma_cfg = TstConfig(r_dividing=0.0, sigma=0.1)
    coarse = tst_rate(grid, pes, MU, 5000.0, sigma_cfg).k_au
    fine = tst_rate(build_grid(10, 10, (-3.0, 3.0), (-33.0, 33.0)),
                    pes, MU, 5000.0, sigma_cfg).k_au
    assert abs(coarse - fine) / fine < 0.01


def test_criterion_7_detection_floor_ordering(tmp_path):
    # at 2500 K the grid flux estimator resolves a rate (~1e-11 au) that
    # sits far below the trajectory detection floor (~1e-7 au), so the
    # counting reference returns exactly zero crossings
    code, out, wall = run_shipped_config("tst_h2.ini", tmp_path)
    assert code == 0
    rates = read_csv(out / "tst_rates.csv")
    coldest = min(rates, key=lambda r: float(r["T_kelvin"]))
    crossing = read_csv(out / "crossing.csv")[0]
    k_flux = float(coldest["k_au"])
    k_cross = float(crossing["k_cross"])
    k_min = float(crossing["k_min"])
    assert k_flux > 0.0 == k_cross
    assert int(crossing["N_cross"]) == 0
    assert k_min == pytest.approx(1.0 / (512 * 20000.0), rel=1e-12)
    assert k_flux < k_min  # the floor explains the zero count


def test_criterion_8_thermostat_matches_trajectory_ensemble():
    # long-run filtered-thermostat density against a 1e5-trajectory
    # BAOAB ensemble histogram on the Morse model: total variation < 0.05
    pes = morse_pes(de=0.1744, alpha=1.02764, re=1.40201)
    grid = build_grid(7, 7, (0.5, 4.5), (-42.5, 42.5))
    t_phys = kelvin_to_hartree(947.0)
    params = calibrate(mu=MU, gamma=0.02, dt=0.5, t_phys=t_phys)
    st = encode_gaussian(grid, 1.40201, 0.0, 0.15, 1.66)
    _, final, _ = relax(st, pes, params, n_steps=4000, record_every=4000)
    rho_grid = density(final)

    ens = langevin_ensemble(pes, MU, 0.02, t_phys, 0.5, n_steps=4000,
                            n_traj=100_000, seed=42, r0=1.40201,
                            record_every=4000)
    rho_samples = histogram_density(ens.R[-1], ens.P[-1], grid)
    tv = 0.5 * float(np.sum(np.abs(rho_grid - rho_samples)) * grid.cell)
    assert tv < 0.05
