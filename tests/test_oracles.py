import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kvnmd.oracles as oracles
import kvnmd.propagator
from kvnmd.electronic import PesModel, bundled_h2_table, morse_pes, pauli_pes
from kvnmd.errors import MemoryBudgetError, SamplerWarning
from kvnmd.grid import build_grid
from kvnmd.oracles import (canonical_sampler, cos_filter_stationary_bias,
                           langevin_ensemble, langevin_memory_estimate,
                           sampler_memory_estimate, trajectory_stream,
                           verlet_blocks, verlet_ensemble)
from reference_steps import (concatenated_filter_bias, full_grid_filter_bias,
                             histogram_density, one_draw_langevin,
                             rp_verlet_blocks, traced_peak, verlet_trajectory)

MORSE = morse_pes(de=0.1744, alpha=1.02764, re=1.40201)
H2 = pauli_pes(bundled_h2_table())
MU = 918.0


def harmonic(mu: float, omega: float, re: float = 0.0) -> PesModel:
    k = mu * omega * omega
    return PesModel(kind="harmonic", domain=(-math.inf, math.inf),
                    v=lambda r: 0.5 * k * (np.asarray(r, float) - re) ** 2,
                    f=lambda r: -k * (np.asarray(r, float) - re))


def total_energy(pes, mu, r, p):
    return pes.v(r) + p ** 2 / (2.0 * mu)


class TestVerlet:
    def test_energy_error_stays_bounded_on_morse(self):
        # symplectic: energy oscillates at O((omega*dt)^2) with no drift
        times, r, p = verlet_trajectory(MORSE, MU, r0=1.7, p0=0.0,
                                        dt=2.0, n_steps=4000)
        e = total_energy(MORSE, MU, r, p)
        rel = np.abs(e - e[0]) / abs(e[0])
        assert np.max(rel) < 1e-3
        # first and last quarter see the same error envelope
        assert np.max(rel[3000:]) < 2.0 * max(np.max(rel[:1000]), 1e-6)

    def test_matches_adaptive_reference_integrator(self):
        # independent reference: high-order adaptive ODE solve
        def rhs(t, y):
            return [y[1] / MU, float(MORSE.f(y[0]))]

        t_end = 800.0
        sol = solve_ivp(rhs, (0.0, t_end), [1.7, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        errs = []
        for dt in (2.0, 1.0):
            n = int(round(t_end / dt))
            _, r, _ = verlet_trajectory(MORSE, MU, 1.7, 0.0, dt, n)
            errs.append(abs(r[-1] - sol.sol(t_end)[0]))
        ratio = errs[0] / errs[1]
        assert 3.4 < ratio < 4.6  # second order in the time step

    def test_recording_stride_keeps_first_and_last_step(self):
        ens = verlet_ensemble(MORSE, MU, 1.6, 0.0, dt=1.0, n_steps=100,
                              record_every=7)
        assert ens.times[0] == 0.0
        assert ens.times[-1] == pytest.approx(100.0)
        assert ens.R.shape == (len(ens.times), 1)

    def test_preflight_refuses_before_recording(self, monkeypatch):
        # the aimd reference of a vdos run at m = 16: R and P for
        # 8 x 2^16 + 1 records of 256 trajectories, about 2 GiB
        n_steps, n_traj = 8 << 16, 256
        need = 2 * 8 * (n_steps + 1) * n_traj
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)

        def refused():
            with pytest.raises(MemoryBudgetError, match="verlet_ensemble"):
                verlet_ensemble(MORSE, MU, np.full(n_traj, 1.4),
                                np.zeros(n_traj), dt=1.0, n_steps=n_steps)

        _, peak = traced_peak(refused)
        assert peak < need // 100  # the record indices, 8 B per record

    def test_preflight_passes_at_the_request(self, monkeypatch):
        need = 2 * 8 * 11 * 3  # R and P, 11 records of 3 trajectories
        r0 = np.array([1.5, 1.7, 2.0])
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        verlet_ensemble(MORSE, MU, r0, np.zeros(3), dt=1.0, n_steps=10)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        with pytest.raises(MemoryBudgetError):
            verlet_ensemble(MORSE, MU, r0, np.zeros(3), dt=1.0, n_steps=10)

    def test_vectorizes_over_initial_conditions(self):
        r0 = np.array([1.5, 1.7, 2.0])
        ens = verlet_ensemble(MORSE, MU, r0, np.zeros(3), dt=1.0, n_steps=50)
        assert ens.R.shape[1] == 3
        for i, r in enumerate(r0):
            _, ri, pi = verlet_trajectory(MORSE, MU, float(r), 0.0, 1.0, 50)
            np.testing.assert_array_equal(ens.R[:, i], ri)
            np.testing.assert_array_equal(ens.P[:, i], pi)


@pytest.mark.parametrize("n_steps", [1, 255, 256, 257, 640])
def test_verlet_blocks_repeat_one_run(n_steps):
    # blocks of _BLOCK steps, each starting from the last record of the
    # one before, hold the R records of one run and of the previous (R, P)
    # blocks bit for bit; they share one array, so each is copied as it
    # comes
    r0 = np.linspace(1.3, 1.7, 5)
    p0 = np.linspace(-4.0, 4.0, 5)
    full = verlet_ensemble(MORSE, MU, r0, p0, dt=1.0, n_steps=n_steps)
    views = []
    blocks = []
    for b in verlet_blocks(MORSE, MU, r0, p0, dt=1.0, n_steps=n_steps):
        assert b.P is None
        views.append(b.R)
        blocks.append((b.times.copy(), b.R.copy()))
    assert all(np.shares_memory(v, views[0]) for v in views)
    assert [len(r) - 1 for _, r in blocks] == \
        [min(oracles._BLOCK, n_steps - s)
         for s in range(0, n_steps, oracles._BLOCK)]
    for (_, prev), (_, nxt) in zip(blocks, blocks[1:]):
        np.testing.assert_array_equal(prev[-1], nxt[0])
    joined_r = np.concatenate([blocks[0][1]] + [r[1:] for _, r in blocks[1:]])
    joined_t = np.concatenate([blocks[0][0]] + [t[1:] for t, _ in blocks[1:]])
    np.testing.assert_array_equal(joined_r, full.R)
    np.testing.assert_array_equal(joined_t, full.times)
    old = list(rp_verlet_blocks(MORSE, MU, r0, p0, dt=1.0, n_steps=n_steps))
    assert len(old) == len(blocks)
    for ens, (_, r) in zip(old, blocks):
        np.testing.assert_array_equal(ens.R, r)


@pytest.mark.parametrize("pes", [MORSE, H2], ids=["morse", "h2"])
@pytest.mark.parametrize("n_traj, n_steps", [(512, 10_000), (64, 3000),
                                             (8, 100)])
def test_verlet_blocks_peak_stays_within_the_estimate(pes, n_traj, n_steps):
    # one R block and the step's vectors, at any run length; 16 KiB for
    # numpy's small objects
    r0 = np.linspace(1.3, 1.7, n_traj)
    p0 = np.linspace(-4.0, 4.0, n_traj)

    def drain():
        for _ in verlet_blocks(pes, MU, r0, p0, 1.0, n_steps):
            pass

    _, peak = traced_peak(drain)
    assert peak <= oracles.verlet_blocks_memory_estimate(n_steps, n_traj) \
        + 2 ** 14


def test_verlet_blocks_preflight_refuses_before_the_block(monkeypatch):
    need = oracles.verlet_blocks_memory_estimate(640, 1000)
    r0 = np.full(1000, 1.4)
    monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                        lambda: need - 1)
    with pytest.raises(MemoryBudgetError, match="verlet_blocks"):
        next(verlet_blocks(MORSE, MU, r0, 0.0, 1.0, 640))
    monkeypatch.setattr(kvnmd.propagator, "_available_memory", lambda: need)
    assert next(verlet_blocks(MORSE, MU, r0, 0.0, 1.0, 640)).R.shape == \
        (oracles._BLOCK + 1, 1000)


@pytest.mark.parametrize("integrator", ["verlet", "langevin"])
def test_integrators_leave_the_callers_arrays_untouched(integrator):
    # both step their own copies of R and P in place
    r0 = np.linspace(1.3, 1.7, 5)
    p0 = np.linspace(-4.0, 4.0, 5)
    kept_r, kept_p = r0.copy(), p0.copy()
    if integrator == "verlet":
        ens = verlet_ensemble(MORSE, MU, r0, p0, dt=1.0, n_steps=20)
    else:
        ens = langevin_ensemble(MORSE, MU, gamma=0.01, t=0.003, dt=1.0,
                                n_steps=20, n_traj=5, seed=3, r0=r0, p0=p0)
    assert not np.array_equal(ens.R[-1], kept_r)
    np.testing.assert_array_equal(r0, kept_r)
    np.testing.assert_array_equal(p0, kept_p)


class TestLangevin:
    def test_zero_friction_reduces_to_verlet_exactly(self):
        r0 = np.array([1.5, 1.8])
        ref = verlet_ensemble(MORSE, MU, r0, np.zeros(2), dt=1.0, n_steps=200)
        got = langevin_ensemble(MORSE, MU, gamma=0.0, t=0.003, dt=1.0,
                                n_steps=200, n_traj=2, seed=11, r0=r0)
        np.testing.assert_array_equal(got.R, ref.R)
        np.testing.assert_array_equal(got.P, ref.P)

    def test_reproducible_and_chunking_independent(self, monkeypatch):
        kwargs = dict(pes=MORSE, mu=MU, gamma=0.01, t=0.003, dt=1.0,
                      n_steps=40, n_traj=9, seed=5, r0=1.6)
        a = langevin_ensemble(**kwargs)
        monkeypatch.setattr(oracles, "_NOISE_BLOCK", 3)
        b = langevin_ensemble(**kwargs)
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.P, b.P)

    def test_blocks_match_one_noise_draw(self):
        # three noise blocks and a remainder, drawn block by block from the
        # per-trajectory streams, against each series drawn in one call
        kwargs = dict(pes=MORSE, mu=MU, gamma=0.02, t=0.003, dt=0.5,
                      n_steps=3 * oracles._NOISE_BLOCK + 17, n_traj=6,
                      seed=11,
                      r0=1.40201)
        got = langevin_ensemble(**kwargs)
        ref = one_draw_langevin(**kwargs)
        np.testing.assert_array_equal(got.times, ref.times)
        np.testing.assert_array_equal(got.R, ref.R)
        np.testing.assert_array_equal(got.P, ref.P)

    def test_noise_streams_keyed_by_trajectory_index(self):
        a = trajectory_stream(seed=7, index=3).standard_normal(4)
        b = trajectory_stream(seed=7, index=3).standard_normal(4)
        c = trajectory_stream(seed=7, index=4).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_equilibrates_to_target_temperature(self):
        mu, omega, t = 1.0, 1.0, 0.5
        pes = harmonic(mu, omega)
        ens = langevin_ensemble(pes, mu, gamma=0.5, t=t, dt=0.05,
                                n_steps=4000, n_traj=512, seed=3, r0=0.0,
                                record_every=20)
        burn = len(ens.times) // 4
        t_kin = np.mean(ens.P[burn:] ** 2) / mu
        t_conf = mu * omega ** 2 * np.mean(ens.R[burn:] ** 2)
        assert t_kin == pytest.approx(t, rel=0.03)
        assert t_conf == pytest.approx(t, rel=0.03)

    @pytest.mark.parametrize("n_traj, n_steps, record_every",
                             [(64, 100, 25), (1000, 600, 20), (100, 700, 1)])
    def test_peak_stays_within_the_estimate(self, n_traj, n_steps,
                                            record_every):
        # one noise block is reused; 64 KiB for numpy's and the PES's
        # temporaries
        args = (MORSE, MU, 0.02, 0.003, 0.5, n_steps, n_traj, 11, 1.40201,
                0.0, record_every)
        langevin_ensemble(*args)
        _, peak = traced_peak(langevin_ensemble, *args)
        assert peak <= langevin_memory_estimate(n_steps, n_traj,
                                                record_every) + 2 ** 16

    def test_preflight_refuses_before_allocating(self, monkeypatch):
        # the shipped oracle run at 100 times its trajectories: records,
        # noise and Generators for 10^5 trajectories, about 0.57 GB
        n_steps, n_traj = 2000, 100_000
        need = langevin_memory_estimate(n_steps, n_traj, 20)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)

        def refused():
            with pytest.raises(MemoryBudgetError,
                               match="langevin_ensemble"):
                langevin_ensemble(MORSE, MU, 0.02, 0.003, 0.5, n_steps,
                                  n_traj, 11, 1.40201, 0.0, 20)

        _, peak = traced_peak(refused)
        assert peak < 2 ** 16
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: langevin_memory_estimate(3, 2))
        assert langevin_ensemble(MORSE, MU, 0.02, 0.003, 0.5, 3, 2, 11,
                                 1.40201).R.shape == (4, 2)


class TestCanonicalSampler:
    def test_harmonic_moments(self):
        mu, omega, t = 918.0, 0.02, 0.004
        pes = harmonic(mu, omega, re=1.4)
        r, p = canonical_sampler(pes, mu, t, n_samples=40000, seed=2,
                                 r_range=(0.2, 2.6))
        assert r.shape == p.shape == (40000,)
        assert np.mean(r) == pytest.approx(1.4, abs=0.005)
        assert np.var(r) == pytest.approx(t / (mu * omega ** 2), rel=0.05)
        assert np.mean(p) == pytest.approx(0.0, abs=3.0 * math.sqrt(mu * t / 40000))
        assert np.var(p) == pytest.approx(mu * t, rel=0.05)

    def test_boltzmann_weight_between_two_wells(self):
        # two disjoint flat wells with a known energy offset
        dv = 0.006
        t = 0.003

        def v(r):
            r = np.asarray(r, float)
            return np.where(r < 0.0, 0.0, dv) + 0.0 * r

        pes = PesModel(kind="wells", domain=(-math.inf, math.inf), v=v,
                       f=lambda r: 0.0 * np.asarray(r, float))
        r, _ = canonical_sampler(pes, 918.0, t, n_samples=20000, seed=9,
                                 r_range=(-1.0, 1.0))
        frac_right = np.mean(r >= 0.0)
        expected = math.exp(-dv / t) / (1.0 + math.exp(-dv / t))
        assert frac_right == pytest.approx(expected, abs=0.02)

    def test_warns_when_acceptance_rate_is_pathological(self):
        # a spike potential much narrower than any reachable step size
        pes = harmonic(1.0, 3.0e4)
        with pytest.warns(SamplerWarning):
            canonical_sampler(pes, 1.0, 1.0e-4, n_samples=64, seed=1,
                              r_range=(-50.0, 50.0))

    @pytest.mark.parametrize("n_samples", [1, 64, 1000, 30000])
    def test_peak_stays_within_the_estimate(self, n_samples):
        canonical_sampler(MORSE, MU, 0.003, 64, 11, (0.8, 3.0))
        _, peak = traced_peak(canonical_sampler, MORSE, MU, 0.003,
                              n_samples, 11, (0.8, 3.0))
        assert peak <= sampler_memory_estimate(n_samples)

    def test_preflight_refuses_before_allocating(self, monkeypatch):
        n_samples = 10 ** 8  # 1.6 GB of samples
        monkeypatch.setattr(
            kvnmd.propagator, "_available_memory",
            lambda: sampler_memory_estimate(n_samples) - 1)

        def refused():
            with pytest.raises(MemoryBudgetError,
                               match="canonical_sampler"):
                canonical_sampler(MORSE, MU, 0.003, n_samples, 11,
                                  (0.8, 3.0))

        _, peak = traced_peak(refused)
        assert peak < 2 ** 16
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: sampler_memory_estimate(64))
        r, p = canonical_sampler(MORSE, MU, 0.003, 64, 11, (0.8, 3.0))
        assert r.shape == p.shape == (64,)


class TestHistogramDensity:
    def test_counts_land_in_node_centered_cells(self):
        grid = build_grid(3, 3, (0.0, 8.0), (-4.0, 4.0))
        r = np.array([0.0, 0.4, 1.0, 7.4])
        p = np.array([-4.0, -4.0, 0.2, 3.4])
        rho = histogram_density(r, p, grid)
        assert rho.shape == grid.shape
        # node spacing is 1.0 in both axes; cells are node +- 1/2
        assert rho[0, 0] * grid.cell == pytest.approx(2 / 4)
        assert rho[1, 4] * grid.cell == pytest.approx(1 / 4)
        assert rho[7, 7] * grid.cell == pytest.approx(1 / 4)

    def test_out_of_range_samples_lower_total_mass(self):
        grid = build_grid(3, 3, (0.0, 8.0), (-4.0, 4.0))
        r = np.array([1.0, 1.0, 100.0, 1.0])
        p = np.array([0.0, 0.0, 0.0, 9.0])
        rho = histogram_density(r, p, grid)
        assert np.sum(rho) * grid.cell == pytest.approx(0.5)


class TestCosFilterStationaryBias:
    def test_frozen_values(self):
        assert cos_filter_stationary_bias(0.005) == pytest.approx(
            2.5103977e-3, rel=1e-5)
        assert cos_filter_stationary_bias(0.01) == pytest.approx(
            5.0420084e-3, rel=1e-5)
        assert cos_filter_stationary_bias(0.05) == pytest.approx(
            2.6089752e-2, rel=1e-5)

    @pytest.mark.parametrize("s, n_points", [
        (0.005, 1 << 17), (0.01, 1 << 17), (0.05, 1 << 17), (0.01, 1 << 15)])
    def test_even_half_matches_full_grid(self, s, n_points):
        # power-of-two grids are exactly antisymmetric and cos is exactly
        # even, so the mirrored half changes no bit
        assert cos_filter_stationary_bias(s, n_points=n_points) == \
            full_grid_filter_bias(s, n_points=n_points)

    def test_approaches_half_tanh_for_weak_friction(self):
        for s in (0.001, 0.005, 0.02):
            ratio = cos_filter_stationary_bias(s) / (0.5 * math.tanh(s))
            assert 1.0 < ratio < 1.02

    @pytest.mark.parametrize("s, kwargs", [
        (0.005, {}), (0.01, {}), (0.05, {}), (0.01, {"n_points": 1 << 15}),
        (0.01, {"n_terms": 400, "n_points": 1 << 18, "kappa_max": 12.0})])
    def test_matches_the_concatenated_product_bit_for_bit(self, s, kwargs):
        # the mirror written in place, the tail factor, the squares and the
        # trapezoids in reused buffers change no operation
        assert repr(cos_filter_stationary_bias(s, **kwargs)) == \
            repr(concatenated_filter_bias(s, **kwargs))

    def test_peak_of_the_shipped_quadrature(self):
        # 2^17 + 1 nodes: kappa, the mirrored product and np.gradient's
        # temporaries; the concatenated form peaked at 6.5 MiB
        _, peak = traced_peak(cos_filter_stationary_bias, 0.01)
        assert peak <= 5.1 * 2 ** 20

    def test_insensitive_to_quadrature_settings(self):
        # refinement moves the value by ~3e-6 relative, far below the
        # percent-level comparisons this oracle backs
        a = cos_filter_stationary_bias(0.01)
        b = cos_filter_stationary_bias(0.01, n_terms=400,
                                       n_points=1 << 18, kappa_max=12.0)
        assert a == pytest.approx(b, rel=1e-4)
