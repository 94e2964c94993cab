import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnmd.constants import SECONDS_PER_AU_TIME, kelvin_to_hartree
from kvnmd.diagnostics import (CanonicalDensity, canonical_reference,
                               kinetic_temperature)
from kvnmd.electronic import PesModel, bundled_h2_table, morse_pes, pauli_pes
from kvnmd.errors import (ConfigurationError, MemoryBudgetError,
                          ResolutionError)
from kvnmd.grid import KvnState, build_grid, encode_gaussian
from kvnmd.oracles import canonical_sampler, verlet_blocks
import kvnmd.propagator
from kvnmd.tst import (_BLOCK, TAIL_SHARE_LIMIT, ArrheniusFit, TstConfig,
                       _surface_weights, analytic_canonical_state,
                       arrhenius_sweep, crossing_memory_estimate,
                       crossing_reference, tst_rate)
from kvnmd.vdos import _trajectory_correlation
from reference_steps import (dividing_surface_flux, full_history_crossings,
                             reactant_population, rp_verlet_blocks,
                             table_canonical_reference, traced_peak)

MU = 918.0
TEMPS = (2500.0, 5000.0, 10000.0)


def plateau_barrier(v_b=0.15, b=0.5) -> PesModel:
    """Barrier with a wide flat top so the surface delta sees constant V."""
    def v(r):
        return v_b * np.exp(-(np.asarray(r, float) / b) ** 8)

    def f(r):
        r = np.asarray(r, float)
        u = (r / b) ** 8
        return v_b * np.exp(-u) * 8.0 * r ** 7 / b ** 8

    return PesModel(kind="plateau-barrier", domain=(-math.inf, math.inf),
                    v=v, f=f)


def double_well(v_b=0.01, a=1.0) -> PesModel:
    def v(r):
        return v_b * ((np.asarray(r, float) / a) ** 2 - 1.0) ** 2

    def f(r):
        r = np.asarray(r, float)
        return -4.0 * v_b * r * ((r / a) ** 2 - 1.0) / a ** 2

    return PesModel(kind="double-well", domain=(-math.inf, math.inf),
                    v=v, f=f)


def flat_pes() -> PesModel:
    zero = lambda r: np.zeros_like(np.asarray(r, float))
    return PesModel(kind="flat", domain=(-math.inf, math.inf),
                    v=zero, f=zero)


def closed_form_rate(pes, t_kelvin, r_lo, r_div, v_barrier):
    # 8192-point quadrature for the reactant partition integral
    t = kelvin_to_hartree(t_kelvin)
    r = np.linspace(r_lo, r_div, 8192)
    z_reactant = np.trapezoid(np.exp(-pes.v(r) / t), r)
    return (math.sqrt(t / (2 * math.pi * MU)) * math.exp(-v_barrier / t)
            / z_reactant)


class TestAnalyticCanonicalState:
    def test_density_is_canonical_reference(self):
        grid = build_grid(6, 6, (0.5, 2.5), (-20.0, 20.0))
        pes = morse_pes(0.1744, 1.02764, 1.40201)
        t = kelvin_to_hartree(2500.0)
        state = analytic_canonical_state(grid, pes, MU, t)
        rho = canonical_reference(grid, pes, MU, t)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, rho,
                                   rtol=1e-14, atol=0.0)
        assert np.all(state.amplitudes.imag == 0.0)
        assert np.all(state.amplitudes.real >= 0.0)

    def test_zero_phase_tables_are_real(self):
        # the canonical state and the Gaussian packet carry no phase and
        # are built as float64, half the bytes of a complex table
        grid = build_grid(6, 6, (0.5, 2.5), (-20.0, 20.0))
        pes = morse_pes(0.1744, 1.02764, 1.40201)
        state = analytic_canonical_state(grid, pes, MU,
                                         kelvin_to_hartree(2500.0))
        packet = encode_gaussian(grid, 1.4, 2.0, 0.1, 2.0)
        assert state.amplitudes.dtype == np.float64
        assert packet.amplitudes.dtype == np.float64

    def test_encoded_temperature(self):
        grid = build_grid(7, 7, (0.5, 2.5), (-33.0, 33.0))
        pes = morse_pes(0.1744, 1.02764, 1.40201)
        t = kelvin_to_hartree(2500.0)
        state = analytic_canonical_state(grid, pes, MU, t)
        assert kinetic_temperature(state, MU) == pytest.approx(t, rel=0.01)


class TestSurfaceFlux:
    def test_flat_potential_matches_maxwell_half_moment(self):
        grid = build_grid(7, 7, (-2.0, 2.0), (-33.0, 33.0))
        cfg = TstConfig(r_dividing=0.0)
        for t_kelvin in TEMPS:
            t = kelvin_to_hartree(t_kelvin)
            flux = tst_rate(grid, flat_pes(), MU, t_kelvin, cfg).flux_au
            ref = math.sqrt(t / (2 * math.pi * MU)) / 4.0  # marginal 1/L
            assert flux == pytest.approx(ref, rel=0.01)

    def test_negative_momentum_support_gives_zero_flux(self):
        grid = build_grid(6, 6, (-2.0, 2.0), (-20.0, -0.5))
        res = tst_rate(grid, flat_pes(), MU, 5000.0, TstConfig(0.0))
        assert res.flux_au == 0.0 and res.population > 0.0

    def test_flux_positive_on_canonical_state(self):
        grid = build_grid(6, 6, (-2.0, 2.0), (-20.0, 20.0))
        assert tst_rate(grid, double_well(), MU, 5000.0,
                        TstConfig(0.0)).flux_au > 0.0

    def test_surface_outside_grid_rejected(self):
        grid = build_grid(5, 5, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ConfigurationError):
            tst_rate(grid, flat_pes(), MU, 5000.0, TstConfig(r_dividing=2.5))

    def test_under_resolved_width_rejected(self):
        grid = build_grid(5, 5, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ResolutionError):
            tst_rate(grid, flat_pes(), MU, 5000.0,
                     TstConfig(0.0, sigma=0.5 * grid.dR))

    def test_surface_hanging_off_the_edge_rejected(self):
        # half the delta mass falls outside the grid here
        grid = build_grid(6, 6, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ResolutionError):
            tst_rate(grid, flat_pes(), MU, 5000.0,
                     TstConfig(-1.99, sigma=0.2))


class TestReactantPopulation:
    def test_symmetric_state_splits_in_half(self):
        grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
        pop = tst_rate(grid, plateau_barrier(), MU, 5000.0,
                       TstConfig(0.0)).population
        assert abs(pop - 0.5) < grid.dR

    def test_flat_symmetric_split_is_exact(self):
        grid = build_grid(7, 7, (-2.0, 2.0), (-33.0, 33.0))
        assert tst_rate(grid, flat_pes(), MU, 5000.0,
                        TstConfig(0.0)).population == pytest.approx(
            0.5, abs=1e-12)

    def test_agrees_with_metropolis_sampler(self):
        pes = morse_pes(0.1744, 1.02764, 1.40201)
        grid = build_grid(7, 7, (0.5, 2.5), (-33.0, 33.0))
        r_div = 0.5 + 66 * grid.dR + grid.dR / 2  # half-cell off a node
        pop = tst_rate(grid, pes, MU, 2500.0, TstConfig(r_div)).population
        samples, _ = canonical_sampler(pes, MU, kelvin_to_hartree(2500.0),
                                       200_000, 17, (0.5, 2.5))
        p_mc = float(np.mean(samples < r_div))
        sigma_mc = math.sqrt(p_mc * (1.0 - p_mc) / len(samples))
        assert abs(pop - p_mc) < 3.0 * sigma_mc

    def test_surface_beyond_grid_rejected(self):
        grid = build_grid(5, 5, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ConfigurationError):
            tst_rate(grid, flat_pes(), MU, 5000.0, TstConfig(r_dividing=4.0))


class TestRate:
    def test_matches_quadrature_closed_form_on_toy_barrier(self):
        pes = plateau_barrier()
        grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
        cfg = TstConfig(r_dividing=0.0)
        for t_kelvin in TEMPS:
            res = tst_rate(grid, pes, MU, t_kelvin, cfg)
            ref = closed_form_rate(pes, t_kelvin, -3.0, 0.0, 0.15)
            assert res.k_au == pytest.approx(ref, rel=0.02)
            assert res.k_au == res.flux_au / res.population
            assert res.k_per_second == pytest.approx(
                res.k_au / SECONDS_PER_AU_TIME)

    def test_rate_is_normalization_independent(self):
        # the table sums of an unnormalized canonical state give the
        # product's rate
        grid = build_grid(7, 7, (-3.0, 3.0), (-33.0, 33.0))
        cfg = TstConfig(r_dividing=0.0)
        rho = table_canonical_reference(grid, plateau_barrier(), MU,
                                        kelvin_to_hartree(5000.0))
        scaled = KvnState(3.7 * np.sqrt(rho), grid)
        k_scaled = dividing_surface_flux(scaled, MU, cfg) / (
            reactant_population(scaled, cfg))
        k = tst_rate(grid, plateau_barrier(), MU, 5000.0, cfg).k_au
        assert k_scaled == pytest.approx(k, rel=1e-12)

    def test_peak_is_linear_in_the_axes(self):
        # a few vectors of 2^11 nodes; the (R, P) tables of the
        # canonical state would take 32 MiB each
        grid = build_grid(11, 11, (-3.0, 3.0), (-33.0, 33.0))
        cfg = TstConfig(0.0)
        tst_rate(grid, plateau_barrier(), MU, 5000.0, cfg)  # warm caches
        res, peak = traced_peak(tst_rate, grid, plateau_barrier(), MU,
                                5000.0, cfg)
        assert res.k_au > 0.0
        assert peak <= 2 ** 20

    def test_halving_surface_width_barely_moves_rate(self):
        grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
        pes = plateau_barrier()
        wide = tst_rate(grid, pes, MU, 5000.0,
                        TstConfig(0.0, sigma=4 * grid.dR)).k_au
        narrow = tst_rate(grid, pes, MU, 5000.0,
                          TstConfig(0.0, sigma=2 * grid.dR)).k_au
        assert abs(wide - narrow) / narrow < 0.02

    def test_grid_refinement_convergence(self):
        pes = plateau_barrier()
        cfg = TstConfig(0.0, sigma=0.1)
        coarse = tst_rate(build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0)),
                          pes, MU, 5000.0, cfg).k_au
        fine = tst_rate(build_grid(10, 10, (-3.0, 3.0), (-33.0, 33.0)),
                        pes, MU, 5000.0, cfg).k_au
        assert abs(coarse - fine) / fine < 0.01

    def test_nonpositive_temperature_rejected(self):
        grid = build_grid(5, 5, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ConfigurationError):
            tst_rate(grid, flat_pes(), MU, 0.0, TstConfig(0.0))


class TestTailFloor:
    # tst_h2.ini's grid and surface: R_div = 3 bohr, sigma = 2 dR
    @staticmethod
    def shipped():
        grid = build_grid(8, 8, (0.5, 6.5), (-33.0, 33.0))
        return grid, pauli_pes(bundled_h2_table()), TstConfig(3.0)

    def tail_share(self, t_kelvin):
        grid, pes, cfg = self.shipped()
        w_r = CanonicalDensity(grid, pes, MU, kelvin_to_hartree(t_kelvin)).w_r
        delta = _surface_weights(grid, cfg)
        far = np.abs(grid.R - cfg.r_dividing) > 6.0 * 2.0 * grid.dR
        return float(delta[far] @ w_r[far]) / float(delta @ w_r)

    @pytest.mark.parametrize("t_kelvin", [1.0, 2.0, 3.0, 100.0])
    def test_refuses_a_rate_set_by_the_delta_tail(self, t_kelvin):
        # k would be about 1e-260 au at 1-3 K, all of it from the tail
        grid, pes, cfg = self.shipped()
        assert self.tail_share(t_kelvin) > TAIL_SHARE_LIMIT
        with pytest.raises(ResolutionError, match="tail"):
            tst_rate(grid, pes, MU, t_kelvin, cfg)

    @pytest.mark.parametrize("t_kelvin, share", [
        (300.0, 0.052), (2500.0, 8.5e-9), (5000.0, 2.2e-9),
        (10000.0, 1.5e-9)])
    def test_shipped_ladder_is_unchanged(self, t_kelvin, share):
        # the rate is still the flux over the population of the table
        grid, pes, cfg = self.shipped()
        assert self.tail_share(t_kelvin) == pytest.approx(share, rel=0.05)
        res = tst_rate(grid, pes, MU, t_kelvin, cfg)
        table = analytic_canonical_state(grid, pes, MU,
                                         kelvin_to_hartree(t_kelvin))
        k = dividing_surface_flux(table, MU, cfg) / reactant_population(
            table, cfg)
        assert res.k_au == pytest.approx(k, rel=1e-13)


class TestArrheniusSweep:
    def test_activation_energy_recovers_barrier_height(self):
        grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
        fit = arrhenius_sweep(grid, plateau_barrier(), MU,
                              TstConfig(0.0, temperatures=TEMPS))
        assert isinstance(fit, ArrheniusFit)
        assert len(fit.results) == 3
        assert fit.activation_energy == pytest.approx(0.15, rel=0.10)

    def test_flux_shows_boltzmann_suppression(self):
        grid = build_grid(8, 8, (-3.0, 3.0), (-33.0, 33.0))
        fit = arrhenius_sweep(grid, plateau_barrier(), MU,
                              TstConfig(0.0, temperatures=TEMPS))
        fluxes = [r.flux_au for r in fit.results]
        assert fluxes[0] < fluxes[1] < fluxes[2]
        inv_t = [1.0 / kelvin_to_hartree(t) for t in TEMPS]
        slope = np.polyfit(inv_t, np.log(fluxes), 1)[0]
        assert slope < 0.0

    def test_flat_potential_rate_is_pure_thermal_prefactor(self):
        # no barrier: k carries only the sqrt(T) velocity scale
        grid = build_grid(7, 7, (-2.0, 2.0), (-33.0, 33.0))
        fit = arrhenius_sweep(grid, flat_pes(), MU,
                              TstConfig(0.0, temperatures=TEMPS))
        for res in fit.results:
            t = kelvin_to_hartree(res.t_kelvin)
            ref = 2.0 * math.sqrt(t / (2 * math.pi * MU)) / 4.0
            assert res.k_au == pytest.approx(ref, rel=0.01)
        assert abs(fit.activation_energy) < 0.01

    def test_needs_three_temperatures(self):
        grid = build_grid(5, 5, (-2.0, 2.0), (-20.0, 20.0))
        with pytest.raises(ConfigurationError):
            arrhenius_sweep(grid, flat_pes(), MU,
                            TstConfig(0.0, temperatures=(300.0, 600.0)))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TstConfig(0.0, sigma=-0.1)
        with pytest.raises(ConfigurationError):
            TstConfig(0.0, temperatures=(300.0, -5.0, 600.0))


class TestCrossingReference:
    def test_hot_crossings_agree_with_surface_flux(self):
        pes = double_well(v_b=0.01, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        grid = build_grid(7, 7, (-2.4, 2.4), (-33.0, 33.0))
        res = tst_rate(grid, pes, MU, 10000.0, cfg)
        cross = crossing_reference(pes, MU, 10000.0, 512, 20000.0, 7, cfg,
                                   (-2.4, 2.4), dt=2.0)
        assert cross.n_cross > 100
        ratio = cross.k_cross / res.flux_au
        assert 0.5 < ratio < 2.0

    @pytest.mark.parametrize("n_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                         5 * _BLOCK // 2])
    def test_blocked_count_matches_full_history(self, n_steps):
        # the hot well of the test above: about 0.6 upward crossings per
        # step pair over 512 trajectories, so a pair lost at a block
        # boundary shows in the count (it does at _BLOCK + 1 and 2.5 x)
        pes = double_well(v_b=0.01, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        args = (pes, MU, 10000.0, 512, 2.0 * n_steps, 7, cfg, (-2.4, 2.4))
        cross = crossing_reference(*args, dt=2.0)
        assert cross.n_cross > 0
        assert cross == full_history_crossings(*args, dt=2.0)

    def test_memory_does_not_grow_with_run_length(self):
        # a full history of 512 trajectories x 10 001 records of R and P
        # would be 78 MiB (89 MiB peak); the counter holds one R block of
        # _BLOCK + 1 records (1 MiB), the samples, the step's vectors and
        # the block's crossing test, the same at 4 and at 39 blocks; 16 KiB
        # for numpy's small objects
        pes = double_well(v_b=0.01, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        # a first short run imports numpy.random, outside the estimate
        crossing_reference(pes, MU, 10000.0, 4, 10.0, 7, cfg, (-2.4, 2.4))
        peaks = []
        for t_sim in (8.0 * _BLOCK, 20000.0):
            cross, peak = traced_peak(crossing_reference, pes, MU, 10000.0,
                                      512, t_sim, 7, cfg, (-2.4, 2.4))
            assert cross.n_cross > 100
            assert peak <= crossing_memory_estimate(512, t_sim) + 2 ** 14
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 2 ** 12
        block = 2 * 8 * (_BLOCK + 1) * 512
        assert peaks[1] < 4 * block

    def test_preflight_refuses_before_sampling(self, monkeypatch):
        pes = double_well(v_b=0.01, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        args = (pes, MU, 10000.0, 512, 2000.0, 7, cfg, (-2.4, 2.4))
        need = crossing_memory_estimate(512, 2000.0)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)

        def refused():
            with pytest.raises(MemoryBudgetError, match="crossing_reference"):
                crossing_reference(*args)

        _, peak = traced_peak(refused)
        assert peak < 2 ** 14
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        assert crossing_reference(*args).n_cross > 0

    def test_cold_deep_well_pins_to_detection_floor(self):
        pes = double_well(v_b=0.15, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        cross = crossing_reference(pes, MU, 1000.0, 64, 2000.0, 3, cfg,
                                   (-2.4, 2.4), dt=2.0)
        assert cross.n_cross == 0
        assert cross.k_cross == 0.0
        assert cross.k_min == pytest.approx(1.0 / (64 * 2000.0), rel=1e-12)

    def test_doubling_trajectories_halves_floor(self):
        pes = double_well(v_b=0.15, a=1.0)
        cfg = TstConfig(r_dividing=0.0)
        base = crossing_reference(pes, MU, 1000.0, 64, 2000.0, 3, cfg,
                                  (-2.4, 2.4), dt=2.0)
        doubled = crossing_reference(pes, MU, 1000.0, 128, 2000.0, 3, cfg,
                                     (-2.4, 2.4), dt=2.0)
        assert base.k_min == pytest.approx(2.0 * doubled.k_min, rel=1e-12)

    def test_argument_validation(self):
        cfg = TstConfig(r_dividing=0.0)
        with pytest.raises(ConfigurationError):
            crossing_reference(flat_pes(), MU, 300.0, 0, 100.0, 1, cfg,
                               (-1.0, 1.0))
        with pytest.raises(ConfigurationError):
            crossing_reference(flat_pes(), MU, 300.0, 8, -5.0, 1, cfg,
                               (-1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(n_steps=st.integers(min_value=1, max_value=3 * _BLOCK + 3)
       | st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK]),
       n_traj=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_r_blocks_count_and_correlate_as_the_rp_blocks(n_steps, n_traj, seed):
    # the one reused R block against the previous fresh (R, P) blocks:
    # the same crossing count, and the same vdos reference correlation
    # c_t bit for bit, across block boundaries
    pes = double_well(v_b=0.01, a=1.0)
    cfg = TstConfig(r_dividing=0.0)
    cross = crossing_reference(pes, MU, 10000.0, n_traj, 2.0 * n_steps, seed,
                               cfg, (-2.4, 2.4), dt=2.0)
    r0, p0 = canonical_sampler(pes, MU, kelvin_to_hartree(10000.0), n_traj,
                               seed, (-2.4, 2.4))
    old = sum(int(np.count_nonzero((ens.R[:-1] < 0.0) & (ens.R[1:] >= 0.0)))
              for ens in rp_verlet_blocks(pes, MU, r0, p0, 2.0, n_steps))
    assert cross.n_cross == old
    c_t, stride = _trajectory_correlation(
        verlet_blocks(pes, MU, r0, p0, 2.0, n_steps), 20.0)
    c_old, stride_old = _trajectory_correlation(
        rp_verlet_blocks(pes, MU, r0, p0, 2.0, n_steps), 20.0)
    assert stride == stride_old == 10
    np.testing.assert_array_equal(c_t, c_old)
