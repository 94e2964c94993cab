import math
import sys
import weakref

import numpy as np
import pytest

import kvnmd.propagator
from kvnmd.constants import kelvin_to_hartree
from kvnmd.diagnostics import (canonical_reference, kinetic_temperature,
                               kl_divergence, mean_R, relax,
                               relax_memory_estimate)
from kvnmd.electronic import PesModel, morse_pes
from kvnmd.errors import (ConfigurationError, FilterBandWarning,
                          FilterCollapseError, MemoryBudgetError)
from kvnmd.grid import (KvnState, build_grid, density, encode_gaussian,
                        norm_squared)
from kvnmd.oracles import canonical_sampler
from kvnmd.propagator import LangevinParams, LangevinStepper, calibrate
from reference_steps import mean_energy, table_relax, traced_peak

MU = 918.0
T_PHYS = kelvin_to_hartree(947.0)
MORSE = dict(de=0.1744, alpha=1.02764, re=1.40201)


def h2_like_pes():
    return morse_pes(**MORSE)


def flat_pes() -> PesModel:
    arr = lambda r: np.asarray(r, float)
    return PesModel(kind="flat", domain=(-math.inf, math.inf),
                    v=lambda r: np.zeros_like(arr(r)),
                    f=lambda r: np.zeros_like(arr(r)))


def canonical_state(grid, pes, mu, t):
    rho = canonical_reference(grid, pes, mu, t)
    return KvnState(np.sqrt(rho).astype(complex), grid)


class TestMeanR:
    def test_symmetric_packet_center(self):
        grid = build_grid(6, 6, (0.0, 4.0), (-10.0, 10.0))
        st = encode_gaussian(grid, 1.7, 0.0, 0.3, 1.5)
        assert abs(mean_R(st) - 1.7) < 0.5 * grid.dR

    def test_canonical_state_matches_metropolis(self):
        grid = build_grid(7, 7, (0.5, 4.5), (-42.5, 42.5))
        st = canonical_state(grid, h2_like_pes(), MU, T_PHYS)
        r, _ = canonical_sampler(h2_like_pes(), MU, T_PHYS, 200_000, 5,
                                 (0.5, 4.5))
        sigma_mc = np.std(r) / math.sqrt(len(r))
        assert abs(mean_R(st) - np.mean(r)) < 3.0 * sigma_mc


class TestKineticTemperature:
    def test_maxwell_packet_reads_back_temperature(self):
        t = kelvin_to_hartree(800.0)
        s_p = math.sqrt(MU * t)
        grid = build_grid(6, 7, (0.0, 4.0), (-8.0 * s_p, 8.0 * s_p))
        st = encode_gaussian(grid, 2.0, 0.0, 0.3, s_p)
        assert kinetic_temperature(st, MU) == pytest.approx(t, rel=5e-3)


class TestCanonicalReference:
    def test_flat_potential_factorizes(self):
        grid = build_grid(5, 6, (0.0, 2.0), (-12.0, 12.0))
        rho = canonical_reference(grid, flat_pes(), 1.0, 2.0)
        marg_r = rho.sum(axis=1) * grid.dP
        marg_p = rho.sum(axis=0) * grid.dR
        # uniform in R, Maxwellian in P, and rank one overall
        np.testing.assert_allclose(marg_r, marg_r[0], rtol=1e-12)
        maxwell = np.exp(-grid.P ** 2 / (2.0 * 1.0 * 2.0))
        maxwell /= maxwell.sum() * grid.dP
        np.testing.assert_allclose(marg_p, maxwell, rtol=1e-12)
        np.testing.assert_allclose(rho, np.outer(marg_r, marg_p), rtol=1e-12)

    def test_position_marginal_is_boltzmann(self):
        grid = build_grid(6, 6, (0.5, 4.5), (-42.5, 42.5))
        pes = h2_like_pes()
        rho = canonical_reference(grid, pes, MU, T_PHYS)
        marg = rho.sum(axis=1) * grid.dP
        boltz = np.exp(-(pes.v(grid.R) - pes.v(grid.R).min()) / T_PHYS)
        boltz /= boltz.sum() * grid.dR
        np.testing.assert_allclose(marg, boltz, rtol=1e-12)

    def test_partition_sum_matches_fine_quadrature(self):
        grid = build_grid(6, 6, (0.5, 4.5), (-42.5, 42.5))
        pes = h2_like_pes()
        v_shift = pes.v(grid.R).min()
        z_grid = np.sum(np.exp(-(grid.P[None, :] ** 2 / (2 * MU)
                                 + pes.v(grid.R)[:, None] - v_shift)
                               / T_PHYS)) * grid.cell
        # the Hamiltonian separates, so the reference is two 1D quadratures
        r_fine = np.linspace(0.5, 4.5, 4096)
        p_fine = np.linspace(-42.5, 42.5, 4096)
        z_fine = (np.trapezoid(np.exp(-(pes.v(r_fine) - v_shift) / T_PHYS),
                               r_fine)
                  * np.trapezoid(np.exp(-p_fine ** 2 / (2 * MU * T_PHYS)),
                                 p_fine))
        assert z_grid == pytest.approx(z_fine, rel=1e-3)
        rho = canonical_reference(grid, pes, MU, T_PHYS)
        assert np.sum(rho) * grid.cell == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_temperature(self):
        grid = build_grid(5, 5, (0.0, 2.0), (-5.0, 5.0))
        with pytest.raises(ValueError):
            canonical_reference(grid, flat_pes(), 1.0, 0.0)


class TestKlDivergence:
    def test_self_divergence_is_zero(self):
        grid = build_grid(6, 6, (0.5, 4.5), (-42.5, 42.5))
        rho = canonical_reference(grid, h2_like_pes(), MU, T_PHYS)
        d = kl_divergence(rho, rho, grid.cell)
        assert abs(d) < 1e-12

    def test_offset_gaussians_match_closed_form(self):
        grid = build_grid(7, 7, (-14.0, 14.0), (-14.0, 14.0))
        rho0 = density(encode_gaussian(grid, 0.4, -0.3, 1.0, 1.3))
        rho1 = density(encode_gaussian(grid, -0.5, 0.6, 1.4, 0.9))

        def gauss_kl_1d(m0, s0, m1, s1):
            return (math.log(s1 / s0)
                    + (s0 ** 2 + (m0 - m1) ** 2) / (2.0 * s1 ** 2) - 0.5)

        expected = (gauss_kl_1d(0.4, 1.0, -0.5, 1.4)
                    + gauss_kl_1d(-0.3, 1.3, 0.6, 0.9))
        got = kl_divergence(rho0, rho1, grid.cell)
        assert got == pytest.approx(expected, rel=1e-2)

    def test_nonnegative_on_random_densities(self):
        rng = np.random.default_rng(3)
        cell = 0.01
        for _ in range(5):
            a = rng.random((32, 32))
            b = rng.random((32, 32))
            a /= a.sum() * cell
            b /= b.sum() * cell
            assert kl_divergence(a, b, cell) >= -1e-12

    def test_floor_keeps_disjoint_support_finite(self):
        grid = build_grid(6, 6, (-20.0, 20.0), (-6.0, 6.0))
        rho0 = density(encode_gaussian(grid, -9.0, 0.0, 1.5, 1.0))
        rho1 = density(encode_gaussian(grid, 9.0, 0.0, 1.5, 1.0))
        d = kl_divergence(rho0, rho1, grid.cell)
        assert math.isfinite(d) and d > 10.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones((4, 4)), np.ones((4, 8)), 0.1)


class TestRelax:
    def params(self):
        return calibrate(mu=MU, gamma=0.02, dt=0.5, t_phys=T_PHYS)

    def test_canonical_start_stays_canonical(self):
        grid = build_grid(7, 7, (0.5, 4.5), (-42.5, 42.5))
        pes = h2_like_pes()
        st = canonical_state(grid, pes, MU, T_PHYS)
        trace, _, _ = relax(st, pes, self.params(), 100)
        assert max(trace.d_kl_nats) < 1e-2
        # drift from the stationary point over 100 steps
        assert trace.d_kl_nats[-1] - trace.d_kl_nats[0] < 1e-3

    def test_hot_packet_cools_onto_particle_langevin_curve(self):
        # thermal packet prepared at 3x the bath temperature; reference
        # values are a 1e5-trajectory kick/drift/thermostat ensemble with
        # the same initial density and thermostat setting
        frozen = {40: 1938.644685528531, 200: 1321.9179239680523,
                  400: 991.4071003689835, 600: 958.9673663605878}
        grid = build_grid(7, 7, (0.6, 2.6), (-42.5, 42.5))
        st = encode_gaussian(grid, MORSE["re"], 0.0, 0.1563, 2.8739)
        trace, _, _ = relax(st, h2_like_pes(), self.params(), 600,
                            record_every=20)

        t_kin = np.array(trace.t_kin_kelvin)
        assert np.all(np.diff(t_kin) < 0.0)  # cools at every record
        for step, ref in frozen.items():
            assert t_kin[step // 20] == pytest.approx(ref, rel=0.05)

        assert np.all(np.diff(trace.time_fs) > 0.0)
        assert np.all(t_kin > 0.0)
        d_kl = np.array(trace.d_kl_nats)
        assert np.all(d_kl >= -1e-12)
        assert d_kl[-1] < 0.1 * d_kl[len(d_kl) // 5:].max()
        cum = np.array(trace.cum_success_prob)
        assert np.all(np.diff(cum) <= 0.0) and cum[-1] > 0.0

    def test_frictionless_limit_conserves_energy(self):
        # gamma = 0 and a transparent filter reduce the step to pure
        # transport; params built by hand since calibrate rejects gamma=0
        params = LangevinParams(mu=MU, gamma=0.0, dt=0.2, t_phys=T_PHYS,
                                t_int=T_PHYS, sigma_h=0.0)
        grid = build_grid(7, 7, (0.5, 4.5), (-42.5, 42.5))
        pes = h2_like_pes()
        st = encode_gaussian(grid, 1.8, 0.0, 0.15, 1.66)
        e0 = mean_energy(st, pes, MU)
        trace, final, _ = relax(st, pes, params, 1600)
        assert abs(mean_energy(final, pes, MU) - e0) < 1e-6 * abs(e0)
        assert abs(norm_squared(final) - 1.0) < 1e-12
        swings = np.diff(np.array(trace.t_kin_kelvin))
        assert (swings > 0).any() and (swings < 0).any()  # oscillates

    @pytest.mark.parametrize("phase", [-1.0, 1j, -1j])
    def test_monitors_read_density_only(self, phase):
        # an exact phase rotation leaves every monitor bit-identical
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        rotated = KvnState(phase * st.amplitudes, st.grid)
        pes = h2_like_pes()
        assert mean_R(rotated) == mean_R(st)
        assert kinetic_temperature(rotated, MU) == kinetic_temperature(st, MU)
        assert mean_energy(rotated, pes, MU) == mean_energy(st, pes, MU)
        rho_eq = canonical_reference(grid, pes, MU, T_PHYS)
        assert (kl_divergence(density(rotated), rho_eq, grid.cell)
                == kl_divergence(density(st), rho_eq, grid.cell))

    def test_sign_flip_leaves_trace_bit_identical(self):
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = h2_like_pes()
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        rotated = KvnState(-st.amplitudes, st.grid)
        trace_a, _, _ = relax(st, pes, self.params(), 30)
        trace_b, _, _ = relax(rotated, pes, self.params(), 30)
        assert trace_a.mean_r_angstrom == trace_b.mean_r_angstrom
        assert trace_a.t_kin_kelvin == trace_b.t_kin_kelvin
        assert trace_a.d_kl_nats == trace_b.d_kl_nats
        assert trace_a.cum_success_prob == trace_b.cum_success_prob

    def test_complex_table_without_imaginary_part_relaxes_as_real(self):
        # the same bytes as its float64 table, and a float64 final state,
        # as LangevinStepper.step returns
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = h2_like_pes()
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        as_complex = KvnState(st.amplitudes.astype(complex), grid)
        trace, final, snaps = relax(st, pes, self.params(), 3, 1, (0, 2))
        c_trace, c_final, c_snaps = relax(as_complex, pes, self.params(), 3,
                                          1, (0, 2))
        for column in TestRelaxMatchesTableDriver.COLUMNS + (
                "friction_leak_max", "success_probability_min"):
            assert getattr(c_trace, column) == getattr(trace, column)
        assert c_snaps.keys() == snaps.keys()
        for step in snaps:
            assert c_snaps[step].tobytes() == snaps[step].tobytes()
        assert final.amplitudes.dtype == c_final.amplitudes.dtype \
            == np.float64
        assert c_final.amplitudes.tobytes() == final.amplitudes.tobytes()
        stepped = as_complex
        stepper = LangevinStepper(grid, pes, self.params())
        for _ in range(3):
            stepped, _ = stepper.step(stepped)
        assert stepped.amplitudes.dtype == np.float64
        np.testing.assert_allclose(final.amplitudes, stepped.amplitudes,
                                   rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("phase", [1j, np.exp(0.3j)])
    def test_refuses_a_table_with_an_imaginary_part(self, phase):
        # before the stepper's tables or the half spectrum exist
        grid = build_grid(9, 9, (0.5, 4.5), (-170.0, 170.0))
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        rotated = KvnState(phase * st.amplitudes, grid)

        def refused():
            with pytest.raises(ConfigurationError, match="imaginary"):
                relax(rotated, h2_like_pes(), self.params(), 3)

        _, peak = traced_peak(refused)
        assert peak < 8 * grid.shape[0] * grid.shape[1]  # not one table

    def test_filter_collapse_truncates_trace(self):
        # a momentum standing wave sits on the k_P nodes +-k_star; tuning
        # the filter zero onto them kills the whole state in one step
        grid = build_grid(4, 5, (0.0, 2.0), (-8.0, 8.0))
        k_star = np.sort(grid.k_P)[3 * 32 // 4]
        amps = np.cos(k_star * grid.P)[None, :] * np.ones((16, 1))
        amps = amps / math.sqrt(np.sum(amps ** 2) * grid.cell)
        st = KvnState(amps, grid)
        params = LangevinParams(mu=MU, gamma=0.0, dt=0.5, t_phys=T_PHYS,
                                t_int=T_PHYS,
                                sigma_h=0.5 * math.pi / abs(k_star))
        with pytest.warns(FilterBandWarning):  # intentionally oversized
            trace, final, _ = relax(st, flat_pes(), params, 50)
        assert trace.collapsed and trace.collapsed_at_step == 1
        assert len(trace) == 1  # only the initial record survives
        assert final is None  # the step overwrote the only state

    def test_record_stride_and_snapshots(self):
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = h2_like_pes()
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        trace, _, snaps = relax(st, pes, self.params(), 10, record_every=3,
                                snapshot_steps=(0, 7))
        assert len(trace) == 5  # steps 0, 3, 6, 9, 10
        assert trace.time_fs == sorted(trace.time_fs)
        assert set(snaps) == {0, 7}
        assert snaps[0].shape == grid.shape
        assert np.sum(snaps[7]) * grid.cell == pytest.approx(1.0, abs=1e-12)


# the real table and a complex one with no imaginary part
STACKS = {"real": lambda a: a, "complex-real": lambda a: a.astype(complex)}


class TestRelaxMatchesTableDriver:
    # table_relax keeps an (R, P) state per record, reads each monitor
    # from its own density and D_KL against the canonical table
    COLUMNS = ("time_fs", "mean_r_angstrom", "t_kin_kelvin", "d_kl_nats",
               "cum_success_prob")

    def params(self):
        return calibrate(mu=MU, gamma=0.02, dt=0.5, t_phys=T_PHYS)

    def hot_packet(self, stack):
        grid = build_grid(7, 7, (0.6, 2.6), (-42.5, 42.5))
        st = encode_gaussian(grid, MORSE["re"], 0.0, 0.1563, 2.8739)
        return KvnState(STACKS[stack](st.amplitudes), grid)

    def assert_same_run(self, run, reference):
        (trace, final, snaps), (ref, ref_final, ref_snaps) = run, reference
        assert len(trace) == len(ref)
        for column in self.COLUMNS:
            np.testing.assert_allclose(getattr(trace, column),
                                       getattr(ref, column), rtol=1e-13)
        assert trace.collapsed_at_step == ref.collapsed_at_step
        assert trace.friction_leak_max == ref.friction_leak_max
        assert trace.success_probability_min == ref.success_probability_min
        assert snaps.keys() == ref_snaps.keys()
        for step in snaps:
            np.testing.assert_array_equal(snaps[step], ref_snaps[step])
        if ref_final is None:
            assert final is None
            return
        assert final.amplitudes.dtype == ref_final.amplitudes.dtype
        np.testing.assert_array_equal(final.amplitudes, ref_final.amplitudes)

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_trace_snapshots_and_final_state(self, stack):
        st = self.hot_packet(stack)
        args = (st, h2_like_pes(), self.params(), 200, 20, (0, 7, 200, 300))
        self.assert_same_run(relax(*args), table_relax(*args))

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_collapse_records_the_pre_step_stack(self, monkeypatch, stack):
        # the eighth step of each run collapses, between the records at
        # steps 5 and 10; the state it stepped in place is gone, so both
        # drivers end the trace at step 5 with no final state
        advance = LangevinStepper.advance
        calls = []

        def collapsing(stepper, a, out=None):
            calls.append(None)
            if len(calls) % 8 == 0:
                raise FilterCollapseError("forced collapse")
            return advance(stepper, a, out)

        monkeypatch.setattr(LangevinStepper, "advance", collapsing)
        st = self.hot_packet(stack)
        args = (st, h2_like_pes(), self.params(), 20, 5, (6, 8))
        run = relax(*args)
        self.assert_same_run(run, table_relax(*args))
        trace, final, snaps = run
        assert trace.collapsed_at_step == 8
        assert len(trace) == 2  # steps 0 and 5
        assert trace.time_fs[-1] == pytest.approx(5 * 0.5 * 0.02418884254)
        assert final is None
        assert set(snaps) == {6}


class TestRelaxWorkingSet:
    # a 2^9 grid with the 2^10 workload's P spacing, three steps and one
    # snapshot
    N = 1 << 9

    def setup_run(self, stack="real"):
        grid = build_grid(9, 9, (0.5, 4.5), (-170.0, 170.0))
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        st = KvnState(STACKS[stack](st.amplitudes), grid)
        return st, h2_like_pes(), calibrate(mu=MU, gamma=0.02, dt=0.5,
                                            t_phys=T_PHYS)

    def test_estimate_counts_each_snapshot_taken(self):
        st, _, params = self.setup_run()
        fixed = LangevinStepper.memory_estimate(st.grid, params.s)
        table = 8 * self.N * self.N
        assert relax_memory_estimate(st.grid, params, 3) == fixed
        # step 9 is never reached, and the last step, 3, reads the plane
        assert relax_memory_estimate(st.grid, params, 3,
                                     (0, 2, 3, 3, 9)) == fixed + 2 * table

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_peak_stays_within_the_estimate(self, stack):
        # numpy's ufunc buffers add up to 512 KiB
        st, pes, params = self.setup_run(stack)
        relax(st, pes, params, 1)  # leaves the FFT plan caches warm
        _, peak = traced_peak(relax, st, pes, params, 3, 2, (3,))
        assert peak <= relax_memory_estimate(st.grid, params, 3,
                                             (3,)) + 2 ** 19

    @pytest.mark.parametrize("stack", list(STACKS))
    def test_peak_is_the_tables_and_two_state_arrays(self, stack):
        # the half spectrum, stepped in place, and the real plane of
        # N_R + 2 rows: the kick's half spectrum and the friction products
        # share them, the last snapshot is the plane's density, and the
        # final table is formed once the stepper is gone; 512 KiB for
        # numpy's buffers
        st, pes, params = self.setup_run(stack)
        n, rows = self.N, self.N // 2 + 1
        tables = 2 * 16 * rows * n + 8 * n * n
        arrays = 16 * rows * n + 8 * 2 * rows * n
        relax(st, pes, params, 1)  # leaves the FFT plan caches warm
        _, peak = traced_peak(relax, st, pes, params, 3, 2, (3,))
        assert peak <= tables + arrays + 2 ** 19

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the caller's frame holds call arguments "
                               "until the call returns before 3.11")
    def test_releases_a_temporary_initial_table(self, monkeypatch):
        # as the CLI passes it: no name outside relax holds the table
        tables = []

        def packet():
            st, _, _ = self.setup_run()
            tables.append(weakref.ref(st.amplitudes))
            return st

        advance, alive = LangevinStepper.advance, []

        def watched(stepper, a, out=None):
            alive.append(tables[0]() is not None)
            return advance(stepper, a, out)

        monkeypatch.setattr(LangevinStepper, "advance", watched)
        _, pes, params = self.setup_run()
        relax(packet(), pes, params, 2, 1, (0,))
        assert alive == [False, False]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="the caller's frame holds call arguments "
                               "until the call returns before 3.11")
    def test_builds_the_stepper_once_the_initial_table_is_gone(
            self, monkeypatch):
        # the friction table can then take the block the table freed
        tables, alive = [], []

        def packet():
            st, _, _ = self.setup_run()
            tables.append(weakref.ref(st.amplitudes))
            return st

        init = LangevinStepper.__init__

        def watched(stepper, *args):
            alive.append(tables[0]() is not None)
            init(stepper, *args)

        monkeypatch.setattr(LangevinStepper, "__init__", watched)
        _, pes, params = self.setup_run()
        relax(packet(), pes, params, 2, 1, (0,))
        assert alive == [False]

    def test_preflight_refuses_below_the_estimate(self, monkeypatch):
        st, pes, params = self.setup_run()
        need = relax_memory_estimate(st.grid, params, 3, (3,))
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)

        def refused():
            with pytest.raises(MemoryBudgetError, match="relax"):
                relax(st, pes, params, 3, 2, (3,))

        _, peak = traced_peak(refused)
        assert peak < 8 * self.N * self.N  # not one table was built
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        trace, _, snaps = relax(st, pes, params, 3, 2, (3,))
        assert len(trace) == 3 and set(snaps) == {3}
