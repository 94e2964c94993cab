import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from kvnmd.constants import kelvin_to_hartree
from kvnmd.electronic import PesModel, morse_pes
import kvnmd.propagator
from kvnmd.errors import (BoundaryLeakWarning, ConfigurationError,
                          ConvergenceError, FilterBandWarning,
                          FilterCollapseError, MemoryBudgetError,
                          NonFiniteAmplitudeError)
from kvnmd.grid import (KvnState, build_grid, density, encode_gaussian,
                        norm_squared)
from kvnmd.oracles import cos_filter_stationary_bias
from kvnmd.propagator import (FrictionOperator, LangevinStepper,
                              NvePropagator, _RowDilation, calibrate,
                              corrected_internal_temperature, _filtered,
                              momentum_bias_experiment)
from reference_steps import (complex_bias_experiment, diffusion_step,
                             friction_step, ideal_diffusion_step,
                             langevin_step, nve_step,
                             separate_buffer_advance, traced_peak)


def linear_pes(slope: float) -> PesModel:
    arr = lambda r: np.asarray(r, float)
    return PesModel(kind="linear", domain=(-math.inf, math.inf),
                    v=lambda r: slope * arr(r),
                    f=lambda r: -slope * np.ones_like(arr(r)))


def harmonic_pes(mu: float, omega: float, re: float) -> PesModel:
    k = mu * omega * omega
    arr = lambda r: np.asarray(r, float)
    return PesModel(kind="harmonic", domain=(-math.inf, math.inf),
                    v=lambda r: 0.5 * k * (arr(r) - re) ** 2,
                    f=lambda r: -k * (arr(r) - re))


def moments(state):
    rho = density(state)
    g = state.grid
    w = rho * g.cell
    mean_r = float(np.sum(w * g.R[:, None]))
    mean_p = float(np.sum(w * g.P[None, :]))
    var_p = float(np.sum(w * g.P[None, :] ** 2)) - mean_p ** 2
    return mean_r, mean_p, var_p


def maxwell_state(grid, mu, t):
    amp = np.ones(grid.shape, dtype=np.complex128)
    amp *= np.exp(-grid.P[None, :] ** 2 / (4.0 * mu * t))
    amp /= np.sqrt(np.sum(np.abs(amp) ** 2) * grid.cell)
    return KvnState(amp, grid)


class TestCalibrate:
    def test_internal_temperature_compensates_filter_bias(self):
        for s in (0.001, 0.01, 0.3):
            t_int = corrected_internal_temperature(1.0, s)
            assert t_int * (1.0 + 0.5 * math.tanh(s)) == pytest.approx(1.0)

    def test_reference_point(self):
        p = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                      t_phys=kelvin_to_hartree(947.0))
        assert p.s == pytest.approx(0.01)
        assert p.t_int / kelvin_to_hartree(1.0) == pytest.approx(942.2887,
                                                                 rel=1e-6)
        assert p.sigma_h == pytest.approx(0.32937193, rel=1e-6)

    def test_width_satisfies_fluctuation_dissipation_balance(self):
        p = calibrate(mu=7.0, gamma=0.3, dt=0.2, t_phys=0.05)
        assert p.sigma_h ** 2 == pytest.approx(
            2.0 * 7.0 * p.t_int * (1.0 - math.exp(-2.0 * p.s)), rel=1e-12)

    def test_correction_can_be_disabled(self):
        p = calibrate(mu=1.0, gamma=0.1, dt=1.0, t_phys=2.0, correction=False)
        assert p.t_int == 2.0

    @pytest.mark.parametrize("bad", [
        dict(mu=0.0, gamma=0.1, dt=1.0, t_phys=1.0),
        dict(mu=1.0, gamma=-0.1, dt=1.0, t_phys=1.0),
        dict(mu=1.0, gamma=0.1, dt=0.0, t_phys=1.0),
        dict(mu=1.0, gamma=0.1, dt=1.0, t_phys=-2.0),
    ])
    def test_rejects_nonpositive_inputs(self, bad):
        with pytest.raises(ConfigurationError):
            calibrate(**bad)


class TestConservativeStep:
    def test_exactly_unitary(self):
        grid = build_grid(6, 6, (0.5, 4.5), (-14.0, 14.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        prop = NvePropagator(grid, pes, 918.0, 1.0)
        st = encode_gaussian(grid, 1.8, 2.0, 0.15, 1.5)
        for _ in range(200):
            st = prop.step(st)
        assert abs(norm_squared(st) - 1.0) < 1e-12

    def test_constant_force_packet_follows_exact_trajectory(self):
        # linear potential: the split step reproduces uniformly
        # accelerated motion without time-step error
        mu, slope, dt = 50.0, 0.02, 0.5
        grid = build_grid(7, 7, (-6.0, 6.0), (-6.0, 6.0))
        prop = NvePropagator(grid, linear_pes(slope), mu, dt)
        r0, p0 = -2.0, 1.5
        st = encode_gaussian(grid, r0, p0, 0.3, 0.3)
        n = 60
        for _ in range(n):
            st = prop.step(st)
        t = n * dt
        mean_r, mean_p, _ = moments(st)
        assert mean_r == pytest.approx(r0 + p0 * t / mu
                                       - slope * t ** 2 / (2.0 * mu), abs=1e-8)
        assert mean_p == pytest.approx(p0 - slope * t, abs=1e-8)

    def test_splitting_error_is_second_order_in_dt(self):
        mu, omega, re = 918.0, 0.02, 1.4
        pes = harmonic_pes(mu, omega, re)
        grid = build_grid(7, 7, (0.2, 2.6), (-26.0, 26.0))
        r0, t_end = 1.55, 320.0
        exact = re + (r0 - re) * math.cos(omega * t_end)
        errs = []
        dts = (4.0, 2.0, 1.0)
        for dt in dts:
            prop = NvePropagator(grid, pes, mu, dt)
            st = encode_gaussian(grid, r0, 0.0, 0.08, 2.2)
            for _ in range(int(round(t_end / dt))):
                st = prop.step(st)
            errs.append(abs(moments(st)[0] - exact))
        slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_wrapper_matches_class(self):
        grid = build_grid(5, 5, (0.5, 4.5), (-10.0, 10.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.8, 0.0, 0.3, 1.5)
        a = NvePropagator(grid, pes, 918.0, 0.7).step(st)
        b = nve_step(st, pes, 918.0, 0.7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestTimeReversal:
    # T: P -> -P is the index mirror j -> -j mod N on a centered P grid,
    # k_P -> -k_P in the FFT order of the kick; both tables are phases,
    # so D^-1 = conj(D)
    @pytest.mark.parametrize("p_max", [22.0, 17.3, 8.1234567])
    def test_drift_and_kick_tables_are_reversed_exactly(self, p_max):
        grid = build_grid(4, 5, (0.6, 2.6), (-p_max, p_max))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        prop = NvePropagator(grid, pes, 918.0, 0.7)
        mirror = -np.arange(grid.shape[1]) % grid.shape[1]
        np.testing.assert_array_equal(prop.half_drift[:, mirror],
                                      prop.half_drift.conj())
        np.testing.assert_array_equal(prop.kick[:, mirror], prop.kick.conj())
        # the unpaired p_min column does not drift
        np.testing.assert_array_equal(prop.half_drift[:, 0], 1.0)

    def test_stepper_shares_the_transport_tables(self):
        grid = build_grid(4, 5, (0.6, 2.6), (-17.3, 17.3))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        params = calibrate(mu=918.0, gamma=0.02, dt=0.7, t_phys=0.003)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FilterBandWarning)
            stepper = LangevinStepper(grid, pes, params)
        prop = NvePropagator(grid, pes, 918.0, 0.7)
        n_r, n_p = grid.shape
        np.testing.assert_array_equal(stepper.half_drift,
                                      prop.half_drift[:n_r // 2 + 1])
        np.testing.assert_array_equal(stepper.kick,
                                      prop.kick[:, :n_p // 2 + 1])

    def test_off_center_grid_drifts_every_column(self):
        grid = build_grid(4, 5, (0.6, 2.6), (-20.0, 24.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        prop = NvePropagator(grid, pes, 918.0, 0.7)
        k_r = grid.k_R.copy()
        k_r[len(k_r) // 2] = 0.0
        np.testing.assert_array_equal(
            prop.half_drift, np.exp(-0.5j * 0.7 * np.outer(k_r, grid.P)
                                    / 918.0))


class TestPhaseTables:
    def test_half_tables_peak_at_the_tables_and_one_outer_product(self):
        # each table is formed in its own array: besides the two tables
        # only a real outer product is alive at once, and 256 KiB of
        # numpy's buffers; one expression per table held three
        # table-sized temporaries (24.06 MiB at 2^10)
        grid = build_grid(10, 10, (0.5, 4.5), (-340.0, 340.0))
        force = np.linspace(-0.2, 0.3, grid.shape[0])
        n_r, n_p = grid.shape
        rows, cols = n_r // 2 + 1, n_p // 2 + 1
        tables = 16 * (rows * n_p + n_r * cols)
        outer = 8 * max(rows * n_p, n_r * cols)
        (drift, kick), peak = traced_peak(
            kvnmd.propagator._phase_tables, grid, force, 918.0, 0.5, True)
        assert drift.nbytes + kick.nbytes == tables
        assert peak <= tables + outer + 2 ** 18


class TestFriction:
    def test_second_moment_contracts_by_expected_factor(self):
        grid = build_grid(4, 8, (0.0, 1.0), (-12.0, 12.0))
        st = maxwell_state(grid, 1.0, 1.5)
        s = 0.03
        out, leak = FrictionOperator(grid, s).apply(st)
        assert leak < 1e-9
        assert moments(out)[2] == pytest.approx(
            math.exp(-2.0 * s) * moments(st)[2], rel=1e-9)

    def test_mean_momentum_contracts_by_expected_factor(self):
        grid = build_grid(4, 8, (0.0, 1.0), (-12.0, 12.0))
        st = encode_gaussian(grid, 0.5, 2.0, 0.15, 1.0)
        s = 0.04
        out = friction_step(st, s)
        assert moments(out)[1] == pytest.approx(
            math.exp(-s) * moments(st)[1], rel=1e-9)

    def test_zero_friction_is_identity(self):
        grid = build_grid(4, 6, (0.0, 1.0), (-8.0, 8.0))
        st = encode_gaussian(grid, 0.5, 1.0, 0.15, 0.8)
        out = friction_step(st, 0.0)
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_warns_when_packet_pushed_past_momentum_edge(self):
        grid = build_grid(4, 6, (0.0, 1.0), (-8.0, 8.0))
        st = encode_gaussian(grid, 0.5, 6.5, 0.15, 0.7)
        with pytest.warns(BoundaryLeakWarning):
            friction_step(st, 0.5)

    def test_rejects_negative_strength(self):
        grid = build_grid(4, 6, (0.0, 1.0), (-8.0, 8.0))
        with pytest.raises(ConfigurationError):
            FrictionOperator(grid, -0.1)

    def test_table_peak_is_the_table(self):
        # the on-node entries are found as one index per column; boolean
        # masks of the table's shape added 2 MiB at 2^10 (10.10 MiB)
        grid = build_grid(3, 10, (0.5, 4.5), (-42.5, 42.5))
        n_p = grid.shape[1]
        op, peak = traced_peak(FrictionOperator, grid, 0.01)
        assert op.matrix.nbytes == 8 * n_p * n_p
        assert peak <= op.matrix.nbytes + 2 ** 18


class TestDiffusionFilter:
    @pytest.mark.parametrize("sigma_h", [0.25, 0.9])
    def test_variance_increment_matches_quadrature_oracle(self, sigma_h):
        grid = build_grid(4, 8, (0.0, 1.0), (-16.0, 16.0))
        sigma_p = 1.3
        st = encode_gaussian(grid, 0.5, 0.0, 0.15, sigma_p)
        out, _ = diffusion_step(st, sigma_h)

        # independent 1-D oracle: the filtered amplitude spectrum is
        # cos(sigma_h k) exp(-sigma_p^2 k^2), and <P^2> follows from the
        # derivative identity  <P^2> = int |phi'|^2 / int |phi|^2
        k = np.linspace(-40.0, 40.0, 200001)
        phi = np.cos(sigma_h * k) * np.exp(-sigma_p ** 2 * k ** 2)
        dphi = (-sigma_h * np.sin(sigma_h * k)
                - 2.0 * sigma_p ** 2 * k * np.cos(sigma_h * k)) \
            * np.exp(-sigma_p ** 2 * k ** 2)
        expected = np.trapezoid(dphi ** 2, k) / np.trapezoid(phi ** 2, k)
        assert moments(out)[2] == pytest.approx(expected, rel=1e-8)
        if sigma_h < 0.5:
            # a weak filter adds sigma_h^2/2 of momentum variance
            assert moments(out)[2] - sigma_p ** 2 == pytest.approx(
                sigma_h ** 2 / 2.0, rel=0.05)

    def test_success_probability_is_prefilter_mass(self):
        grid = build_grid(4, 7, (0.0, 1.0), (-10.0, 10.0))
        st = encode_gaussian(grid, 0.5, 0.0, 0.15, 1.1)
        sigma_h = 0.7
        out, report = diffusion_step(st, sigma_h)
        spec = np.fft.fft(st.amplitudes, axis=1, norm="ortho")
        manual = np.sum(np.abs(spec * np.cos(sigma_h * grid.k_P)) ** 2) \
            * grid.cell
        assert report.success_probability == pytest.approx(manual, rel=1e-12)
        assert report.log_success == pytest.approx(
            math.log(report.success_probability))
        assert abs(norm_squared(out) - 1.0) < 1e-12

    def test_zero_width_filter_is_identity(self):
        grid = build_grid(4, 6, (0.0, 1.0), (-8.0, 8.0))
        st = encode_gaussian(grid, 0.5, 0.5, 0.15, 0.8)
        out, report = diffusion_step(st, 0.0)
        assert report.success_probability == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-13)

    def test_collapse_raises_when_filter_removes_state(self):
        grid = build_grid(3, 6, (0.0, 1.0), (-8.0, 8.0))
        # plane wave in P sits on a single k_P node; tune the filter zero
        # onto that node
        k_star = np.sort(grid.k_P)[3 * len(grid.k_P) // 4]
        amp = np.exp(1j * k_star * grid.P)[None, :] \
            * np.ones((grid.shape[0], 1))
        st = KvnState(amp.astype(np.complex128), grid)
        with pytest.raises(FilterCollapseError):
            diffusion_step(st, math.pi / (2.0 * k_star))

    def test_ideal_filter_keeps_calibrated_maxwell_stationary(self):
        params = calibrate(mu=1.0, gamma=0.05, dt=1.0, t_phys=1.0)
        grid = build_grid(3, 7, (0.0, 1.0), (-8.0, 8.0))
        st = maxwell_state(grid, params.mu, params.t_int)
        friction = FrictionOperator(grid, params.s)
        worst = 0.0
        for _ in range(80):
            st, _ = friction.apply(st)
            st, _ = ideal_diffusion_step(st, params.sigma_h)
            t_kin = moments(st)[2] / params.mu
            worst = max(worst, abs(t_kin / params.t_int - 1.0))
        assert worst < 1e-6


class TestThermostatedStep:
    def test_fused_step_equals_composed_substeps(self):
        mu = 918.0
        params = calibrate(mu=mu, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.5, 0.0, 0.1, 2.5)

        fused, report = langevin_step(st, pes, params)

        manual = nve_step(st, pes, mu, params.dt)
        manual = friction_step(manual, params.s)
        manual, manual_report = diffusion_step(manual, params.sigma_h)
        np.testing.assert_allclose(fused.amplitudes, manual.amplitudes,
                                   atol=1e-13)
        assert report.success_probability == pytest.approx(
            manual_report.success_probability, rel=1e-12)

    def test_stepper_reuses_tables_and_reports_leak(self):
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        stepper = LangevinStepper(grid, pes, params)
        st = encode_gaussian(grid, 1.5, 0.0, 0.1, 2.5)
        log_total = 0.0
        for _ in range(20):
            st, report = stepper.step(st)
            assert report.friction_leak < 1e-6
            log_total += report.log_success
        assert abs(norm_squared(st) - 1.0) < 1e-12
        assert log_total < 0.0  # each postselection loses some mass

    @pytest.mark.parametrize("gamma", [0.02, 0.0])
    def test_nan_amplitude_raises(self, gamma):
        # NaN compares False against the collapse floor and the leak
        # tolerance alike, so only an explicit finiteness check stops it
        params = dataclasses.replace(
            calibrate(mu=918.0, gamma=0.02, dt=0.5,
                      t_phys=kelvin_to_hartree(947.0)), gamma=gamma)
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.5, 0.0, 0.1, 2.5)
        st.amplitudes[10, 20] = np.nan
        with pytest.raises(NonFiniteAmplitudeError):
            LangevinStepper(grid, pes, params).step(st)

    @pytest.mark.parametrize("phase", [1j, np.exp(0.3j)])
    def test_step_refuses_an_imaginary_part(self, phase):
        # before the half spectra exist; a zero imaginary part is taken
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        grid = build_grid(8, 8, (0.6, 2.6), (-88.0, 88.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.5, 0.0, 0.1, 2.5)
        stepper = LangevinStepper(grid, pes, params)
        rotated = KvnState(phase * st.amplitudes, grid)

        def refused():
            with pytest.raises(ConfigurationError, match="imaginary"):
                stepper.step(rotated)

        _, peak = traced_peak(refused)
        assert peak < 8 * grid.shape[0] * grid.shape[1]  # not one table
        real, _ = stepper.step(st)
        as_complex = KvnState(st.amplitudes.astype(complex), grid)
        stepped, _ = stepper.step(as_complex)
        assert stepped.amplitudes.dtype == np.float64
        assert stepped.amplitudes.tobytes() == real.amplitudes.tobytes()

    def test_advance_keeps_its_input(self):
        # into a fresh array; relax passes out=a and steps in place
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.5, 0.0, 0.1, 2.5)
        stepper = LangevinStepper(grid, pes, params)
        a = stepper.to_half_spectra(st.amplitudes)
        kept = a.copy()
        stepper.advance(a)
        np.testing.assert_array_equal(a, kept)


class TestSharedScratch:
    # the kick's half spectrum lives in the output array where
    # N_R <= N_P, and the friction products land in the real plane
    SHAPES = [(5, 6), (6, 6), (6, 5)]

    @staticmethod
    def setup_run(n_r, n_p, gamma, p_max=22.0):
        params = dataclasses.replace(
            calibrate(mu=918.0, gamma=0.02, dt=0.5,
                      t_phys=kelvin_to_hartree(947.0)), gamma=gamma)
        grid = build_grid(n_r, n_p, (0.6, 2.6), (-p_max, p_max))
        amp = encode_gaussian(grid, 1.5, 3.0, 0.15, 3.0).amplitudes
        stepper = LangevinStepper(grid, morse_pes(de=0.17, alpha=1.0,
                                                  re=1.4), params)
        return stepper, stepper.to_half_spectra(amp)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("gamma", [0.0, 0.02])
    @pytest.mark.parametrize("into", ["new", "spare"])
    def test_matches_the_separate_buffer_step(self, shape, gamma, into):
        stepper, a = self.setup_run(*shape, gamma)
        ref = a.copy()
        spare = np.empty_like(a) if into == "spare" else None
        for _ in range(10):
            kept = a.copy()
            stepped, report = stepper.advance(a, out=spare)
            assert a.tobytes() == kept.tobytes()  # the input is kept
            ref, ref_report = separate_buffer_advance(stepper, ref)
            assert stepped.tobytes() == ref.tobytes()
            assert report == ref_report
            if into == "spare":
                a, spare = stepped, a
            else:
                a = stepped

    @pytest.mark.parametrize("shape", SHAPES)
    def test_spectrum_buffer_only_where_the_stack_cannot_hold_it(self,
                                                                 shape):
        stepper, a = self.setup_run(*shape, 0.02)
        stepper.advance(a)
        plane, spectrum = stepper._planes()
        # two rows more than the grid, for friction's operand and product
        assert plane.shape == ((1 << shape[0]) + 2, 1 << shape[1])
        assert (spectrum is None) == (shape[0] <= shape[1])

    @pytest.mark.parametrize("shape, p_max", [(shape, 22.0) for shape in
                                              SHAPES]
                             + [((8, 7), 88.0), ((7, 8), 88.0)])
    def test_density_is_grid_density(self, shape, p_max):
        # formed in the plane's first N_R rows, which the next advance
        # overwrites
        stepper, a = self.setup_run(*shape, 0.02, p_max)
        a, _ = stepper.advance(a)
        table = KvnState(stepper.from_half_spectra(a), stepper.grid)
        rho = stepper.density(a)
        assert rho.tobytes() == density(table).tobytes()
        assert np.shares_memory(rho, stepper._planes()[0])


class TestHalfSpectra:
    # a real table, and complex ones whose imaginary part is +0 or -0
    TABLES = {"real": lambda a: a, "complex-real": lambda a: a + 0j,
              "complex-negative-zero": lambda a: (a + 0j).conj()}

    @pytest.mark.parametrize("kind", list(TABLES))
    def test_round_trip_returns_the_real_table(self, kind):
        grid = build_grid(6, 5, (0.6, 2.6), (-22.0, 22.0))
        st = encode_gaussian(grid, 1.5, 3.0, 0.15, 3.0)
        table = self.TABLES[kind](st.amplitudes)
        a = LangevinStepper.to_half_spectra(table)
        assert a.shape == (grid.shape[0] // 2 + 1, grid.shape[1])
        assert a.tobytes() == LangevinStepper.to_half_spectra(
            st.amplitudes).tobytes()
        stepper = LangevinStepper(grid, morse_pes(de=0.17, alpha=1.0,
                                                  re=1.4),
                                  calibrate(mu=918.0, gamma=0.02, dt=0.5,
                                            t_phys=kelvin_to_hartree(947.0)))
        back = stepper.from_half_spectra(a)
        assert back.dtype == np.float64
        np.testing.assert_allclose(back, st.amplitudes, rtol=0.0,
                                   atol=1e-15)

    @pytest.mark.parametrize("phase", [1j, np.exp(0.3j)])
    def test_refuses_an_imaginary_part_before_the_stepper_exists(self,
                                                                  phase):
        grid = build_grid(6, 5, (0.6, 2.6), (-22.0, 22.0))
        st = encode_gaussian(grid, 1.5, 3.0, 0.15, 3.0)
        with pytest.raises(ConfigurationError, match="imaginary"):
            LangevinStepper.to_half_spectra(phase * st.amplitudes)


class TestMomentumBiasExperiment:
    def test_matches_product_oracle_and_weak_friction_law(self):
        params = calibrate(mu=1.0, gamma=0.05, dt=1.0, t_phys=1.0)
        grid = build_grid(3, 7, (0.0, 1.0), (-8.0, 8.0))
        res = momentum_bias_experiment(grid, params)
        assert res.bias == pytest.approx(cos_filter_stationary_bias(0.05),
                                         rel=1e-2)
        assert res.bias == pytest.approx(0.5 * math.tanh(0.05), rel=0.10)

    def test_raises_without_stationarity(self):
        params = calibrate(mu=1.0, gamma=0.01, dt=1.0, t_phys=1.0)
        grid = build_grid(3, 6, (0.0, 1.0), (-8.0, 8.0))
        with pytest.raises(ConvergenceError):
            momentum_bias_experiment(grid, params, n_steps_max=30)

    @pytest.mark.parametrize("s", [0.005, 0.01, 0.05])
    def test_real_row_matches_the_complex_loop(self, s):
        # the shipped bias-check grid: H2 mass at 947 K, 2^10 P nodes
        params = calibrate(mu=918.0, gamma=s, dt=1.0,
                           t_phys=kelvin_to_hartree(947.0))
        p_max = 8.0 * math.sqrt(918.0 * params.t_int)
        grid = build_grid(3, 10, (0.0, 1.0), (-p_max, p_max))
        got = momentum_bias_experiment(grid, params)
        ref = complex_bias_experiment(grid, params)
        assert got.n_steps == ref.n_steps
        assert got.bias == pytest.approx(ref.bias, rel=1e-10, abs=0.0)


class TestRealRows:
    @pytest.mark.parametrize("s", [0.0, 0.01])
    def test_filtered_real_rows_match_the_complex_path(self, s):
        # the row dilation and the even filter keep real rows real, so the
        # rfft path is the real part of the complex one, here given the
        # same dilation as a callable (s = 0: no friction)
        grid = build_grid(3, 8, (0.0, 1.0), (-40.0, 40.0))
        rng = np.random.default_rng(7)
        rows = np.exp(-(grid.P / 12.0) ** 2) * rng.uniform(
            0.5, 1.5, (4, 1)) + 1e-3 * rng.standard_normal((4, 256))
        weights = rng.uniform(0.5, 2.0, 4)
        rows /= math.sqrt(weights @ np.sum(rows ** 2, axis=1))
        friction = _RowDilation(grid, s) if s > 0.0 else None
        complex_friction = (None if friction is None
                            else lambda x: friction(x.real).astype(complex))
        cos_filter = np.cos(0.4 * grid.k_P)
        kept = rows.copy()
        got, report = _filtered(rows, friction, cos_filter, weights)
        ref, ref_report = _filtered(rows.astype(complex), complex_friction,
                                    cos_filter, weights)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(rows, kept)
        np.testing.assert_allclose(got, ref.real, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))
        assert report.success_probability == pytest.approx(
            ref_report.success_probability, rel=1e-14)
        assert report.log_success == pytest.approx(ref_report.log_success,
                                                   rel=1e-14, abs=1e-14)
        assert report.friction_leak == pytest.approx(
            ref_report.friction_leak, rel=0, abs=1e-14)

    def test_real_rows_keep_the_failure_checks(self):
        # each failure the complex path reports with the friction table,
        # the real path reports with the row dilation
        grid = build_grid(3, 8, (0.0, 1.0), (-40.0, 40.0))
        frictions = {np.float64: _RowDilation(grid, 0.01),
                     np.complex128: FrictionOperator(grid, 0.01).matrix}
        cos_filter = np.cos(0.4 * grid.k_P)
        row = np.exp(-(grid.P / 12.0) ** 2)[None, :]
        row /= math.sqrt(np.sum(row ** 2))
        bad = row.copy()
        bad[0, 100] = np.nan
        for dtype, friction in frictions.items():
            with pytest.raises(NonFiniteAmplitudeError):
                _filtered(bad.astype(dtype), friction, cos_filter,
                          np.ones(1))
            with pytest.raises(FilterCollapseError):
                _filtered(row.astype(dtype), friction,
                          np.zeros_like(cos_filter), np.ones(1))
            with pytest.warns(BoundaryLeakWarning):
                _filtered(np.roll(row, 120).astype(dtype), friction,
                          cos_filter, np.ones(1))


class TestRowDilation:
    @staticmethod
    def bias_grid(n_p, s):
        # the shipped bias-check grid: H2 mass at 947 K
        params = calibrate(mu=918.0, gamma=s, dt=1.0,
                           t_phys=kelvin_to_hartree(947.0))
        p_max = 8.0 * math.sqrt(918.0 * params.t_int)
        return build_grid(3, n_p, (0.0, 1.0), (-p_max, p_max)), params

    @pytest.mark.parametrize("s", [0.005, 0.05, 0.3])
    def test_maxwell_row_matches_the_table(self, s):
        grid, params = self.bias_grid(10, s)
        row = np.exp(-grid.P[None, :] ** 2 / (4.0 * params.mu * params.t_int))
        ref = row @ FrictionOperator(grid, s).matrix
        got = _RowDilation(grid, s)(row)
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))

    def test_real_rows_keep_the_failure_checks(self):
        grid = build_grid(3, 8, (0.0, 1.0), (-40.0, 40.0))
        friction = _RowDilation(grid, 0.01)
        cos_filter = np.cos(0.4 * grid.k_P)
        row = np.exp(-(grid.P / 12.0) ** 2)[None, :]
        row /= math.sqrt(np.sum(row ** 2))
        bad = row.copy()
        bad[0, 100] = np.nan
        with pytest.raises(NonFiniteAmplitudeError):
            _filtered(bad, friction, cos_filter, np.ones(1))
        with pytest.raises(FilterCollapseError):
            _filtered(row, friction, np.zeros_like(cos_filter), np.ones(1))
        with pytest.warns(BoundaryLeakWarning):
            _filtered(np.roll(row, 120), friction, cos_filter, np.ones(1))

    @pytest.mark.parametrize("n_p", [8, 10, 12])
    def test_bias_experiment_peak_stays_within_the_estimate(self, n_p):
        # no N_P x N_P table: 2^12 nodes would take 128 MiB for it
        grid, params = self.bias_grid(n_p, 0.05)
        res, peak = traced_peak(momentum_bias_experiment, grid, params)
        assert isinstance(res.n_steps, int)
        assert peak <= _RowDilation.memory_estimate(grid) + 2 ** 14
        assert peak <= 2 * 2 ** 20

    def test_bias_preflight_refuses_before_allocating(self, monkeypatch):
        grid, params = self.bias_grid(14, 0.05)
        need = _RowDilation.memory_estimate(grid)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)

        def refused():
            with pytest.raises(MemoryBudgetError, match="_RowDilation"):
                momentum_bias_experiment(grid, params)

        _, peak = traced_peak(refused)
        assert peak < 2 ** 16


def test_warns_when_filter_band_exceeds_half_pi():
    # dP = 0.3125 here, well under 2*sigma_H ~ 0.66: the cosine argument
    # passes pi/2 inside the band, so parts of the momentum spectrum are
    # never damped and long runs can heat without bound
    params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                       t_phys=kelvin_to_hartree(947.0))
    grid = build_grid(6, 7, (0.6, 2.6), (-20.0, 20.0))
    pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
    with pytest.warns(FilterBandWarning):
        LangevinStepper(grid, pes, params)


def test_module_stays_silent_on_healthy_inputs():
    # no stray warnings from a well-resolved, well-contained run
    params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                       t_phys=kelvin_to_hartree(947.0))
    grid = build_grid(6, 7, (0.6, 2.6), (-44.0, 44.0))
    pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
    stepper = LangevinStepper(grid, pes, params)
    st = encode_gaussian(grid, 1.45, 0.0, 0.1, 2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(50):
            st, _ = stepper.step(st)


class TestMemoryPreflight:
    # the probe is patched; no test here allocates a large table
    @staticmethod
    def big_grid():
        return build_grid(14, 14, (0.5, 4.5), (-340.0, 340.0))

    def test_estimates_at_fourteen_qubits(self):
        grid = self.big_grid()
        n = 1 << 14
        state = 2 * 16 * n * n  # two complex128 copies, 8 GiB
        # the (R, P) input and the chain's two working tables, 12 GiB
        chain = 3 * 16 * n * n
        assert NvePropagator.memory_estimate(grid) == 2 * 16 * n * n + chain
        assert NvePropagator.memory_estimate(grid) == 20 * 2 ** 30
        assert FrictionOperator.memory_estimate(grid, 0.01) == \
            8 * n * n + state
        assert FrictionOperator.memory_estimate(grid, 0.0) == state
        half = 16 * ((n // 2 + 1) * n + n * (n // 2 + 1))
        # the one resting half spectrum, stepped in place, and the real
        # plane of N_R + 2 rows; on a square grid the kick's half
        # spectrum lives in the resting one
        arrays = 16 * (n // 2 + 1) * n + 8 * (n + 2) * n
        assert LangevinStepper.memory_estimate(grid, 0.01) == \
            half + 8 * n * n + arrays
        assert LangevinStepper.memory_estimate(grid, 0.01) == 10_738_466_816
        assert LangevinStepper.memory_estimate(grid, 0.0) == half + arrays

    def test_estimate_counts_the_spectrum_where_the_stack_cannot_hold_it(
            self):
        # 2^14 x 2^12: an (R, k_P) half spectrum holds N_R - N_P more
        # complex values than the resting half spectrum
        grid = build_grid(14, 12, (0.5, 4.5), (-340.0, 340.0))
        n_r, n_p = 1 << 14, 1 << 12
        half = 16 * ((n_r // 2 + 1) * n_p + n_r * (n_p // 2 + 1))
        arrays = (16 * (n_r // 2 + 1) * n_p + 8 * (n_r + 2) * n_p
                  + 16 * n_r * (n_p // 2 + 1))
        assert LangevinStepper.memory_estimate(grid, 0.0) == half + arrays

    @pytest.mark.parametrize("kind", ["time-symmetric", "random"])
    def test_autocorrelation_holds_two_working_tables(self, kind):
        # the estimate's chain term: besides the caller's input, both the
        # doubled and the full chain allocate at most two state tables,
        # plus numpy's fixed-size ufunc buffers (3 x 8192 complex items)
        grid = build_grid(8, 8, (0.6, 2.6), (-22.0, 22.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        prop = NvePropagator(grid, pes, 918.0, 0.5)
        if kind == "time-symmetric":
            amp = maxwell_state(grid, 918.0, 0.003).amplitudes
            amp = amp * (grid.R - 1.5)[:, None]
        else:
            rng = np.random.default_rng(3)
            amp = rng.normal(size=grid.shape) + 1j * rng.normal(
                size=grid.shape)
        table = 16 * grid.shape[0] * grid.shape[1]
        prop.autocorrelation(amp, 2)  # leaves the FFT plan caches warm
        _, peak = traced_peak(prop.autocorrelation, amp, 12, 2)
        assert 2 * table <= peak < 2 * table + 2 ** 19
        # two phase tables, the input and the two working tables
        assert NvePropagator.memory_estimate(grid) == 5 * table

    @pytest.mark.parametrize("build", [
        lambda g, pes, p: NvePropagator(g, pes, p.mu, p.dt),
        lambda g, pes, p: FrictionOperator(g, p.s),
        lambda g, pes, p: LangevinStepper(g, pes, p),
    ])
    def test_refuses_before_allocating(self, monkeypatch, build):
        grid = self.big_grid()
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: 4 * 2 ** 30)
        with pytest.raises(MemoryBudgetError, match="GiB"):
            build(grid, pes, params)

    def test_constructor_check_covers_step(self, monkeypatch):
        # `step` advances its one fresh half spectrum in place, the
        # working set that the constructor checks: at the estimate both
        # pass, one byte below it the constructor refuses
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        st = encode_gaussian(grid, 1.5, 0.0, 0.15, 2.5)
        need = LangevinStepper.memory_estimate(grid, params.s)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        stepper = LangevinStepper(grid, pes, params)
        stepped, _ = stepper.step(st)
        a = stepper.to_half_spectra(st.amplitudes)
        fresh, _ = stepper.advance(a)
        assert stepped.amplitudes.tobytes() == \
            stepper.from_half_spectra(fresh).tobytes()
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        with pytest.raises(MemoryBudgetError, match="LangevinStepper"):
            LangevinStepper(grid, pes, params)

    def test_estimate_at_the_limit_passes(self, monkeypatch):
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        need = NvePropagator.memory_estimate(grid)
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        NvePropagator(grid, pes, 918.0, 0.5)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        with pytest.raises(MemoryBudgetError):
            NvePropagator(grid, pes, 918.0, 0.5)

    @pytest.mark.parametrize("meminfo, available", [
        ("MemTotal:        8222236 kB\nMemFree:         6381396 kB\n"
         "MemAvailable:    7694060 kB\n", 7694060 * 1024),
        ("MemTotal:        8222236 kB\n", None),
        ("MemAvailable:    n/a\n", None),
        ("MemAvailable:\n", None),
    ])
    def test_reads_memavailable_else_physical_memory(self, monkeypatch,
                                                     tmp_path, meminfo,
                                                     available):
        # MemAvailable counts reclaimable cache, which MemFree does not;
        # a host without a readable one falls back to its physical memory
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        path = tmp_path / "meminfo"
        path.write_text(meminfo)
        monkeypatch.setattr(kvnmd.propagator, "_MEMINFO", str(path))
        assert kvnmd.propagator._available_memory() == (available or physical)
        monkeypatch.setattr(kvnmd.propagator, "_MEMINFO",
                            str(tmp_path / "missing"))
        assert kvnmd.propagator._available_memory() == physical

    @pytest.mark.parametrize("unavailable", ["missing", "raises"])
    def test_skipped_where_memory_cannot_be_read(self, monkeypatch, tmp_path,
                                                 unavailable):
        # hosts without /proc/meminfo and without os.sysconf (Windows) or
        # without the page counts
        monkeypatch.setattr(kvnmd.propagator, "_MEMINFO",
                            str(tmp_path / "missing"))
        if unavailable == "missing":
            monkeypatch.delattr(kvnmd.propagator.os, "sysconf")
        else:
            def sysconf(name):
                raise ValueError(f"unrecognized configuration name {name}")
            monkeypatch.setattr(kvnmd.propagator.os, "sysconf", sysconf)
        assert kvnmd.propagator._available_memory() is None
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        params = calibrate(mu=918.0, gamma=0.02, dt=0.5,
                           t_phys=kelvin_to_hartree(947.0))
        pes = morse_pes(de=0.17, alpha=1.0, re=1.4)
        NvePropagator(grid, pes, params.mu, params.dt)
        FrictionOperator(grid, params.s)
        LangevinStepper(grid, pes, params)
