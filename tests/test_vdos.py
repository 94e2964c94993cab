import math

import numpy as np
import pytest

from kvnmd.constants import WAVENUMBER_PER_HARTREE, kelvin_to_hartree
from kvnmd.diagnostics import canonical_reference
from kvnmd.electronic import PesModel, bundled_h2_table, morse_pes, pauli_pes
from kvnmd.errors import (ConfigurationError, DomainError, MemoryBudgetError,
                          NonFiniteAmplitudeError, SingularityError)
from kvnmd.grid import KvnState, build_grid, encode_gaussian
from kvnmd.oracles import (_BLOCK, TrajectoryEnsemble, canonical_sampler,
                           verlet_blocks, verlet_blocks_memory_estimate,
                           verlet_ensemble)
import kvnmd.propagator
from kvnmd.propagator import NvePropagator
from kvnmd.tst import analytic_canonical_state
from kvnmd.vdos import (QpeConfig, _trajectory_correlation,
                        aimd_reference_spectrum, branch_spectra,
                        prepare_branch_states, qpe_distribution,
                        reference_frequency)
from reference_steps import (fejer_kernel, fejer_loop_reference,
                             kvn_autocorrelation, minus_branch,
                             qpe_spectrum, step_autocorrelation, traced_peak)

MU = 918.0
W0 = 0.02
RE = 1.4


def harmonic() -> PesModel:
    k = MU * W0 * W0
    arr = lambda r: np.asarray(r, float)
    return PesModel(kind="harmonic", domain=(-math.inf, math.inf),
                    v=lambda r: 0.5 * k * (arr(r) - RE) ** 2,
                    f=lambda r: -k * (arr(r) - RE))


def thermal_state(grid, pes, t):
    rho = canonical_reference(grid, pes, MU, t)
    return KvnState(np.sqrt(rho).astype(complex), grid)


def diagonal_step(omega, tau):
    ph = np.exp(-1j * omega * tau)
    return lambda s: KvnState(ph * s.amplitudes, s.grid)


class TestQpeConfig:
    def test_bin_geometry(self):
        cfg = QpeConfig(m=7, tau=20.0, omega_shift=0.001)
        assert cfg.n_bins == 128
        assert cfg.window_width == pytest.approx(2 * math.pi / 20.0, rel=1e-15)
        assert cfg.bin_width == pytest.approx(cfg.window_width / 128,
                                              rel=1e-15)
        centers = cfg.bin_centers()
        assert centers[0] == 0.001
        assert np.allclose(np.diff(centers), cfg.bin_width)

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, tau=1.0), dict(m=17, tau=1.0), dict(m=5, tau=0.0),
        dict(m=5, tau=-2.0), dict(m=5, tau=1.0, inner_steps=0),
        dict(m=5, tau=math.nan), dict(m=5, tau=math.inf),
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigurationError):
            QpeConfig(**kwargs)


class TestFejerKernel:
    def test_peak_value_and_periodicity(self):
        for m in (3, 5, 7):
            assert fejer_kernel(0.0, m) == float(1 << m)
            assert fejer_kernel(2 * math.pi, m) == pytest.approx(1 << m)
        theta = np.linspace(-3.0, 3.0, 301)
        np.testing.assert_allclose(fejer_kernel(theta + 2 * math.pi, 5),
                                   fejer_kernel(theta, 5), rtol=1e-8)

    def test_bin_sum_partition(self):
        # kernel samples over one bin grid resolve unity for any offset
        m, n = 5, 32
        for theta0 in (0.0, 0.17, 1.9):
            grid_theta = theta0 + 2 * math.pi * np.arange(n) / n
            assert fejer_kernel(grid_theta, m).sum() / n == pytest.approx(
                1.0, abs=1e-12)


class TestReferenceFrequency:
    def test_harmonic_exact(self):
        nodes = np.linspace(0.4, 2.4, 128)
        got = reference_frequency(harmonic(), MU, nodes)
        assert got == pytest.approx(W0, rel=1e-6)

    def test_morse_curvature(self):
        de, alpha, re = 0.1744, 1.02764, 1.40201
        exact = math.sqrt(2 * de * alpha ** 2 / MU)
        # fit window spans 10 node gaps, so anharmonic bias drops with density
        coarse = reference_frequency(morse_pes(de, alpha, re), MU,
                                     np.linspace(0.5, 4.5, 256))
        dense = reference_frequency(morse_pes(de, alpha, re), MU,
                                    np.linspace(0.5, 4.5, 1024))
        assert coarse == pytest.approx(exact, rel=2e-2)
        assert dense == pytest.approx(exact, rel=5e-3)

    def test_stable_under_halved_fit_window(self):
        de, alpha, re = 0.1744, 1.02764, 1.40201
        pes = morse_pes(de, alpha, re)
        nodes = np.linspace(0.5, 4.5, 256)
        full = reference_frequency(pes, MU, nodes)
        v = pes.v(nodes)
        i0 = int(np.argmin(v))
        w = slice(i0 - 2, i0 + 3)
        coeffs = np.polyfit(nodes[w] - nodes[i0], v[w], 2)
        halved = math.sqrt(2 * coeffs[0] / MU)
        assert abs(full - halved) / halved < 2e-3

    def test_boundary_minimum_rejected(self):
        nodes = np.linspace(1.5, 4.5, 64)  # minimum of V sits left of range
        with pytest.raises(DomainError):
            reference_frequency(morse_pes(0.1744, 1.02764, 1.40201), MU, nodes)


class TestPrepareBranchStates:
    def test_weights_are_symmetric(self):
        # the weight returned serves both branches: the minus branch,
        # built directly, has it too
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        st = encode_gaussian(grid, 1.3, 1.5, 0.12, 2.0)
        _, w_plus = prepare_branch_states(st, W0, MU)
        _, w_minus = minus_branch(st, W0, MU)
        assert abs(w_plus - w_minus) < 1e-10 * w_plus

    def test_real_state_branches_share_density(self):
        # the minus branch built directly is the conjugate of alpha_plus
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        st = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        a_plus, _ = prepare_branch_states(st, W0, MU)
        a_minus, _ = minus_branch(st, W0, MU)
        np.testing.assert_allclose(a_plus.amplitudes.conj(),
                                   a_minus.amplitudes, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.abs(a_plus.amplitudes) ** 2,
                                   np.abs(a_minus.amplitudes) ** 2,
                                   atol=1e-14)

    def test_weight_matches_moment_quadrature(self):
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        st = encode_gaussian(grid, 1.5, 0.8, 0.15, 1.8)
        _, w_plus = prepare_branch_states(st, W0, MU)
        rho = np.abs(st.amplitudes) ** 2
        r_mean = np.sum(rho * grid.R[:, None]) * grid.cell
        q2 = np.sum(rho * (grid.R[:, None] - r_mean) ** 2) * grid.cell
        pi2 = np.sum(rho * (grid.P[None, :] / (MU * W0)) ** 2) * grid.cell
        assert w_plus == pytest.approx(q2 + pi2, abs=1e-8)

    def test_point_state_has_no_branch(self):
        grid = build_grid(5, 5, (0.0, 2.0), (-4.0, 4.0))
        amps = np.zeros(grid.shape, dtype=complex)
        amps[10, 16] = 1.0 / math.sqrt(grid.cell)  # P node exactly at zero
        assert grid.P[16] == 0.0
        st = KvnState(amps, grid)
        with pytest.raises(SingularityError):
            prepare_branch_states(st, W0, MU)

    def test_input_validation(self):
        grid = build_grid(5, 5, (0.0, 2.0), (-4.0, 4.0))
        st = encode_gaussian(grid, 1.0, 0.0, 0.15, 1.0)
        with pytest.raises(ConfigurationError):
            prepare_branch_states(st, 0.0, MU)


class TestQpeDistribution:
    def test_on_bin_eigenstate_is_deterministic(self):
        cfg = QpeConfig(m=5, tau=2.0)
        grid = build_grid(3, 3, (0.0, 1.0), (-1.0, 1.0))
        st = encode_gaussian(grid, 0.5, 0.0, 0.26, 0.5)
        corr = step_autocorrelation(
            st, diagonal_step(cfg.bin_centers()[7], 2.0), cfg.n_bins)
        prob = qpe_distribution(corr, cfg)
        assert prob[7] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.delete(prob, 7)) < 1e-12

    def test_off_bin_eigenstate_follows_kernel(self):
        cfg = QpeConfig(m=5, tau=2.0, omega_shift=0.05)
        grid = build_grid(3, 3, (0.0, 1.0), (-1.0, 1.0))
        st = encode_gaussian(grid, 0.5, 0.0, 0.26, 0.5)
        omega = cfg.bin_centers()[11] + 0.37 * cfg.bin_width
        corr = step_autocorrelation(st, diagonal_step(omega, 2.0), cfg.n_bins)
        prob = qpe_distribution(corr, cfg)
        ref = fejer_kernel((omega - cfg.bin_centers()) * cfg.tau,
                           cfg.m) / cfg.n_bins
        np.testing.assert_allclose(prob, ref, atol=1e-10)
        assert prob.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_fft_transform_matches_dense_phase_matrix(self, m):
        cfg = QpeConfig(m=m, tau=3.0, omega_shift=0.17)
        m_bins = cfg.n_bins
        rng = np.random.default_rng(m)
        corr = rng.normal(size=m_bins) + 1j * rng.normal(size=m_bins)
        corr[0] = m_bins  # keeps the dense probabilities positive
        d_idx = np.arange(1, m_bins)
        theta = cfg.omega_shift * cfg.tau \
            + 2.0 * math.pi * np.arange(m_bins) / m_bins
        phases = np.exp(1j * np.outer(theta, d_idx))
        dense = (m_bins * corr[0].real + 2.0 * (
            phases @ ((m_bins - d_idx) * corr[1:])).real) / m_bins ** 2
        assert np.all(dense > 0.0)
        np.testing.assert_allclose(qpe_distribution(corr, cfg), dense,
                                   rtol=0.0, atol=1e-12)

    def test_matches_directly_accumulated_sums(self):
        # brute-force route: keep all 2^m weighted running sums alive
        pes = harmonic()
        grid = build_grid(4, 4, (0.8, 2.0), (-9.0, 9.0))
        eq = thermal_state(grid, pes, kelvin_to_hartree(300.0))
        cfg = QpeConfig(m=4, tau=15.0, omega_shift=0.003, inner_steps=2)
        alpha, _ = prepare_branch_states(eq, W0, MU)
        spec = qpe_spectrum(alpha, pes, MU, cfg)

        m_bins = cfg.n_bins
        prop = NvePropagator(grid, pes, MU, cfg.tau / cfg.inner_steps)
        acc = np.zeros((m_bins,) + grid.shape, dtype=complex)
        st = alpha.copy()
        for k in range(m_bins):
            for j in range(m_bins):
                acc[j] += np.exp(1j * k * (cfg.omega_shift * cfg.tau
                                           + 2 * math.pi * j / m_bins)
                                 ) * st.amplitudes
            st = prop.step(prop.step(st))
        direct = np.array([np.sum(np.abs(a / m_bins) ** 2) * grid.cell
                           for a in acc])
        np.testing.assert_allclose(spec.prob, direct, atol=1e-12)


class TestQpeSpectrum:
    def settings(self):
        return QpeConfig(m=7, tau=20.0, inner_steps=4)

    def test_harmonic_peak_lands_on_frequency_bin(self):
        cfg = self.settings()
        grid = build_grid(7, 7, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        plus, minus = branch_spectra(eq, harmonic(), MU, cfg)
        expected = int(round(W0 / cfg.bin_width))
        assert plus.peak_bin == expected
        assert minus.peak_bin == expected
        assert plus.prob.sum() == pytest.approx(1.0, abs=1e-10)
        assert minus.prob.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(plus.prob >= 0.0)
        assert plus.branch_weight == pytest.approx(minus.branch_weight,
                                                   rel=1e-10)

    def test_reference_frequency_mismatch_does_not_move_peak(self):
        cfg = self.settings()
        grid = build_grid(7, 7, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        peaks = set()
        for scale in (0.8, 1.0, 1.2):
            plus, _ = branch_spectra(eq, harmonic(), MU, cfg,
                                     omega_ref=scale * W0)
            peaks.add(plus.peak_bin)
        assert len(peaks) == 1

    def test_real_state_spectra_mirror(self):
        cfg = self.settings()
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        plus, minus = branch_spectra(eq, harmonic(), MU, cfg)
        m_bins = cfg.n_bins
        mirrored = plus.prob[(-np.arange(m_bins)) % m_bins]
        np.testing.assert_allclose(minus.prob, mirrored, atol=1e-10)

    @pytest.mark.parametrize("phase", [0.0, 0.7])
    def test_branch_spectra_match_propagated_branches(self, phase):
        # the minus branch is read off the plus chain by conjugation; here
        # the conjugate of alpha_plus is propagated on its own chain. A
        # phase field gives the table an imaginary part, which both calls
        # refuse before their preflight and before one (R, P) table.
        cfg = QpeConfig(m=5, tau=20.0, inner_steps=2)
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        field = np.cos(3.0 * grid.R[:, None] + 0.2 * grid.P[None, :])
        eq = KvnState(eq.amplitudes * np.exp(1j * phase * field), grid)
        if phase:
            def refused():
                for call in (lambda: branch_spectra(eq, harmonic(), MU, cfg,
                                                    omega_ref=W0),
                             lambda: prepare_branch_states(eq, W0, MU)):
                    with pytest.raises(ConfigurationError, match="imaginary"):
                        call()

            _, peak = traced_peak(refused)
            assert peak < 8 * grid.shape[0] * grid.shape[1]
            return
        plus, minus = branch_spectra(eq, harmonic(), MU, cfg, omega_ref=W0)
        alpha_p, _ = prepare_branch_states(eq, W0, MU)
        alpha_m = KvnState(alpha_p.amplitudes.conj(), grid)
        direct_p = qpe_spectrum(alpha_p, harmonic(), MU, cfg)
        direct_m = qpe_spectrum(alpha_m, harmonic(), MU, cfg)
        np.testing.assert_allclose(plus.prob, direct_p.prob, atol=1e-12)
        np.testing.assert_allclose(minus.prob, direct_m.prob, atol=1e-12)
        assert (minus.branch, plus.branch) == ("minus", "plus")

    def test_canonical_branches_read_two_lags_per_power(self, monkeypatch):
        # the branch states of the real, P-even canonical amplitude are
        # time-reversal symmetric: 2^m / 2 powers give all 2^m lags
        cfg = QpeConfig(m=6, tau=20.0, inner_steps=4)
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        kicks = []
        kick = NvePropagator._kick
        monkeypatch.setattr(NvePropagator, "_kick",
                            lambda self, a: (kicks.append(1), kick(self, a)))
        plus, minus = branch_spectra(eq, harmonic(), MU, cfg, omega_ref=W0)
        assert len(kicks) == cfg.n_bins // 2 * cfg.inner_steps
        monkeypatch.undo()

        alpha_p, _ = prepare_branch_states(eq, W0, MU)
        prop = NvePropagator(grid, harmonic(), MU, cfg.tau / cfg.inner_steps)

        def power(s):
            for _ in range(cfg.inner_steps):
                s = prop.step(s)
            return s

        corr = step_autocorrelation(alpha_p, power, cfg.n_bins)
        np.testing.assert_allclose(plus.prob, qpe_distribution(corr, cfg),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(minus.prob,
                                   qpe_distribution(corr.conj(), cfg),
                                   rtol=0.0, atol=1e-12)

    def test_frequency_axis_is_reported_in_wavenumbers(self):
        cfg = QpeConfig(m=3, tau=2.0)
        grid = build_grid(3, 3, (0.0, 1.0), (-1.0, 1.0))
        st = encode_gaussian(grid, 0.5, 0.0, 0.26, 0.5)
        spec = qpe_spectrum(st, harmonic(), MU, cfg)
        np.testing.assert_allclose(spec.omega_cm1,
                                   spec.omega_au * WAVENUMBER_PER_HARTREE)


class TestBranchSpectraMemory:
    @staticmethod
    def equilibrium(kind):
        grid = build_grid(8, 8, (0.4, 2.4), (-12.0, 12.0))
        eq = analytic_canonical_state(grid, harmonic(), MU,
                                      kelvin_to_hartree(300.0))
        if kind == "complex":
            eq = KvnState(eq.amplitudes * np.exp(0.3j * grid.R[:, None]), grid)
        return grid, eq

    @staticmethod
    def count(grid):
        # the chain's estimate plus the float64 equilibrium table
        n = grid.shape[0] * grid.shape[1]
        return NvePropagator.memory_estimate(grid) + 8 * n

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_peaks_within_preflight_count(self, kind, monkeypatch):
        grid, eq = self.equilibrium(kind)
        cfg = QpeConfig(m=3, tau=20.0)
        if kind == "complex":
            # refused before the preflight, which would refuse any run
            # here, and before one (R, P) table
            monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                                lambda: 0)

            def refused():
                with pytest.raises(ConfigurationError, match="imaginary"):
                    branch_spectra(eq, harmonic(), MU, cfg, W0)

            _, peak = traced_peak(refused)
            assert peak < 8 * grid.shape[0] * grid.shape[1]
            return
        branch_spectra(eq, harmonic(), MU, cfg, W0)  # warms the FFT plans
        _, peak = traced_peak(branch_spectra, eq, harmonic(), MU, cfg, W0)
        # eq_state exists before tracing starts; numpy's fixed ufunc
        # buffers (3 x 8192 complex items) come on top of any count
        assert eq.amplitudes.nbytes + peak <= self.count(grid) + 2 ** 19

    def test_complex_zero_phase_gives_the_real_spectra(self):
        grid, eq = self.equilibrium("real")
        cfg = QpeConfig(m=4, tau=20.0, inner_steps=2)
        real = branch_spectra(eq, harmonic(), MU, cfg, W0)
        # imaginary parts of +0 and -0
        for amps in (eq.amplitudes.astype(complex),
                     eq.amplitudes.astype(complex).conj()):
            spectra = branch_spectra(KvnState(amps, grid),
                                     harmonic(), MU, cfg, W0)
            for ours, theirs in zip(spectra, real):
                assert ours.prob.tobytes() == theirs.prob.tobytes()
                assert ours.branch_weight == theirs.branch_weight

    def test_preflight_counts_the_equilibrium_table(self, monkeypatch):
        grid, eq = self.equilibrium("real")
        cfg = QpeConfig(m=3, tau=20.0)
        need = self.count(grid)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        with pytest.raises(MemoryBudgetError, match="branch_spectra"):
            branch_spectra(eq, harmonic(), MU, cfg, W0)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        branch_spectra(eq, harmonic(), MU, cfg, W0)


class TestKvnAutocorrelation:
    def test_zero_lag_is_coordinate_variance(self):
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        series = kvn_autocorrelation(eq, harmonic(), MU, 2.0, 4)
        rho = np.abs(eq.amplitudes) ** 2
        r_mean = np.sum(rho * grid.R[:, None]) * grid.cell
        q2 = np.sum(rho * (grid.R[:, None] - r_mean) ** 2) * grid.cell
        assert series[0].imag == 0.0
        assert series[0].real == pytest.approx(q2, abs=1e-12)

    def test_coordinate_state_reads_two_lags_per_step(self, monkeypatch):
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        kicks = []
        kick = NvePropagator._kick
        monkeypatch.setattr(NvePropagator, "_kick",
                            lambda self, a: (kicks.append(1), kick(self, a)))
        series = kvn_autocorrelation(eq, harmonic(), MU, 2.0, 9)
        assert len(kicks) == 4
        monkeypatch.undo()

        rho = np.abs(eq.amplitudes) ** 2
        r_mean = np.sum(rho * grid.R[:, None]) * grid.cell
        q_state = KvnState((grid.R - r_mean)[:, None] * eq.amplitudes, grid)
        prop = NvePropagator(grid, harmonic(), MU, 2.0)
        np.testing.assert_allclose(
            series, step_autocorrelation(q_state, prop.step, 9), rtol=0.0,
            atol=1e-12)

    def test_harmonic_recurrence_period(self):
        dt = 2.0
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        series = kvn_autocorrelation(eq, harmonic(), MU, dt, 200)
        period = 2 * math.pi / W0
        lo, hi = int(0.8 * period / dt), int(1.2 * period / dt)
        recur_t = dt * (lo + int(np.argmax(np.abs(series[lo:hi]))))
        assert abs(recur_t - period) <= dt

    def test_windowed_transform_agrees_with_qpe_bin(self):
        # dual readout routes on the same state must elect the same bin
        cfg = QpeConfig(m=6, tau=20.0, inner_steps=4)
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        plus, _ = branch_spectra(eq, harmonic(), MU, cfg)

        dt = cfg.tau / 8
        series = kvn_autocorrelation(eq, harmonic(), MU, dt, 512).real
        windowed = np.hanning(512) * series * dt
        n_fine = 16 * 512
        s_fine = np.abs(n_fine * np.fft.ifft(windowed, n=n_fine)) ** 2
        omega_fine = 2 * math.pi * np.arange(n_fine) / (n_fine * dt)
        binned = np.array([
            np.sum(fejer_kernel((omega_fine - wj) * cfg.tau, cfg.m) * s_fine)
            for wj in cfg.bin_centers()])
        half = cfg.n_bins // 2
        assert int(np.argmax(binned[:half])) == plus.peak_bin


class TestAimdReferenceSpectrum:
    def line_ensemble(self, omega, n_t=1024, dt=2.5):
        t = np.arange(n_t) * dt
        r = (RE + 0.1 * np.cos(omega * t))[:, None]
        return TrajectoryEnsemble(times=t, R=r, P=np.zeros_like(r))

    def test_single_line_lands_in_frequency_bin(self):
        cfg = QpeConfig(m=7, tau=20.0)
        spec = aimd_reference_spectrum(self.line_ensemble(W0), cfg)
        assert spec.peak_bin == int(round(W0 / cfg.bin_width))
        assert spec.prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.prob >= 0.0)

    def test_line_beyond_window_wraps_to_same_bin(self):
        cfg = QpeConfig(m=7, tau=20.0)
        base = aimd_reference_spectrum(self.line_ensemble(W0), cfg)
        alias = aimd_reference_spectrum(
            self.line_ensemble(W0 + cfg.window_width), cfg)
        assert alias.peak_bin == base.peak_bin

    def test_canonical_ensemble_matches_qpe_peak(self):
        cfg = QpeConfig(m=7, tau=20.0, inner_steps=4)
        t = kelvin_to_hartree(300.0)
        r0, p0 = canonical_sampler(harmonic(), MU, t, 256, 9, (0.4, 2.4))
        ens = verlet_ensemble(harmonic(), MU, r0, p0, cfg.tau / 8, 1024,
                              record_every=1)
        ref = aimd_reference_spectrum(ens, cfg)

        grid = build_grid(7, 7, (0.4, 2.4), (-12.0, 12.0))
        eq = thermal_state(grid, harmonic(), kelvin_to_hartree(300.0))
        plus, _ = branch_spectra(eq, harmonic(), MU, cfg)
        assert ref.peak_bin == plus.peak_bin
        # zero-lag weight is the coordinate variance T/k
        assert ref.branch_weight == pytest.approx(t / (MU * W0 * W0),
                                                  rel=0.15)

    def test_window_options_and_validation(self):
        cfg = QpeConfig(m=6, tau=20.0)
        ens = self.line_ensemble(W0)
        for window in ("hann", "rect"):
            spec = aimd_reference_spectrum(ens, cfg, window=window)
            assert spec.peak_bin == int(round(W0 / cfg.bin_width))
        with pytest.raises(ConfigurationError):
            aimd_reference_spectrum(ens, cfg, window="blackman")

    def test_empty_trajectory_set_rejected(self):
        cfg = QpeConfig(m=5, tau=20.0)
        t = np.arange(64) * 2.5
        empty = TrajectoryEnsemble(times=t, R=np.empty((64, 0)),
                                   P=np.empty((64, 0)))
        with pytest.raises(ConfigurationError):
            aimd_reference_spectrum(empty, cfg)


class TestStreamedReference:
    """The lag-series binning against the Fejer loop, and the blocked
    correlation against the recorded one."""

    @staticmethod
    def noisy_ensemble(seed, n_t=1024, n_traj=32, dt=2.5):
        # two lines with random phases per trajectory plus white noise
        rng = np.random.default_rng(seed)
        t = np.arange(n_t)[:, None] * dt
        phase = rng.uniform(0.0, 2.0 * math.pi, n_traj)
        r = (RE + 0.1 * np.cos(W0 * t + phase)
             + 0.05 * np.cos(1.55 * W0 * t + 2.0 * phase)
             + 0.02 * rng.standard_normal((n_t, n_traj)))
        return TrajectoryEnsemble(times=t[:, 0], R=r, P=np.zeros_like(r))

    @pytest.mark.parametrize("window,omega_shift", [
        ("hann", 0.0), ("rect", 0.0), ("hann", 0.0123)])
    @pytest.mark.parametrize("m", range(1, 11))
    def test_binning_matches_the_fejer_loop(self, m, window, omega_shift):
        # 1024 records at tau / 8: past m = 7 the lags 8d run beyond the
        # last record, where the lag series is zero
        cfg = QpeConfig(m=m, tau=20.0, omega_shift=omega_shift)
        ens = self.noisy_ensemble(100 + m)
        got = aimd_reference_spectrum(ens, cfg, window=window)
        ref = fejer_loop_reference(ens, cfg, window=window)
        assert got.peak_bin == ref.peak_bin
        np.testing.assert_allclose(got.prob, ref.prob,
                                   atol=1e-11 * ref.prob.max(), rtol=0.0)
        assert got.branch_weight == pytest.approx(ref.branch_weight,
                                                  rel=1e-12)
        np.testing.assert_array_equal(got.omega_au, ref.omega_au)

    @pytest.mark.parametrize("n_steps", [255, 256, 257, 640])
    def test_streamed_correlation_matches_the_recorded_one(self, n_steps):
        # one block, exactly one, one plus a step, and 2.5 blocks
        t = kelvin_to_hartree(300.0)
        r0, p0 = canonical_sampler(harmonic(), MU, t, 24, 4, (0.4, 2.4))
        c_t, stride = _trajectory_correlation(
            verlet_blocks(harmonic(), MU, r0, p0, 2.5, n_steps), 20.0)
        full = verlet_ensemble(harmonic(), MU, r0, p0, 2.5, n_steps)
        q = full.R - np.mean(full.R)
        direct = np.mean(q * q[0], axis=1)
        assert stride == 8
        assert c_t.shape == (n_steps + 1,)
        np.testing.assert_allclose(c_t, direct, atol=1e-12 * direct[0],
                                   rtol=0.0)

    def test_correlation_keeps_its_digits_far_from_the_origin(self):
        # the provisional centre keeps the per-record sums at the scale of
        # the spread: 1000 bohr away, c_t moves by about 4e-13 of c_0 with
        # it and by about 4e-8 of c_0 without it
        ens = self.noisy_ensemble(3, n_t=600)
        far = TrajectoryEnsemble(times=ens.times, R=ens.R + 1e3, P=ens.P)
        c_t, _ = _trajectory_correlation([ens], 20.0)
        c_far, _ = _trajectory_correlation([far], 20.0)
        np.testing.assert_allclose(c_far, c_t, atol=1e-10 * c_t[0], rtol=0.0)

    def test_non_integer_stride_is_refused(self):
        # tau = 20 over records 3 apart (6.67 per power) or 50 apart
        for dt in (3.0, 50.0):
            ens = self.noisy_ensemble(1, n_t=64, dt=dt)
            with pytest.raises(ConfigurationError, match="whole number"):
                aimd_reference_spectrum(ens, QpeConfig(m=4, tau=20.0))

    def test_stride_is_checked_before_the_run(self):
        # the first block settles the stride; no later block is drawn
        drawn = []

        def blocks():
            for ens in verlet_blocks(harmonic(), MU, np.full(4, RE + 0.1),
                                     np.zeros(4), 3.0, 1024):
                drawn.append(ens)
                yield ens

        with pytest.raises(ConfigurationError):
            aimd_reference_spectrum(blocks(), QpeConfig(m=4, tau=20.0))
        assert len(drawn) == 1

    def test_non_finite_lag_raises(self):
        cfg = QpeConfig(m=5, tau=20.0)
        corr = np.exp(-1j * W0 * cfg.tau * np.arange(cfg.n_bins))
        assert np.isfinite(qpe_distribution(corr, cfg)).all()
        for bad in (np.nan, np.inf):
            poisoned = corr.copy()
            poisoned[7] = bad
            with pytest.raises(NonFiniteAmplitudeError, match="non-finite"):
                qpe_distribution(poisoned, cfg)

    def test_nan_record_raises(self):
        ens = self.noisy_ensemble(2, n_t=257)
        ens.R[100, 5] = np.nan
        with pytest.raises(NonFiniteAmplitudeError):
            aimd_reference_spectrum(ens, QpeConfig(m=5, tau=20.0))

    def test_memory_does_not_grow_with_the_records(self):
        # m = 12: 8 x 4096 Verlet steps of 64 trajectories. Recorded whole,
        # R and P take 2 x 8 x 32 769 x 64 B = 32 MiB, with two 16 MiB
        # temporaries beside them; the stream holds a 257-record block, two
        # sums per record and the lag transform
        cfg = QpeConfig(m=12, tau=20.0)
        t = kelvin_to_hartree(300.0)
        r0, p0 = canonical_sampler(harmonic(), MU, t, 64, 9, (0.4, 2.4))
        blocks = verlet_blocks(harmonic(), MU, r0, p0, cfg.tau / 8,
                               8 * cfg.n_bins)
        spec, peak = traced_peak(aimd_reference_spectrum, blocks, cfg)
        assert peak < 8 * 2 ** 20
        assert abs(spec.peak_bin - W0 / cfg.bin_width) <= 2

    def test_correlation_holds_one_block_temporary(self):
        # vdos_h2.ini's 256 H2 trajectories over 1024 steps: the R block
        # and the step vectors of verlet_blocks, plus one centred block;
        # 16 KiB for the sums per record and numpy's small objects
        pes, n_traj = pauli_pes(bundled_h2_table()), 256
        r0, p0 = canonical_sampler(pes, MU, kelvin_to_hartree(300.0), n_traj,
                                   1, (0.5, 4.5))

        def correlate(n_steps):
            return _trajectory_correlation(
                verlet_blocks(pes, MU, r0, p0, 2.5, n_steps), 20.0)

        correlate(8)  # leaves numpy's caches warm
        _, peak = traced_peak(correlate, 1024)
        assert peak <= verlet_blocks_memory_estimate(1024, n_traj) \
            + 8 * n_traj * (_BLOCK + 1) + 2 ** 14
