"""Property tests of the array-level stepping core on small random grids.

Each case draws grid sizes 2^3..2^6 per axis and a random complex state,
then checks the half-spectrum core on its (Re, Im) stack against the
composed complex substep helpers, the closed-form friction table against
the dense interpolant, the Strang-fused autocorrelation against the
unfused step loop, unitarity of the conservative chain, and that
transport, the thermostated step and the readout branches commute with
complex conjugation.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kvnmd.constants import kelvin_to_hartree
from kvnmd.electronic import morse_pes
from kvnmd.grid import Basis, KvnState, build_grid, norm_squared
from kvnmd.propagator import (FrictionOperator, LangevinStepper,
                              NvePropagator, calibrate, diffusion_step)
from kvnmd.vdos import prepare_branch_states
from reference_steps import (dense_friction_table, friction_step, nve_step,
                             step_autocorrelation)

MU = 918.0
PES = morse_pes(de=0.17, alpha=1.0, re=1.4)
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

qubits = st.integers(min_value=3, max_value=6)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def random_state(n_r, n_p, seed, p_max=22.0):
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-p_max, p_max))
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    amp /= math.sqrt(np.sum(np.abs(amp) ** 2) * grid.cell)
    return KvnState(amp, Basis.RP, grid)


def l2_distance(a, b, cell):
    return math.sqrt(np.sum(np.abs(a - b) ** 2) * cell)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       gamma=st.sampled_from([0.0, 0.02, 0.1]),
       dt=st.floats(min_value=0.1, max_value=2.0))
def test_array_core_matches_composed_substeps(n_r, n_p, seed, gamma, dt):
    state = random_state(n_r, n_p, seed)
    params = dataclasses.replace(
        calibrate(MU, 0.02, dt, kelvin_to_hartree(947.0)), gamma=gamma)
    composed = state
    with warnings.catch_warnings():
        # coarse random draws leak at the P edge and may exceed the band
        warnings.simplefilter("ignore")
        stepper = LangevinStepper(state.grid, PES, params)
        a = stepper.to_half_spectra(state.amplitudes)
        for _ in range(12):
            a, report = stepper.advance(a)
            composed = nve_step(composed, PES, MU, dt)
            composed = friction_step(composed, params.s)
            composed, ref = diffusion_step(composed, params.sigma_h)
            assert math.isclose(report.success_probability,
                                ref.success_probability, rel_tol=1e-12)
    core = stepper.from_half_spectra(a)
    assert l2_distance(core, composed.amplitudes, state.grid.cell) < 1e-12


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       s=st.floats(min_value=1e-4, max_value=0.5))
def test_fused_friction_table_matches_dense_interpolant(n_r, n_p, seed, s):
    state = random_state(n_r, n_p, seed)
    a = state.amplitudes
    expected = math.exp(0.5 * s) * (np.fft.fft(a, axis=1)
                                    @ dense_friction_table(state.grid, s))
    closed_form = a @ FrictionOperator(state.grid, s).matrix
    assert l2_distance(closed_form, expected, state.grid.cell) < 1e-12


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0),
       n_lags=st.integers(min_value=1, max_value=12),
       stride=st.integers(min_value=1, max_value=3))
def test_strang_fused_autocorrelation_matches_step_loop(n_r, n_p, seed, dt,
                                                        n_lags, stride):
    state = random_state(n_r, n_p, seed)
    prop = NvePropagator(state.grid, PES, MU, dt)

    def power(s):
        for _ in range(stride):
            s = prop.step(s)
        return s

    fused = prop.autocorrelation(state.amplitudes, n_lags, stride)
    unfused = step_autocorrelation(state, power, n_lags)
    np.testing.assert_allclose(fused, unfused, rtol=0.0, atol=1e-12)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0))
def test_conservative_chain_preserves_norm(n_r, n_p, seed, dt):
    state = random_state(n_r, n_p, seed)
    prop = NvePropagator(state.grid, PES, MU, dt)
    for _ in range(50):
        state = prop.step(state)
    assert abs(norm_squared(state) - 1.0) < 1e-12
    a = np.fft.fft(state.amplitudes, axis=0, norm="ortho")
    for _ in range(50):
        prop.transport(a, out=a)
    assert abs(np.vdot(a, a).real * state.grid.cell - 1.0) < 1e-12


def conjugate(state):
    return KvnState(state.amplitudes.conj(), state.basis, state.grid)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0))
def test_conservative_step_commutes_with_conjugation(n_r, n_p, seed, dt):
    state = random_state(n_r, n_p, seed)
    prop = NvePropagator(state.grid, PES, MU, dt)
    of_conj = prop.step(conjugate(state))
    conj_of = prop.step(state).amplitudes.conj()
    assert l2_distance(of_conj.amplitudes, conj_of, state.grid.cell) < 1e-13


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       gamma=st.sampled_from([0.0, 0.02, 0.1]),
       dt=st.floats(min_value=0.1, max_value=2.0))
def test_langevin_step_commutes_with_conjugation(n_r, n_p, seed, gamma, dt):
    state = random_state(n_r, n_p, seed)
    params = dataclasses.replace(
        calibrate(MU, 0.02, dt, kelvin_to_hartree(947.0)), gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stepper = LangevinStepper(state.grid, PES, params)
        of_conj, report_conj = stepper.step(conjugate(state))
        conj_of, report = stepper.step(state)
    assert l2_distance(of_conj.amplitudes, conj_of.amplitudes.conj(),
                       state.grid.cell) < 1e-13
    assert math.isclose(report_conj.success_probability,
                        report.success_probability, rel_tol=1e-13)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0),
       n_lags=st.integers(min_value=2, max_value=12),
       stride=st.integers(min_value=1, max_value=3))
def test_minus_branch_autocorrelation_is_conjugate(n_r, n_p, seed, dt,
                                                   n_lags, stride):
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    eq = np.abs(random_state(n_r, n_p, seed).amplitudes)
    state = KvnState(eq.astype(complex), Basis.RP, grid)
    alpha_p, alpha_m, _ = prepare_branch_states(state, 0.02, MU)
    prop = NvePropagator(grid, PES, MU, dt)
    c_plus = prop.autocorrelation(alpha_p.amplitudes, n_lags, stride)
    c_minus = prop.autocorrelation(alpha_m.amplitudes, n_lags, stride)
    np.testing.assert_allclose(c_minus, c_plus.conj(), rtol=0.0, atol=1e-12)
