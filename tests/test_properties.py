"""Property tests of the array-level stepping core on small random grids.

Each case draws grid sizes 2^3..2^6 per axis and a random state, then
checks the half-spectrum core on a real state against the composed
complex substep helpers, the closed-form friction table against
the dense interpolant, the in-place friction product and the transport
tables bit for bit against their one-expression forms, the chirp-z row
dilation against that table on up to 2^11 P nodes and off-centre grids,
the Strang-fused autocorrelation against the unfused step loop (also
where time-reversal symmetry halves the chain), unitarity of the
conservative chain, that transport and the readout branches commute
with complex conjugation and the thermostated step with a sign flip, the
corrected
internal temperature against the filter's product oracle, the
relaxation monitors read from marginals against the table monitors, and
the canonical product's rate sums and tables against the sums over the
exponent table, and the peak allocation of a relaxation against its
memory estimate.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kvnmd.constants import kelvin_to_hartree
from kvnmd.diagnostics import (KL_FLOOR, CanonicalDensity,
                               canonical_reference, kinetic_temperature,
                               kl_divergence, mean_R, relax,
                               relax_memory_estimate)
from kvnmd.electronic import morse_pes
from kvnmd.errors import ResolutionError
from kvnmd.grid import (KvnState, build_grid, density, encode_gaussian,
                        norm_squared)
from kvnmd.oracles import cos_filter_stationary_bias
from kvnmd.propagator import (TIME_REVERSAL_TOLERANCE, FrictionOperator,
                              LangevinStepper, NvePropagator, _RowDilation,
                              _dilate, _phase_tables, calibrate,
                              corrected_internal_temperature)
from kvnmd.tst import TstConfig, tst_rate
from kvnmd.vdos import prepare_branch_states
from reference_steps import (dense_friction_table, diffusion_step,
                             dividing_surface_flux, friction_step,
                             masked_friction_table, minus_branch, nve_step,
                             one_expression_phase_tables, reactant_population,
                             step_autocorrelation, table_canonical_reference,
                             traced_peak)

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
    return KvnState(amp, grid)


def l2_distance(a, b, cell):
    return math.sqrt(np.sum(np.abs(a - b) ** 2) * cell)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       gamma=st.sampled_from([0.0, 0.02, 0.1]),
       dt=st.floats(min_value=0.1, max_value=2.0))
def test_array_core_matches_composed_substeps(n_r, n_p, seed, gamma, dt):
    state = random_state(n_r, n_p, seed)
    state = KvnState(np.abs(state.amplitudes), state.grid)
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
# e^s P lands 9.2e-6 below the top edge, u - k within 1e-5 of n
@example(n_r=3, n_p=3, seed=0, s=0.2876797714574285)
def test_fused_friction_table_matches_dense_interpolant(n_r, n_p, seed, s):
    state = random_state(n_r, n_p, seed)
    a = state.amplitudes
    expected = math.exp(0.5 * s) * (np.fft.fft(a, axis=1)
                                    @ dense_friction_table(state.grid, s))
    closed_form = a @ FrictionOperator(state.grid, s).matrix
    assert l2_distance(closed_form, expected, state.grid.cell) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n_p=st.integers(min_value=3, max_value=11),
       p_range=st.sampled_from([(-42.5, 42.5), (-340.0, 340.0), (-10.0, 30.0),
                                (0.0, 1.0)]),
       s=st.floats(min_value=1e-6, max_value=1.0))
def test_friction_table_matches_the_masked_formula_bit_for_bit(n_p, p_range,
                                                               s):
    grid = build_grid(3, n_p, (0.6, 2.6), p_range)
    np.testing.assert_array_equal(FrictionOperator(grid, s).matrix,
                                  masked_friction_table(grid, s))


@PROPERTY_SETTINGS
@given(n_r=st.integers(min_value=3, max_value=9),
       n_p=st.integers(min_value=3, max_value=9), seed=seeds,
       plane=st.sampled_from(["stepper", "fresh"]))
def test_dilation_matches_the_products_of_its_parts(n_r, n_p, seed, plane):
    # the parts pass through a contiguous copy in the plane, not numpy's
    # own buffer; BLAS sees the same operand either way
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    # a cold filter keeps dP >= 2 sigma_H up to 2^9 nodes; the friction
    # table does not depend on the temperature
    stepper = LangevinStepper(grid, PES, calibrate(MU, 0.02, 0.5, 1e-5))
    table = stepper.friction.matrix
    rng = np.random.default_rng(seed)
    shape = ((1 << n_r) // 2 + 1, 1 << n_p)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected_re, expected_im = x.real @ table, x.imag @ table
    scratch = stepper._planes()[0] if plane == "stepper" else None
    got = _dilate(x, table, scratch)
    assert got is x
    assert x.real.tobytes() == expected_re.tobytes()
    assert x.imag.tobytes() == expected_im.tobytes()


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, dt=st.floats(min_value=0.1, max_value=5.0),
       p_shift=st.sampled_from([0.0, 7.5, -13.0]), half=st.booleans())
def test_phase_tables_match_the_one_expression_tables(n_r, n_p, dt, p_shift,
                                                      half):
    # centred and off-centre P grids: the drift momenta differ there
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0 + p_shift, 22.0 + p_shift))
    force = PES.f(grid.R)
    got = _phase_tables(grid, force, MU, dt, half)
    expected = one_expression_phase_tables(grid, force, MU, dt, half)
    for table, oracle in zip(got, expected):
        assert table.shape == oracle.shape
        assert table.tobytes() == oracle.tobytes()


@PROPERTY_SETTINGS
@given(n_p=st.integers(min_value=3, max_value=11), seed=seeds,
       s=st.floats(min_value=1e-6, max_value=0.3),
       p_shift=st.sampled_from([0.0, 7.5, -13.0]),
       n_rows=st.integers(min_value=1, max_value=3))
def test_row_dilation_matches_the_friction_table(n_p, seed, s, p_shift,
                                                 n_rows):
    # the table's own abscissas round differently; both agree far below
    # 1e-11 of the largest entry up to 2^11 nodes
    grid = build_grid(3, n_p, (0.6, 2.6), (-22.0 + p_shift, 22.0 + p_shift))
    rows = np.random.default_rng(seed).standard_normal((n_rows, 1 << n_p))
    expected = rows @ FrictionOperator(grid, s).matrix
    got = _RowDilation(grid, s)(rows)
    assert got.shape == expected.shape and got.dtype == np.float64
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-11 * np.max(np.abs(expected)))


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


def time_symmetric_state(grid, seed, kind):
    """A state with T psi = conj(psi), T the P mirror j -> -j mod N_P.

    Built from a real amplitude that is even under the mirror: its plus
    readout branch (which needs 0 in the unpaired p_min column, where
    the mirror keeps i*Pi instead of flipping it) or Q times it.
    """
    rng = np.random.default_rng(seed)
    n_p = grid.shape[1]
    even = np.abs(rng.normal(size=grid.shape))
    even = even + even[:, -np.arange(n_p) % n_p]
    if kind == "branch":
        even[:, 0] = 0.0
        eq = KvnState(even.astype(complex), grid)
        return prepare_branch_states(eq, 0.02, MU)[0].amplitudes
    amp = (grid.R - grid.R.mean())[:, None] * even
    return amp / math.sqrt(np.sum(amp ** 2) * grid.cell)


def counted_autocorrelation(prop, amplitudes, n_lags, stride):
    """The autocorrelation and the number of transport steps it took."""
    kicks = []
    kick = prop._kick
    prop._kick = lambda a: (kicks.append(1), kick(a))
    try:
        return prop.autocorrelation(amplitudes, n_lags, stride), len(kicks)
    finally:
        del prop._kick


def power_of(prop, stride):
    def power(s):
        for _ in range(stride):
            s = prop.step(s)
        return s
    return power


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0),
       n_lags=st.integers(min_value=1, max_value=12),
       stride=st.integers(min_value=1, max_value=3),
       kind=st.sampled_from(["branch", "coordinate", "random"]),
       p_max=st.sampled_from([22.0, 17.3]),
       centered=st.booleans())
def test_doubled_autocorrelation_matches_step_loop(n_r, n_p, seed, dt,
                                                   n_lags, stride, kind,
                                                   p_max, centered):
    # with p_max = 17.3 the grid's P_j + P_(-j) are a few ulp, not 0
    p_range = (-p_max, p_max) if centered else (-p_max, p_max + 3.0)
    grid = build_grid(n_r, n_p, (0.6, 2.6), p_range)
    if kind == "random":
        amp = random_state(n_r, n_p, seed).amplitudes
    else:
        amp = time_symmetric_state(grid, seed, kind)
    prop = NvePropagator(grid, PES, MU, dt)
    corr, n_steps = counted_autocorrelation(prop, amp, n_lags, stride)
    unfused = step_autocorrelation(KvnState(amp, grid),
                                   power_of(prop, stride), n_lags)
    np.testing.assert_allclose(corr, unfused, rtol=0.0, atol=1e-12)
    doubled = centered and kind != "random"
    n_powers = n_lags // 2 if doubled else n_lags - 1
    assert n_steps == n_powers * stride


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0),
       n_lags=st.integers(min_value=2, max_value=12),
       stride=st.integers(min_value=1, max_value=3),
       margin=st.sampled_from([0.9, 1.1]))
def test_time_symmetry_tolerance_picks_the_chain(n_r, n_p, seed, dt, n_lags,
                                                 stride, margin):
    # an imaginary part e at (0, 1) of a real mirror-even state leaves
    # ||T psi - conj(psi)|| = sqrt(2) e = margin * tolerance * ||psi||
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    amp = time_symmetric_state(grid, seed, "coordinate").astype(complex)
    amp[0, 1] += 1j * margin * TIME_REVERSAL_TOLERANCE * math.sqrt(
        0.5 * np.sum(amp.real ** 2))
    prop = NvePropagator(grid, PES, MU, dt)
    corr, n_steps = counted_autocorrelation(prop, amp, n_lags, stride)
    unfused = step_autocorrelation(KvnState(amp, grid),
                                   power_of(prop, stride), n_lags)
    np.testing.assert_allclose(corr, unfused, rtol=0.0, atol=1e-12)
    n_powers = n_lags - 1 if margin > 1.0 else n_lags // 2
    assert n_steps == n_powers * stride


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
    return KvnState(state.amplitudes.conj(), state.grid)


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
def test_langevin_step_commutes_with_a_sign_flip(n_r, n_p, seed, gamma, dt):
    # the real table's only global phase; every operation of the step is
    # odd in its input, so the bits agree
    amp = random_state(n_r, n_p, seed).amplitudes.real
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    state = KvnState(amp / math.sqrt(np.sum(amp ** 2) * grid.cell), grid)
    params = dataclasses.replace(
        calibrate(MU, 0.02, dt, kelvin_to_hartree(947.0)), gamma=gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stepper = LangevinStepper(grid, PES, params)
        of_flip, report_flip = stepper.step(
            KvnState(-state.amplitudes, grid))
        flip_of, report = stepper.step(state)
    assert of_flip.amplitudes.tobytes() == (-flip_of.amplitudes).tobytes()
    assert report_flip == report


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       dt=st.floats(min_value=0.1, max_value=5.0),
       n_lags=st.integers(min_value=2, max_value=12),
       stride=st.integers(min_value=1, max_value=3))
def test_minus_branch_autocorrelation_is_conjugate(n_r, n_p, seed, dt,
                                                   n_lags, stride):
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    eq = np.abs(random_state(n_r, n_p, seed).amplitudes)
    state = KvnState(eq.astype(complex), grid)
    alpha_p, _ = prepare_branch_states(state, 0.02, MU)
    alpha_m, _ = minus_branch(state, 0.02, MU)
    prop = NvePropagator(grid, PES, MU, dt)
    c_plus = prop.autocorrelation(alpha_p.amplitudes, n_lags, stride)
    c_minus = prop.autocorrelation(alpha_m.amplitudes, n_lags, stride)
    np.testing.assert_allclose(c_minus, c_plus.conj(), rtol=0.0, atol=1e-12)


@settings(max_examples=8, deadline=None)  # 0.5 s per oracle call
@given(s=st.floats(min_value=1e-3, max_value=0.05),
       t_phys=st.floats(min_value=1e-4, max_value=1e-2))
def test_internal_temperature_meets_product_oracle(s, t_phys):
    # The stationary kinetic temperature of the thermostat is
    # T_int (1 + b) with b the oracle's bias. The frozen oracle test
    # holds 1 < b/h < 1.02 for h = tanh(s)/2 up to s = 0.02; b/h - 1 is
    # the next order of the law, linear in s, so that 2% at s = 0.02 is
    # a slope of 1: 0 < b/h - 1 <= s. With T_int = T_phys / (1 + h) the
    # excess T_int (1 + b) / T_phys - 1 = (b - h) / (1 + h) then lies in
    # (0, s h / (1 + h)].
    t_int = corrected_internal_temperature(t_phys, s)
    bias = cos_filter_stationary_bias(s)
    h = 0.5 * math.tanh(s)
    excess = t_int * (1.0 + bias) / t_phys - 1.0
    assert 0.0 < excess <= s * h / (1.0 + h)


@PROPERTY_SETTINGS
@given(n_r=qubits, n_p=qubits, seed=seeds,
       t_kelvin=st.floats(min_value=300.0, max_value=5000.0))
def test_separable_monitors_match_the_canonical_table(n_r, n_p, seed,
                                                      t_kelvin):
    # D_KL from the marginals and the factorized Z equals D_KL against
    # the canonical table wherever that table is not floored
    state = random_state(n_r, n_p, seed)
    grid, t = state.grid, kelvin_to_hartree(t_kelvin)
    rho_eq = table_canonical_reference(grid, PES, MU, t)
    assume(rho_eq.min() > KL_FLOOR)
    r, t_kin, d_kl = CanonicalDensity(grid, PES, MU, t).read(
        density(state))
    assert math.isclose(d_kl, kl_divergence(density(state), rho_eq,
                                            grid.cell), rel_tol=1e-12)
    assert math.isclose(r, mean_R(state), rel_tol=1e-12)
    assert math.isclose(t_kin, kinetic_temperature(state, MU),
                        rel_tol=1e-12)


@PROPERTY_SETTINGS
@given(n_r=st.integers(min_value=3, max_value=9),
       n_p=st.integers(min_value=3, max_value=9),
       t_kelvin=st.floats(min_value=2000.0, max_value=20000.0),
       r_frac=st.floats(min_value=0.3, max_value=0.7),
       p_shift=st.sampled_from([0.0, 7.5, -13.0]))
def test_canonical_product_matches_the_tables(n_r, n_p, t_kelvin, r_frac,
                                              p_shift):
    # the rate's flux and population from the two marginals, and the
    # product's tables, equal the sums over the exponent table; a surface
    # too wide for the grid is refused by both
    grid = build_grid(n_r, n_p, (0.6, 4.6), (-22.0 + p_shift, 22.0 + p_shift))
    cfg = TstConfig(0.6 + 4.0 * r_frac)
    t = kelvin_to_hartree(t_kelvin)
    rho = table_canonical_reference(grid, PES, MU, t)
    table = KvnState(np.sqrt(rho), grid)
    try:
        flux = dividing_surface_flux(table, MU, cfg)
    except ResolutionError:
        with pytest.raises(ResolutionError):
            tst_rate(grid, PES, MU, t_kelvin, cfg)
        return
    res = tst_rate(grid, PES, MU, t_kelvin, cfg)
    assert math.isclose(res.flux_au, flux, rel_tol=1e-13)
    assert math.isclose(res.population, reactant_population(table, cfg),
                        rel_tol=1e-13)
    amplitudes = CanonicalDensity(grid, PES, MU, t).amplitudes()
    assert amplitudes.dtype == np.float64
    np.testing.assert_allclose(amplitudes, table.amplitudes, rtol=1e-13,
                               atol=0.0)
    np.testing.assert_allclose(canonical_reference(grid, PES, MU, t), rho,
                               rtol=1e-13, atol=0.0)


# relax's initial tables: real, and complex with no imaginary part
INITIAL_TABLES = {"real": lambda a: a,
                  "complex-real": lambda a: a.astype(complex)}


@PROPERTY_SETTINGS
@given(n_r=st.integers(min_value=4, max_value=7),
       n_p=st.integers(min_value=4, max_value=7),
       kind=st.sampled_from(list(INITIAL_TABLES)),
       n_steps=st.integers(min_value=1, max_value=3),
       more_steps=st.sets(st.integers(min_value=1, max_value=5), max_size=2))
def test_relax_peak_stays_within_its_estimate(n_r, n_p, kind, n_steps,
                                              more_steps):
    # snapshots at step 0, at the last step and at any others, reached or
    # not; numpy's ufunc buffers, which the estimate leaves out, take up
    # to 8192 complex values (128 KiB), and 32 KiB of small objects come
    # on top: a real 2^7 x 2^7 run peaks 142 KiB over the estimate
    grid = build_grid(n_r, n_p, (0.6, 2.6), (-22.0, 22.0))
    packet = encode_gaussian(grid, 1.6, 0.0, 3.0 * grid.dR, 3.0 * grid.dP)
    initial = KvnState(INITIAL_TABLES[kind](packet.amplitudes), grid)
    params = calibrate(mu=MU, gamma=0.02, dt=0.5,
                       t_phys=kelvin_to_hartree(947.0))
    snapshots = tuple(sorted({0, n_steps} | more_steps))
    with warnings.catch_warnings():
        # the filter band and the leak do not change what a run holds
        warnings.simplefilter("ignore")
        relax(initial, PES, params, 1)  # leaves the FFT plan caches warm
        _, peak = traced_peak(relax, initial, PES, params, n_steps, 1,
                              snapshots)
    assert peak <= relax_memory_estimate(grid, params, n_steps,
                                         snapshots) + 2 ** 17 + 2 ** 15
