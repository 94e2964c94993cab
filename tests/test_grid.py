"""Grid geometry, Gaussian encoding and Fourier-representation contracts."""

import numpy as np
import pytest

from kvnmd.errors import ConfigurationError, ResolutionError
from kvnmd.grid import (KvnState, build_grid, density, encode_gaussian,
                        fourier_P, fourier_R, norm_squared, normalize)


def random_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return normalize(KvnState(amp, grid))


def test_grid_geometry():
    g = build_grid(5, 6, (0.5, 4.5), (-8.0, 8.0))
    assert g.shape == (32, 64)
    assert g.dR == pytest.approx((4.5 - 0.5) / 32, abs=0)
    assert g.dP == pytest.approx(16.0 / 64, abs=0)
    np.testing.assert_allclose(g.R, 0.5 + g.dR * np.arange(32), rtol=0, atol=1e-15)
    np.testing.assert_allclose(g.P, -8.0 + g.dP * np.arange(64), rtol=0, atol=1e-15)
    # half-open intervals: last node one spacing below the upper edge
    assert g.R[-1] == pytest.approx(4.5 - g.dR)
    assert g.P[-1] == pytest.approx(8.0 - g.dP)


def test_conjugate_axis_spacing_and_coverage():
    g = build_grid(5, 5, (0.0, 8.0), (-4.0, 4.0))
    for k, d, n in ((g.k_R, g.dR, 32), (g.k_P, g.dP, 32)):
        ks = np.sort(k)
        np.testing.assert_allclose(np.diff(ks), 2 * np.pi / (n * d), rtol=1e-12)
        assert ks[0] == pytest.approx(-np.pi / d)
        assert ks.max() == pytest.approx(np.pi / d - 2 * np.pi / (n * d))
    # natural FFT order starts at zero frequency
    assert g.k_R[0] == 0.0
    assert np.all(np.diff(np.sort(g.k_R)) > 0)


def test_conjugate_axis_matches_shift_operator_spectrum():
    """The k grid must be the full spectrum of the one-step translation.

    Independent oracle: eigenvalues of the explicit N x N circulant shift
    matrix are exp(i k dR) for the representable k; comparing sorted phase
    angles pins both the spacing and the [-pi/dR, pi/dR) coverage.
    """
    g = build_grid(4, 3, (0.0, 4.0), (-1.0, 1.0))
    n = 16
    shift = np.zeros((n, n))
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    eigs = np.linalg.eigvals(shift)
    ours = np.exp(1j * g.k_R * g.dR)
    assert len(np.unique(np.round(ours, 9))) == n
    # one-to-one match on the unit circle (angle sorting hits the +-pi cut)
    dist = np.abs(ours[:, None] - eigs[None, :])
    assert dist.min(axis=1).max() < 1e-9
    assert dist.min(axis=0).max() < 1e-9


@pytest.mark.parametrize("n_r,n_p", [(2, 5), (15, 5), (5, 1), (5, 20)])
def test_build_grid_rejects_bad_qubit_counts(n_r, n_p):
    with pytest.raises(ConfigurationError):
        build_grid(n_r, n_p, (0.0, 1.0), (-1.0, 1.0))


def test_build_grid_rejects_reversed_ranges():
    with pytest.raises(ConfigurationError):
        build_grid(5, 5, (2.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ConfigurationError):
        build_grid(5, 5, (0.0, 1.0), (1.0, 1.0))


def test_encode_gaussian_is_normalized_with_density_widths():
    g = build_grid(7, 7, (0.0, 10.0), (-12.0, 12.0))
    s_r, s_p = 0.6, 1.7
    st = encode_gaussian(g, 4.0, 1.0, s_r, s_p)
    assert abs(norm_squared(st) - 1.0) < 1e-10
    rho = density(st)
    w = g.cell
    mean_r = np.sum(rho * g.R[:, None]) * w
    mean_p = np.sum(rho * g.P[None, :]) * w
    var_r = np.sum(rho * (g.R[:, None] - mean_r) ** 2) * w
    var_p = np.sum(rho * (g.P[None, :] - mean_p) ** 2) * w
    assert mean_r == pytest.approx(4.0, abs=1e-9)
    assert mean_p == pytest.approx(1.0, abs=1e-9)
    # density (not amplitude) standard deviations match the request
    assert np.sqrt(var_r) == pytest.approx(s_r, rel=1e-3)
    assert np.sqrt(var_p) == pytest.approx(s_p, rel=1e-3)


def test_encode_gaussian_matches_analytic_marginal():
    g = build_grid(6, 6, (0.0, 8.0), (-6.0, 6.0))
    st = encode_gaussian(g, 3.0, -0.5, 0.5, 0.9)
    rho_r = density(st).sum(axis=1) * g.dP
    # closed-form target marginal; Riemann-vs-exact normalization for a
    # Gaussian this well resolved differs only at the truncation-tail level
    oracle = np.exp(-(g.R - 3.0) ** 2 / (2 * 0.5 ** 2)) / np.sqrt(2 * np.pi * 0.25)
    np.testing.assert_allclose(rho_r, oracle, atol=1e-8)


def test_encode_gaussian_rejects_bad_requests():
    g = build_grid(5, 5, (0.0, 4.0), (-4.0, 4.0))
    with pytest.raises(ConfigurationError):
        encode_gaussian(g, 5.0, 0.0, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        encode_gaussian(g, 2.0, -6.0, 0.5, 0.5)
    with pytest.raises(ResolutionError):
        encode_gaussian(g, 2.0, 0.0, 0.5 * g.dR, 0.5)
    with pytest.raises(ResolutionError):
        encode_gaussian(g, 2.0, 0.0, 0.5, 1.5 * g.dP)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fourier_round_trip_and_parseval(seed):
    g = build_grid(5, 6, (0.2, 5.0), (-7.0, 7.0))
    st = random_state(g, seed)
    for axis, transform in enumerate((fourier_R, fourier_P)):
        once = transform(st)
        # Parseval: the summed modulus squared is representation independent
        assert np.sum(np.abs(once) ** 2) * g.cell == pytest.approx(
            norm_squared(st), abs=1e-12)
        back = np.fft.ifft(once, axis=axis, norm="ortho")
        assert np.max(np.abs(back - st.amplitudes)) < 1e-12


def test_fourier_matches_direct_dft_sum():
    """Convention check against an explicitly summed DFT at N = 16."""
    g = build_grid(4, 3, (0.0, 4.0), (-2.0, 2.0))
    st = random_state(g, 7)
    out = fourier_R(st)
    n = 16
    direct = np.zeros_like(out)
    for m in range(n):
        phase = np.exp(-2j * np.pi * m * np.arange(n) / n) / np.sqrt(n)
        direct[m, :] = phase @ st.amplitudes
    np.testing.assert_allclose(out, direct, atol=1e-12)


def test_plane_wave_lands_on_matching_k_component():
    g = build_grid(5, 4, (1.0, 5.0), (-3.0, 3.0))
    idx = 5
    k0 = g.k_R[idx]
    amp = np.exp(1j * k0 * g.R)[:, None] * np.exp(-g.P[None, :] ** 2)
    st = normalize(KvnState(amp.astype(complex), g))
    spec = np.abs(fourier_R(st)) ** 2
    weights = spec.sum(axis=1)
    assert weights[idx] == pytest.approx(weights.sum(), rel=1e-12)
