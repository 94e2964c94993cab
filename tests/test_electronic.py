"""PES table ingestion, ground-sheet evaluators and force consistency."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import kvnmd
from kvnmd.electronic import (PAULI_HEADER, RAW_HEADER, PauliCoefficientTable,
                              _CubicTable, bundled_h2_table, load_pauli_table,
                              morse_pes, pauli_pes, raw_pes, tabulate_pes)
from kvnmd.errors import DomainError, SingularityError, TableFormatError
from reference_steps import ground_state_energy, two_step_pauli_force


def write_table(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def smooth_table(n=64, lo=1.0, hi=5.0):
    """Synthetic smooth coefficients with a gap bounded away from zero."""
    r = np.linspace(lo, hi, n)
    a = 0.3 * np.cos(0.7 * r) - 1.0 / r
    b = -0.8 + 0.25 * np.sin(1.3 * r)
    c = 0.4 + 0.1 * np.cos(2.1 * r)
    return PauliCoefficientTable(R=r, a=a, b=b, c=c)


def test_bundled_table_loads_and_is_monotonic():
    t = bundled_h2_table()
    assert len(t) >= 8
    assert np.all(np.diff(t.R) > 0)
    assert np.all(np.isfinite(t.a))


def test_ground_state_energy_matches_eigensolver():
    rng = np.random.default_rng(11)
    a, b, c = rng.standard_normal((3, 200))
    ours = ground_state_energy(a, b, c)
    oracle = np.array([np.linalg.eigvalsh([[ai + bi, ci], [ci, ai - bi]])[0]
                       for ai, bi, ci in zip(a, b, c)])
    np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_pauli_pes_reproduces_nodes_exactly():
    t = bundled_h2_table()
    pes = pauli_pes(t)
    np.testing.assert_allclose(pes.v(t.R), ground_state_energy(t.a, t.b, t.c),
                               rtol=0, atol=1e-14)


def test_force_is_minus_energy_derivative_bundled():
    pes = pauli_pes(bundled_h2_table())
    rng = np.random.default_rng(5)
    r = rng.uniform(0.6, 6.0, size=100)
    h = 1e-4
    fd = -(pes.v(r + h) - pes.v(r - h)) / (2 * h)
    np.testing.assert_allclose(pes.f(r), fd, rtol=1e-6, atol=1e-9)


def test_force_is_minus_energy_derivative_synthetic():
    pes = pauli_pes(smooth_table())
    r = np.linspace(1.2, 4.8, 50)
    h = 1e-4
    fd = -(pes.v(r + h) - pes.v(r - h)) / (2 * h)
    np.testing.assert_allclose(pes.f(r), fd, rtol=1e-6, atol=1e-9)


def test_curvature_matches_second_difference():
    pes = pauli_pes(bundled_h2_table())
    r = np.linspace(1.0, 3.0, 17)
    h = 1e-3
    fd2 = (pes.v(r + h) - 2 * pes.v(r) + pes.v(r - h)) / h ** 2
    # piecewise-cubic interpolant: third derivative jumps at the table nodes
    # cap the finite-difference agreement near curvature zero crossings
    np.testing.assert_allclose(pes.curvature(r), fd2, rtol=1e-3, atol=1e-5)


def test_equilibrium_geometry_of_bundled_h2():
    # textbook minimal-basis value, well below the 1% level
    pes = pauli_pes(bundled_h2_table())
    r = np.linspace(1.0, 2.0, 20001)
    r_eq = r[np.argmin(pes.v(r))]
    assert r_eq * 0.529177210903 == pytest.approx(0.735, abs=0.005)


def test_vanishing_gap_raises_singularity():
    r = np.linspace(1.0, 3.0, 16)
    t = PauliCoefficientTable(R=r, a=-1.0 / r, b=np.zeros(16), c=np.zeros(16))
    pes = pauli_pes(t)
    with pytest.raises(SingularityError):
        pes.f(2.0)


def test_domain_guard():
    pes = pauli_pes(smooth_table(lo=1.0, hi=5.0))
    with pytest.raises(DomainError):
        pes.v(0.5)
    with pytest.raises(DomainError):
        pes.f(np.array([2.0, 5.5]))


def test_load_rejects_malformed_tables(tmp_path):
    good = [PAULI_HEADER] + [f"{1.0 + 0.1 * i},-1.0,0.5,0.2" for i in range(10)]

    bad_header = write_table(tmp_path / "h.csv", ["R,a,b,c"] + good[1:])
    with pytest.raises(TableFormatError):
        load_pauli_table(bad_header)

    short = write_table(tmp_path / "s.csv", good[:5])
    with pytest.raises(TableFormatError):
        load_pauli_table(short)

    shuffled = write_table(tmp_path / "m.csv",
                           [good[0]] + good[1:][::-1])
    with pytest.raises(TableFormatError):
        load_pauli_table(shuffled)

    mangled = write_table(tmp_path / "x.csv",
                          good[:-1] + ["2.0,oops,0.5,0.2"])
    with pytest.raises(TableFormatError):
        load_pauli_table(mangled)

    with pytest.raises(TableFormatError):
        load_pauli_table(tmp_path / "missing.csv")


def test_comments_are_skipped(tmp_path):
    lines = ["# provenance", "# more text", PAULI_HEADER]
    lines += [f"{1.0 + 0.1 * i},-1.0,0.5,0.2" for i in range(9)]
    t = load_pauli_table(write_table(tmp_path / "c.csv", lines))
    assert len(t) == 9


def test_morse_shape_and_derivatives():
    de, alpha, re = 0.17, 1.02, 1.4
    pes = morse_pes(de, alpha, re)
    assert pes.v(re) == pytest.approx(0.0, abs=1e-15)
    assert pes.f(re) == pytest.approx(0.0, abs=1e-12)
    assert pes.curvature(re) == pytest.approx(2 * de * alpha ** 2, rel=1e-12)
    assert pes.v(60.0) == pytest.approx(de, rel=1e-6)
    r = np.linspace(0.8, 4.0, 40)
    h = 1e-5
    np.testing.assert_allclose(pes.f(r), -(pes.v(r + h) - pes.v(r - h)) / (2 * h),
                               rtol=1e-6, atol=1e-10)


def test_raw_table_pes(tmp_path):
    r = np.linspace(0.8, 5.0, 40)
    vv = 0.1 * (1 - np.exp(-(r - 1.5))) ** 2
    lines = [RAW_HEADER] + [f"{ri},{vi}" for ri, vi in zip(r, vv)]
    pes = raw_pes(write_table(tmp_path / "raw.csv", lines))
    np.testing.assert_allclose(pes.v(r), vv, atol=1e-14)
    h = 1e-4
    mid = np.linspace(1.0, 4.5, 30)
    np.testing.assert_allclose(pes.f(mid),
                               -(pes.v(mid + h) - pes.v(mid - h)) / (2 * h),
                               rtol=1e-6, atol=1e-9)


def test_tabulate_pes_checks_grid_domain():
    pes = pauli_pes(smooth_table(lo=1.0, hi=5.0))
    nodes = np.linspace(1.2, 4.8, 32)
    v, f = tabulate_pes(pes, nodes)
    np.testing.assert_allclose(v, pes.v(nodes), atol=0)
    np.testing.assert_allclose(f, pes.f(nodes), atol=0)
    with pytest.raises(DomainError):
        tabulate_pes(pes, np.linspace(0.5, 4.0, 32))


def raw_table_of(table, path):
    """Write the ground sheet of a coefficient table as a raw (R, V) CSV."""
    v = ground_state_energy(table.a, table.b, table.c)
    rows = [f"{float(ri)!r},{float(vi)!r}" for ri, vi in zip(table.R, v)]
    return write_table(path, [RAW_HEADER] + rows)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=8, max_value=64),
       k=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_cubic_table_matches_scipy_not_a_knot(n, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5.0, 5.0) + np.cumsum(rng.uniform(0.05, 1.0, n))
    y = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3.0, 3.0, k)
    r = np.concatenate((rng.uniform(x[0], x[-1], 200), x))
    oracle = CubicSpline(x, y)
    for order, ours in enumerate(_CubicTable(x, y)(r, 2)):
        want = oracle(r, order).T
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(ours - want) <= 1e-12 * scale), order


@pytest.mark.parametrize("source", ["bundled", "smooth"])
def test_curvature_is_minus_force_derivative(source, tmp_path):
    table = bundled_h2_table() if source == "bundled" else smooth_table()
    h = 1e-5
    r = np.linspace(table.R[0] + h, table.R[-1] - h, 401)
    for pes in (pauli_pes(table), raw_pes(raw_table_of(table, tmp_path / "v.csv"))):
        fd = -(pes.f(r + h) - pes.f(r - h)) / (2 * h)
        curv = pes.curvature(r)
        np.testing.assert_allclose(curv, fd, rtol=0,
                                   atol=1e-7 * np.max(np.abs(curv)))


def test_run_path_imports_no_scipy(tmp_path):
    raw = raw_table_of(smooth_table(), tmp_path / "raw.csv")
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        import kvnmd.cli
        from kvnmd.electronic import bundled_h2_table, pauli_pes, raw_pes
        r = np.linspace(1.2, 4.8, 64)
        for pes in (pauli_pes(bundled_h2_table()), raw_pes({str(raw)!r})):
            for evaluate in (pes.v, pes.f, pes.curvature):
                assert np.all(np.isfinite(evaluate(r)))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(kvnmd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


PAULI_TABLES = {"bundled": bundled_h2_table(), "smooth": smooth_table()}


@settings(max_examples=60, deadline=None)
@given(source=st.sampled_from(sorted(PAULI_TABLES)),
       u=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=600),
       other_shapes=st.booleans())
def test_force_is_bitwise_the_two_step_form(source, u, other_shapes):
    # random points, every knot and both ends, in one shuffled call
    table = PAULI_TABLES[source]
    lo, hi = table.R[0], table.R[-1]
    r = np.clip(lo + np.array(u) * (hi - lo), lo, hi)
    r = np.concatenate((r, table.R, [lo, hi]))
    np.random.default_rng(len(u)).shuffle(r)
    pes, oracle = pauli_pes(table), two_step_pauli_force(table)
    assert np.array_equal(pes.f(r), oracle(r))
    if other_shapes:
        assert pes.f(r[0]) == oracle(r[0])
        grid = r[:4].reshape(2, 2)
        assert np.array_equal(pes.f(grid), oracle(grid))


def test_force_passes_empty_and_nan_points():
    table = bundled_h2_table()
    pes, oracle = pauli_pes(table), two_step_pauli_force(table)
    assert pes.f(np.array([])).shape == (0,)
    for r in (np.array([np.nan]), np.array([1.4, np.nan, 2.0])):
        assert np.array_equal(pes.f(r), oracle(r), equal_nan=True)


def test_force_errors_keep_their_messages():
    pes = pauli_pes(smooth_table(lo=1.0, hi=5.0))
    with pytest.raises(DomainError, match=r"^R outside pauli_table domain "
                       r"\[1\.0, 5\.0\]: range \[2\.0, 5\.5\]$"):
        pes.f(np.array([2.0, 5.5]))
    # a NaN beside an out-of-domain point does not hide it
    with pytest.raises(DomainError, match=r"range \[nan, nan\]$"):
        pes.f(np.array([np.nan, 0.5]))
    with pytest.raises(DomainError, match=r"range \[nan, nan\]$"):
        pes.f(np.array([5.5, np.nan]))
    r = np.linspace(1.0, 3.0, 16)
    flat = pauli_pes(PauliCoefficientTable(R=r, a=-1.0 / r, b=np.zeros(16),
                                           c=np.zeros(16)))
    for points in (2.0, np.array([np.nan, 2.0])):
        with pytest.raises(SingularityError, match=r"^sqrt\(b\^2 \+ c\^2\) "
                           "vanished; ground sheet derivative undefined$"):
            flat.f(points)
    assert np.isnan(flat.f(np.array([np.nan]))).all()
