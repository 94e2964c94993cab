"""Potential-energy surfaces for the nuclear dynamics.

Three PES sources share one interface, an energy V(R) and a force
F(R) = -dV/dR: the force drives the Liouville kick, and the energy sets the
canonical weight exp(-V/T).

* ``pauli_pes`` -- a tabulated one-qubit electronic Hamiltonian
  H(R) = a(R) I + b(R) Z + c(R) X whose ground sheet is a - sqrt(b^2+c^2);
  forces come from the derivative of that closed form (one not-a-knot cubic
  spline table of the coefficients), so force and energy are exactly
  consistent.
* ``raw_pes`` -- a plain tabulated V(R).
* ``morse_pes`` -- the analytic Morse form used as a fallback model.

All energies in hartree, distances in bohr. The simulator never computes
electronic integrals; tables are ingested from CSV files (one H2 table is
bundled as package data).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, SingularityError, TableFormatError

OMEGA_GUARD = 1e-12

PAULI_HEADER = "R_bohr,a_hartree,b_hartree,c_hartree"
RAW_HEADER = "R_bohr,V_hartree"


@dataclass(frozen=True)
class PauliCoefficientTable:
    """Sampled coefficients of H(R) = a I + b Z + c X, hartree vs bohr."""

    R: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __len__(self) -> int:
        return len(self.R)


@dataclass(frozen=True)
class PesModel:
    """Ground-sheet energy ``v`` and force ``f``. Both accept scalars or
    arrays."""

    kind: str
    domain: tuple[float, float]
    v: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]

    def _check_domain(self, r: np.ndarray) -> None:
        r = np.asarray(r)
        lo, hi = self.domain
        # fmin and fmax skip NaN entries, which pass as they do under
        # np.any(r < lo), with no boolean table
        if r.size and (np.fmin.reduce(r, axis=None) < lo
                       or np.fmax.reduce(r, axis=None) > hi):
            raise DomainError(
                f"R outside {self.kind} domain [{lo}, {hi}]: "
                f"range [{r.min()}, {r.max()}]")


def _read_table(path, expected_header: str, n_cols: int) -> np.ndarray:
    rows = []
    header_seen = False
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if not header_seen:
                    if line != expected_header:
                        raise TableFormatError(
                            f"{path}: expected header '{expected_header}', "
                            f"got '{line}'")
                    header_seen = True
                    continue
                parts = line.split(",")
                if len(parts) != n_cols:
                    raise TableFormatError(
                        f"{path}:{lineno}: expected {n_cols} columns, "
                        f"got {len(parts)}")
                try:
                    rows.append([float(x) for x in parts])
                except ValueError as exc:
                    raise TableFormatError(
                        f"{path}:{lineno}: unparseable value ({exc})") from None
    except OSError as exc:
        raise TableFormatError(f"cannot read table {path}: {exc}") from None
    if not header_seen:
        raise TableFormatError(f"{path}: missing header row")
    data = np.array(rows, dtype=float)
    if len(data) < 8:
        raise TableFormatError(
            f"{path}: need at least 8 samples, got {len(data)}")
    if not np.all(np.isfinite(data)):
        raise TableFormatError(f"{path}: non-finite values in table")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise TableFormatError(f"{path}: R column must be strictly increasing")
    return data


def load_pauli_table(path) -> PauliCoefficientTable:
    """Read and validate a coefficient CSV (comments with '#' allowed)."""
    data = _read_table(path, PAULI_HEADER, 4)
    return PauliCoefficientTable(R=data[:, 0], a=data[:, 1],
                                 b=data[:, 2], c=data[:, 3])


def bundled_h2_table() -> PauliCoefficientTable:
    """The H2 table shipped as package data (see its header for provenance)."""
    ref = importlib.resources.files("kvnmd.data") / "h2_sto3g_pauli.csv"
    with importlib.resources.as_file(ref) as path:
        return load_pauli_table(path)


class _CubicTable:
    """Not-a-knot cubic splines through the k columns of y, shape (n, k).

    The knot slopes solve the tridiagonal system of C. de Boor, *A Practical
    Guide to Splines* (1978), ch. IV, with not-a-knot end rows. Elimination
    needs no pivoting: the end rows leave pivots dx_1 and dx_0 + dx_1, and
    the interior rows are diagonally dominant. The piecewise coefficients
    rest in one contiguous (4k, n-1) table (cubic, quadratic, linear and
    constant rows), so an evaluation is one interval search and one take.
    `first_order` builds an evaluator on a copy of only the rows it needs.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(len(x), -1)
        n = len(x)
        if n < 4:
            raise ValueError(f"a not-a-knot cubic needs 4 knots, got {n}")
        dx = np.diff(x)
        slope = np.diff(y, axis=0) / dx[:, None]

        # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
        lower = np.r_[0.0, dx[1:], x[-1] - x[-3]]
        diag = np.r_[dx[1], 2.0 * (dx[:-1] + dx[1:]), dx[-2]]
        upper = np.r_[x[2] - x[0], dx[:-1], 0.0]
        rhs = np.empty_like(y)
        rhs[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
        d = x[2] - x[0]
        rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0]
                  + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        rhs[-1] = (dx[-1] ** 2 * slope[-2]
                   + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d

        for i in range(1, n):
            m = lower[i] / diag[i - 1]
            diag[i] -= m * upper[i - 1]
            rhs[i] -= m * rhs[i - 1]
        s = rhs
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]

        h = dx[:, None]
        t = (s[:-1] + s[1:] - 2.0 * slope) / h
        self._coef = np.concatenate(
            (t / h, (slope - s[:-1]) / h - t, s[:-1], y[:-1]), axis=1).T.copy()
        self._x = x
        self._k = y.shape[1]

    def first_order(self, values=(), slopes=()):
        """Evaluator r -> (values of the columns in `values`, first
        derivatives of the columns in `slopes`), with one take of only
        the rows these need.

        The derivative rows are stored as 3 cubic, 2 quadratic and
        linear, so a slope is (3cub h + 2quad) h + lin. The value rows
        share those first three multiply-adds and end with one more:
        ((cub h + quad) h + lin) h + const.
        """
        cub, quad, lin, const = self._coef.reshape(4, self._k, -1)
        values, slopes = list(values), list(slopes)
        table = np.concatenate(
            [np.concatenate((v[values], d[slopes]))
             for v, d in ((cub, 3.0 * cub), (quad, 2.0 * quad), (lin, lin))]
            + [const[values]])
        n_v, m = len(values), len(values) + len(slopes)

        def evaluate(r):
            r = np.asarray(r, dtype=float)
            i = np.searchsorted(self._x[1:-1], r, side="right")
            h = r - self._x[i]
            g = table.take(i, axis=1, mode="clip")  # i is in range
            q, v = g[:m], g[3 * m:]
            q *= h
            q += g[m:2 * m]
            q *= h
            q += g[2 * m:3 * m]
            v += q[:n_v] * h
            return v, q[n_v:]

        return evaluate


def _gap(b, c):
    """sqrt(b^2 + c^2), raising where it vanishes (derivative undefined)."""
    w = np.hypot(b, c)
    if w.size and np.fmin.reduce(w, axis=None) <= OMEGA_GUARD:
        raise SingularityError(
            "sqrt(b^2 + c^2) vanished; ground sheet derivative undefined")
    return w


def pauli_pes(table: PauliCoefficientTable) -> PesModel:
    """Ground-sheet PES from not-a-knot cubic splines of a, b and c.

    One spline table holds the three coefficient columns, so each call
    makes one interval search and one coefficient gather: ``v`` takes the
    value rows of a, b and c; ``f`` takes only the value rows of b and c
    and the first-derivative rows of a, b and c. The force uses the
    derivative of the closed-form eigenvalue,
    F = -a' + (b b' + c c') / sqrt(b^2 + c^2), which keeps it exactly
    consistent with the energy evaluator. A vanishing gap term
    sqrt(b^2 + c^2) <= 1e-12 makes the derivative undefined and raises.
    """
    spline = _CubicTable(table.R, np.column_stack((table.a, table.b, table.c)))
    domain = (float(table.R[0]), float(table.R[-1]))
    energy_terms = spline.first_order(values=(0, 1, 2))
    force_terms = spline.first_order(values=(1, 2), slopes=(0, 1, 2))

    def v(r):
        model._check_domain(r)
        (a, b, c), _ = energy_terms(r)
        return a - np.hypot(b, c)

    def f(r):
        model._check_domain(r)
        (b, c), (a1, b1, c1) = force_terms(r)
        return (b * b1 + c * c1) / _gap(b, c) - a1

    model = PesModel(kind="pauli_table", domain=domain, v=v, f=f)
    return model


def raw_pes(path) -> PesModel:
    """PES from a plain (R, V) table: a not-a-knot cubic spline of V.

    The force is minus the spline's first derivative.
    """
    data = _read_table(path, RAW_HEADER, 2)
    spline = _CubicTable(data[:, 0], data[:, 1])
    domain = (float(data[0, 0]), float(data[-1, 0]))
    energy_terms = spline.first_order(values=(0,))
    slope_terms = spline.first_order(slopes=(0,))

    def v(r):
        model._check_domain(r)
        return energy_terms(r)[0][0]

    def f(r):
        model._check_domain(r)
        return -slope_terms(r)[1][0]

    model = PesModel(kind="raw_table", domain=domain, v=v, f=f)
    return model


def morse_pes(de: float, alpha: float, re: float) -> PesModel:
    """V = De (1 - exp(-alpha (R - Re)))^2 with analytic derivatives."""
    if de <= 0 or alpha <= 0 or re <= 0:
        raise ValueError("Morse parameters must be positive")

    def u(r):
        return np.exp(-alpha * (np.asarray(r, dtype=float) - re))

    def v(r):
        model._check_domain(r)
        return de * (1.0 - u(r)) ** 2

    def f(r):
        model._check_domain(r)
        uu = u(r)
        return -2.0 * de * alpha * uu * (1.0 - uu)

    model = PesModel(kind="morse", domain=(0.0, np.inf), v=v, f=f)
    return model
