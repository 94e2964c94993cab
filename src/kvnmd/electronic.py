"""Potential-energy surfaces for the nuclear dynamics.

Three PES sources share one evaluator interface:

* ``pauli_pes`` -- a tabulated one-qubit electronic Hamiltonian
  H(R) = a(R) I + b(R) Z + c(R) X whose ground sheet is a - sqrt(b^2+c^2);
  forces come from the derivative of that closed form (coefficient splines),
  so force and energy are exactly consistent.
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
    """Ground-sheet evaluators. All three accept scalars or arrays."""

    kind: str
    domain: tuple[float, float]
    v: Callable[[np.ndarray], np.ndarray]
    f: Callable[[np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray], np.ndarray]

    def _check_domain(self, r: np.ndarray) -> None:
        r = np.asarray(r)
        lo, hi = self.domain
        if np.any(r < lo) or np.any(r > hi):
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


def ground_state_energy(a, b, c):
    """Lower eigenvalue a - sqrt(b^2 + c^2) of a I + b Z + c X."""
    return np.asarray(a) - np.hypot(np.asarray(b), np.asarray(c))


def pauli_pes(table: PauliCoefficientTable) -> PesModel:
    """Ground-sheet PES from coefficient splines (not-a-knot cubics).

    The force uses the derivative of the closed-form eigenvalue,
    F = -a' + (b b' + c c') / sqrt(b^2 + c^2), which keeps it exactly
    consistent with the energy evaluator. A vanishing gap term
    sqrt(b^2 + c^2) <= 1e-12 makes the derivative undefined and raises.
    """
    from scipy.interpolate import CubicSpline  # slow import, needed here only

    sa = CubicSpline(table.R, table.a)
    sb = CubicSpline(table.R, table.b)
    sc = CubicSpline(table.R, table.c)
    domain = (float(table.R[0]), float(table.R[-1]))

    def omega_of(r, check=True):
        w = np.hypot(sb(r), sc(r))
        if check and np.any(w <= OMEGA_GUARD):
            raise SingularityError(
                "sqrt(b^2 + c^2) vanished; ground sheet derivative undefined")
        return w

    def v(r):
        model._check_domain(r)
        return sa(r) - omega_of(r, check=False)

    def f(r):
        model._check_domain(r)
        w = omega_of(r)
        return -sa(r, 1) + (sb(r) * sb(r, 1) + sc(r) * sc(r, 1)) / w

    def curvature(r):
        model._check_domain(r)
        w = omega_of(r)
        w1 = (sb(r) * sb(r, 1) + sc(r) * sc(r, 1)) / w
        w2 = (sb(r, 1) ** 2 + sb(r) * sb(r, 2)
              + sc(r, 1) ** 2 + sc(r) * sc(r, 2) - w1 ** 2) / w
        return sa(r, 2) - w2

    model = PesModel(kind="pauli_table", domain=domain,
                     v=v, f=f, curvature=curvature)
    return model


def raw_pes(path) -> PesModel:
    """PES from a plain (R, V) table; force is minus the spline derivative."""
    from scipy.interpolate import CubicSpline  # slow import, needed here only

    data = _read_table(path, RAW_HEADER, 2)
    spline = CubicSpline(data[:, 0], data[:, 1])
    domain = (float(data[0, 0]), float(data[-1, 0]))

    def v(r):
        model._check_domain(r)
        return spline(r)

    def f(r):
        model._check_domain(r)
        return -spline(r, 1)

    def curvature(r):
        model._check_domain(r)
        return spline(r, 2)

    model = PesModel(kind="raw_table", domain=domain,
                     v=v, f=f, curvature=curvature)
    return model


def morse_pes(de: float, alpha: float, re: float) -> PesModel:
    """V = De (1 - exp(-alpha (R - Re)))^2 with analytic derivatives."""
    if de <= 0 or alpha <= 0 or re <= 0:
        raise ValueError("Morse parameters must be positive")

    def u(r):
        return np.exp(-alpha * (np.asarray(r, dtype=float) - re))

    def v(r):
        return de * (1.0 - u(r)) ** 2

    def f(r):
        uu = u(r)
        return -2.0 * de * alpha * uu * (1.0 - uu)

    def curvature(r):
        uu = u(r)
        return 2.0 * de * alpha ** 2 * (2.0 * uu ** 2 - uu)

    return PesModel(kind="morse", domain=(0.0, np.inf),
                    v=v, f=f, curvature=curvature)


def tabulate_pes(pes: PesModel, r_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (V, F) on the grid's R nodes; raises DomainError outside."""
    r = np.asarray(r_nodes, dtype=float)
    return np.asarray(pes.v(r), dtype=float), np.asarray(pes.f(r), dtype=float)
