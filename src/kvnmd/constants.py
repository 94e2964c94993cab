"""Physical constants and unit conversions (CODATA 2018).

Everything inside the package runs in Hartree atomic units; conversions
live at the I/O boundary only.
"""

BOHR_PER_ANGSTROM = 1.0 / 0.529177210903
ANGSTROM_PER_BOHR = 0.529177210903

FS_PER_AU_TIME = 0.02418884254
SECONDS_PER_AU_TIME = 2.418884254e-17

# Boltzmann constant in hartree per kelvin
HARTREE_PER_KELVIN = 3.166811563e-6

WAVENUMBER_PER_HARTREE = 219474.6313632


def kelvin_to_hartree(t_kelvin: float) -> float:
    return t_kelvin * HARTREE_PER_KELVIN


def hartree_to_kelvin(t_hartree: float) -> float:
    return t_hartree / HARTREE_PER_KELVIN


def angstrom_to_bohr(r: float) -> float:
    return r * BOHR_PER_ANGSTROM


def bohr_to_angstrom(r: float) -> float:
    return r * ANGSTROM_PER_BOHR
