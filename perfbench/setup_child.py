"""Set-up probe: build a workload's inputs and operator tables, then exit.

Run as a fresh process, ``python3 setup_child.py INI...`` with ``src``
on PYTHONPATH; the caller times it from spawn to exit. It covers
importing kvnmd, loading each config, building the PES, the grid, the
initial state and the operator tables the workload steps with, through
public calls only. It writes nothing.
"""

import sys

from kvnmd.config import load_config
from kvnmd.constants import angstrom_to_bohr, kelvin_to_hartree
from kvnmd.diagnostics import canonical_reference
from kvnmd.grid import build_grid, encode_gaussian
from kvnmd.propagator import (FrictionOperator, LangevinStepper,
                              NvePropagator, calibrate)
from kvnmd.tst import analytic_canonical_state
from kvnmd.vdos import prepare_branch_states, reference_frequency


def _grid(cfg):
    g = cfg.grid
    return build_grid(g.n_r, g.n_p, (g.r_min_bohr, g.r_max_bohr),
                      (g.p_min_au, g.p_max_au))


def _relax(cfg):
    pes, grid = cfg.pes.build(), _grid(cfg)
    lv = cfg.langevin
    params = calibrate(cfg.pes.mu_au, lv.gamma_au, lv.dt_au,
                       kelvin_to_hartree(lv.t_phys_kelvin), lv.correction)
    encode_gaussian(grid, angstrom_to_bohr(cfg.init.r0_angstrom),
                    cfg.init.p0_au, cfg.init.sigma_r_bohr,
                    cfg.init.sigma_p_au)
    LangevinStepper(grid, pes, params)
    canonical_reference(grid, pes, params.mu, params.t_phys)


def _vdos(cfg):
    pes, grid, mu, v = cfg.pes.build(), _grid(cfg), cfg.pes.mu_au, cfg.vdos
    eq = analytic_canonical_state(grid, pes, mu, kelvin_to_hartree(v.t_kelvin))
    prepare_branch_states(eq, reference_frequency(pes, mu, grid.R), mu)
    NvePropagator(grid, pes, mu, v.tau_au / v.inner_steps)


def _bias(cfg):
    b = cfg.bias_check
    for s in b.s_values:
        params = calibrate(b.mu_au, gamma=s, dt=1.0,
                           t_phys=kelvin_to_hartree(b.t_kelvin))
        p_max = 8.0 * (b.mu_au * params.t_int) ** 0.5
        FrictionOperator(build_grid(3, b.n_p, (0.0, 1.0), (-p_max, p_max)),
                         params.s)


def _tst(cfg):
    pes, grid = cfg.pes.build(), _grid(cfg)
    for t in cfg.tst.temperatures_kelvin:
        analytic_canonical_state(grid, pes, cfg.pes.mu_au,
                                 kelvin_to_hartree(t))


def _oracle(cfg):
    cfg.pes.build()


_SETUPS = {"relax": _relax, "vdos": _vdos, "bias-check": _bias,
             "tst": _tst, "oracle": _oracle}


def main(paths):
    for path in paths:
        cfg, errors = load_config(path)
        if cfg is None:
            sys.exit("config error: " + "; ".join(errors))
        _SETUPS[cfg.mode](cfg)


if __name__ == "__main__":
    main(sys.argv[1:])
