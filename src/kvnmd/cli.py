"""Configuration-driven command line runner.

Every invocation executes one mode (relax, vdos, tst, bias-check,
oracle), writes its data series as plot-ready CSVs plus a manifest.json
recording the resolved configuration, derived parameters, library
versions, wall time (in total and per phase: tables, propagate, readout,
write), memory (the process's peak resident set, in total and as it stood
at the end of each phase, the memory available when the run started and
the preflight's estimate of the working set), the warnings shown under
the active filters (category, count, first message) and a content hash
per output file, streamed in 1 MiB chunks once the run is done. Reruns
with the same config and seed reproduce the CSVs byte for byte; timings
and memory go only into the manifest.

Exit codes: 0 success, 2 configuration error, 3 numerical failure. A
mode returns its outputs and `main` writes them, so a run stopped by an
error (exit 2 or 3) leaves no output file; a relax collapse or a bias
check FAIL returns, and exits 3 with its outputs written. The manifest
records the exit status. A run stopped by an error (exit 2 or 3) still
writes one, with the error, the timings and memory booked until then and
the warning tally, but no outputs; a `load_config` error writes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
import warnings
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .config import MODES, RunConfig, load_config
from .constants import (WAVENUMBER_PER_HARTREE, angstrom_to_bohr,
                        hartree_to_kelvin, kelvin_to_hartree)
from .diagnostics import relax, relax_memory_estimate
from .errors import (ConfigurationError, DomainError, KvnError,
                     MemoryBudgetError, ResolutionError, TableFormatError)
from .grid import build_grid, encode_gaussian
from .oracles import bias_product_memory_estimate, canonical_sampler, \
    cos_filter_stationary_bias, langevin_ensemble, langevin_memory_estimate, \
    sampler_memory_estimate, verlet_blocks, verlet_blocks_memory_estimate, \
    verlet_ensemble, verlet_memory_estimate
from .propagator import (_RowDilation, _available_memory, _preflight,
                         _proc_kb_bytes, calibrate, momentum_bias_experiment)
from .tst import TstConfig, _surface_sigma, analytic_canonical_state, \
    arrhenius_sweep, crossing_memory_estimate, crossing_reference
from .vdos import QpeConfig, aimd_reference_spectrum, branch_memory_estimate, \
    branch_spectra, reference_frequency

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

BIAS_TOLERANCE_LAW = 0.10
BIAS_TOLERANCE_ORACLE = 0.01

_CONFIG_CLASS_ERRORS = (ConfigurationError, ResolutionError, DomainError,
                        TableFormatError, MemoryBudgetError)
PHASES = ("tables", "propagate", "readout", "write")


class _PhaseClock:
    """Wall seconds per run phase, and the peak resident set as it stood
    at the end of each phase's last lap, booked lap by lap."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.peak_rss: dict[str, int] = {}
        self._last = time.perf_counter()

    def lap(self, phase: str, readout: float = 0.0) -> None:
        """Book the time since the last lap to `phase`, less the
        `readout` seconds spent inside it, which go to readout; the peak
        resident set goes to `phase` whole."""
        now = time.perf_counter()
        self.seconds[phase] += now - self._last - readout
        self.seconds["readout"] += readout
        self._last = now
        peak = _peak_rss_bytes()
        if peak is not None:
            self.peak_rss[phase] = peak


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _lines(rows):
    for row in rows:
        yield ",".join(map(_cell, row)) + "\n"


def _reprs(x: np.ndarray) -> list[str]:
    """`repr` of each entry of a 1-D float64 array, in one C call.

    orjson prints the same shortest round-trip digits as `repr` (Ryu)
    and the same layout in the two magnitude bands tested below; outside
    them (1e-5 to 1e-4 in fixed point, two-digit and positive exponents
    without padding or sign, nan and inf as null) `repr` formats the
    entry. orjson is imported here, so only a run that writes a CSV
    through this loads it.
    """
    import orjson

    x = np.ascontiguousarray(x, np.float64)
    text = orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    cells = text[1:-1].split(",") if x.size else []
    a = np.abs(x)
    # nan fails every comparison, so it falls in neither band
    other = np.flatnonzero(~(((a >= 1.1e-4) & (a < 9e15)) | (a < 9e-10)))
    for j, v in zip(other.tolist(), x[other].tolist()):
        cells[j] = repr(v)
    return cells


def _density_lines(grid, rho: np.ndarray):
    """One chunk of (R, P, density) lines per R row; nodes formatted once."""
    p_cells = [_cell(p) for p in grid.P]
    for r, row in zip(grid.R, rho):
        r_cell = _cell(r)
        yield "".join(f"{r_cell},{p},{v}\n"
                      for p, v in zip(p_cells, _reprs(row)))


def _trajectory_lines(ens):
    """One chunk of (id, t, R, P) lines per record."""
    ids = [str(j) for j in range(ens.R.shape[1])]
    for t, r_row, p_row in zip(_reprs(ens.times), ens.R, ens.P):
        yield "".join(f"{j},{t},{r},{p}\n"
                      for j, r, p in zip(ids, _reprs(r_row), _reprs(p_row)))


def _write_csv(path: Path, header: str, lines) -> None:
    """Header plus pre-formatted line chunks (see _lines, _density_lines)."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(lines)


def _run_relax(cfg: RunConfig, grid, pes, clock: _PhaseClock, memory: dict):
    lv = cfg.langevin
    rl = cfg.relax
    params = calibrate(cfg.pes.mu_au, lv.gamma_au, lv.dt_au,
                       kelvin_to_hartree(lv.t_phys_kelvin), lv.correction)
    memory["estimate_bytes"] = relax_memory_estimate(
        grid, params, rl.n_steps, rl.snapshot_steps)
    clock.lap("tables")
    # no name here holds the initial table, so relax releases it once it
    # has read it; its encoding is booked to propagate
    trace, _, snapshots = relax(
        encode_gaussian(grid, angstrom_to_bohr(cfg.init.r0_angstrom),
                        cfg.init.p0_au, cfg.init.sigma_r_bohr,
                        cfg.init.sigma_p_au),
        pes, params, rl.n_steps, rl.record_every, rl.snapshot_steps)
    clock.lap("propagate", readout=trace.monitor_seconds)

    outputs = {"relax_trace.csv": (
        "time_fs,mean_R_angstrom,T_kin_K,D_KL_nats,cum_success_prob",
        _lines(zip(trace.time_fs, trace.mean_r_angstrom, trace.t_kin_kelvin,
                   trace.d_kl_nats, trace.cum_success_prob)))}
    for step in sorted(snapshots):
        outputs[f"snapshot_step{step:06d}.csv"] = (
            "R_bohr,P_au,density", _density_lines(grid, snapshots[step]))

    derived = {"s": params.s, "t_int_hartree": params.t_int,
               "t_int_kelvin": hartree_to_kelvin(params.t_int),
               "sigma_h_au": params.sigma_h, "collapsed": trace.collapsed,
               "collapsed_at_step": trace.collapsed_at_step,
               "friction_leak_max": trace.friction_leak_max,
               "filter_yield_min": trace.success_probability_min}
    if trace.collapsed:
        print(f"numerical failure: the state collapsed at step "
              f"{trace.collapsed_at_step}; the trace ends at its last record",
              file=sys.stderr)
        return EXIT_NUMERICAL, derived, outputs
    return EXIT_OK, derived, outputs


def _run_vdos(cfg: RunConfig, grid, pes, clock: _PhaseClock, memory: dict):
    mu = cfg.pes.mu_au
    v = cfg.vdos
    base = QpeConfig(m=v.m, tau=v.tau_au, omega_shift=v.omega_shift_au,
                     inner_steps=v.inner_steps)
    # refused before the equilibrium table is built
    memory["estimate_bytes"] = branch_memory_estimate(grid)
    _preflight("branch_spectra", memory["estimate_bytes"])
    if v.aimd_reference:
        # the reference's sampler and R blocks, which preflight themselves,
        # run after the equilibrium table is released
        memory["estimate_bytes"] = max(
            memory["estimate_bytes"],
            sampler_memory_estimate(v.aimd_n_traj)
            + verlet_blocks_memory_estimate(8 * base.n_bins, v.aimd_n_traj))
    eq = analytic_canonical_state(grid, pes, mu,
                                  kelvin_to_hartree(v.t_kelvin))
    omega_ref = (v.omega_ref_au if v.omega_ref_au is not None
                 else reference_frequency(pes, mu, grid.R))
    clock.lap("tables")
    plus, minus = branch_spectra(eq, pes, mu, base, omega_ref)
    del eq  # the aimd reference does not read it
    clock.lap("propagate")

    spectra = [spec for spec in (plus, minus)
               if v.branch in (spec.branch, "both")]
    if v.aimd_reference:
        r0, p0 = canonical_sampler(pes, mu, kelvin_to_hartree(v.t_kelvin),
                                   v.aimd_n_traj, cfg.seed,
                                   (grid.r_min, grid.r_max))
        # records every tau / 8, integrated block by block as the
        # reference reads them
        blocks = verlet_blocks(pes, mu, r0, p0, v.tau_au / 8.0,
                               8 * base.n_bins)
        spectra.append(aimd_reference_spectrum(blocks, base,
                                               window=v.aimd_window))
    clock.lap("readout")

    rows = []
    peaks = {}
    for spec in spectra:
        omega_cm1 = spec.omega_cm1
        rows.extend((omega_cm1[j], spec.prob[j], spec.branch)
                    for j in range(len(spec.prob)))
        peaks[spec.branch] = {"bin": spec.peak_bin,
                              "omega_cm1": float(omega_cm1[spec.peak_bin])}
    w_plus, w_minus = plus.branch_weight, minus.branch_weight
    total = w_plus + w_minus
    meta = {"m": v.m, "tau_au": v.tau_au, "omega_shift_au": v.omega_shift_au,
            "inner_steps": v.inner_steps, "t_kelvin": v.t_kelvin,
            "omega_ref_au": omega_ref,
            "bin_width_au": base.bin_width,
            "window_width_au": base.window_width,
            "branch_weights": {"plus": w_plus, "minus": w_minus},
            "postselection_yield": {"plus": w_plus / total,
                                    "minus": w_minus / total},
            "peaks": peaks}
    derived = {"omega_ref_au": omega_ref,
               "omega_ref_cm1": omega_ref * WAVENUMBER_PER_HARTREE}
    return EXIT_OK, derived, {
        "vdos_spectrum.csv": ("omega_cm1,prob,branch", _lines(rows)),
        "vdos_meta.json": (json.dumps(meta, indent=2, sort_keys=True), ())}


def _run_tst(cfg: RunConfig, grid, pes, clock: _PhaseClock, memory: dict):
    mu = cfg.pes.mu_au
    t = cfg.tst
    tcfg = TstConfig(r_dividing=t.r_dividing_bohr, sigma=t.sigma_bohr,
                     temperatures=t.temperatures_kelvin)
    if t.crossing:
        memory["estimate_bytes"] = crossing_memory_estimate(
            t.crossing_n_traj, t.crossing_t_sim_au, t.crossing_dt_au)
    clock.lap("tables")
    fit = arrhenius_sweep(grid, pes, mu, tcfg)
    clock.lap("readout")
    outputs = {"tst_rates.csv": (
        "T_kelvin,inv_T,flux_au,population,k_au,k_per_second,log_k",
        _lines((r.t_kelvin, 1.0 / r.t_kelvin, r.flux_au, r.population,
                r.k_au, r.k_per_second, math.log(r.k_au))
               for r in fit.results))}
    derived = {"activation_energy_hartree": fit.activation_energy,
               "ln_prefactor": fit.ln_prefactor,
               "sigma_bohr": _surface_sigma(grid, tcfg)}
    if t.crossing:
        t_low = min(t.temperatures_kelvin)
        cross = crossing_reference(pes, mu, t_low, t.crossing_n_traj,
                                   t.crossing_t_sim_au, cfg.seed, tcfg,
                                   (grid.r_min, grid.r_max),
                                   dt=t.crossing_dt_au)
        clock.lap("propagate")
        outputs["crossing.csv"] = (
            "N_cross,k_cross,k_min",
            _lines([(cross.n_cross, cross.k_cross, cross.k_min)]))
        derived["crossing_t_kelvin"] = t_low
    return EXIT_OK, derived, outputs


def _run_bias_check(cfg: RunConfig, grid, pes, clock: _PhaseClock,
                    memory: dict):
    b = cfg.bias_check
    t_phys = kelvin_to_hartree(b.t_kelvin)
    rows = []
    all_pass = True
    for s in b.s_values:
        params = calibrate(b.mu_au, gamma=s, dt=1.0, t_phys=t_phys)
        p_max = 8.0 * math.sqrt(b.mu_au * params.t_int)
        grid = build_grid(3, b.n_p, (0.0, 1.0), (-p_max, p_max))
        memory["estimate_bytes"] = max(memory.get("estimate_bytes", 0),
                                       _RowDilation.memory_estimate(grid),
                                       bias_product_memory_estimate())
        clock.lap("tables")
        result = momentum_bias_experiment(grid, params)
        clock.lap("propagate")
        predicted = 0.5 * math.tanh(s)
        oracle = cos_filter_stationary_bias(s)
        err_law = abs(result.bias - predicted) / predicted
        err_oracle = abs(result.bias - oracle) / abs(oracle)
        ok = (err_law <= BIAS_TOLERANCE_LAW
              and err_oracle <= BIAS_TOLERANCE_ORACLE)
        all_pass &= ok
        print(f"s={s:g}: measured bias {result.bias:.6e} vs half-tanh "
              f"{predicted:.6e} ({err_law:.2%}) "
              f"[{'PASS' if ok else 'FAIL'}]")
        rows.append((s, result.bias, predicted, oracle, err_law, err_oracle,
                     "PASS" if ok else "FAIL"))
        clock.lap("readout")
    derived = {"n_momentum_nodes": 1 << b.n_p,
               "tolerance_vs_law": BIAS_TOLERANCE_LAW,
               "tolerance_vs_oracle": BIAS_TOLERANCE_ORACLE}
    return (EXIT_OK if all_pass else EXIT_NUMERICAL), derived, {
        "bias_check.csv": ("s,measured_bias,predicted_half_tanh,"
                           "product_oracle,rel_err_predicted,rel_err_oracle,"
                           "status", _lines(rows))}


def _run_oracle(cfg: RunConfig, grid, pes, clock: _PhaseClock, memory: dict):
    o = cfg.oracle
    mu = cfg.pes.mu_au
    t_ha = kelvin_to_hartree(o.t_kelvin)
    if o.kind == "langevin":
        memory["estimate_bytes"] = langevin_memory_estimate(
            o.n_steps, o.n_traj, o.record_every)
    else:
        memory["estimate_bytes"] = (
            sampler_memory_estimate(o.n_traj)
            + verlet_memory_estimate(o.n_steps, o.n_traj, o.record_every))
    clock.lap("tables")
    if o.kind == "langevin":
        ens = langevin_ensemble(pes, mu, o.gamma_au, t_ha, o.dt_au,
                                o.n_steps, o.n_traj, cfg.seed, o.r0_bohr,
                                o.p0_au, o.record_every)
    else:
        r0, p0 = canonical_sampler(pes, mu, t_ha, o.n_traj, cfg.seed,
                                   (o.r_min_bohr, o.r_max_bohr))
        ens = verlet_ensemble(pes, mu, r0, p0, o.dt_au, o.n_steps,
                              o.record_every)
    clock.lap("propagate")
    # record by record: the square of all of P would set the run's peak
    t_kin_kelvin = hartree_to_kelvin(
        np.array([np.mean(p ** 2) for p in ens.P]) / mu)
    clock.lap("readout")
    outputs = {"oracle_summary.csv": (
        "t_au,mean_R_bohr,T_kin_K",
        _lines(zip(ens.times, np.mean(ens.R, axis=1), t_kin_kelvin)))}
    if o.dump_trajectories:
        outputs["trajectories.csv"] = ("traj_id,t_au,R_bohr,P_au",
                                       _trajectory_lines(ens))
    return EXIT_OK, {"n_records": len(ens.times)}, outputs


# each handler takes the config's grid and PES (None without [grid] or
# [pes]), books its phases on the clock and any memory figures in `memory`
# as it goes, so that a partial manifest keeps them, and returns (exit
# code, derived quantities, {file name: (header, lines)} in write order);
# main writes the outputs once the handler has returned
_HANDLERS = {"relax": _run_relax, "vdos": _run_vdos, "tst": _run_tst,
             "bias-check": _run_bias_check, "oracle": _run_oracle}


def _resolved_config(cfg: RunConfig) -> dict:
    out = {"mode": cfg.mode, "out": cfg.out_dir, "seed": cfg.seed}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = dataclasses.asdict(value)
    return out


def _sha256(path: Path) -> str:
    """Content hash of an output file, read in 1 MiB chunks so that a
    snapshot of any size adds one chunk to the peak, not its size.

    hashlib is imported here, after the run: importing it maps OpenSSL,
    3.6 MiB of resident memory that the run itself does not use.
    """
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


class _WarningTally:
    """Category, count and first message of the warnings shown in a run.

    Hooks `warnings.showwarning` for the run and passes every warning on
    to the previous hook, so the active filters (error, once, module,
    ...) act at the point of the warning and stderr is unchanged.
    """

    def __init__(self):
        self.summary: dict[str, dict] = {}

    def __enter__(self):
        self._show = warnings.showwarning
        warnings.showwarning = self._tally
        return self

    def __exit__(self, *exc) -> None:
        warnings.showwarning = self._show

    def _tally(self, message, category, filename, lineno, file=None,
               line=None) -> None:
        entry = self.summary.setdefault(category.__name__, {
            "category": category.__name__, "count": 0,
            "first_message": str(message)})
        entry["count"] += 1
        self._show(message, category, filename, lineno, file, line)


_STATUS = "/proc/self/status"


def _peak_rss_bytes() -> int | None:
    """Peak resident set of this process; None where it cannot be read.

    Where the host reports VmHWM (Linux), that is the peak: exec resets
    it. ru_maxrss is the fallback. On Linux it keeps the peak of the
    process that started this one by vfork, when that is larger.
    """
    peak = _proc_kb_bytes(_STATUS, "VmHWM:")
    if peak is not None:
        return peak
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak if sys.platform == "darwin" else 1024 * peak  # KiB on Linux


def _write_manifest(out_dir: Path, cfg: RunConfig, code: int,
                    error: dict | None, derived: dict, outputs: list[str],
                    wall_seconds: float, timings: dict, memory: dict,
                    warning_summary: list[dict]) -> None:
    manifest = {
        "mode": cfg.mode,
        "exit_status": code,
        "error": error,
        "config": _resolved_config(cfg),
        "derived": derived,
        "versions": {"kvnmd": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "wall_time_seconds": wall_seconds,
        "timings": timings,
        "memory": memory,
        "warnings": warning_summary,
        "outputs": {name: _sha256(out_dir / name) for name in outputs},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=list) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kvnmd",
        description="Phase-space wavefunction runs driven by an INI config.")
    parser.add_argument("--config", required=True, help="path to the run "
                        "configuration (INI, dotted sections)")
    parser.add_argument("--out", help="output directory (overrides run.out)")
    parser.add_argument("--seed", type=int,
                        help="RNG seed (overrides run.seed)")
    parser.add_argument("--mode", choices=MODES,
                        help="run mode (overrides run.mode)")
    args = parser.parse_args(argv)

    cfg, errors = load_config(args.config, mode_override=args.mode,
                              out_override=args.out,
                              seed_override=args.seed)
    if cfg is None:
        for line in errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    clock = _PhaseClock()
    memory: dict = {}
    available = _available_memory()
    if available is not None:
        memory["available_bytes"] = available
    try:
        with _WarningTally() as tally:
            # the clock books both builds to the handler's first lap, tables
            g = cfg.grid
            grid = None if g is None else build_grid(
                g.n_r, g.n_p, (g.r_min_bohr, g.r_max_bohr),
                (g.p_min_au, g.p_max_au))
            pes = None if cfg.pes is None else cfg.pes.build()
            code, derived, outputs = _HANDLERS[cfg.mode](cfg, grid, pes,
                                                         clock, memory)
            if grid is not None:
                derived.update(dR_bohr=grid.dR, dP_au=grid.dP,
                               grid_shape=list(grid.shape))
            for name, (header, lines) in outputs.items():
                _write_csv(out_dir / name, header, lines)
            clock.lap("write")
    except KvnError as exc:
        refused = isinstance(exc, _CONFIG_CLASS_ERRORS)
        print(f"{'config error' if refused else 'numerical failure'}: {exc}",
              file=sys.stderr)
        code = EXIT_CONFIG if refused else EXIT_NUMERICAL
        derived, outputs = {}, {}
        error = {"type": type(exc).__name__, "message": str(exc)}
    else:
        error = None
    wall = time.perf_counter() - start
    peak = _peak_rss_bytes()
    if peak is not None:
        # the kernel's stored mark can lag a phase's live reading, so the
        # run's peak is the largest of them all
        memory["peak_rss_bytes"] = max([peak, *clock.peak_rss.values()])
        memory["phase_peak_rss_bytes"] = clock.peak_rss
    _write_manifest(out_dir, cfg, code, error, derived, list(outputs), wall,
                    clock.seconds, memory, list(tally.summary.values()))
    return code


if __name__ == "__main__":
    sys.exit(main())
