import csv
import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kvnmd.cli
import kvnmd.propagator
from kvnmd.cli import PHASES, _cell, _density_lines, _reprs, main
from kvnmd.errors import (BoundaryLeakWarning, FilterBandWarning,
                          FilterCollapseError, NonFiniteAmplitudeError,
                          SingularityError)
from kvnmd.config import load_config, parse_config
from kvnmd.constants import kelvin_to_hartree
from kvnmd.grid import build_grid
from kvnmd.oracles import (bias_product_memory_estimate, langevin_ensemble,
                           langevin_memory_estimate, sampler_memory_estimate,
                           verlet_blocks_memory_estimate,
                           verlet_memory_estimate)
from kvnmd.propagator import LangevinStepper, _RowDilation
from kvnmd.tst import TstConfig, crossing_memory_estimate, crossing_reference
from kvnmd.vdos import branch_memory_estimate
from reference_steps import traced_peak

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.ini"))
PINNED = json.loads((ROOT / "tests" / "output_hashes.json").read_text())
sys.path.insert(0, str(ROOT / "scripts"))
from output_hashes import environment  # noqa: E402  (scripts/: no package)
MEMORY_KEYS = {"peak_rss_bytes", "estimate_bytes", "available_bytes",
               "phase_peak_rss_bytes"}

MORSE_BLOCK = """
[pes]
kind = morse
mu_au = 918.0

[pes.morse]
de_hartree = 0.1744
alpha_per_bohr = 1.02764
re_bohr = 1.40201
"""

RELAX_SMALL = """
[run]
mode = relax
seed = 3

[grid]
n_r = 6
n_p = 6
r_min_bohr = 0.6
r_max_bohr = 2.6
p_min_au = -22.0
p_max_au = 22.0
""" + MORSE_BLOCK + """
[langevin]
gamma_au = 0.02
dt_au = 0.5
t_phys_kelvin = 947.0

[init]
r0_angstrom = 0.85
sigma_r_bohr = 0.16
sigma_p_au = 2.9

[relax]
n_steps = 40
record_every = 10
snapshot_steps = 0, 40
"""

VDOS_SMALL = """
[run]
mode = vdos
seed = 9

[grid]
n_r = 6
n_p = 6
r_min_bohr = 0.4
r_max_bohr = 2.4
p_min_au = -12.0
p_max_au = 12.0
""" + MORSE_BLOCK + """
[vdos]
t_kelvin = 300.0
m = 5
tau_au = 20.0
inner_steps = 2
branch = both
aimd_n_traj = 32
"""

TST_SMALL = """
[run]
mode = tst
seed = 5

[grid]
n_r = 7
n_p = 7
r_min_bohr = 0.5
r_max_bohr = 6.5
p_min_au = -33.0
p_max_au = 33.0
""" + MORSE_BLOCK + """
[tst]
r_dividing_bohr = 3.0
temperatures_kelvin = 2500, 5000, 10000
crossing = true
crossing_n_traj = 16
crossing_t_sim_au = 500
crossing_dt_au = 2.0
"""

BIAS_SMALL = """
[run]
mode = bias-check

[bias-check]
s_values = 0.01
n_p = 8
"""

ORACLE_SMALL = """
[run]
mode = oracle
seed = 11
""" + MORSE_BLOCK + """
[oracle]
kind = langevin
gamma_au = 0.02
t_kelvin = 947.0
dt_au = 0.5
n_traj = 64
n_steps = 100
record_every = 25
r0_bohr = 1.40201
dump_trajectories = true
"""


def run_cli(tmp_path, text, name="run.ini", extra=()):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    return main(["--config", str(cfg), "--out", str(out), *extra]), out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_outputs_pinned(run, outputs):
    """The manifest hashes of `run` equal tests/output_hashes.json. An
    intended change of bytes re-pins them with scripts/output_hashes.py
    --pin; another numpy or BLAS build may round differently, so a
    mismatch names both environments."""
    pinned = {path.split("/", 1)[1]: digest
              for path, digest in PINNED["outputs"].items()
              if path.split("/", 1)[0] == run}
    if outputs != pinned:
        changed = sorted(name for name in outputs.keys() | pinned.keys()
                         if outputs.get(name) != pinned.get(name))
        pytest.fail(f"{run}: {changed} differ from tests/output_hashes.json"
                    f"\n  pinned under  {PINNED['environment']}"
                    f"\n  running under {environment()}")


class TestConfigValidation:
    def test_missing_table_path_reports_key(self):
        text = """
[run]
mode = vdos

[grid]
n_r = 6
n_p = 6
r_min_bohr = 0.4
r_max_bohr = 2.4
p_min_au = -12.0
p_max_au = 12.0

[pes]
kind = pauli_table
mu_au = 918.0

[vdos]
t_kelvin = 300.0
m = 5
tau_au = 20.0
"""
        cfg, errors = parse_config(text)
        assert cfg is None
        assert any("pes.path" in e and "pauli_table" in e for e in errors)

    def test_errors_are_aggregated(self):
        text = """
[run]
mode = relax
typo_key = 1

[grid]
n_r = 6
n_p = -2
r_min_bohr = 2.0
r_max_bohr = 1.0
p_min_au = -12.0
p_max_au = 12.0

[mystery]
x = 1
"""
        cfg, errors = parse_config(text)
        assert cfg is None
        joined = "\n".join(errors)
        assert "run.typo_key" in joined
        assert "grid.n_p" in joined
        assert "grid.r_min_bohr" in joined
        assert "mystery" in joined
        assert "pes: section required" in joined
        assert len(errors) >= 5

    def test_unknown_keys_rejected_per_section(self):
        cfg, errors = parse_config(RELAX_SMALL + "wrong = 1\n")
        assert cfg is None
        assert any("relax.wrong" in e for e in errors)

    def test_section_not_used_by_mode_rejected(self):
        cfg, errors = parse_config(BIAS_SMALL + """
[tst]
r_dividing_bohr = 1.0
temperatures_kelvin = 300, 400, 500
""")
        assert cfg is None
        assert any("tst: section not used" in e for e in errors)

    def test_mode_override_changes_required_sections(self):
        # the same file parses under bias-check but fails as relax
        good, errors = parse_config(BIAS_SMALL)
        assert good is not None and not errors
        cfg, errors = parse_config(BIAS_SMALL, mode_override="relax")
        assert cfg is None
        assert any("grid: section required" in e for e in errors)

    def test_resolved_defaults(self):
        cfg, errors = parse_config(VDOS_SMALL)
        assert not errors
        assert cfg.vdos.omega_shift_au == 0.0
        assert cfg.vdos.aimd_window == "hann"
        assert cfg.seed == 9
        assert cfg.tst is None

    def test_dividing_surface_checked_against_grid(self):
        bad = TST_SMALL.replace("r_dividing_bohr = 3.0",
                                "r_dividing_bohr = 9.0")
        cfg, errors = parse_config(bad)
        assert cfg is None
        assert any("tst.r_dividing_bohr" in e for e in errors)


class TestCliRelax:
    def test_trace_and_snapshots(self, tmp_path):
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 0
        rows = read_csv(out / "relax_trace.csv")
        assert list(rows[0]) == ["time_fs", "mean_R_angstrom", "T_kin_K",
                                 "D_KL_nats", "cum_success_prob"]
        assert len(rows) == 5  # records at 0, 10, 20, 30, 40
        assert float(rows[0]["time_fs"]) == 0.0
        assert float(rows[-1]["cum_success_prob"]) <= 1.0

        snap = read_csv(out / "snapshot_step000040.csv")
        assert list(snap[0]) == ["R_bohr", "P_au", "density"]
        assert len(snap) == 64 * 64
        total = sum(float(r["density"]) for r in snap)
        cell = (2.0 / 64) * (44.0 / 64)
        assert total * cell == pytest.approx(1.0, rel=1e-6)

    def test_manifest_hashes_every_output(self, tmp_path):
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "relax"
        assert manifest["config"]["langevin"]["t_phys_kelvin"] == 947.0
        assert manifest["derived"]["s"] == pytest.approx(0.01)
        assert manifest["derived"]["t_int_kelvin"] == pytest.approx(
            947.0 / (1.0 + 0.5 * math.tanh(0.01)), rel=1e-12)
        assert manifest["derived"]["sigma_h_au"] > 0.0
        for name, digest in manifest["outputs"].items():
            assert (out / name).exists()
            assert digest.startswith("sha256:")
        assert set(manifest["outputs"]) == {
            "relax_trace.csv", "snapshot_step000000.csv",
            "snapshot_step000040.csv"}
        assert "wall_time_seconds" in manifest
        assert manifest["versions"]["numpy"] == np.__version__

    def test_manifest_hash_of_a_multi_chunk_output(self, tmp_path):
        # the snapshot spans more than one of the hash's 1 MiB chunks;
        # dP >= 2 sigma_H on this P range
        text = RELAX_SMALL.replace("n_r = 6\nn_p = 6", "n_r = 8\nn_p = 7") \
            .replace("p_min_au = -22.0\np_max_au = 22.0",
                     "p_min_au = -44.0\np_max_au = 44.0") \
            .replace("n_steps = 40", "n_steps = 2") \
            .replace("record_every = 10", "record_every = 1") \
            .replace("snapshot_steps = 0, 40", "snapshot_steps = 2")
        code, out = run_cli(tmp_path, text)
        assert code == 0
        snapshot = out / "snapshot_step000002.csv"
        assert snapshot.stat().st_size > 1 << 20
        manifest = json.loads((out / "manifest.json").read_text())
        for name in ("relax_trace.csv", snapshot.name):
            data = (out / name).read_bytes()
            assert manifest["outputs"][name] == \
                "sha256:" + hashlib.sha256(data).hexdigest()

    def test_manifest_records_timings_and_step_extremes(self, tmp_path):
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == set(PHASES)
        assert all(t >= 0.0 for t in timings.values())
        assert timings["propagate"] > 0.0 and timings["readout"] > 0.0
        assert sum(timings.values()) <= manifest["wall_time_seconds"]
        assert 0.0 <= manifest["derived"]["friction_leak_max"] < 1e-3
        assert 0.0 < manifest["derived"]["filter_yield_min"] < 1.0
        assert manifest["derived"]["collapsed"] is False
        assert manifest["derived"]["collapsed_at_step"] is None
        assert manifest["warnings"] == []

    def test_warnings_are_counted_and_still_shown(self, tmp_path):
        # strong friction: the stepper warns once at build about the
        # filter band, and a packet launched at the P edge leaks there
        # for several steps
        text = RELAX_SMALL.replace("gamma_au = 0.02", "gamma_au = 0.2") \
            .replace("sigma_p_au = 2.9", "sigma_p_au = 2.9\np0_au = 21.0")
        with pytest.warns(UserWarning) as shown:
            code, out = run_cli(tmp_path, text)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        band, leak = manifest["warnings"]
        assert (band["category"], band["count"]) == ("FilterBandWarning", 1)
        assert band["first_message"].startswith("filter argument")
        assert leak["category"] == "BoundaryLeakWarning"
        assert leak["count"] > 1
        leaks = [str(w.message) for w in shown
                 if issubclass(w.category, BoundaryLeakWarning)]
        assert len(leaks) == leak["count"]
        assert leak["first_message"] == leaks[0]
        assert sum(issubclass(w.category, FilterBandWarning)
                   for w in shown) == 1

    def test_error_filter_stops_the_run_at_the_first_leak(self, tmp_path):
        # the run's warning tally keeps the caller's filters in force
        text = RELAX_SMALL.replace("gamma_au = 0.02", "gamma_au = 0.2") \
            .replace("sigma_p_au = 2.9", "sigma_p_au = 2.9\np0_au = 21.0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FilterBandWarning)
            warnings.simplefilter("error", BoundaryLeakWarning)
            with pytest.raises(BoundaryLeakWarning):
                run_cli(tmp_path, text)
        out = tmp_path / "out"
        assert not list(out.glob("*.csv"))
        assert not (out / "manifest.json").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, RELAX_SMALL, name="a.ini")
        (tmp_path / "out2").mkdir()
        cfg = tmp_path / "a.ini"
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out2")])
        assert code == 0
        for name in ("relax_trace.csv", "snapshot_step000040.csv"):
            assert (out1 / name).read_bytes() == (
                tmp_path / "out2" / name).read_bytes()

    def test_manifest_records_memory(self, tmp_path):
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS
        phases = memory.pop("phase_peak_rss_bytes")
        for value in memory.values():
            assert isinstance(value, int) and value > 0
        # the readout seconds of relax are booked inside propagate; the
        # peak so far only grows from lap to lap, up to the run's
        assert set(phases) == {"tables", "propagate", "write"}
        assert all(isinstance(v, int) and v > 0 for v in phases.values())
        assert phases["tables"] <= phases["propagate"] <= phases["write"] \
            <= memory["peak_rss_bytes"]
        # the stepper's working set on 2^6 x 2^6, one half spectrum
        # stepped in place, plus the snapshot at step 0; the one at the
        # last step, 40, is the stepper's plane
        grid = build_grid(6, 6, (0.6, 2.6), (-22.0, 22.0))
        assert memory["estimate_bytes"] == LangevinStepper.memory_estimate(
            grid, 0.01) + 8 * 64 * 64

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="the run's own peak is read from VmHWM")
    def test_manifest_peaks_are_the_runs_own(self, tmp_path):
        # subprocess starts the run by vfork from a launcher that has
        # touched 200 MiB; the run's ru_maxrss would start at that peak
        cfg = tmp_path / "run.ini"
        cfg.write_text(RELAX_SMALL)
        launcher = (
            "import resource, subprocess, sys\n"
            "import numpy as np\n"
            "held = np.ones(200 << 17)\n"
            "done = subprocess.run([sys.executable, '-m', 'kvnmd.cli', "
            "*sys.argv[1:]])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(done.returncode)\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", launcher, "--config", str(cfg), "--out",
             str(tmp_path / "out")], env=env, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        touched = 200 << 20
        assert 1024 * int(done.stdout.split()[-1]) >= touched  # in KiB
        memory = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())["memory"]
        assert memory["peak_rss_bytes"] < touched
        assert set(memory["phase_peak_rss_bytes"]) == {"tables", "propagate",
                                                       "write"}
        assert all(peak < touched
                   for peak in memory["phase_peak_rss_bytes"].values())

    def test_manifest_peak_bounds_a_lagging_final_reading(self, tmp_path,
                                                          monkeypatch):
        # the stored high-water mark read at the end can lag the live
        # count that a phase read at its peak; the run's peak is then the
        # largest phase reading
        readings = iter([3 << 20, 7 << 20, 9 << 20, 8 << 20])
        monkeypatch.setattr(kvnmd.cli, "_peak_rss_bytes",
                            lambda: next(readings))
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert memory["phase_peak_rss_bytes"] == {
            "tables": 3 << 20, "propagate": 7 << 20, "write": 9 << 20}
        assert memory["peak_rss_bytes"] == 9 << 20

    @pytest.mark.skipif(shutil.which("sh") is None,
                        reason="the run is started from a POSIX shell")
    def test_shell_launched_peak_bounds_every_phase(self, tmp_path):
        out = tmp_path / "out"
        command = " ".join(shlex.quote(str(arg)) for arg in (
            sys.executable, "-m", "kvnmd.cli", "--config",
            ROOT / "configs" / "relax_h2.ini", "--out", out))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(["sh", "-c", command], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        phases = memory["phase_peak_rss_bytes"]
        assert set(phases) == {"tables", "propagate", "write"}
        assert max(phases.values()) <= memory["peak_rss_bytes"]

    def test_forced_collapse_is_exit_3_with_its_step(self, tmp_path,
                                                     monkeypatch, capsys):
        # the eighth step collapses, before the first record after step 0
        advance, calls = LangevinStepper.advance, []

        def collapsing(stepper, a, out=None):
            calls.append(None)
            if len(calls) == 8:
                raise FilterCollapseError("forced collapse")
            return advance(stepper, a, out)

        monkeypatch.setattr(LangevinStepper, "advance", collapsing)
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 3
        assert "collapsed at step 8" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["collapsed"] is True
        assert manifest["derived"]["collapsed_at_step"] == 8
        assert len(read_csv(out / "relax_trace.csv")) == 1
        assert set(manifest["outputs"]) == {"relax_trace.csv",
                                            "snapshot_step000000.csv"}


class TestCliVdos:
    def test_spectrum_and_metadata(self, tmp_path):
        code, out = run_cli(tmp_path, VDOS_SMALL)
        assert code == 0
        rows = read_csv(out / "vdos_spectrum.csv")
        assert list(rows[0]) == ["omega_cm1", "prob", "branch"]
        branches = {r["branch"] for r in rows}
        assert branches == {"plus", "minus", "aimd"}
        assert len(rows) == 3 * 32
        for branch in branches:
            probs = [float(r["prob"]) for r in rows if r["branch"] == branch]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)

        meta = json.loads((out / "vdos_meta.json").read_text())
        assert meta["m"] == 5
        assert meta["postselection_yield"]["plus"] == pytest.approx(0.5)
        assert meta["peaks"]["plus"]["bin"] == meta["peaks"]["aimd"]["bin"]
        assert meta["omega_ref_au"] > 0.0

    def test_single_branch_selection(self, tmp_path):
        text = VDOS_SMALL.replace("branch = both", "branch = plus").replace(
            "aimd_n_traj = 32", "aimd_n_traj = 32\naimd_reference = false")
        code, out = run_cli(tmp_path, text)
        assert code == 0
        rows = read_csv(out / "vdos_spectrum.csv")
        assert {r["branch"] for r in rows} == {"plus"}

    def test_manifest_records_the_estimate(self, tmp_path):
        text = VDOS_SMALL.replace("aimd_n_traj = 32",
                                  "aimd_n_traj = 32\naimd_reference = false")
        code, out = run_cli(tmp_path, text)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        assert memory["estimate_bytes"] == branch_memory_estimate(grid)

    def test_manifest_records_the_reference_estimate(self, tmp_path):
        # the reference's sampler and R block outgrow the chain at 256
        # trajectories; the equilibrium table is released before they run
        text = VDOS_SMALL.replace("aimd_n_traj = 32", "aimd_n_traj = 256")
        code, out = run_cli(tmp_path, text)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        reference = (sampler_memory_estimate(256)
                     + verlet_blocks_memory_estimate(8 * 32, 256))
        grid = build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))
        assert reference > branch_memory_estimate(grid)
        assert memory["estimate_bytes"] == reference


class TestCliTst:
    def test_rate_set_by_the_delta_tail_is_exit_2(self, tmp_path, capsys):
        text = TST_SMALL.replace("temperatures_kelvin = 2500, 5000, 10000",
                                 "temperatures_kelvin = 1, 2, 3")
        code, out = run_cli(tmp_path, text)
        assert code == 2
        assert "tail of the smoothed delta" in capsys.readouterr().err
        assert not (out / "tst_rates.csv").exists()

    def test_rates_and_crossing_files(self, tmp_path):
        code, out = run_cli(tmp_path, TST_SMALL)
        assert code == 0
        rows = read_csv(out / "tst_rates.csv")
        assert list(rows[0]) == ["T_kelvin", "inv_T", "flux_au", "population",
                                 "k_au", "k_per_second", "log_k"]
        assert [float(r["T_kelvin"]) for r in rows] == [2500.0, 5000.0,
                                                        10000.0]
        for r in rows:
            k = float(r["k_au"])
            assert k > 0.0
            assert float(r["log_k"]) == pytest.approx(math.log(k))
            assert float(r["inv_T"]) == pytest.approx(
                1.0 / float(r["T_kelvin"]))
            assert float(r["k_per_second"]) == pytest.approx(
                k / 2.418884254e-17, rel=1e-9)

        cross = read_csv(out / "crossing.csv")
        assert list(cross[0]) == ["N_cross", "k_cross", "k_min"]
        assert float(cross[0]["k_min"]) == pytest.approx(
            1.0 / (16 * 500.0), rel=1e-12)

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["activation_energy_hartree"] > 0.0

    def test_refused_crossing_leaves_no_output(self, tmp_path, monkeypatch,
                                               capsys):
        # the rates are computed before the crossing reference's preflight
        # refuses it; neither is written, but the manifest keeps the figures
        # that refused it
        need = crossing_memory_estimate(16, 500.0)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        code, out = run_cli(tmp_path, TST_SMALL)
        assert code == 2
        assert "crossing_reference" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"]["type"] == "MemoryBudgetError"
        assert manifest["outputs"] == {}
        assert manifest["memory"]["estimate_bytes"] == need
        assert "available_bytes" in manifest["memory"]

    def test_failed_pes_build_leaves_a_manifest(self, tmp_path, capsys):
        # the table is read when main builds the PES, past load_config
        absent = tmp_path / "absent.csv"
        text = TST_SMALL.replace("kind = morse", f"kind = raw_table\n"
                                 f"path = {absent}")
        text = text[:text.index("[pes.morse]")] + text[text.index("[tst]"):]
        code, out = run_cli(tmp_path, text)
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read table {absent}:")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["error"]["type"] == "TableFormatError"
        assert manifest["outputs"] == {}

    def test_manifest_records_the_crossing_estimate(self, tmp_path):
        code, out = run_cli(tmp_path, TST_SMALL)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS
        assert memory["estimate_bytes"] == crossing_memory_estimate(16, 500.0)
        # the rate alone holds O(N_R + N_P) and records no estimate
        code, out = run_cli(tmp_path, TST_SMALL.replace("crossing = true",
                                                        "crossing = false"))
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS - {"estimate_bytes"}


class TestCliBiasCheck:
    def test_pass_line_and_csv(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, BIAS_SMALL)
        assert code == 0
        printed = capsys.readouterr().out
        assert "s=0.01" in printed
        assert "PASS" in printed
        rows = read_csv(out / "bias_check.csv")
        assert rows[0]["status"] == "PASS"
        assert float(rows[0]["rel_err_predicted"]) < 0.10
        assert float(rows[0]["rel_err_oracle"]) < 0.01

    def test_manifest_records_the_estimate(self, tmp_path):
        code, out = run_cli(tmp_path,
                            BIAS_SMALL.replace("0.01", "0.01, 0.05"))
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS
        # neither the operator's size nor the product oracle's depends on s
        grid = build_grid(3, 8, (0.0, 1.0), (-1.0, 1.0))
        assert memory["estimate_bytes"] == max(
            _RowDilation.memory_estimate(grid), bias_product_memory_estimate())

    def test_preflight_is_exit_2(self, tmp_path, monkeypatch, capsys):
        need = _RowDilation.memory_estimate(
            build_grid(3, 8, (0.0, 1.0), (-1.0, 1.0)))
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        code, out = run_cli(tmp_path, BIAS_SMALL)
        assert code == 2
        assert "_RowDilation" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        code, out = run_cli(tmp_path, BIAS_SMALL)
        assert code == 0 and (out / "bias_check.csv").exists()


class TestCliOracle:
    def test_summary_and_dump(self, tmp_path):
        code, out = run_cli(tmp_path, ORACLE_SMALL)
        assert code == 0
        rows = read_csv(out / "oracle_summary.csv")
        assert list(rows[0]) == ["t_au", "mean_R_bohr", "T_kin_K"]
        assert len(rows) == 5
        dump = read_csv(out / "trajectories.csv")
        assert list(dump[0]) == ["traj_id", "t_au", "R_bohr", "P_au"]
        assert len(dump) == 5 * 64
        assert {r["traj_id"] for r in dump} == {str(i) for i in range(64)}

    def test_dump_is_the_rows_cell_by_cell(self, tmp_path, monkeypatch):
        ensembles = []

        def kept(*args):
            ensembles.append(langevin_ensemble(*args))
            return ensembles[-1]

        monkeypatch.setattr(kvnmd.cli, "langevin_ensemble", kept)
        code, out = run_cli(tmp_path, ORACLE_SMALL)
        assert code == 0
        ens, = ensembles
        n_rec, n_traj = ens.R.shape
        rows = zip(np.tile(np.arange(n_traj), n_rec),
                   np.repeat(ens.times, n_traj), ens.R.ravel(), ens.P.ravel())
        expected = "traj_id,t_au,R_bohr,P_au\n" + "".join(
            ",".join(map(_cell, row)) + "\n" for row in rows)
        assert (out / "trajectories.csv").read_text() == expected

    @pytest.mark.parametrize("kind", ["langevin", "verlet"])
    def test_manifest_records_what_it_preflights(self, tmp_path, kind):
        text = ORACLE_SMALL
        expected = langevin_memory_estimate(100, 64, 25)
        if kind == "verlet":
            text = text.replace("kind = langevin", "kind = verlet").replace(
                "gamma_au = 0.02\n", "").replace(
                "r0_bohr = 1.40201", "r_min_bohr = 0.8\nr_max_bohr = 3.0")
            expected = (sampler_memory_estimate(64)
                        + verlet_memory_estimate(100, 64, 25))
        code, out = run_cli(tmp_path, text)
        assert code == 0
        memory = json.loads((out / "manifest.json").read_text())["memory"]
        assert set(memory) == MEMORY_KEYS
        assert memory["estimate_bytes"] == expected


class TestExitCodes:
    def test_config_error_is_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nmode = warp\n")
        assert main(["--config", str(cfg)]) == 2

    def test_missing_config_file_is_exit_2(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.ini")]) == 2

    def test_non_finite_temperature_is_exit_2(self, tmp_path, capsys):
        # a nan inside the list used to reach the Arrhenius fit and end
        # in an uncaught LinAlgError with no manifest
        text = TST_SMALL.replace("temperatures_kelvin = 2500, 5000, 10000",
                                 "temperatures_kelvin = 2500, nan, 10000")
        code, out = run_cli(tmp_path, text)
        assert code == 2
        assert ("tst.temperatures_kelvin: not a finite number: 'nan'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_runtime_config_class_error_is_exit_2(self, tmp_path):
        # passes static validation, but the packet does not fit the grid
        text = RELAX_SMALL.replace("sigma_r_bohr = 0.16",
                                   "sigma_r_bohr = 0.01")
        code, _ = run_cli(tmp_path, text)
        assert code == 2

    def test_morse_grid_below_zero_is_exit_2(self, tmp_path, capsys):
        # the Morse potential is declared on (0, inf); tabulating it at
        # negative bond lengths used to pass and run
        text = (RELAX_SMALL.replace("n_r = 6", "n_r = 5")
                .replace("n_p = 6", "n_p = 5")
                .replace("r_min_bohr = 0.6", "r_min_bohr = -1.0")
                .replace("r_max_bohr = 2.6", "r_max_bohr = 3.0")
                .replace("sigma_r_bohr = 0.16", "sigma_r_bohr = 0.3")
                .replace("sigma_p_au = 2.9", "sigma_p_au = 3.0"))
        code, out = run_cli(tmp_path, text)
        assert code == 2
        assert "morse domain" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"]["type"] == "DomainError"
        assert manifest["outputs"] == {}

    def test_bias_check_failure_is_exit_3(self, tmp_path, capsys):
        # s = 0.2 is far outside the first-order regime, so the measured
        # bias disagrees with the half-tanh law by ~22% and the run fails
        text = BIAS_SMALL.replace("s_values = 0.01", "s_values = 0.2")
        code, out = run_cli(tmp_path, text)
        assert code == 3
        assert "FAIL" in capsys.readouterr().out
        rows = read_csv(out / "bias_check.csv")
        assert rows[0]["status"] == "FAIL"

    def test_nan_amplitude_in_relax_is_exit_3(self, tmp_path, monkeypatch,
                                               capsys):
        def poisoned(*args, **kwargs):
            state = encode(*args, **kwargs)
            state.amplitudes[3, 5] = np.nan
            return state

        encode = kvnmd.cli.encode_gaussian
        monkeypatch.setattr(kvnmd.cli, "encode_gaussian", poisoned)
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        for path in out.glob("*.csv"):
            assert "nan" not in path.read_text().lower()

    def test_numerical_error_writes_a_partial_manifest(self, tmp_path,
                                                       monkeypatch):
        def poisoned(*args, **kwargs):
            state = encode(*args, **kwargs)
            state.amplitudes[3, 5] = np.nan
            return state

        # strong friction warns about the filter band before the first
        # step meets the NaN
        text = RELAX_SMALL.replace("gamma_au = 0.02", "gamma_au = 0.2")
        encode = kvnmd.cli.encode_gaussian
        monkeypatch.setattr(kvnmd.cli, "encode_gaussian", poisoned)
        with pytest.warns(FilterBandWarning):
            code, out = run_cli(tmp_path, text)
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 3
        assert manifest["error"]["type"] == "NonFiniteAmplitudeError"
        assert "non-finite" in manifest["error"]["message"]
        assert manifest["outputs"] == {}
        assert not list(out.glob("*.csv"))
        timings = manifest["timings"]
        assert timings["tables"] > 0.0
        assert timings["write"] == 0.0
        assert sum(timings.values()) <= manifest["wall_time_seconds"]
        assert manifest["config"]["mode"] == "relax"
        (band,) = manifest["warnings"]
        assert (band["category"], band["count"]) == ("FilterBandWarning", 1)

    @pytest.mark.parametrize("where", ["chain", "trajectory"])
    def test_nan_in_a_vdos_readout_is_exit_3(self, tmp_path, monkeypatch,
                                             capsys, where):
        # a NaN lag of the quantum chain, or a NaN initial position that
        # runs through the classical reference, stops the readout
        if where == "chain":
            def poisoned(self, *args, **kwargs):
                corr = chain(self, *args, **kwargs)
                corr[3] = np.nan
                return corr

            chain = kvnmd.propagator.NvePropagator.autocorrelation
            monkeypatch.setattr(kvnmd.propagator.NvePropagator,
                                "autocorrelation", poisoned)
        else:
            def poisoned(*args, **kwargs):
                r0, p0 = sample(*args, **kwargs)
                r0[5] = np.nan
                return r0, p0

            sample = kvnmd.cli.canonical_sampler
            monkeypatch.setattr(kvnmd.cli, "canonical_sampler", poisoned)
        code, out = run_cli(tmp_path, VDOS_SMALL)
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 3
        assert manifest["error"]["type"] == "NonFiniteAmplitudeError"
        assert manifest["outputs"] == {}
        assert not list(out.glob("*.csv"))
        assert not (out / "vdos_meta.json").exists()
        assert manifest["timings"]["tables"] > 0.0
        assert manifest["timings"]["write"] == 0.0

    def test_failure_before_the_first_phase_writes_its_peak(
            self, tmp_path, monkeypatch, capsys):
        # the reference frequency is read before any phase laps, so the
        # run's peak is the final reading alone
        def flat(*args, **kwargs):
            raise SingularityError("no positive curvature at the minimum")

        monkeypatch.setattr(kvnmd.cli, "reference_frequency", flat)
        code, out = run_cli(tmp_path, VDOS_SMALL)
        assert code == 3
        assert "no positive curvature" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 3
        assert manifest["error"]["type"] == "SingularityError"
        memory = manifest["memory"]
        assert memory["phase_peak_rss_bytes"] == {}
        assert memory["peak_rss_bytes"] > 0

    def test_memory_budget_error_is_exit_2(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setattr(kvnmd.propagator, "_available_memory", lambda: 1)
        code, out = run_cli(tmp_path, RELAX_SMALL)
        assert code == 2
        assert "available memory" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_aimd_reference_preflight_is_exit_2(self, tmp_path, monkeypatch,
                                                capsys):
        # one byte short of the reference's R block of 2^8 + 1 records of
        # 256 trajectories and their step vectors (0.59 MB), which lets
        # the grid chains (0.36 MB) and the sampler run
        text = VDOS_SMALL.replace("aimd_n_traj = 32", "aimd_n_traj = 256")
        need = verlet_blocks_memory_estimate(8 * 32, 256)
        assert branch_memory_estimate(
            build_grid(6, 6, (0.4, 2.4), (-12.0, 12.0))) < need
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        code, out = run_cli(tmp_path, text)
        assert code == 2
        assert "verlet_blocks" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        code, out = run_cli(tmp_path, text)
        assert code == 0 and (out / "vdos_spectrum.csv").exists()

    def test_vdos_is_refused_before_its_tables(self, tmp_path, monkeypatch,
                                               capsys):
        # the equilibrium table of 2^9 x 2^9 nodes alone takes 2 MiB
        text = VDOS_SMALL.replace("n_r = 6", "n_r = 9").replace("n_p = 6",
                                                               "n_p = 9")
        monkeypatch.setattr(kvnmd.propagator, "_available_memory", lambda: 1)
        (code, out), peak = traced_peak(run_cli, tmp_path, text)
        assert code == 2
        assert "branch_spectra" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        assert peak < 2 ** 20

    def test_rate_runs_on_the_largest_grid(self, tmp_path, monkeypatch):
        # 2^14 x 2^14 nodes, where (R, P) tables of the canonical state
        # would take 2 GiB each; the rate reads 2^14-node marginals
        text = TST_SMALL.replace("n_r = 7", "n_r = 14").replace(
            "n_p = 7", "n_p = 14").replace("crossing = true",
                                           "crossing = false")
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: 64 * 2 ** 20)
        code, out = run_cli(tmp_path, text)
        assert code == 0
        assert len(read_csv(out / "tst_rates.csv")) == 3

    def test_oracle_preflight_is_exit_2(self, tmp_path, monkeypatch,
                                        capsys):
        # one byte short of the records, noise block and Generators of
        # 64 trajectories over 100 steps
        need = langevin_memory_estimate(100, 64, 25)
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need - 1)
        code, out = run_cli(tmp_path, ORACLE_SMALL)
        assert code == 2
        assert "langevin_ensemble" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
        monkeypatch.setattr(kvnmd.propagator, "_available_memory",
                            lambda: need)
        code, out = run_cli(tmp_path, ORACLE_SMALL)
        assert code == 0 and (out / "oracle_summary.csv").exists()

    def test_seed_override_changes_sampled_outputs(self, tmp_path):
        cfg = tmp_path / "o.ini"
        cfg.write_text(ORACLE_SMALL)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--config", str(cfg), "--out", str(out2),
                     "--seed", "99"]) == 0
        assert (out1 / "oracle_summary.csv").read_bytes() != (
            out2 / "oracle_summary.csv").read_bytes()


class TestShippedManifests:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_every_manifest_carries_the_estimate(self, tmp_path, monkeypatch,
                                                 path):
        expected_code = 0
        if path.stem == "vdos_h2":
            # its 2^10 chain takes about 14 s (acceptance criterion 5 runs
            # it); a run stopped at the chain still writes the memory
            # booked before it
            def stopped(*args, **kwargs):
                raise NonFiniteAmplitudeError("stopped before the chain")

            monkeypatch.setattr(kvnmd.cli, "branch_spectra", stopped)
            expected_code = 3
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == \
            expected_code
        manifest = json.loads((out / "manifest.json").read_text())
        if expected_code == 0:
            assert_outputs_pinned(path.stem, manifest["outputs"])
        memory = manifest["memory"]
        assert set(memory) == MEMORY_KEYS
        assert memory["estimate_bytes"] > 0
        assert memory["available_bytes"] > 0
        phases = memory["phase_peak_rss_bytes"]
        assert phases and set(phases) <= set(PHASES)
        assert max(phases.values()) <= memory["peak_rss_bytes"]

    def test_vdos_256_outputs_are_pinned(self, tmp_path):
        # the vdos-256 workload at seed 1 stands in for vdos_h2, whose
        # 2^10 chain is stopped above
        out = tmp_path / "out"
        assert main(["--config", str(ROOT / "tests" / "vdos_256.ini"),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert_outputs_pinned("vdos_256", manifest["outputs"])

    def test_tst_crossing_peak_stays_within_the_estimate(self):
        # the shipped crossing reference: 512 trajectories over 10 000
        # steps on the bundled H2 surface; 16 KiB for numpy's small objects
        cfg, errors = load_config(ROOT / "configs" / "tst_h2.ini")
        assert not errors
        t, g = cfg.tst, cfg.grid
        tcfg = TstConfig(r_dividing=t.r_dividing_bohr, sigma=t.sigma_bohr,
                         temperatures=t.temperatures_kelvin)
        pes = cfg.pes.build()
        # a first short run imports numpy.random, outside the estimate
        crossing_reference(pes, cfg.pes.mu_au, 2500.0, 4, 10.0, 1, tcfg,
                           (g.r_min_bohr, g.r_max_bohr))
        cross, peak = traced_peak(
            crossing_reference, pes, cfg.pes.mu_au,
            min(t.temperatures_kelvin), t.crossing_n_traj,
            t.crossing_t_sim_au, cfg.seed, tcfg,
            (g.r_min_bohr, g.r_max_bohr), t.crossing_dt_au)
        assert cross.n_cross == 0
        assert peak <= crossing_memory_estimate(
            t.crossing_n_traj, t.crossing_t_sim_au, t.crossing_dt_au) + 2 ** 14

    def test_oracle_peak_stays_within_the_estimate(self):
        cfg, errors = load_config(ROOT / "configs" / "oracle_morse.ini")
        assert not errors
        o = cfg.oracle
        args = (cfg.pes.build(), cfg.pes.mu_au, o.gamma_au,
                kelvin_to_hartree(o.t_kelvin), o.dt_au, o.n_steps, o.n_traj,
                cfg.seed, o.r0_bohr, o.p0_au, o.record_every)
        langevin_ensemble(*args[:5], 3, 2, *args[7:])  # imports numpy.random
        _, peak = traced_peak(langevin_ensemble, *args)
        assert peak <= langevin_memory_estimate(o.n_steps, o.n_traj,
                                                o.record_every) + 2 ** 16


@pytest.mark.parametrize("text", [RELAX_SMALL, VDOS_SMALL, TST_SMALL,
                                  BIAS_SMALL, ORACLE_SMALL],
                         ids=["relax", "vdos", "tst", "bias-check", "oracle"])
def test_traced_run_stays_within_its_estimate(tmp_path, text):
    # a first run imports what the run path needs; the allowance is the
    # 1 MiB read chunk of the manifest's hashing plus 64 KiB
    run_cli(tmp_path, text)
    (code, out), peak = traced_peak(run_cli, tmp_path, text)
    assert code == 0
    memory = json.loads((out / "manifest.json").read_text())["memory"]
    assert peak <= memory["estimate_bytes"] + 2 ** 20 + 2 ** 16


def test_import_leaves_openssl_unloaded():
    # hashlib maps OpenSSL, 3.6 MiB of resident memory that a run does
    # not use; the manifest imports it only to hash the outputs
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, kvnmd.cli; print(sorted({'hashlib', '_hashlib'}"
         " & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_import_leaves_orjson_unloaded():
    # only a run that writes a snapshot or a trajectory dump formats
    # through orjson; it is imported there
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, kvnmd.cli; print('orjson' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _repr_list(x):
    return [repr(v) for v in np.asarray(x).tolist()]


class TestReprs:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
    @example(np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                       -2.2250738585072014e-308, 1.23e-5, 1e-7, -1e16,
                       9e15, 1.1e-4, 9e-10, 1e-9, 0.1, -1.5]))
    def test_equals_repr(self, x):
        assert _reprs(x) == _repr_list(x)

    def test_powers_of_ten_and_random_bit_patterns(self):
        # every power of ten with its neighbours one ulp away, both signs,
        # and random doubles over the whole exponent range
        tens = 10.0 ** np.arange(-320, 300)
        tens = np.concatenate([tens, np.nextafter(tens, 0.0),
                               np.nextafter(tens, np.inf)])
        bits = np.random.default_rng(4).integers(
            0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64)
        for x in (tens, -tens, bits):
            assert _reprs(x) == _repr_list(x)

    def test_non_contiguous_view(self):
        table = np.random.default_rng(5).normal(size=(7, 5)) * 1e-5
        column = table[:, 2]
        assert not column.flags.c_contiguous
        assert _reprs(column) == _repr_list(column)
        assert _reprs(np.empty(0)) == []

    def test_density_lines_equal_the_repr_form(self):
        grid = build_grid(4, 3, (0.5, 2.5), (-10.0, 10.0))
        rng = np.random.default_rng(6)
        rho = rng.exponential(size=grid.shape) * 10.0 ** rng.integers(
            -12, 17, size=grid.shape)
        rho[0, :3] = [0.0, np.nan, np.inf]
        p_cells = [_cell(p) for p in grid.P]
        expected = ["".join(f"{_cell(r)},{p},{v!r}\n"
                            for p, v in zip(p_cells, row.tolist()))
                    for r, row in zip(grid.R, rho)]
        assert list(_density_lines(grid, rho)) == expected


class TestBenchmarkSetupProbe:
    def test_probe_builds_the_shipped_configs(self):
        # the benchmark times this probe before every workload; a name it
        # imports from kvnmd that goes missing fails all of them
        root = Path(__file__).resolve().parents[1]
        configs = sorted(str(p) for p in (root / "configs").glob("*.ini"))
        assert len(configs) == 5
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "setup_child.py"),
             *configs], env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr


class TestBenchmarkTracer:
    def test_tracer_finds_the_config_hooks(self, tmp_path):
        # the traced benchmark run wraps config.load_config and
        # PesSection.build by name; a name it cannot find is reported
        # missing and its metrics absent
        root = Path(__file__).resolve().parents[1]
        cfg = tmp_path / "oracle.ini"
        cfg.write_text(ORACLE_SMALL.replace("n_steps = 100", "n_steps = 10")
                       .replace("dump_trajectories = true",
                                "dump_trajectories = false"))
        spans = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_child.py"),
             str(spans), "0", "--config", str(cfg), "--out",
             str(tmp_path / "out")], env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        record = json.loads(spans.read_text())
        assert "kvnmd.config.load_config" not in record["missing"]
        assert "PesSection.build" not in record["missing"]
        assert {"config.load_config", "electronic.pes_build"} <= {
            span[0] for span in record["spans"]}


class TestBenchmarkTracedRun:
    @staticmethod
    def reject_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    @pytest.mark.parametrize("workload", ["relax-128", "relax-1024"])
    def test_traced_relax_ends_in_a_result_line(self, tmp_path, workload):
        # the traced benchmark run wraps diagnostics.relax; it must end in
        # a strict JSON result line, every per-layer metric present, and
        # not only exit 0. The copy keeps its work files out of the tree.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        (tmp_path / "src").symlink_to(ROOT / "src")
        done = subprocess.run(
            [sys.executable, str(tmp_path / "perfbench" / "run.py"),
             "--workload", workload, "--quick", "--trace", "1"],
            cwd=tmp_path, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1],
                            parse_constant=self.reject_constant)
        assert result["correct"] is True, done.stderr
        assert result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in spec["per_layer"])


def test_output_hashes_lists_the_outputs_of_a_config(tmp_path):
    # the listing that two source trees are compared by: one line per
    # output with the sha256 of its bytes; a failed run exits 1
    script = ROOT / "scripts" / "output_hashes.py"
    shipped = ROOT / "configs" / "bias_check.ini"
    done = subprocess.run([sys.executable, str(script), str(shipped)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, out = run_cli(tmp_path, shipped.read_text())
    assert code == 0
    digest = hashlib.sha256((out / "bias_check.csv").read_bytes())
    assert done.stdout.splitlines() == [
        f"sha256:{digest.hexdigest()}  bias_check/bias_check.csv"]
    bad = tmp_path / "bad.ini"
    bad.write_text(shipped.read_text() + "\nnot_a_key = 1\n")
    done = subprocess.run([sys.executable, str(script), str(bad)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "bad: exit 2" in done.stderr
