"""Workload definitions: generated INI inputs and per-output checks.

Each workload is a list of configs run one after another, one
``kvnmd --config`` process each. The INI text is generated here from the
workload seed, so the program only ever sees these files. Checks read the
files a run wrote and return a list of problems (empty when the run is
correct); they reuse the frozen acceptance thresholds of the test suite.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from pathlib import Path

NAMES = ("relax-128", "relax-1024", "vdos-256", "calib-rates")

# shipped relax_h2.ini packet centre; the seed moves it inside +-R0_SPREAD
R0_ANGSTROM = 1.82
R0_SPREAD = 0.02

_RELAX = """\
[run]
mode = relax
seed = {seed}

[grid]
n_r = {n_r}
n_p = {n_p}
r_min_bohr = 0.5
r_max_bohr = 4.5
p_min_au = -{p_max}
p_max_au = {p_max}

[pes]
kind = bundled_h2
mu_au = 918.0

[langevin]
gamma_au = 0.02
dt_au = 0.5
t_phys_kelvin = 947.0
correction = true

[init]
r0_angstrom = {r0}
p0_au = 0.0
sigma_r_bohr = 0.15
sigma_p_au = 1.66

[relax]
n_steps = {n_steps}
record_every = {record_every}
snapshot_steps = {snapshots}
"""

_VDOS = """\
[run]
mode = vdos
seed = {seed}

[grid]
n_r = {n}
n_p = {n}
r_min_bohr = 0.4
r_max_bohr = 8.0
p_min_au = -30.0
p_max_au = 30.0

[pes]
kind = bundled_h2
mu_au = 918.0

[vdos]
t_kelvin = 300.0
m = {m}
tau_au = 20.0
inner_steps = 4
branch = both
aimd_reference = true
aimd_n_traj = {n_traj}
aimd_window = hann
"""

_BIAS = """\
[run]
mode = bias-check
seed = {seed}

[bias-check]
s_values = {s_values}
n_p = 10
"""

_TST = """\
[run]
mode = tst
seed = {seed}

[grid]
n_r = 8
n_p = 8
r_min_bohr = 0.5
r_max_bohr = 6.5
p_min_au = -33.0
p_max_au = 33.0

[pes]
kind = bundled_h2
mu_au = 918.0

[tst]
r_dividing_bohr = 3.0
temperatures_kelvin = 2500, 5000, 10000
crossing = true
crossing_n_traj = {n_traj}
crossing_t_sim_au = {t_sim}
crossing_dt_au = 2.0
"""

_ORACLE = """\
[run]
mode = oracle
seed = {seed}

[pes]
kind = morse
mu_au = 918.0

[pes.morse]
de_hartree = 0.1744
alpha_per_bohr = 1.02764
re_bohr = 1.40201

[oracle]
kind = langevin
gamma_au = 0.02
t_kelvin = 947.0
dt_au = 0.5
n_traj = {n_traj}
n_steps = {n_steps}
record_every = 20
r0_bohr = 1.40201
p0_au = 0.0
dump_trajectories = false
"""


def packet_centre(seed: int) -> float:
    """Relax packet centre in angstrom, drawn from the seed."""
    u = random.Random(seed).random()
    return round(R0_ANGSTROM + R0_SPREAD * (2.0 * u - 1.0), 4)


def configs(name: str, seed: int,
            quick: bool = False) -> list[tuple[str, str]]:
    """(stem, INI text) for every config of a workload, in run order.

    ``quick`` gives tiny versions that exercise the same code paths in
    about a second each; they are for the self-test, not for timing.
    """
    r0 = packet_centre(seed)
    if name == "relax-128":
        steps = 40 if quick else 4000
        snaps = "0, 40" if quick else "0, 200, 4000"
        return [("relax", _RELAX.format(
            seed=seed, n_r=7, n_p=7, p_max=42.5, r0=r0, n_steps=steps,
            record_every=20, snapshots=snaps))]
    if name == "relax-1024":
        # dP = 680/1024 au stays >= 2 sigma_H, so no FilterBandWarning
        n_r, n_p, p_max = (8, 7, 42.5) if quick else (10, 10, 340.0)
        steps = 4 if quick else 20
        return [("relax", _RELAX.format(
            seed=seed, n_r=n_r, n_p=n_p, p_max=p_max, r0=r0, n_steps=steps,
            record_every=steps // 2, snapshots=steps))]
    if name == "vdos-256":
        n, m, n_traj = (6, 4, 32) if quick else (8, 7, 256)
        return [("vdos", _VDOS.format(seed=seed, n=n, m=m, n_traj=n_traj))]
    if name == "calib-rates":
        return [
            ("bias", _BIAS.format(
                seed=seed, s_values="0.05" if quick else "0.005, 0.01, 0.05")),
            ("tst", _TST.format(seed=seed, n_traj=16 if quick else 512,
                                t_sim=200.0 if quick else 20000.0)),
            ("oracle", _ORACLE.format(seed=seed, n_traj=50 if quick else 1000,
                                      n_steps=100 if quick else 2000)),
        ]
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


# ---------------------------------------------------------------- outputs

_WARNING_LINE = re.compile(r"\b\w*Warning: ")
# files this large are only streamed; the checks read small tables whole
WHOLE_TABLE_BYTES = 4 << 20


def numeric_columns(header, rows) -> dict[str, list[float]]:
    """Columns whose every cell parses as a float."""
    cols = {}
    for j, key in enumerate(header):
        try:
            cols[key] = [float(r[j]) for r in rows]
        except ValueError:
            continue
    return cols


def column_sums(path: Path) -> tuple[int, dict[str, float]]:
    """Row count and the sum of every numeric column, read as a stream.

    A sum is NaN or infinite when the column holds such a value; only
    columns whose every cell parses as a float are summed.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        sums = dict.fromkeys(range(len(header)), 0.0)
        n_rows = 0
        for row in reader:
            n_rows += 1
            for j in list(sums):
                try:
                    sums[j] += float(row[j])
                except ValueError:
                    del sums[j]
    return n_rows, {header[j]: v for j, v in sums.items()}


def strided_rows(path: Path, stride: int) -> tuple[list[str], list, int]:
    """Header, every ``stride``-th data row and the row count, streamed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        kept, n_rows = [], 0
        for i, row in enumerate(reader):
            n_rows += 1
            if i % stride == 0:
                kept.append(row)
    return header, kept, n_rows


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def output_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV the run wrote (the byte-identical outputs)."""
    return {p.name: _sha256(p) for p in sorted(out_dir.glob("*.csv"))}


def check_run(name: str, stem: str, out_dir: Path, stderr: str,
              quick: bool, content: bool = True) -> list[str]:
    """Problems with one finished config run; empty means correct.

    ``content`` False skips reading the CSVs, for outputs byte-identical
    to ones already checked.
    """
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        return ["manifest.json missing"]
    manifest = json.loads(manifest_path.read_text())
    problems = []
    for fname, digest in manifest.get("outputs", {}).items():
        path = out_dir / fname
        if not path.exists():
            problems.append(f"{fname}: listed in the manifest but missing")
        elif _sha256(path) != digest:
            problems.append(f"{fname}: sha256 differs from the manifest")
    warned = [ln for ln in stderr.splitlines() if _WARNING_LINE.search(ln)]
    if warned:
        problems.append(f"{len(warned)} warning(s): {warned[0].strip()}")
    if not content:
        return problems
    tables, sums = {}, {}
    for path in sorted(out_dir.glob("*.csv")):
        _, sums[path.name] = column_sums(path)
        bad = [k for k, v in sums[path.name].items() if not math.isfinite(v)]
        if bad:
            problems.append(f"{path.name}: non-finite values in {bad}")
        if path.stat().st_size <= WHOLE_TABLE_BYTES:
            header, rows, _ = strided_rows(path, 1)
            tables[path.name] = (header, rows, numeric_columns(header, rows))
    if not problems:
        try:
            problems.extend(_CHECKS[name, stem](tables, sums, manifest,
                                                out_dir, quick))
        except (KeyError, ValueError, IndexError, OSError) as exc:
            problems.append(f"output format changed: {exc!r}")
    return problems


def _check_relax(tables, sums, manifest, out_dir, quick):
    problems = []
    _, _, trace = tables["relax_trace.csv"]
    if not all(0.0 < p <= 1.0 for p in trace["cum_success_prob"]):
        problems.append("cum_success_prob outside (0, 1]")
    snapshots = [f for f in sums if f.startswith("snapshot_")]
    if not snapshots:
        problems.append("no snapshot written")
    derived = manifest["derived"]
    cell = derived["dR_bohr"] * derived["dP_au"]
    for fname in snapshots:
        mass = sums[fname]["density"] * cell
        if abs(mass - 1.0) > 1e-9:
            problems.append(f"{fname}: integrates to {mass!r}, not 1")
    return problems


def _check_relax_128(tables, sums, manifest, out_dir, quick):
    problems = _check_relax(tables, sums, manifest, out_dir, quick)
    if quick:
        return problems
    # acceptance criterion 2
    _, _, t = tables["relax_trace.csv"]
    if abs(t["time_fs"][-1] - 48.4) > 0.1:
        problems.append(f"final time {t['time_fs'][-1]} fs, expected 48.4")
    if abs(t["mean_R_angstrom"][-1] - 0.74) > 0.03:
        problems.append(f"final <R> {t['mean_R_angstrom'][-1]} A, "
                        "expected 0.74 +- 0.03")
    if abs(t["T_kin_K"][-1] - 947.0) / 947.0 > 0.05:
        problems.append(f"final T_kin {t['T_kin_K'][-1]} K, expected "
                        "947 K +- 5%")
    if not t["D_KL_nats"][0] > 1.0:
        problems.append(f"initial D_KL {t['D_KL_nats'][0]} not above 1 nat")
    if not t["D_KL_nats"][-1] <= 0.1:
        problems.append(f"final D_KL {t['D_KL_nats'][-1]} above 0.1 nat")
    return problems


def _check_vdos(tables, sums, manifest, out_dir, quick):
    problems = []
    header, rows, cols = tables["vdos_spectrum.csv"]
    branch = [r[header.index("branch")] for r in rows]
    if set(branch) != {"plus", "minus", "aimd"}:
        problems.append(f"branches {sorted(set(branch))}, expected "
                        "aimd, minus and plus")
    for b in sorted(set(branch)):
        total = math.fsum(p for p, br in zip(cols["prob"], branch) if br == b)
        if abs(total - 1.0) > 1e-6:
            problems.append(f"branch {b} probabilities sum to {total!r}")
    if quick:
        return problems
    # acceptance criterion 5
    peaks = json.loads((out_dir / "vdos_meta.json").read_text())["peaks"]
    if peaks["plus"]["bin"] != peaks["aimd"]["bin"]:
        problems.append(f"plus peak bin {peaks['plus']['bin']} != aimd "
                        f"peak bin {peaks['aimd']['bin']}")
    if not peaks["plus"]["bin"] > 0:
        problems.append("plus peak in bin 0")
    return problems


def _check_bias(tables, sums, manifest, out_dir, quick):
    header, rows, _ = tables["bias_check.csv"]
    status = header.index("status")
    return [f"bias row s={r[0]} is {r[status]}" for r in rows
            if r[status] != "PASS"]


def _check_tst(tables, sums, manifest, out_dir, quick):
    if quick:
        return []
    # acceptance criterion 7
    _, _, rates = tables["tst_rates.csv"]
    _, _, cross = tables["crossing.csv"]
    k_flux = rates["k_au"][rates["T_kelvin"].index(min(rates["T_kelvin"]))]
    problems = []
    if cross["N_cross"][0] != 0:
        problems.append(f"N_cross = {cross['N_cross'][0]}, expected 0")
    if not 0.0 < k_flux < cross["k_min"][0]:
        problems.append(f"k_flux {k_flux} not in (0, k_min)")
    return problems


def _check_oracle(tables, sums, manifest, out_dir, quick):
    return []  # finite outputs and the manifest are all it promises


_CHECKS = {
    ("relax-128", "relax"): _check_relax_128,
    ("relax-1024", "relax"): _check_relax,
    ("vdos-256", "vdos"): _check_vdos,
    ("calib-rates", "bias"): _check_bias,
    ("calib-rates", "tst"): _check_tst,
    ("calib-rates", "oracle"): _check_oracle,
}


# ------------------------------------------------------------- result_dev

REF_ROWS = 512  # rows kept per reference file; longer files are strided


def reference_record(out_dirs: dict[str, Path]) -> dict:
    """Reference outputs of one workload run, small enough to commit.

    For each CSV: its sha256, row count, header and every ``stride``-th
    row as written (strings, so the values round-trip exactly).
    """
    record = {}
    for stem, out_dir in out_dirs.items():
        for path in sorted(out_dir.glob("*.csv")):
            n_rows, _ = column_sums(path)
            stride = max(1, -(-n_rows // REF_ROWS))
            header, rows, _ = strided_rows(path, stride)
            record[f"{stem}/{path.name}"] = {
                "sha256": _sha256(path), "n_rows": n_rows, "stride": stride,
                "header": header, "rows": rows}
    return record


def result_dev(reference: dict, out_dirs: dict[str, Path]) -> float:
    """Largest |x - x_ref| / max|x_ref| over every numeric output column.

    Columns whose reference is all zero use the plain |x - x_ref|. A
    missing file, a changed row count or header, or a changed text cell
    gives infinity.
    """
    worst = 0.0
    for key, ref in reference.items():
        stem, fname = key.split("/")
        path = out_dirs[stem] / fname
        if not path.exists():
            return math.inf
        if _sha256(path) == ref["sha256"]:
            continue
        header, rows, n_rows = strided_rows(path, ref["stride"])
        if header != ref["header"] or n_rows != ref["n_rows"]:
            return math.inf
        got = numeric_columns(header, rows)
        want = numeric_columns(header, ref["rows"])
        for j, col in enumerate(header):
            if col not in want:
                if any(r[j] != w[j] for r, w in zip(rows, ref["rows"])):
                    return math.inf
                continue
            if col not in got:
                return math.inf
            scale = max(map(abs, want[col])) or 1.0
            diff = max(abs(a - b) for a, b in zip(got[col], want[col]))
            worst = max(worst, diff / scale)
    return worst
