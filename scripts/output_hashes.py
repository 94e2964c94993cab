#!/usr/bin/env python3
"""Print the sha256 of every output a set of runs writes.

Runs each INI config given on the command line, and with ``--seed`` also
every config of the four benchmark workloads at that seed (the INI text
comes from ``perfbench/workloads.configs``), one ``kvnmd.cli`` process
each, into a temporary directory. Prints one line per output that the
run's ``manifest.json`` lists with its hash, every CSV and
``vdos_meta.json``::

    sha256:<hex>  <run>/<file>

runs in order and the files of a run sorted, so that the listings of two
source trees can be compared with ``diff``. The package is imported from
the ``src`` directory beside this script. Exits 1 when a run exits
nonzero.

    python scripts/output_hashes.py configs/*.ini --seed 1

``--pin FILE`` also writes the listing as JSON, with the environment the
bytes were made under (numpy, its BLAS build, the machine). The tier-1
tests compare their runs with the file pinned this way:

    python scripts/output_hashes.py configs/relax_h2.ini configs/tst_h2.ini \
        configs/bias_check.ini configs/oracle_morse.ini tests/vdos_256.ini \
        --pin tests/output_hashes.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


def workload_configs(seed: int) -> list[tuple[str, str]]:
    """(run name, INI text) of every benchmark workload config."""
    return [(f"{name}/{stem}", text) for name in workloads.NAMES
            for stem, text in workloads.configs(name, seed)]


def environment() -> dict:
    """What the output bytes may depend on besides the source: numpy, the
    BLAS it was built with, the machine and Python."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "machine": platform.machine(),
            "python": platform.python_version()}


def run_hashes(name: str, ini: Path, out: Path) -> list[tuple[str, str]]:
    """Run one config into `out`; (<run>/<file>, hash) of each output that
    its manifest lists."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-m", "kvnmd.cli", "--config",
                          str(ini), "--out", str(out)], env=env,
                         capture_output=True, text=True)
    if res.returncode != 0:
        tail = res.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise RuntimeError(f"{name}: exit {res.returncode}: {tail[0]}")
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    return [(f"{name}/{file}", outputs[file]) for file in sorted(outputs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="INI configs to run")
    parser.add_argument("--seed", type=int,
                        help="also run the benchmark workloads at this seed")
    parser.add_argument("--pin", type=Path,
                        help="also write the hashes and the environment "
                        "to this JSON file")
    args = parser.parse_args(argv)
    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(ini.stem, ini) for ini in args.configs]
        if args.seed is not None:
            for name, text in workload_configs(args.seed):
                ini = Path(tmp, "configs", name + ".ini")
                ini.parent.mkdir(parents=True, exist_ok=True)
                ini.write_text(text)
                runs.append((name, ini))
        try:
            for name, ini in runs:
                for output, digest in run_hashes(name, ini,
                                                 Path(tmp, "out", name)):
                    print(f"{digest}  {output}", flush=True)
                    pinned[output] = digest
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    if args.pin is not None:
        args.pin.write_text(json.dumps(
            {"environment": environment(), "outputs": pinned}, indent=2)
            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
