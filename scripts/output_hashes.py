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
"""

from __future__ import annotations

import argparse
import json
import os
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


def run_hashes(name: str, ini: Path, out: Path) -> list[str]:
    """Run one config into `out`; the hash lines of the outputs that its
    manifest lists."""
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
    return [f"{outputs[file]}  {name}/{file}" for file in sorted(outputs)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="INI configs to run")
    parser.add_argument("--seed", type=int,
                        help="also run the benchmark workloads at this seed")
    args = parser.parse_args(argv)
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
                for line in run_hashes(name, ini, Path(tmp, "out", name)):
                    print(line, flush=True)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
