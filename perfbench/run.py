"""kvnmd benchmark: time to solution, set-up time, memory and per-layer traces.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, table
    python3 perfbench/run.py --workload all --quick  # tiny inputs, seconds

One closed loop with one client: this process writes the workload's INI
files from the seed, then starts one child at a time and waits for it.

``--trace 0`` first times ``SETUP_RUNS`` fresh set-up probes
(``setup_child.py``), then runs the workload's ``kvnmd.cli`` processes
again and again until ``--seconds`` is spent (at least ``MIN_SAMPLES``
times), checking every run's outputs. It reports the medians
``wall_s``, ``setup_s`` and ``peak_rss_mb``.

``--trace 1`` runs the workload once untraced and ``TRACED_RUNS`` times
through ``traced_child.py``, and reports the per-layer metrics from the
spans; counts must repeat exactly between the traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The metric names
and units come from BENCHMARK.json. Everything the runs write stays under
``perfbench/work``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
REFS = BENCH / "refs"
DEFAULT_SEED = 1
SETUP_RUNS = 3
MIN_SAMPLES = 2  # a median of two halves the weight of one slow run
TRACED_RUNS = 2
TIME_LIMIT_S = 170.0  # one invocation, whatever the workload
SPAN_STATS = ("s", "self_s", "ms", "calls")
# per-layer metrics that are pure counts: they must repeat exactly
EXACT = ("calls", "points", "gflop", "gbytes", "iterations", "traj_steps",
         "warnings", "mb")


class Deadline(Exception):
    """The invocation ran out of its time limit."""


class Runner:
    """Starts children one at a time, each bounded by one deadline."""

    def __init__(self, limit_s: float):
        self.deadline = time.perf_counter() + limit_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], log_dir: Path) -> dict:
        """Run argv to its end; wall time from spawn to exit, peak RSS."""
        log_dir.mkdir(parents=True, exist_ok=True)
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise Deadline()
        with open(log_dir / "stdout.txt", "w") as out, \
                open(log_dir / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stderr": (log_dir / "stderr.txt").read_text()}


class Bench:
    """One workload at one seed: inputs, runs, checks and results."""

    def __init__(self, name: str, seed: int, quick: bool, runner: Runner):
        self.name, self.seed, self.quick = name, seed, quick
        self.runner = runner
        self.dir = WORK / f"{name}-seed{seed}{'-quick' if quick else ''}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inis = {}
        for stem, text in workloads.configs(name, seed, quick):
            path = self.dir / "configs" / f"{stem}.ini"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            self.inis[stem] = path
        self.attempted = 0
        self.failed_runs: set[str] = set()
        self.problems: list[str] = []
        self.first_hashes = None
        self.first_ok = False
        self.n_runs = 0

    def _fail(self, tag: str, problems: list[str]) -> None:
        if problems:
            self.failed_runs.add(tag)
        self.problems.extend(f"{tag}: {p}" for p in problems)

    def setup(self) -> float | None:
        """Wall time of one fresh set-up probe, None if it failed."""
        self.attempted += 1
        tag = f"setup{self.attempted}"
        res = self.runner.run([sys.executable, str(BENCH / "setup_child.py"),
                               *map(str, self.inis.values())],
                              self.dir / tag)
        if res["code"] != 0:
            self._fail(tag, [f"exit code {res['code']}: "
                             f"{_last_line(res['stderr'])}"])
            return None
        return res["wall_s"]

    def workload(self, traced: bool = False, keep: bool = False) -> dict:
        """Run every config of the workload once; check all outputs."""
        self.attempted += 1
        self.n_runs += 1
        tag = f"run{self.n_runs}{'-traced' if traced else ''}"
        run_dir = self.dir / tag
        walls, rss, problems, dumps, out_dirs, hashes = [], [], [], [], {}, {}
        for stem, ini in self.inis.items():
            out = run_dir / stem
            cli_args = ["--config", str(ini), "--out", str(out)]
            if traced:
                spans = run_dir / f"{stem}.spans.json"
                argv = [sys.executable, str(BENCH / "traced_child.py"),
                        str(spans), stem, *cli_args]
            else:
                argv = [sys.executable, "-m", "kvnmd.cli", *cli_args]
            res = self.runner.run(argv, run_dir / f"{stem}.log")
            walls.append(res["wall_s"])
            rss.append(res["rss_mb"])
            out_dirs[stem] = out
            if res["code"] != 0:
                problems.append(f"{stem}: exit code {res['code']}: "
                                f"{_last_line(res['stderr'])}")
                continue
            hashes[stem] = workloads.output_hashes(out)
            seen = self.first_ok and self.first_hashes[stem] == hashes[stem]
            problems.extend(f"{stem}: {p}" for p in workloads.check_run(
                self.name, stem, out, res["stderr"], self.quick,
                content=not seen))
            if traced:
                dumps.append(json.loads(spans.read_text()))
        if self.first_hashes is None:
            self.first_hashes, self.first_ok = hashes, not problems
        elif hashes != self.first_hashes:
            problems.append("outputs differ from the first run of this seed")
        self._fail(tag, problems)
        result = {"wall_s": sum(walls), "rss_mb": max(rss),
                  "ok": not problems, "dumps": dumps, "out_dirs": out_dirs}
        if not keep:
            for out in out_dirs.values():
                shutil.rmtree(out, ignore_errors=True)
        return result

    def result_dev(self, out_dirs: dict) -> float | None:
        """Deviation from the committed reference; None without one."""
        path = REFS / f"{self.name}.json"
        if self.quick or not path.exists():
            return None
        ref = json.loads(path.read_text())
        if ref["seed"] != self.seed:
            return None
        return workloads.result_dev(ref["files"], out_dirs)


def _last_line(text: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[-1].strip() if lines else "(no stderr)"


def _median(values):
    return statistics.median(values) if values else None


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced run: set-up probes, then workload runs for ``seconds``."""
    start = time.perf_counter()
    setups, walls, rss, dev = [], [], [], None
    try:
        for _ in range(SETUP_RUNS):
            setup_s = bench.setup()
            if setup_s is not None:
                setups.append(setup_s)
        while True:
            first = bench.n_runs == 0
            res = bench.workload(keep=first)
            if first:
                dev = bench.result_dev(res["out_dirs"])
                for out in res["out_dirs"].values():
                    shutil.rmtree(out, ignore_errors=True)
            if res["ok"]:
                walls.append(res["wall_s"])
                rss.append(res["rss_mb"])
            elapsed = time.perf_counter() - start
            if not res["ok"] or (len(walls) >= MIN_SAMPLES
                                 and elapsed + _median(walls) > seconds):
                break
    except Deadline:
        bench.problems.append(f"time limit of {TIME_LIMIT_S} s reached")
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
            "metrics": {"wall_s": _median(walls), "setup_s": _median(setups),
                        "peak_rss_mb": _median(rss)},
            "result_dev": dev}


def span_stats(dumps: list[dict]) -> dict[str, dict]:
    """calls, busy seconds, self seconds and durations per span name.

    Busy time counts a span only when no enclosing span has the same
    name; self time is a span's duration minus its direct children's.
    """
    stats: dict[str, dict] = {}
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            if end is None:
                continue
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "durations": []})
            st["calls"] += 1
            st["self_s"] += end - start - child[i]
            st["durations"].append(end - start)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                st["s"] += end - start
    return stats


def layer_metrics(dumps: list[dict], names: list[str]) -> dict[str, float]:
    """Per-layer metric values of one traced workload run.

    A metric whose boundary was not installed (the wrapped name is gone)
    or whose counter broke is left out. A layer that exists but does not
    run on the workload reads 0.
    """
    stats = span_stats(dumps)
    installed = set().union(*(d["installed"] for d in dumps))
    broken = set().union(*(d["broken"] for d in dumps))
    sums, maxima = {}, {}
    for d in dumps:
        for k, v in d["sums"].items():
            sums[k] = sums.get(k, 0) + v
        for k, v in d["maxima"].items():
            maxima[k] = max(maxima.get(k, -math.inf), v)
    values = {}
    for name in names:
        prefix, _, stat = name.rpartition(".")
        if prefix not in installed or broken & {name, prefix}:
            continue
        st = stats.get(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "durations": []})
        if name == "propagator.filter.yield_mean":
            values[name] = sums.get("propagator.filter.yield_sum", 0.0) \
                / max(1, st["calls"])
        elif name in sums or name in maxima:
            values[name] = sums.get(name, maxima.get(name))
        elif stat == "ms":
            values[name] = 1e3 * (_median(st["durations"]) or 0.0)
        elif stat in SPAN_STATS:
            values[name] = st[stat]
        else:
            values[name] = 0
    return values


def trace(bench: Bench, names: list[str]) -> dict:
    """One untraced run, then TRACED_RUNS traced ones; layer medians."""
    try:
        base = bench.workload()
        runs = [bench.workload(traced=True) for _ in range(TRACED_RUNS)]
    except Deadline:
        bench.problems.append(f"time limit of {TIME_LIMIT_S} s reached")
        return {"metrics": {}}
    per_run = [layer_metrics(r["dumps"], names) for r in runs if r["ok"]]
    metrics = {}
    for name in names:
        vals = [m[name] for m in per_run if name in m]
        if not vals:
            continue
        if name.rpartition(".")[2] not in EXACT:
            metrics[name] = _median(vals)
            continue
        if len(set(vals)) > 1:
            bench.problems.append(f"{name} differs between traced runs: "
                                  f"{vals}")
        metrics[name] = vals[0]
    walls = [r["wall_s"] for r in runs if r["ok"]]
    if base["ok"] and walls and "trace.overhead_frac" in names:
        metrics["trace.overhead_frac"] = \
            (_median(walls) - base["wall_s"]) / base["wall_s"]
    return {"metrics": metrics, "untraced_wall_s": base["wall_s"],
            "traced_wall_s": walls}


# ------------------------------------------------------------ environment

def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(seed: int) -> dict:
    """Machine, libraries, threads and source identity of this result."""
    import numpy as np

    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = \
                _read(f"{index}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "kvnmd").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode())
            src.update(path.read_bytes())
    return {
        "cpu_model": cpu, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads()},
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")},
        "git_commit": commit, "src_sha256": src.hexdigest(), "seed": seed,
    }


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, if it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.exists() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ------------------------------------------------------------------- main

def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no tail percentile (n={n} < 11)"
    p = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return f"p{p} {q:.4f}"


def run_one(name: str, seed: int, seconds: float, traced: bool, quick: bool,
            spec: dict, runner: Runner) -> dict:
    bench = Bench(name, seed, quick, runner)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": name, "seed": seed, "quick": quick,
              "trace": int(traced)}
    if traced:
        record.update(trace(bench, [m["name"] for m in spec["per_layer"]]))
    else:
        record.update(measure(bench, seconds))
    failed = len(bench.failed_runs)
    # a child's ru_maxrss can include this process's peak (vfork), so
    # this must stay below every child's
    parent_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update(attempted=bench.attempted, failed=failed,
                  problems=bench.problems, parent_rss_mb=parent_rss_mb,
                  environment=environment(seed))
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in record["metrics"].items() if v is not None}
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    absent = [k for k in names if k not in metrics]
    for p in bench.problems:
        print(f"FAIL {name}: {p}", file=sys.stderr)
    print(f"workload {name} seed {seed} trace {int(traced)}: "
          f"{bench.attempted} runs attempted, {failed} failed")
    for k, v in metrics.items():
        print(f"  {k:34s} {v['value']:.6g} {v['unit']}")
    if not traced:
        print(f"  {'wall_s samples':34s} n={len(record['wall_s'])}, "
              f"{_tail(record['wall_s'])}")
        print(f"  {'fail_frac':34s} {failed / max(1, bench.attempted):.6g} "
              f"frac ({failed} of {bench.attempted} runs)")
        dev = record.get("result_dev")
        print(f"  {'result_dev':34s} " + (
            "absent (no reference for this seed)" if dev is None
            else f"{dev:.6g} frac (max |x - x_ref| / max |x_ref|)"))
    if absent:
        print(f"  absent: {', '.join(absent)}")
    out = WORK / "results" / f"{bench.dir.name}-trace{int(traced)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("environment " + json.dumps(record["environment"]))
    return {"correct": not bench.problems,
            "attempted": bench.attempted, "failed": failed,
            "metrics": metrics}


def record_refs(names: list[str], seed: int, runner: Runner) -> None:
    """Write refs/<workload>.json from one run of each workload."""
    REFS.mkdir(exist_ok=True)
    for name in names:
        bench = Bench(name, seed, False, runner)
        res = bench.workload(keep=True)
        if not res["ok"]:
            sys.exit(f"{name}: not recording a failing run: {bench.problems}")
        files = workloads.reference_record(res["out_dirs"])
        (REFS / f"{name}.json").write_text(json.dumps(
            {"seed": seed, "files": files}, indent=0) + "\n")
        shutil.rmtree(bench.dir, ignore_errors=True)
        print(f"recorded {REFS / (name + '.json')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--record-refs", action="store_true",
                        help="rewrite refs/ from one run at --seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "kvnmd" / "cli.py").exists():
        print(f"error: no kvnmd sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.quick else spec["run_seconds"])
    names = list(workloads.NAMES) if args.workload == "all" \
        else [args.workload]
    if args.record_refs:
        record_refs(names, args.seed, Runner(TIME_LIMIT_S * len(names)))
        return 0
    results = {name: run_one(name, args.seed, seconds, bool(args.trace),
                              args.quick, spec, Runner(TIME_LIMIT_S))
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
