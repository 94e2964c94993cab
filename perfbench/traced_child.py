"""Traced kvnmd run: ``python3 traced_child.py SPANS_JSON RUN_ID CLI_ARGS...``.

Imports kvnmd with ``src`` on PYTHONPATH, wraps module attributes and
methods at the layer boundaries listed in ``_install``, runs
``kvnmd.cli.main(CLI_ARGS)`` once and writes the spans and counters it
recorded to SPANS_JSON. Nothing in the package is edited; the wrappers
live only in this process. A boundary whose name no longer exists is
skipped and listed as missing, so its metrics are reported absent.

A span is ``[name, start, end, parent, run_id]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span
(-1 at top level). Counters are plain sums or maxima keyed by metric
name.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.installed: set[str] = set()
        self.missing: set[str] = set()
        self.broken: set[str] = set()

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def top(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, -math.inf), value)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, after=None, feeds=(), reentrant=True):
        """fn inside a span; ``after(args, kwargs, result)`` may replace
        the result and runs once the span is closed. If ``after`` fails
        (the code it reads has changed), the metrics or metric prefixes
        in ``feeds`` are marked broken and reported absent. With
        reentrant False a call made from inside a span of the same name
        is not recorded again (an FFT entry point calling another)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (not reentrant and tracer.stack
                    and tracer.spans[tracer.stack[-1]][0] == name):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                try:
                    replaced = after(args, kwargs, result)
                except Exception:  # what it reads changed: report absent
                    tracer.broken.update(feeds)
                else:
                    if replaced is not None:
                        result = replaced
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, after=None, feeds=(),
              reentrant: bool = True) -> None:
        """Wrap ``module.attr`` and every kvnmd module that imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        wrapper = self.wrap(name, original, after, feeds, reentrant)
        setattr(module, attr, wrapper)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("kvnmd"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self.installed.add(name)

    def patch_method(self, cls, attr: str, name: str, after=None,
                     feeds=()) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self.wrap(name, original, after, feeds))
        self.installed.add(name)


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _fft_counter(tracer: Tracer, ndim: int | None):
    """Computed FFT work: 5 n log2(len) flops, input plus output bytes."""
    import numpy as np

    def after(args, kwargs, result):
        a = np.asarray(args[0]) if args else np.asarray(kwargs["a"])
        out = np.asarray(result)
        if ndim == 1:
            axis = _arg(args, kwargs, 2, "axis", -1)
            n = _arg(args, kwargs, 1, "n")
            lengths = [n if n is not None
                       else max(a.shape[axis], out.shape[axis])]
        else:
            axes = _arg(args, kwargs, 2, "axes")
            if axes is None:
                axes = range(-ndim, 0) if ndim else range(out.ndim)
            lengths = [max(a.shape[ax], out.shape[ax]) for ax in axes]
        points = max(a.size, out.size)
        tracer.add("kernel.fft.points", points)
        tracer.add("kernel.fft.gflop",
                   5e-9 * points * math.log2(max(2, math.prod(lengths))))
        tracer.add("kernel.fft.gbytes", 1e-9 * (a.nbytes + out.nbytes))

    return after


_FFT_ENTRY_POINTS = {"fft": 1, "ifft": 1, "rfft": 1, "irfft": 1, "hfft": 1,
                     "ihfft": 1, "fft2": 2, "ifft2": 2, "rfft2": 2,
                     "irfft2": 2, "fftn": None, "ifftn": None,
                     "rfftn": None, "irfftn": None}

_TABLE_ATTRS = ("half_drift", "kick", "matrix", "cos_filter")


def _install(tr: Tracer) -> None:
    import warnings

    import numpy as np
    import scipy.fft

    from kvnmd import (cli, config, diagnostics, errors, grid, oracles,
                       propagator, tst, vdos)

    # config / cli
    tr.patch(config, "load_config", "config.load_config")

    def write_bytes(kind):
        def after(args, kwargs, result):
            path = Path(args[0])
            if kind == "dir":
                path = path / "manifest.json"
            tr.add("cli.write.bytes", path.stat().st_size)
        return after

    for attr, kind in (("_write_csv", "file"), ("_write_manifest", "dir")):
        tr.patch(cli, attr, "cli.write", write_bytes(kind),
                 feeds=("cli.write.bytes",))

    warn = warnings.warn

    def counted_warn(message, category=None, stacklevel=1, *args, **kwargs):
        cat = category or (type(message) if isinstance(message, Warning)
                           else UserWarning)
        if getattr(cat, "__module__", "") == errors.__name__:
            tr.add("cli.warnings", 1)
        return warn(message, category, stacklevel + 1, *args, **kwargs)

    warnings.warn = counted_warn
    tr.installed.add("cli")

    # electronic: the PES build and the evaluators of the model it returns
    def wrap_model(args, kwargs, model):
        def count_points(a, kw, result):
            tr.add("electronic.force.points", np.size(a[0]))
        return dataclasses.replace(
            model, v=tr.wrap("electronic.energy", model.v),
            f=tr.wrap("electronic.force", model.f, count_points))

    tr.patch_method(config.PesSection, "build", "electronic.pes_build",
                    wrap_model,
                    feeds=("electronic.energy", "electronic.force"))
    if "electronic.pes_build" in tr.installed:
        tr.installed.update(("electronic.energy", "electronic.force"))

    # grid
    tr.patch(grid, "build_grid", "grid.build")
    tr.patch(grid, "encode_gaussian", "grid.build")
    tr.patch(grid, "fourier_R", "grid.fourier")
    tr.patch(grid, "fourier_P", "grid.fourier")

    # kernel: every numpy.fft / scipy.fft entry point
    for module in (np.fft, scipy.fft):
        for attr, ndim in _FFT_ENTRY_POINTS.items():
            if hasattr(module, attr):
                tr.patch(module, attr, "kernel.fft", _fft_counter(tr, ndim),
                         feeds=("kernel.fft.points", "kernel.fft.gflop",
                                "kernel.fft.gbytes"), reentrant=False)

    # propagator
    def tables(args, kwargs, result):
        obj = args[0]
        for attr in _TABLE_ATTRS:
            value = obj.__dict__.get(attr)
            if isinstance(value, np.ndarray):
                tr.add("propagator.tables.mb", value.nbytes / 2 ** 20)

    for cls in (propagator.NvePropagator, propagator.FrictionOperator,
                propagator.LangevinStepper):
        tr.patch_method(cls, "__init__", "propagator.setup", tables,
                        feeds=("propagator.tables",))
    if "propagator.setup" in tr.installed:
        tr.installed.add("propagator.tables")
    tr.patch_method(propagator.NvePropagator, "step", "propagator.nve")

    def friction(args, kwargs, result):
        op, state = args[0], args[1]
        tr.top("propagator.friction.leak_max", float(result[1]))
        if getattr(op, "s", 0.0):
            n_r, n_p = state.amplitudes.shape
            tr.add("kernel.friction_matmul.gflop", 8e-9 * n_r * n_p ** 2)
            tr.add("kernel.friction_matmul.gbytes",
                   16e-9 * (2 * n_r * n_p + n_p ** 2))

    tr.patch_method(propagator.FrictionOperator, "apply",
                    "propagator.friction", friction,
                    feeds=("propagator.friction.leak_max",
                           "kernel.friction_matmul"))
    if "propagator.friction" in tr.installed:
        tr.installed.add("kernel.friction_matmul")

    def filter_yield(args, kwargs, result):
        tr.add("propagator.filter.yield_sum",
               float(result[1].success_probability))

    tr.patch(propagator, "_filtered", "propagator.filter", filter_yield,
             feeds=("propagator.filter.yield_mean",))
    tr.patch_method(propagator.LangevinStepper, "step", "propagator.langevin")

    def bias_iterations(args, kwargs, result):
        tr.add("propagator.bias.iterations", result.n_steps)

    tr.patch(propagator, "momentum_bias_experiment", "propagator.bias",
             bias_iterations, feeds=("propagator.bias.iterations",))

    # diagnostics
    for attr in ("mean_R", "kinetic_temperature", "kl_divergence"):
        tr.patch(diagnostics, attr, "diagnostics.monitors")
    tr.patch(diagnostics, "canonical_reference",
             "diagnostics.canonical_reference")
    tr.patch(diagnostics, "relax", "diagnostics.relax")

    # vdos
    tr.patch(vdos, "prepare_branch_states", "vdos.prepare")
    tr.patch(vdos, "qpe_distribution", "vdos.qpe")
    tr.patch(vdos, "aimd_reference_spectrum", "vdos.aimd_reference")

    # tst
    tr.patch(tst, "arrhenius_sweep", "tst.arrhenius")
    tr.patch(tst, "crossing_reference", "tst.crossing")

    # oracles
    def traj_steps(args, kwargs, result):
        tr.add("oracles.verlet.traj_steps",
               _arg(args, kwargs, 5, "n_steps") * result.R.shape[1])

    tr.patch(oracles, "verlet_ensemble", "oracles.verlet", traj_steps,
             feeds=("oracles.verlet.traj_steps",))
    tr.patch(oracles, "canonical_sampler", "oracles.sampler")
    tr.patch(oracles, "langevin_ensemble", "oracles.langevin")
    tr.patch(oracles, "cos_filter_stationary_bias", "oracles.bias_product")


def main(spans_path: str, run_id: str, cli_args: list[str]) -> int:
    tr = Tracer()
    idx = tr.open("cli.import")
    import kvnmd.cli
    tr.close(idx)
    tr.installed.add("cli.import")
    _install(tr)
    idx = tr.open("cli.main")
    try:
        code = kvnmd.cli.main(cli_args)
    finally:
        tr.close(idx)
        tr.installed.add("cli.main")
        Path(spans_path).write_text(json.dumps({
            "spans": [span + [run_id] for span in tr.spans],
            "sums": tr.sums, "maxima": tr.maxima,
            "installed": sorted(tr.installed), "broken": sorted(tr.broken),
            "missing": sorted(tr.missing)}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
