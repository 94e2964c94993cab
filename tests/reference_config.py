"""INI run configuration: parsing, validation, resolution.

One file drives one run. Sections are per concern ([grid], [pes],
[langevin], ...) with dotted subsections for variant-specific keys
([pes.morse]). Validation aggregates every problem it can find into a
list of "section.key: message" strings instead of stopping at the first,
so a bad file is fixable in one pass.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from kvnmd.electronic import (PesModel, bundled_h2_table, load_pauli_table,
                         morse_pes, pauli_pes, raw_pes)

MODES = ("relax", "vdos", "tst", "bias-check", "oracle")
PES_KINDS = ("morse", "pauli_table", "raw_table", "bundled_h2")

_REQUIRED = object()


@dataclass
class GridSection:
    n_r: int
    n_p: int
    r_min_bohr: float
    r_max_bohr: float
    p_min_au: float
    p_max_au: float


@dataclass
class PesSection:
    kind: str
    mu_au: float
    path: str | None = None
    de_hartree: float | None = None
    alpha_per_bohr: float | None = None
    re_bohr: float | None = None

    def build(self) -> PesModel:
        if self.kind == "morse":
            return morse_pes(self.de_hartree, self.alpha_per_bohr,
                             self.re_bohr)
        if self.kind == "pauli_table":
            return pauli_pes(load_pauli_table(self.path))
        if self.kind == "raw_table":
            return raw_pes(self.path)
        return pauli_pes(bundled_h2_table())


@dataclass
class LangevinSection:
    gamma_au: float
    dt_au: float
    t_phys_kelvin: float
    correction: bool = True


@dataclass
class InitSection:
    r0_angstrom: float
    sigma_r_bohr: float
    sigma_p_au: float
    p0_au: float = 0.0


@dataclass
class RelaxSection:
    n_steps: int
    record_every: int = 1
    snapshot_steps: tuple[int, ...] = ()


@dataclass
class VdosSection:
    t_kelvin: float
    m: int
    tau_au: float
    omega_shift_au: float = 0.0
    inner_steps: int = 1
    branch: str = "both"
    omega_ref_au: float | None = None
    aimd_reference: bool = True
    aimd_n_traj: int = 256
    aimd_window: str = "hann"


@dataclass
class TstSection:
    r_dividing_bohr: float
    temperatures_kelvin: tuple[float, ...]
    sigma_bohr: float | None = None
    crossing: bool = False
    crossing_n_traj: int = 512
    crossing_t_sim_au: float = 20000.0
    crossing_dt_au: float = 2.0


@dataclass
class BiasCheckSection:
    s_values: tuple[float, ...] = (0.005, 0.01, 0.05)
    n_p: int = 10
    mu_au: float = 918.0
    t_kelvin: float = 947.0


@dataclass
class OracleSection:
    kind: str
    n_traj: int
    n_steps: int
    dt_au: float
    t_kelvin: float
    record_every: int = 1
    gamma_au: float | None = None
    r0_bohr: float | None = None
    p0_au: float = 0.0
    r_min_bohr: float | None = None
    r_max_bohr: float | None = None
    dump_trajectories: bool = False


@dataclass
class RunConfig:
    mode: str
    out_dir: str
    seed: int
    grid: GridSection | None = None
    pes: PesSection | None = None
    langevin: LangevinSection | None = None
    init: InitSection | None = None
    relax: RelaxSection | None = None
    vdos: VdosSection | None = None
    tst: TstSection | None = None
    bias_check: BiasCheckSection | None = None
    oracle: OracleSection | None = None


class _Section:
    """Typed key reader that funnels problems into a shared error list."""

    def __init__(self, parser: configparser.ConfigParser, name: str,
                 errors: list[str]):
        self.name = name
        self.errors = errors
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        self.seen: set[str] = set()

    def _fetch(self, key, default):
        self.seen.add(key)
        if key in self.raw:
            val = self.raw[key].strip()
            if val != "":
                return val
        if default is _REQUIRED:
            self.errors.append(f"{self.name}.{key}: required key missing")
        return default

    def fail(self, key: str, message: str) -> None:
        self.errors.append(f"{self.name}.{key}: {message}")

    def get_str(self, key, default=_REQUIRED, choices=None):
        val = self._fetch(key, default)
        if val is _REQUIRED or val is None:
            return None
        if choices and val not in choices:
            self.fail(key, f"got {val!r}, expected one of {sorted(choices)}")
            return None
        return val

    def get_float(self, key, default=_REQUIRED, positive=False):
        val = self._fetch(key, default)
        if val is _REQUIRED:
            return None
        if not isinstance(val, str):
            return val
        try:
            out = float(val)
        except ValueError:
            self.fail(key, f"not a number: {val!r}")
            return None
        if positive and out <= 0.0:
            self.fail(key, f"must be > 0, got {out}")
            return None
        return out

    def get_int(self, key, default=_REQUIRED, minimum=None):
        val = self._fetch(key, default)
        if val is _REQUIRED:
            return None
        if not isinstance(val, str):
            return val
        try:
            out = int(val)
        except ValueError:
            self.fail(key, f"not an integer: {val!r}")
            return None
        if minimum is not None and out < minimum:
            self.fail(key, f"must be >= {minimum}, got {out}")
            return None
        return out

    def get_bool(self, key, default=_REQUIRED):
        val = self._fetch(key, default)
        if val is _REQUIRED:
            return None
        if not isinstance(val, str):
            return val
        low = val.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        self.fail(key, f"not a boolean: {val!r}")
        return None

    def get_float_list(self, key, default=_REQUIRED, positive=False):
        val = self._fetch(key, default)
        if val is _REQUIRED:
            return None
        if not isinstance(val, str):
            return val
        out = []
        for piece in val.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                num = float(piece)
            except ValueError:
                self.fail(key, f"not a number: {piece!r}")
                return None
            if positive and num <= 0.0:
                self.fail(key, f"entries must be > 0, got {num}")
                return None
            out.append(num)
        if not out:
            self.fail(key, "empty list")
            return None
        return tuple(out)

    def get_int_list(self, key, default=_REQUIRED):
        val = self._fetch(key, default)
        if val is _REQUIRED:
            return None
        if not isinstance(val, str):
            return val
        out = []
        for piece in val.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(int(piece))
            except ValueError:
                self.fail(key, f"not an integer: {piece!r}")
                return None
        return tuple(out)

    def reject_unknown(self) -> None:
        for key in sorted(set(self.raw) - self.seen):
            self.errors.append(f"{self.name}.{key}: unknown key")


def _parse_grid(sec: _Section) -> GridSection:
    return GridSection(
        n_r=sec.get_int("n_r", minimum=1),
        n_p=sec.get_int("n_p", minimum=1),
        r_min_bohr=sec.get_float("r_min_bohr"),
        r_max_bohr=sec.get_float("r_max_bohr"),
        p_min_au=sec.get_float("p_min_au"),
        p_max_au=sec.get_float("p_max_au"))


def _parse_pes(sec: _Section, morse: _Section) -> PesSection:
    kind = sec.get_str("kind", choices=PES_KINDS)
    out = PesSection(kind=kind, mu_au=sec.get_float("mu_au", positive=True))
    if kind in ("pauli_table", "raw_table"):
        out.path = sec.get_str("path")
        if out.path is None:
            # already reported as missing; sharpen the message for tables
            sec.errors[-1] = (f"pes.path: required when pes.kind = {kind}")
    else:
        out.path = sec.get_str("path", default=None)
        if kind == "bundled_h2" and out.path is not None:
            sec.fail("path", "not used when pes.kind = bundled_h2")
    if kind == "morse":
        out.de_hartree = morse.get_float("de_hartree", positive=True)
        out.alpha_per_bohr = morse.get_float("alpha_per_bohr", positive=True)
        out.re_bohr = morse.get_float("re_bohr", positive=True)
    elif morse.raw:
        morse.errors.append(
            "pes.morse: section only valid when pes.kind = morse")
    return out


def _parse_langevin(sec: _Section) -> LangevinSection:
    return LangevinSection(
        gamma_au=sec.get_float("gamma_au", positive=True),
        dt_au=sec.get_float("dt_au", positive=True),
        t_phys_kelvin=sec.get_float("t_phys_kelvin", positive=True),
        correction=sec.get_bool("correction", default=True))


def _parse_init(sec: _Section) -> InitSection:
    return InitSection(
        r0_angstrom=sec.get_float("r0_angstrom", positive=True),
        sigma_r_bohr=sec.get_float("sigma_r_bohr", positive=True),
        sigma_p_au=sec.get_float("sigma_p_au", positive=True),
        p0_au=sec.get_float("p0_au", default=0.0))


def _parse_relax(sec: _Section) -> RelaxSection:
    return RelaxSection(
        n_steps=sec.get_int("n_steps", minimum=1),
        record_every=sec.get_int("record_every", default=1, minimum=1),
        snapshot_steps=sec.get_int_list("snapshot_steps", default=()))


def _parse_vdos(sec: _Section) -> VdosSection:
    return VdosSection(
        t_kelvin=sec.get_float("t_kelvin", positive=True),
        m=sec.get_int("m", minimum=1),
        tau_au=sec.get_float("tau_au", positive=True),
        omega_shift_au=sec.get_float("omega_shift_au", default=0.0),
        inner_steps=sec.get_int("inner_steps", default=1, minimum=1),
        branch=sec.get_str("branch", default="both",
                           choices=("plus", "minus", "both")),
        omega_ref_au=sec.get_float("omega_ref_au", default=None,
                                   positive=True),
        aimd_reference=sec.get_bool("aimd_reference", default=True),
        aimd_n_traj=sec.get_int("aimd_n_traj", default=256, minimum=1),
        aimd_window=sec.get_str("aimd_window", default="hann",
                                choices=("hann", "rect")))


def _parse_tst(sec: _Section) -> TstSection:
    return TstSection(
        r_dividing_bohr=sec.get_float("r_dividing_bohr"),
        temperatures_kelvin=sec.get_float_list("temperatures_kelvin",
                                               positive=True),
        sigma_bohr=sec.get_float("sigma_bohr", default=None, positive=True),
        crossing=sec.get_bool("crossing", default=False),
        crossing_n_traj=sec.get_int("crossing_n_traj", default=512,
                                    minimum=1),
        crossing_t_sim_au=sec.get_float("crossing_t_sim_au", default=20000.0,
                                        positive=True),
        crossing_dt_au=sec.get_float("crossing_dt_au", default=2.0,
                                     positive=True))


def _parse_bias(sec: _Section) -> BiasCheckSection:
    return BiasCheckSection(
        s_values=sec.get_float_list("s_values",
                                    default=(0.005, 0.01, 0.05),
                                    positive=True),
        n_p=sec.get_int("n_p", default=10, minimum=3),
        mu_au=sec.get_float("mu_au", default=918.0, positive=True),
        t_kelvin=sec.get_float("t_kelvin", default=947.0, positive=True))


def _parse_oracle(sec: _Section) -> OracleSection:
    kind = sec.get_str("kind", choices=("langevin", "verlet"))
    out = OracleSection(
        kind=kind,
        n_traj=sec.get_int("n_traj", minimum=1),
        n_steps=sec.get_int("n_steps", minimum=1),
        dt_au=sec.get_float("dt_au", positive=True),
        t_kelvin=sec.get_float("t_kelvin", positive=True),
        record_every=sec.get_int("record_every", default=1, minimum=1),
        p0_au=sec.get_float("p0_au", default=0.0),
        dump_trajectories=sec.get_bool("dump_trajectories", default=False))
    if kind == "langevin":
        out.gamma_au = sec.get_float("gamma_au", positive=True)
        out.r0_bohr = sec.get_float("r0_bohr", positive=True)
        sec.get_float("r_min_bohr", default=None)
        sec.get_float("r_max_bohr", default=None)
    elif kind == "verlet":
        # canonical initial conditions need the sampler support
        out.r_min_bohr = sec.get_float("r_min_bohr")
        out.r_max_bohr = sec.get_float("r_max_bohr")
        sec.get_float("gamma_au", default=None)
        sec.get_float("r0_bohr", default=None)
    return out


_MODE_SECTIONS = {
    "relax": ("grid", "pes", "langevin", "init", "relax"),
    "vdos": ("grid", "pes", "vdos"),
    "tst": ("grid", "pes", "tst"),
    "bias-check": (),
    "oracle": ("pes", "oracle"),
}

_KNOWN_SECTIONS = ("run", "grid", "pes", "pes.morse", "langevin", "init",
                   "relax", "vdos", "tst", "bias-check", "oracle")


def parse_config(text: str, *, mode_override: str | None = None,
                 out_override: str | None = None,
                 seed_override: int | None = None) \
        -> tuple[RunConfig | None, list[str]]:
    """Parse and validate; returns (config, errors), config None on errors.

    Command-line overrides take precedence over the [run] section and are
    applied before mode-dependent section validation.
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        return None, [f"config syntax: {exc}"]

    for name in parser.sections():
        if name not in _KNOWN_SECTIONS:
            errors.append(f"{name}: unknown section")

    run = _Section(parser, "run", errors)
    file_mode = run.get_str("mode", default=None)
    file_out = run.get_str("out", default="out")
    file_seed = run.get_int("seed", default=0, minimum=0)
    mode = mode_override if mode_override is not None else file_mode
    out_dir = out_override if out_override is not None else file_out
    seed = seed_override if seed_override is not None else file_seed
    run.reject_unknown()
    if mode is None:
        errors.append("run.mode: required (set in [run] or pass --mode)")
        return None, errors
    if mode not in MODES:
        errors.append(f"run.mode: got {mode!r}, expected one of {MODES}")
        return None, errors

    required = _MODE_SECTIONS[mode]
    sections: dict[str, _Section] = {}
    for name in ("grid", "pes", "langevin", "init", "relax", "vdos", "tst",
                 "bias-check", "oracle"):
        present = parser.has_section(name)
        needed = name in required or (name == "bias-check"
                                      and mode == "bias-check")
        if needed and not present and name != "bias-check":
            errors.append(f"{name}: section required for mode {mode}")
            continue
        if present and not needed:
            errors.append(f"{name}: section not used by mode {mode}")
            continue
        if present or needed:
            sections[name] = _Section(parser, name, errors)

    morse = _Section(parser, "pes.morse", errors)
    cfg = RunConfig(mode=mode, out_dir=out_dir, seed=seed)
    if "grid" in sections:
        cfg.grid = _parse_grid(sections["grid"])
    if "pes" in sections:
        cfg.pes = _parse_pes(sections["pes"], morse)
    if "langevin" in sections:
        cfg.langevin = _parse_langevin(sections["langevin"])
    if "init" in sections:
        cfg.init = _parse_init(sections["init"])
    if "relax" in sections:
        cfg.relax = _parse_relax(sections["relax"])
    if "vdos" in sections:
        cfg.vdos = _parse_vdos(sections["vdos"])
    if "tst" in sections:
        cfg.tst = _parse_tst(sections["tst"])
    if "bias-check" in sections:
        cfg.bias_check = _parse_bias(sections["bias-check"])
    if "oracle" in sections:
        cfg.oracle = _parse_oracle(sections["oracle"])

    for sec in sections.values():
        sec.reject_unknown()
    morse.reject_unknown()

    _cross_validate(cfg, errors)
    if errors:
        return None, errors
    return cfg, []


def _cross_validate(cfg: RunConfig, errors: list[str]) -> None:
    g = cfg.grid
    if g and None not in (g.r_min_bohr, g.r_max_bohr, g.p_min_au, g.p_max_au):
        if g.r_min_bohr >= g.r_max_bohr:
            errors.append("grid.r_min_bohr: must be below grid.r_max_bohr")
        if g.p_min_au >= g.p_max_au:
            errors.append("grid.p_min_au: must be below grid.p_max_au")
    t = cfg.tst
    if (t and g and t.r_dividing_bohr is not None
            and None not in (g.r_min_bohr, g.r_max_bohr)
            and not g.r_min_bohr < t.r_dividing_bohr < g.r_max_bohr):
        errors.append("tst.r_dividing_bohr: outside the grid R range")
    if t and t.temperatures_kelvin and len(t.temperatures_kelvin) < 3:
        errors.append("tst.temperatures_kelvin: need at least 3 entries")
    o = cfg.oracle
    if (o and o.kind == "verlet"
            and None not in (o.r_min_bohr, o.r_max_bohr)
            and o.r_min_bohr >= o.r_max_bohr):
        errors.append("oracle.r_min_bohr: must be below oracle.r_max_bohr")


def load_config(path, *, mode_override: str | None = None,
                out_override: str | None = None,
                seed_override: int | None = None) \
        -> tuple[RunConfig | None, list[str]]:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        return None, [f"config file: {exc}"]
    return parse_config(text, mode_override=mode_override,
                        out_override=out_override,
                        seed_override=seed_override)
