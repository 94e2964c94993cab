"""INI run configuration: parsing, validation, resolution.

One file drives one run. Sections are per concern ([grid], [pes],
[langevin], ...) with dotted subsections for variant-specific keys
([pes.morse]). Validation aggregates every problem it can find into a
list of "section.key: message" strings instead of stopping at the first,
so a bad file is fixable in one pass.

Each key is declared once, as a field of its section's dataclass: the
annotation gives its type, the default (none: required) and the rules
in `field(metadata=...)` its bounds. `_Section.read` reads any field;
only the rules that depend on the mode or on another key are written
out (`_parse_pes`, `_parse_oracle`, `_cross_validate`).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

from .electronic import (PesModel, bundled_h2_table, load_pauli_table,
                         morse_pes, pauli_pes, raw_pes)

MODES = ("relax", "vdos", "tst", "bias-check", "oracle")
PES_KINDS = ("morse", "pauli_table", "raw_table", "bundled_h2")


def _key(default=MISSING, **rules):
    """A config key: its default (none: required) and its rules,
    `positive`, `minimum` and `choices`."""
    return field(default=default, metadata=rules)


@dataclass
class GridSection:
    n_r: int = _key(minimum=1)
    n_p: int = _key(minimum=1)
    r_min_bohr: float
    r_max_bohr: float
    p_min_au: float
    p_max_au: float


@dataclass
class PesSection:
    kind: str = _key(choices=PES_KINDS)
    mu_au: float = _key(positive=True)
    path: str | None = None  # required when kind is a table
    # read from [pes.morse], required there when kind = morse
    de_hartree: float | None = _key(None, positive=True)
    alpha_per_bohr: float | None = _key(None, positive=True)
    re_bohr: float | None = _key(None, positive=True)

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
    gamma_au: float = _key(positive=True)
    dt_au: float = _key(positive=True)
    t_phys_kelvin: float = _key(positive=True)
    correction: bool = True


@dataclass
class InitSection:
    r0_angstrom: float = _key(positive=True)
    sigma_r_bohr: float = _key(positive=True)
    sigma_p_au: float = _key(positive=True)
    p0_au: float = 0.0


@dataclass
class RelaxSection:
    n_steps: int = _key(minimum=1)
    record_every: int = _key(1, minimum=1)
    snapshot_steps: tuple[int, ...] = ()


@dataclass
class VdosSection:
    t_kelvin: float = _key(positive=True)
    m: int = _key(minimum=1)
    tau_au: float = _key(positive=True)
    omega_shift_au: float = 0.0
    inner_steps: int = _key(1, minimum=1)
    branch: str = _key("both", choices=("plus", "minus", "both"))
    omega_ref_au: float | None = _key(None, positive=True)
    aimd_reference: bool = True
    aimd_n_traj: int = _key(256, minimum=1)
    aimd_window: str = _key("hann", choices=("hann", "rect"))


@dataclass
class TstSection:
    r_dividing_bohr: float
    temperatures_kelvin: tuple[float, ...] = _key(positive=True)
    sigma_bohr: float | None = _key(None, positive=True)
    crossing: bool = False
    crossing_n_traj: int = _key(512, minimum=1)
    crossing_t_sim_au: float = _key(20000.0, positive=True)
    crossing_dt_au: float = _key(2.0, positive=True)


@dataclass
class BiasCheckSection:
    s_values: tuple[float, ...] = _key((0.005, 0.01, 0.05), positive=True)
    n_p: int = _key(10, minimum=3)
    mu_au: float = _key(918.0, positive=True)
    t_kelvin: float = _key(947.0, positive=True)


@dataclass
class OracleSection:
    # in read order: the last four are read by `_parse_oracle` per kind
    kind: str = _key(choices=("langevin", "verlet"))
    n_traj: int = _key(minimum=1)
    n_steps: int = _key(minimum=1)
    dt_au: float = _key(positive=True)
    t_kelvin: float = _key(positive=True)
    record_every: int = _key(1, minimum=1)
    p0_au: float = 0.0
    dump_trajectories: bool = False
    gamma_au: float | None = _key(None, positive=True)
    r0_bohr: float | None = _key(None, positive=True)
    r_min_bohr: float | None = None
    r_max_bohr: float | None = None


@dataclass
class _RunKeys:
    """[run]; the command line overrides each key."""
    mode: str | None = None
    out: str = "out"
    seed: int = _key(0, minimum=0)


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


def _convert(typ: str, text: str, rules, what: str = ""):
    """text as one value of typ ("str", "bool", "int" or "float") under
    rules; raises ValueError with the message. `what` prefixes the
    bound messages ("entries " for list items)."""
    if typ == "str":
        choices = rules.get("choices")
        if choices and text not in choices:
            raise ValueError(
                f"got {text!r}, expected one of {sorted(choices)}")
        return text
    if typ == "bool":
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    try:
        out = int(text) if typ == "int" else float(text)
    except ValueError:
        kind = "an integer" if typ == "int" else "a number"
        raise ValueError(f"not {kind}: {text!r}") from None
    if typ == "float" and not math.isfinite(out):
        raise ValueError(f"not a finite number: {text!r}")
    if rules.get("positive") and out <= 0.0:
        raise ValueError(f"{what}must be > 0, got {out}")
    minimum = rules.get("minimum")
    if minimum is not None and out < minimum:
        raise ValueError(f"{what}must be >= {minimum}, got {out}")
    return out


class _Section:
    """Field reader for one INI section that funnels problems into a
    shared error list."""

    def __init__(self, parser: configparser.ConfigParser, name: str,
                 errors: list[str]):
        self.name = name
        self.errors = errors
        self.raw = dict(parser[name]) if parser.has_section(name) else {}
        self.seen: set[str] = set()

    def fail(self, key: str, message: str) -> None:
        self.errors.append(f"{self.name}.{key}: {message}")

    def read(self, f: Field, required: bool = False, bounded: bool = True):
        """The value of key f.name, its default when absent or empty, or
        None after recording the problem. `required` overrides the
        default; with `bounded` False only the type is checked."""
        self.seen.add(f.name)
        text = self.raw.get(f.name, "").strip()
        if not text:
            if required or f.default is MISSING:
                self.fail(f.name, "required key missing")
                return None
            return f.default
        rules = f.metadata if bounded else {}
        typ = f.type.removesuffix(" | None")
        try:
            if not typ.startswith("tuple["):
                return _convert(typ, text, rules)
            # "tuple[int, ...]": comma-separated, empty pieces skipped;
            # a list may be empty only where its default is
            out = tuple(_convert(typ[6:-6], piece.strip(), rules, "entries ")
                        for piece in text.split(",") if piece.strip())
            if not out and f.default != ():
                raise ValueError("empty list")
            return out
        except ValueError as exc:
            self.fail(f.name, str(exc))
            return None

    def fill(self, cls):
        """cls with every field read, in declaration order."""
        return cls(**{f.name: self.read(f) for f in fields(cls)})

    def reject_unknown(self) -> None:
        for key in sorted(set(self.raw) - self.seen):
            self.errors.append(f"{self.name}.{key}: unknown key")


def _parse_pes(sec: _Section, morse: _Section) -> PesSection:
    kind_f, mu_f, path_f, *morse_fields = fields(PesSection)
    kind = sec.read(kind_f)
    out = PesSection(kind=kind, mu_au=sec.read(mu_f))
    table = kind in ("pauli_table", "raw_table")
    out.path = sec.read(path_f, required=table)
    if table and out.path is None:
        # already reported as missing; sharpen the message for tables
        sec.errors[-1] = f"pes.path: required when pes.kind = {kind}"
    if kind == "bundled_h2" and out.path is not None:
        sec.fail("path", "not used when pes.kind = bundled_h2")
    if kind == "morse":
        for f in morse_fields:
            setattr(out, f.name, morse.read(f, required=True))
    elif morse.raw:
        morse.errors.append(
            "pes.morse: section only valid when pes.kind = morse")
    return out


def _parse_oracle(sec: _Section) -> OracleSection:
    *common, gamma, r0, r_min, r_max = fields(OracleSection)
    out = OracleSection(**{f.name: sec.read(f) for f in common})
    if out.kind == "langevin":
        out.gamma_au = sec.read(gamma, required=True)
        out.r0_bohr = sec.read(r0, required=True)
        sec.read(r_min)
        sec.read(r_max)
    elif out.kind == "verlet":
        # canonical initial conditions need the sampler support
        out.r_min_bohr = sec.read(r_min, required=True)
        out.r_max_bohr = sec.read(r_max, required=True)
        sec.read(gamma, bounded=False)
        sec.read(r0, bounded=False)
    return out


# INI section name -> its dataclass, in read order; the RunConfig
# attribute is the name with "-" as "_"
_SECTIONS = {"grid": GridSection, "pes": PesSection,
             "langevin": LangevinSection, "init": InitSection,
             "relax": RelaxSection, "vdos": VdosSection, "tst": TstSection,
             "bias-check": BiasCheckSection, "oracle": OracleSection}

_MODE_SECTIONS = {
    "relax": ("grid", "pes", "langevin", "init", "relax"),
    "vdos": ("grid", "pes", "vdos"),
    "tst": ("grid", "pes", "tst"),
    "bias-check": ("bias-check",),
    "oracle": ("pes", "oracle"),
}

_KNOWN_SECTIONS = ("run", "pes.morse", *_SECTIONS)


def parse_config(text: str, *, mode_override: str | None = None,
                 out_override: str | None = None,
                 seed_override: int | None = None) \
        -> tuple[RunConfig | None, list[str]]:
    """Parse and validate; returns (config, errors), config None on errors.

    Command-line overrides take precedence over the [run] section and are
    applied before mode-dependent section validation.
    """
    errors: list[str] = []
    # no header can name a section "\n", so [DEFAULT] is read as a
    # section of its own and refused below, instead of configparser's
    # default section merged silently into every other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None,
                                       default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        return None, [f"config syntax: {exc}"]

    for name in parser.sections():
        if name not in _KNOWN_SECTIONS:
            errors.append(f"{name}: unknown section")

    run = _Section(parser, "run", errors)
    keys = run.fill(_RunKeys)
    mode = mode_override if mode_override is not None else keys.mode
    out_dir = out_override if out_override is not None else keys.out
    seed = seed_override if seed_override is not None else keys.seed
    run.reject_unknown()
    if mode is None:
        errors.append("run.mode: required (set in [run] or pass --mode)")
        return None, errors
    if mode not in MODES:
        errors.append(f"run.mode: got {mode!r}, expected one of {MODES}")
        return None, errors

    sections: dict[str, _Section] = {}
    for name, cls in _SECTIONS.items():
        present = parser.has_section(name)
        needed = name in _MODE_SECTIONS[mode]
        # a section whose every key has a default may be left out
        optional = all(f.default is not MISSING for f in fields(cls))
        if needed and not present and not optional:
            errors.append(f"{name}: section required for mode {mode}")
        elif present and not needed:
            errors.append(f"{name}: section not used by mode {mode}")
        elif needed:
            sections[name] = _Section(parser, name, errors)

    morse = _Section(parser, "pes.morse", errors)
    cfg = RunConfig(mode=mode, out_dir=out_dir, seed=seed)
    for name, sec in sections.items():
        if name == "pes":
            value = _parse_pes(sec, morse)
        elif name == "oracle":
            value = _parse_oracle(sec)
        else:
            value = sec.fill(_SECTIONS[name])
        setattr(cfg, name.replace("-", "_"), value)

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
    r = cfg.relax
    if r and r.n_steps is not None and r.snapshot_steps:
        bad = [s for s in r.snapshot_steps if not 0 <= s <= r.n_steps]
        if bad:
            errors.append(f"relax.snapshot_steps: outside [0, relax.n_steps"
                          f" = {r.n_steps}]: {', '.join(map(str, bad))}")
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
