"""The field-driven config reader: its round trip against the previous
per-section parser (`reference_config`), non-finite numbers, the
snapshot range and the README's table of keys."""

import configparser
import dataclasses
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_config
from kvnmd import config
from kvnmd.config import MODES, PES_KINDS, PesSection, parse_config

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = {p.stem: p.read_text() for p in sorted(ROOT.glob("configs/*.ini"))}
MORSE_KEYS = ("de_hartree", "alpha_per_bohr", "re_bohr")


def declared_keys():
    """(INI section, field) for every key, [run] included."""
    for name, cls in {"run": config._RunKeys, **config._SECTIONS}.items():
        for f in dataclasses.fields(cls):
            morse = cls is PesSection and f.name in MORSE_KEYS
            yield ("pes.morse" if morse else name), f


def as_sections(text):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.read_string(text)
    return {s: dict(parser[s]) for s in parser.sections()}


def as_text(doc):
    return "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n"
                                         for k, v in keys.items())
                   for s, keys in doc.items())


def edited(doc, section, **keys):
    """INI text of doc ({section: {key: value}}, or INI text) with keys
    set in section."""
    if isinstance(doc, str):
        doc = as_sections(doc)
    doc = {s: dict(k) for s, k in doc.items()}
    doc.setdefault(section, {}).update(keys)
    return as_text(doc)


# ---------------------------------------------------------------- round trip

SECTION_KEYS = {}
for _section, _f in declared_keys():
    SECTION_KEYS.setdefault(_section, []).append(_f.name)
SECTION_KEYS["mystery"] = ["x"]
SECTIONS = sorted(SECTION_KEYS)

# valid and invalid values for every kind of key
TYPE_POOLS = {
    "int": ["0", "1", "2", "3", "7", "40", "-1", "2.5", "x1", "2_0"],
    "float": ["0", "1", "2.5", "0.02", "300", "1e3", "-0.5", "-3", "abc",
              "1.2.3", "nan", "inf", "-inf"],
    "bool": ["true", "no", "On", "0", "1", "FALSE", "maybe"],
    "str": ["runs/out", "table.csv", "bogus"],
    "tuple[int, ...]": ["0, 40", "0, 300", "-5, 200, 9000", "1,,2", ", ,",
                        "1, x", "3", "2.5"],
    "tuple[float, ...]": ["2500, 5000, 10000", "0.005, 0.01", "1, 2", "1,,2",
                          ", ,", "1, x", "3, -1, 4", "1, nan, 2", "0.01"],
}
VALUES = sorted({v for pool in TYPE_POOLS.values() for v in pool}
                | {"", " ", *MODES, *PES_KINDS, "langevin", "verlet", "plus",
                   "minus", "both", "hann", "rect"})
POOLS = {}
for _section, _f in declared_keys():
    _typ = _f.type.removesuffix(" | None")
    POOLS[_section, _f.name] = ["", " ", *TYPE_POOLS[_typ],
                                *_f.metadata.get("choices", ())]
POOLS["run", "mode"] += list(MODES)

# the messages of `_cross_validate` that read two keys at once
CROSS = {"grid.r_min_bohr: must be below grid.r_max_bohr",
         "grid.p_min_au: must be below grid.p_max_au",
         "tst.r_dividing_bohr: outside the grid R range",
         "tst.temperatures_kelvin: need at least 3 entries",
         "oracle.r_min_bohr: must be below oracle.r_max_bohr"}


_MORSE = as_sections(SHIPPED["oracle_morse"])
VERLET = {**_MORSE, "oracle": {
    "kind": "verlet", "t_kelvin": "947", "dt_au": "0.5", "n_traj": "8",
    "n_steps": "10", "r_min_bohr": "0.5", "r_max_bohr": "4.0"}}
# the shipped configs, the other oracle kind, a morse relax and a table pes
BASES = [{}, *map(as_sections, SHIPPED.values()), VERLET,
         {**as_sections(SHIPPED["relax_h2"]), "pes": _MORSE["pes"],
          "pes.morse": _MORSE["pes.morse"]},
         {**as_sections(SHIPPED["vdos_h2"]),
          "pes": {"kind": "raw_table", "mu_au": "918", "path": "table.csv"}}]
# the values the shipped configs give each key, so that edits stay valid
# often enough for the resolved configs to be compared too
for _base in BASES:
    for _section, _keys in _base.items():
        for _key, _value in _keys.items():
            POOLS[_section, _key].append(_value)


@st.composite
def documents(draw):
    doc = {s: dict(keys) for s, keys in draw(st.sampled_from(BASES)).items()}
    for _ in range(draw(st.integers(0, 2) | st.integers(0, 8))):
        section = draw(st.sampled_from(sorted(doc) or SECTIONS)
                       | st.sampled_from(SECTIONS))
        key = draw(st.sampled_from(SECTION_KEYS[section] + ["typo"]))
        action = draw(st.sampled_from(["set", "set", "set", "drop",
                                       "drop section"]))
        if action == "set":
            doc.setdefault(section, {})[key] = draw(
                st.sampled_from(POOLS.get((section, key), VALUES))
                | st.sampled_from(VALUES))
        elif action == "drop":
            doc.get(section, {}).pop(key, None)
        else:
            doc.pop(section, None)
    return as_text(doc)


def key_of(message):
    return message.split(":")[0]


# the rules written out in `_parse_pes` and `_parse_oracle`, and list
# and boolean edge cases
@example(text=edited(VERLET, "oracle", gamma_au="-1", r0_bohr="x"), mode=None)
@example(text=edited(_MORSE, "oracle", r_min_bohr="-1", r_max_bohr="x"),
         mode=None)
@example(text=edited(_MORSE, "oracle", kind="", gamma_au="-1"), mode=None)
@example(text=edited(_MORSE, "oracle", p0_au="x", record_every="0",
                     dump_trajectories="maybe"), mode=None)
@example(text=edited(_MORSE, "pes", kind="raw_table"), mode=None)
@example(text=edited(_MORSE, "pes", kind="bundled_h2", path="t.csv"),
         mode=None)
@example(text=edited(_MORSE, "pes", kind="x"), mode="vdos")
@example(text=edited(SHIPPED["relax_h2"], "relax", snapshot_steps=", ,"),
         mode=None)
@example(text=edited(SHIPPED["bias_check"], "bias-check", s_values=", ,"),
         mode=None)
@example(text=edited(SHIPPED["bias_check"], "pes.morse", re_bohr="1"),
         mode=None)
@example(text=edited(SHIPPED["relax_h2"], "langevin", correction="On"),
         mode=None)
@settings(max_examples=1000, deadline=None)
@given(text=documents(), mode=st.sampled_from([None, None, None, *MODES]))
def test_round_trip_against_the_previous_parser(text, mode):
    assert_parsed_as_before(text, mode)


def test_every_key_over_its_values_parses_as_before():
    # each key of each base set to every value of its pool, bounds and
    # choices included, which random documents reach only rarely
    for (section, key), pool in POOLS.items():
        for base in BASES:
            if section not in base:
                continue
            for value in pool:
                assert_parsed_as_before(edited(base, section, **{key: value}),
                                        None)


def assert_parsed_as_before(text, mode):
    cfg, errors = parse_config(text, mode_override=mode)
    ref_cfg, ref_errors = reference_config.parse_config(text,
                                                        mode_override=mode)
    non_finite = {key_of(e) for e in errors if "not a finite number" in e}
    rest = [e for e in errors if "not a finite number" not in e
            and not e.startswith("relax.snapshot_steps: outside")]
    if non_finite:
        # the previous parser took the value; what it then found at that
        # key, or across keys, has no counterpart here
        assert cfg is None
        assert ([e for e in rest if e not in CROSS]
                == [e for e in ref_errors if e not in CROSS
                    and key_of(e) not in non_finite])
        return
    assert rest == ref_errors
    if rest == errors:
        assert (cfg is None) == (ref_cfg is None)
        if cfg is not None:
            assert dataclasses.asdict(cfg) == dataclasses.asdict(ref_cfg)


def test_shipped_configs_resolve_as_before():
    for text in SHIPPED.values():
        cfg, errors = parse_config(text)
        ref_cfg, ref_errors = reference_config.parse_config(text)
        assert errors == ref_errors == []
        assert dataclasses.asdict(cfg) == dataclasses.asdict(ref_cfg)


# ---------------------------------------------------------------- satellites

BASE_FOR = {"grid": "relax_h2", "pes": "relax_h2", "pes.morse": "oracle_morse",
            "langevin": "relax_h2", "init": "relax_h2", "relax": "relax_h2",
            "vdos": "vdos_h2", "tst": "tst_h2", "bias-check": "bias_check",
            "oracle": "oracle_morse"}


def test_every_float_key_refuses_non_finite_numbers():
    checked = 0
    for section, f in declared_keys():
        typ = f.type.removesuffix(" | None")
        if typ not in ("float", "tuple[float, ...]"):
            continue
        for value in ("nan", "inf", "-inf"):
            text = edited(SHIPPED[BASE_FOR[section]], section,
                          **{f.name: value})
            cfg, errors = parse_config(text)
            assert cfg is None
            assert errors == [
                f"{section}.{f.name}: not a finite number: {value!r}"]
            checked += 1
    assert checked == 3 * 34


def test_non_finite_list_entry_is_named():
    text = edited(SHIPPED["tst_h2"], "tst",
                  temperatures_kelvin="2500, nan, 10000")
    assert parse_config(text) == (
        None, ["tst.temperatures_kelvin: not a finite number: 'nan'"])


def test_snapshot_steps_outside_the_run_are_named():
    text = edited(SHIPPED["relax_h2"], "relax", n_steps="300")
    bad = edited(text, "relax", snapshot_steps="-5, 200, 9000, 0, 300")
    assert parse_config(bad) == (None, [
        "relax.snapshot_steps: outside [0, relax.n_steps = 300]: -5, 9000"])
    good = edited(text, "relax", snapshot_steps="0, 300")
    cfg, errors = parse_config(good)
    assert not errors and cfg.relax.snapshot_steps == (0, 300)


def test_default_section_is_refused_not_merged():
    # configparser merges a [DEFAULT] section's keys into every section,
    # so the previous parser blamed [run] for n_p and quietly set
    # bias-check.n_p; here [DEFAULT] is a section like any other, and an
    # unknown one (the one intended divergence from reference_config)
    text = "[DEFAULT]\nn_p = 12\n" + SHIPPED["bias_check"]
    assert reference_config.parse_config(text) == (
        None, ["run.n_p: unknown key"])
    assert parse_config(text) == (None, ["DEFAULT: unknown section"])
    later = SHIPPED["bias_check"] + "\n[DEFAULT]\nseed = 3\n"
    assert parse_config(later) == (None, ["DEFAULT: unknown section"])


def test_shipped_configs_take_snapshots_inside_the_run():
    cfg, errors = parse_config(SHIPPED["relax_h2"])
    assert not errors
    assert all(0 <= s <= cfg.relax.n_steps for s in cfg.relax.snapshot_steps)


# ---------------------------------------------------------------- README

def readme_rows():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[0].startswith("`["):
            rows[cells[0], cells[1]] = cells[2:]
    return rows


def documented_default(f):
    default = f.default
    if default is dataclasses.MISSING:
        return "required"
    if default is None:
        return "unset"
    if isinstance(default, bool):
        return f"`{str(default).lower()}`"
    if isinstance(default, tuple):
        return f"`{', '.join(map(str, default))}`" if default else "empty"
    return f"`{default}`"


def test_readme_lists_every_key_with_its_default_and_bound():
    rows = readme_rows()
    keys = list(declared_keys())
    assert len(rows) == len(keys)
    for section, f in keys:
        typ, default, bound = rows[f"`[{section}]`", f"`{f.name}`"]
        base = f.type.removesuffix(" | None")
        assert typ == (f"list of {base[6:-6]}" if base.startswith("tuple[")
                       else base), (section, f.name)
        assert default == documented_default(f), (section, f.name)
        rules = f.metadata
        if rules.get("positive"):
            assert "> 0" in bound, (section, f.name)
        if "minimum" in rules:
            assert f">= {rules['minimum']}" in bound, (section, f.name)
        for choice in rules.get("choices", ()):
            assert f"`{choice}`" in bound, (section, f.name)
