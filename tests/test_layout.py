"""Layout guard: library code in src/kvnmd has a caller in src/kvnmd.

A module-level function or class whose name appears in no expression of
the package (a name or an attribute), or a method or dataclass field
whose name the package never reads as an attribute, serves only the
tests, and belongs in tests/reference_steps.py. Names are matched bare,
so a method or field counts as read wherever any object's attribute of
that name is read, but a local variable of the same name does not read
it. Dunder methods are called by Python itself and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kvnmd"

# The benchmark's traced run wraps these by name, and its set-up probe
# imports canonical_reference; removing them drops per-layer metrics
# until the benchmark reads the run's own manifest (ROADMAP item 3).
PINNED_BY_BENCHMARK = {
    "diagnostics.mean_R",
    "diagnostics.kinetic_temperature",
    "diagnostics.kl_divergence",
    "diagnostics.canonical_reference",
    "grid.fourier_R",
    "grid.fourier_P",
    "propagator.FrictionOperator.apply",
    "propagator.NvePropagator.step",
    "propagator.LangevinStepper.step",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass"
        for d in node.decorator_list)


def _members(node: ast.ClassDef) -> list[str]:
    """Names of the class's methods, and of its fields if a dataclass."""
    methods = [item.name for item in node.body
               if isinstance(item, ast.FunctionDef)
               and not _is_dunder(item.name)]
    if not _is_dataclass(node):
        return methods
    return methods + [item.target.id for item in node.body
                      if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]


def uncalled_definitions() -> set[str]:
    """module.name of every module-level definition whose bare name no
    expression in the package reads, and module.Class.member of every
    method or dataclass field whose name the package never reads as an
    attribute."""
    named, attributes, defined = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                attributes.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                defined.extend((f"{path.stem}.{node.name}.{name}", name, True)
                               for name in _members(node))
    return {qualified for qualified, name, is_member in defined
            if name not in attributes and (is_member or name not in named)}


def test_every_definition_has_a_caller_in_src():
    uncalled = uncalled_definitions()
    assert sorted(uncalled - PINNED_BY_BENCHMARK) == [], (
        "no code in src/kvnmd names these; move test-only code to "
        "tests/reference_steps.py")
    # a pinned name that gained a caller or went away leaves the list
    assert PINNED_BY_BENCHMARK <= uncalled
