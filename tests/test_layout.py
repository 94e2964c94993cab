"""Layout guard: library code in src/kvnmd has a caller in src/kvnmd.

A module-level function or class, or a method, whose name appears in no
expression of the package (a name or an attribute) serves only the
tests, and belongs in tests/reference_steps.py. Names are matched bare,
so a method counts as named wherever any object's attribute of that name
is read. Dunder methods are called by Python itself and are exempt.
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
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled_definitions() -> set[str]:
    """module.name and module.Class.method of every definition whose bare
    name no expression in the package reads."""
    named, defined = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not _is_dunder(item.name))
    return {qualified for qualified, name in defined if name not in named}


def test_every_definition_has_a_caller_in_src():
    uncalled = uncalled_definitions()
    assert sorted(uncalled - PINNED_BY_BENCHMARK) == [], (
        "no code in src/kvnmd names these; move test-only code to "
        "tests/reference_steps.py")
    # a pinned name that gained a caller or went away leaves the list
    assert PINNED_BY_BENCHMARK <= uncalled
