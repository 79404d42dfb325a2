import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import rational_kcbs

EXPORTS = {
    # rationals
    "format_rational", "parse_rational", "to_decimal",
    # linalg3 (no matrix product: reports compare the ints of
    # contextuality's private _int_mat_mul).  No matrix type either: Mat3Q
    # had no constructor, view or operation left, and every caller read its
    # ints, so an observable is the pair (nine row-major ints, d^2) that
    # make_observable returns and CycleScenario holds.
    "E_X", "E_Y", "E_Z", "Vec3Q", "cross", "dot", "norm_sq",
    # contextuality
    "CycleScenario", "CycleValidationError", "UnitVectorQ", "correlator", "kcbs_value",
    "kcbs_value_via_projections", "make_observable", "reference_scenario", "validate_cycle",
    # hv_models
    "Assignment", "classical_min_cycle", "is_violation",
    # search
    "CircleParams", "SearchHit", "best_rational_approx", "build_pentagon", "circle_triple",
    "optimal_state_numeric", "rationalize_state", "search", "stereo_lift",
}


def test_exports_are_exactly_the_public_surface():
    # perfbench/tracing.py wraps the functions it finds among these exports:
    # a name dropped by accident would leave its per-layer metrics at zero.
    # Submodules are not exports, so "search" here is the function, which
    # shadows the module of the same name.
    names = {
        name for name, obj in vars(rational_kcbs).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names == EXPORTS


def test_cli_imports_no_typing():
    # annotations are strings and abstract types come from collections.abc,
    # so the command line never pays for importing typing; the value types
    # are plain classes that import dataclasses only to raise its
    # FrozenInstanceError, so it never pays for dataclasses and inspect
    # either.  -S keeps site hooks from importing them first
    src = Path(rational_kcbs.__file__).resolve().parents[1]
    code = (
        "import sys, rational_kcbs.cli; "
        "sys.exit(sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)) or None)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-S", "-c", code], env=env).returncode == 0


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a runtime check written as one
    # would vanish there; every check in the package raises explicitly
    package = Path(rational_kcbs.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (module.name, lines)


def _top_level(module: Path) -> tuple[set[str], set[str]]:
    """The names a module defines at its top level (functions, classes and
    assignment targets) and the names it imports."""
    defined, imported = set(), set()
    for node in ast.parse(module.read_text(encoding="utf-8"), filename=str(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name for alias in node.names)
    return defined, imported


def test_each_integer_format_has_one_owning_module():
    # contextuality alone holds the observable's nine ints and the kernels
    # that multiply them; rationals alone reads the fraction token's groups
    package = Path(rational_kcbs.__file__).resolve().parent
    tops = {module.stem: _top_level(module) for module in sorted(package.glob("*.py"))}
    owners = {
        "_int_mat_mul": {"contextuality"}, "_int_mat_vec": {"contextuality"},
        "_FRACTION_RE": {"rationals"}, "_ratio": {"rationals"},
        "_triple_ratios": {"rationals"},
    }
    for name, owner in owners.items():
        assert {stem for stem, (defined, _) in tops.items() if name in defined} == owner, name
    _, cli_imports = tops["cli"]
    assert cli_imports.isdisjoint({"_int_mat_mul", "_FRACTION_RE", "_ratio"}), cli_imports
