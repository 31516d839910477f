"""The package's public surface and README's library quick start."""

import ast
import importlib
from pathlib import Path

import qlens

MODULES = ("classify", "equivalence", "errors", "invariants", "lensgraph", "numtheory", "pathmatrix")

# The names qlens exported when its __init__ listed them by hand; none may go.
EXPORTED_BEFORE = frozenset(
    {
        "BadModulusError", "BudgetExceededError", "ClassPartition", "ClassRecord",
        "ConjectureReport", "CornerObstruction", "DimensionMismatchError",
        "DivisibilityCheck", "DivisibilityReport", "EquivDecision",
        "HypothesisUnmetError", "IndexOutOfRangeError", "InputError",
        "InvalidParamsError", "InvariantViolationError", "LensGraph", "LensParams",
        "NonIntegerResultError", "NonUnitError", "NotFoundBelow", "NotPrimeError",
        "PathMatrix", "QlensError", "Signature", "TooLargeError", "Witness",
        "build_graph", "check_divisibility", "closed_form_all_ones",
        "congruence_main", "count_matrix", "decide_equiv", "enumerate_legal_paths",
        "enumerate_matrices", "lower_bound_classes", "normalize",
        "obstruction_mod_k", "partition_classes", "phitilde_formula",
        "phitilde_search", "poly_1to6", "scale", "signature", "solve_diophantine",
        "submatrix_necessary", "to_dot", "verify_conjectures", "verify_witness",
    }
)


def test_public_surface_is_the_modules_all():
    modules = [importlib.import_module(f"qlens.{name}") for name in MODULES]
    combined = [name for module in modules for name in module.__all__]
    assert qlens.__all__ == combined
    assert len(set(combined)) == len(combined)
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}, which it lacks"
            assert getattr(qlens, name) is getattr(module, name)
    assert not EXPORTED_BEFORE - set(qlens.__all__)


def test_readme_library_quick_start_runs():
    # each expression is followed by its repr, as a comment on its last line
    # or on the line after it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        result = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        line = lines[stmt.end_lineno - 1]
        if "#" not in line:
            line = lines[stmt.end_lineno]
        expected = line.split("#", 1)[1].strip()
        assert repr(result) == expected, ast.unparse(stmt)
        checked.append(expected)
    assert len(checked) == 8
