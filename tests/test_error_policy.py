"""Every check of a caller's argument raises ValidationFailure, which the
CLI reports with exit 1; a bare ValueError or TypeError would reach it as
an internal error (exit 3).  The one ValueError left is ValidationReport's
check of its own invariant."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magoglab"
MODULES = ("core", "enumeration", "lp", "polytope", "serialize", "cli")


def _bare_raises(tree, name):
    """The dotted name of the definition around each `raise name`."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == name:
                    yield ".".join(scope) or "<module>"
            yield from visit(child, scope)

    return list(visit(tree, ()))


def _found(name):
    found = []
    for module in MODULES:
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [(module, where) for where in _bare_raises(tree, name)]
    return found


def test_argument_checks_raise_no_bare_value_error():
    assert _found("ValueError") == [("core", "ValidationReport.__post_init__")]


def test_argument_checks_raise_no_type_error():
    assert _found("TypeError") == []
