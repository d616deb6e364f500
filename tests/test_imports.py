"""The package has no runtime dependencies: every import in its modules
is relative or names a standard-library module.  A command that computes
no hull loads no hull code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magoglab"


def test_imports_are_relative_or_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"


# Only the commands that compute a hull load the hull layer: each command
# runs in a fresh interpreter, which reports its exit code and the hull
# modules it has loaded.
HULL_MODULES = ("magoglab.lp", "magoglab.polytope")
PROBE = f"""
import io, sys
import magoglab.cli
stdout, sys.stdout = sys.stdout, io.StringIO()
code = magoglab.cli.main(sys.argv[1:])
sys.stdout = stdout
print(code, *[m for m in {HULL_MODULES!r} if m in sys.modules])
"""
MATRIX = '{"kind":"matrix","n":3,"entries":[[1,0,0],[0,1,0],[0,0,1]]}'
TRIANGLE = '{"kind":"magog-triangle","n":3,"rows":[[1],[1,2],[1,2,3]]}'
NO_HULL_COMMANDS = [
    "enumerate --kind asm --n 4 --count",
    "enumerate --kind magog-triangle --n 4",
    "stats --kind magog --stat inv --n 5",
    "check --suite theorems --n-max 5",
    "check --suite conjectures --n-max 5",
    "check --suite tables --n-max 4 --tables table1,table2,table3,table4,table5,table6",
    "map --from matrix --input {matrix}",
    "map --from triangle --input {triangle}",
    "classify --input {matrix}",
]
HULL_COMMANDS = [
    "polytope membership --polytope tsscpp --input {matrix}",
    "ehrhart --polytope btp --n 3 --tmax 3",
    "check --suite tables --n-max 3 --tables table9",
]


def _run(code: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("MAGOGLAB_CEILING_OVERRIDE", None)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", NO_HULL_COMMANDS + HULL_COMMANDS)
def test_only_hull_commands_load_the_hull_layer(tmp_path, command):
    inputs = {"matrix": tmp_path / "matrix.json", "triangle": tmp_path / "triangle.json"}
    inputs["matrix"].write_text(MATRIX, encoding="utf-8")
    inputs["triangle"].write_text(TRIANGLE, encoding="utf-8")
    argv = command.format(**{k: str(v) for k, v in inputs.items()}).split()
    loaded = HULL_MODULES if command in HULL_COMMANDS else ()
    assert _run(PROBE, *argv).split() == ["0", *loaded]


def test_the_package_root_loads_the_hull_layer_on_first_access():
    code = ("import sys, magoglab\n"
            f"print(*[m in sys.modules for m in {HULL_MODULES!r}])\n"
            "magoglab.lp\n"
            f"print(*[m in sys.modules for m in {HULL_MODULES!r}])\n"
            "from magoglab import lp_membership\n"
            f"print(*[m in sys.modules for m in {HULL_MODULES!r}])\n")
    assert _run(code) == "False False\nTrue False\nTrue True\n"
