"""Module layering: imports point down the module DAG, and scipy loads only for Chamfer."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vesselxyz

from conftest import oracle_chamfer

# Each module's direct dependencies; a module may import anything these
# reach.  The data model sits at the bottom with three pipelines above it:
# losses -> metrics, procgen/bvh -> renderer, formats -> manifest, and
# evaluation and the CLI on top.
DEPENDS_ON = {
    "errors": (),
    "geometry": ("errors",),
    "losses": ("geometry",),
    "metrics": ("losses",),
    "procgen": ("geometry",),
    "bvh": ("geometry",),
    "renderer": ("bvh", "procgen"),
    "formats": ("geometry",),
    "manifest": ("formats", "renderer"),
    "report": (),
    "evaluation": ("manifest", "metrics", "report"),
    "cli": ("evaluation",),
}
DEPENDS_ON["__init__"] = tuple(DEPENDS_ON)

SRC = Path(vesselxyz.__file__).parent


def _below(module: str) -> set:
    seen, todo = set(), list(DEPENDS_ON[module])
    while todo:
        dep = todo.pop()
        if dep not in seen:
            seen.add(dep)
            todo.extend(DEPENDS_ON[dep])
    return seen


def _relative_imports(path: Path):
    """(line, sibling module, imported names) of every ``from .module import ...``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import __version__
                continue
            yield node.lineno, node.module.split(".")[0], [alias.name for alias in node.names]


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(DEPENDS_ON)


def test_imports_point_down_the_dag():
    upward = [
        f"{path.name}:{line} imports .{target}"
        for path in sorted(SRC.glob("*.py"))
        for line, target, _ in _relative_imports(path)
        if target not in _below(path.stem)
    ]
    assert not upward


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{path.name}:{line} imports .{target}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for line, target, names in _relative_imports(path)
        for name in names
        if name.startswith("_")
    ]
    assert not private


# scipy serves only metrics.chamfer, which imports it on its first call.
def _fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout


def test_importing_the_package_or_cli_loads_no_scipy():
    code = "import sys, vesselxyz, vesselxyz.cli; print([m for m in sys.modules if 'scipy' in m])"
    assert _fresh_python(code).strip() == "[]"


def test_generate_loads_no_scipy_and_chamfer_loads_it(tmp_path):
    code = f"""
import json, sys
import numpy as np
from vesselxyz.cli import main
from vesselxyz.metrics import chamfer
assert main(["generate", "--seeds", "1", "--resolution", "32", "--out", {str(tmp_path)!r}]) == 0
before = "scipy" in sys.modules
a, b = np.random.default_rng(5).normal(size=(2, 40, 3))
print(json.dumps([before, chamfer(a, b), "scipy.spatial" in sys.modules, a.tolist(), b.tolist()]))
"""
    before, value, after, a, b = json.loads(_fresh_python(code).splitlines()[-1])
    assert (before, after) == (False, True)
    assert value == pytest.approx(oracle_chamfer(np.array(a), np.array(b)), abs=1e-12)
