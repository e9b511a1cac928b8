"""Module layering: imports point down the module DAG, and scipy loads only for Chamfer.

No product or 1-D norm in the package goes through BLAS either.
"""

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
    """(line, sibling module, imported names) of every relative import.

    ``from . import name`` imports the sibling module ``name``, with no names
    from it.  ``__version__`` is the one other name allowed there; it yields
    nothing, and any other name that is no module fails the DAG check.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                yield node.lineno, node.module.split(".")[0], [alias.name for alias in node.names]
                continue
            for alias in node.names:
                if alias.name != "__version__":
                    yield node.lineno, alias.name, []


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(DEPENDS_ON)


def _upward(path: Path) -> list:
    """``file:line imports .target`` of every import not below the module in the DAG."""
    return [f"{path.name}:{line} imports .{target}"
            for line, target, _ in _relative_imports(path) if target not in _below(path.stem)]


def test_imports_point_down_the_dag():
    assert not [site for path in sorted(SRC.glob("*.py")) for site in _upward(path)]


def test_bare_sibling_imports_are_checked_too(tmp_path):
    lower = tmp_path / "geometry.py"
    lower.write_text("from . import __version__\nfrom . import errors, metrics as m, typo\n")
    assert _upward(lower) == ["geometry.py:2 imports .metrics", "geometry.py:2 imports .typo"]


def test_no_module_imports_a_private_name_of_another():
    private = [
        f"{path.name}:{line} imports .{target}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for line, target, names in _relative_imports(path)
        for name in names
        if name.startswith("_")
    ]
    assert not private


BLAS_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot"}


def _blas_sites(path: Path):
    """``file:line what`` of every ``@``, BLAS-backed product call and axis-less ``linalg.norm``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield f"{path.name}:{node.lineno} @"
        elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr
            if name in BLAS_CALLS:
                yield f"{path.name}:{node.lineno} {name}"
            elif (name == "norm" and isinstance(func, ast.Attribute)
                  and ast.unparse(func.value).endswith("linalg")
                  and not any(k.arg == "axis" for k in node.keywords)):
                yield f"{path.name}:{node.lineno} linalg.norm without axis="


def test_no_three_vector_arithmetic_goes_through_blas():
    # OpenBLAS picks its kernel per CPU and sums in the kernel's order, so a
    # product or 1-D norm through it can move artifact bytes between
    # machines.  geometry's cross, sq_norm and rotate sum in a fixed order.
    # np.linalg.det stays: it feeds only the rotation check's 1e-9 tolerance.
    sites = [site for path in sorted(SRC.glob("*.py")) for site in _blas_sites(path)]
    assert not sites


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
