"""Module layering: every package-relative import points down the module DAG."""

import ast
from pathlib import Path

import vesselxyz

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
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:  # from . import __version__
                continue
            yield node.lineno, node.module.split(".")[0]


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} == set(DEPENDS_ON)


def test_imports_point_down_the_dag():
    upward = [
        f"{path.name}:{line} imports .{target}"
        for path in sorted(SRC.glob("*.py"))
        for line, target in _relative_imports(path)
        if target not in _below(path.stem)
    ]
    assert not upward
