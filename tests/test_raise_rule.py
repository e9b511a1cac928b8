"""The error rule: every failure the package raises maps to one exit code.

The library raises only classes from ``errors.py`` (exit 2), and the CLI
also raises its ``_UsageError`` (exit 1).  A plain ``ValueError`` would
reach ``cli.main`` with no exit code of its own.
"""

import ast
import inspect
from pathlib import Path

import vesselxyz
from vesselxyz import errors

SRC = Path(vesselxyz.__file__).parent
ERROR_CLASSES = {
    name for name, obj in vars(errors).items()
    if inspect.isclass(obj) and issubclass(obj, Exception)
}
# Programming errors, which no input file or flag can cause: (file, function, class).
PROGRAMMING_ERRORS = {
    ("formats.py", "write_pfm", "TypeError"),  # given something that is not a map
}


def _raises(node, function="<module>"):
    """(line, enclosing function, raised class name or None) of every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            yield child.lineno, function, name
        yield from _raises(child, function)


def test_every_raise_names_an_error_class():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        allowed = ERROR_CLASSES | ({"_UsageError"} if path.name == "cli.py" else set())
        for line, function, name in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in allowed and (path.name, function, name) not in PROGRAMMING_ERRORS:
                stray.append(f"{path.name}:{line} {function}() raises {name}")
    assert not stray


def test_rule_sees_every_form_of_raise():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    def g():\n"
        "        raise errors.EmptyMask\n"
        "    try:\n"
        "        g()\n"
        "    except OSError:\n"
        "        raise\n"
    )
    assert list(_raises(ast.parse(source))) == [
        (3, "f", "ValueError"), (5, "g", "EmptyMask"), (9, "f", None),
    ]
