"""Static checks on the package source, by `ast`.

Every name that a module imports is used in that module: an import binds a
name, and the module must read that name somewhere.  Every top-level
function, class and module constant, private or public, is read by package
code other than its own definition, so a helper or a setting that no suite
or command reaches cannot stay.  `__init__.py` is left out of both, since it
imports names only to re-export them.  One function runs the remainder loop:
only `_remainder_sequence` calls `_primitive_remainder`.  The polynomial
constants are bound once, in `polynomial`, and imported everywhere else.
"""

import ast
import pathlib

import pytest

import polyafreq

MODULES = sorted(
    p for p in pathlib.Path(polyafreq.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_unused_names():
    source = "import os\nimport a.b\nfrom x import y as z, w\nz(a.b.c)\n"
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _read_names(node) -> set[str]:
    """Names that node reads, bare or as an attribute such as `roots.name`."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _defined_names(node) -> list[str]:
    """Names that a top-level statement defines: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unread_definitions(sources: list[str]) -> list[str]:
    """Top-level functions, classes and constants that no other statement reads."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = _read_names(node)
            for name in _defined_names(node):
                defined.add(name)
                names.discard(name)
            read |= names
    return sorted(defined - read)


def test_checker_finds_unread_definitions():
    sources = [
        "def used(): pass\ndef unused(): return unused()\nclass Box: pass\n"
        "def _private(): pass\ndef _helper(): pass\n_CAP = 10\nLIMIT: int = 2\nN = N0 = 1\n",
        "import m\nused()\nm.Box\n_helper()\nN0\n",
    ]
    assert unread_definitions(sources) == ["LIMIT", "N", "_CAP", "_private", "unused"]


def test_every_public_definition_is_read():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_definitions(sources) == []


def callers_of(sources: list[str], name: str) -> list[str]:
    """Functions, nested ones included, whose bodies call name."""
    out = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (sub.func for sub in ast.walk(node) if isinstance(sub, ast.Call))
                if any(getattr(f, "id", getattr(f, "attr", None)) == name for f in calls):
                    out.append(node.name)
    return sorted(out)


def test_checker_finds_callers():
    source = "def a():\n    x.f(1)\ndef b():\n    return f\ndef c():\n    def d():\n        f()\n"
    assert callers_of([source], "f") == ["a", "c", "d"]


def test_one_remainder_loop():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert callers_of(sources, "_primitive_remainder") == ["_remainder_sequence"]


SHARED_CONSTANTS = ("X", "XP1", "ONE", "ZERO")


def rebound_constants(sources: dict[str, str]) -> list[str]:
    """`module.NAME` for each shared constant that a top-level assignment
    binds in a module other than `polynomial`."""
    out = []
    for module, source in sources.items():
        if module == "polynomial":
            continue
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
                out += [f"{module}.{name}" for name in SHARED_CONSTANTS if name in bound]
    return sorted(out)


def test_checker_finds_rebound_constants():
    sources = {
        "polynomial": "ONE = Poly([1])\nX = Poly([0, 1])\n",
        "a": "from .polynomial import ONE\nX = Poly([0, 1])\nXP1: Poly = X + ONE\n",
        "b": "ZERO, Y = Poly(), 2\ndef f():\n    ONE = 1\n    return ONE\n",
    }
    assert rebound_constants(sources) == ["a.X", "a.XP1", "b.ZERO"]


def test_shared_constants_are_bound_once():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert rebound_constants(sources) == []
