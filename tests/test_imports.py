"""Every name that a module of the package imports is used in that module.

A static check on the source, by `ast`: an import binds a name, and the
module must read that name somewhere.  `__init__.py` is left out, since it
imports names only to re-export them.
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
