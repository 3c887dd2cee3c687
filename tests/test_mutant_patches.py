"""Every mutant of `mutants.py` still applies and names tests that exist.

The mutation runner is slow, so it is not part of Tier-1; without this
check a patch whose old text has moved, or a test that was renamed, would
show only when someone runs it.  Here each mutant's old text occurs exactly
once in its file, and each of its test ids, with any `[...]` parameters
stripped, names a top-level `def test_...` of the file it points at.
"""

import ast

import pytest

import mutants


def _top_level_functions(path: str) -> set[str]:
    tree = ast.parse((mutants.ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    source = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_names_existing_tests(mutant):
    assert mutant.tests or mutant.equivalent
    for test_id in mutant.tests:
        path, name = test_id.split("[")[0].split("::")
        assert name.startswith("test_") and name in _top_level_functions(path), test_id
