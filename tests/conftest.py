"""Keep `polyafreq.*` in `sys.modules` as the test modules imported it.

`benchmark/run.py`'s `load_package()` deletes and re-imports the package,
so after a benchmark test has run, the `Poly` class and the functions that
a module here imported at collection are no longer the ones in
`sys.modules`: an `isinstance` test or a pickle by name then fails.  The
fixture is module-scoped so that it is in place before any module-scoped
fixture of a test module builds its data.
"""

import sys

import pytest

_COLLECTED: dict = {}


def pytest_collection_finish(session):
    _COLLECTED.update(
        (name, module) for name, module in sys.modules.items() if name.split(".")[0] == "polyafreq"
    )


@pytest.fixture(scope="module", autouse=True)
def collected_package():
    with pytest.MonkeyPatch.context() as mp:
        for name, module in _COLLECTED.items():
            mp.setitem(sys.modules, name, module)
        yield
