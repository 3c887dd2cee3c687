"""Mutation checks for the fast paths: `python tests/mutants.py [NAME ...]`.

Each mutant is one exact text patch of a file under `src/` or `tests/`,
with the test ids that must fail under it.  For each mutant the runner
copies `src/`, `tests/` and `pyproject.toml` (the pytest settings) to a
temporary directory, applies the patch there and runs the named tests with
`-x`.  The repository itself is never patched.

The exit status is nonzero when a mutant survives (its tests pass), when
a patch no longer applies because its old text is not found exactly once
(the code moved: update the mutant), or when pytest cannot run the tests.
An equivalent mutant, one that no test can kill because the program still
means the same, is listed with its reason; its patch must still apply, but
its tests are not run.

Pytest does not collect this file (its name has no `test_` prefix), and
Tier-1 does not run it: it is slow.  Only the standard library and pytest
are used.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PF, ROOTS, SUITES = "src/polyafreq/pf.py", "src/polyafreq/roots.py", "src/polyafreq/suites.py"
FORCED = "tests/test_suites.py::test_forced_failure_carries_its_witness"


@dataclasses.dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: str | None = None  # why no test can kill it


MUTANTS = [
    # Toeplitz minor scan (`pf._first_negative_minor`) and the guards of `minors_nonneg`
    Mutant(
        "expansion sign flipped",
        PF,
        "d += -term if j % 2 else term",
        "d += term if j % 2 else -term",
        ("tests/test_pf.py::test_minors_negative_witness", "tests/test_pf.py::test_first_negative_minor_at_each_order"),
    ),
    Mutant(
        "first sub-minor not shifted to column 0",
        PF,
        "get((tuple(r - c1 for r in below), tuple(c - c1 for c in cols[1:])), 0)",
        "get((below, cols[1:]), 0)",
        ("tests/test_pf.py::test_minors_negative_witness", "tests/test_pf.py::test_first_negative_minor_at_each_order"),
    ),
    Mutant(
        "band of the expansion off by one",
        PF,
        "if c > r0:",
        "if c >= r0:",
        ("tests/test_pf.py::test_minors_negative_witness", "tests/test_pf.py::test_first_negative_minor_at_each_order"),
    ),
    Mutant(
        "column sets one column wider than the band",
        PF,
        "range(max(cols[-1] + 1, r - deg), r + 1)",
        "range(max(cols[-1] + 1, r - deg - 1), r + 1)",
        ("tests/test_pf.py::test_admissible_count_matches_the_scan",),
    ),
    Mutant(
        "minor count refused before the elimination",
        PF,
        """    if order >= 2 and _neville_tn(a, n):
        return MinorReport(size, order)
    if _admissible_count(n, band, order) > MAX_MINORS:
        raise PreconditionError(
            f"a window of size {size} and bandwidth {deg} has more than {MAX_MINORS} "
            f"admissible minors of order up to {order}"
        )
""",
        """    if _admissible_count(n, band, order) > MAX_MINORS:
        raise PreconditionError(
            f"a window of size {size} and bandwidth {deg} has more than {MAX_MINORS} "
            f"admissible minors of order up to {order}"
        )
    if order >= 2 and _neville_tn(a, n):
        return MinorReport(size, order)
""",
        ("tests/test_cli.py::test_check_pf_minors_at_the_guard_boundary",),
    ),
    Mutant(
        "row bound refuses MAX_ROWS rows",
        PF,
        "if order >= 2 and n > MAX_ROWS:",
        "if order >= 2 and n >= MAX_ROWS:",
        ("tests/test_pf.py::test_minor_guard_bounds_the_rows",),
    ),
    # both root verdicts from one chain (`roots._rootedness`)
    Mutant(
        "a palindrome that x^2 divides counted simple-rooted",
        ROOTS,
        "return real, inside == 0 and gcd_degree == 0 and k <= 1 and g(-_TWO) != 0",
        "return real, inside == 0 and gcd_degree == 0 and g(-_TWO) != 0",
        ("tests/test_roots.py::test_palindromes_at_half_degree_match_one_chain_of_f",),
    ),
    Mutant(
        "a root of the half at -2 left out of simple-rootedness",
        ROOTS,
        "return real, inside == 0 and gcd_degree == 0 and k <= 1 and g(-_TWO) != 0",
        "return real, inside == 0 and gcd_degree == 0 and k <= 1",
        ("tests/test_roots.py::test_palindromes_at_half_degree_match_one_chain_of_f",),
    ),
    # products-3 (`suites._eval_products`)
    Mutant(
        "Hadamard product not trimmed of x^k",
        SUITES,
        "head = Poly._from_ints(list(out.nums[k:]), out.den)",
        "head = Poly._from_ints(list(out.nums[0:]), out.den)",
        (
            "tests/test_suites.py::test_products_match_the_check_route",
            "tests/test_suites.py::test_products_match_the_check_route_on_suite_cases[0]",
        ),
    ),
    Mutant(
        "real-rooted asked first",
        SUITES,
        "    if simple:\n        return None\n",
        "    if real:\n        return None\n",
        (f"{FORCED}[products-3:hadamard_product]", "tests/test_suites.py::test_products_match_the_check_route"),
    ),
    Mutant(
        "Hadamard check dropped",
        SUITES,
        '    if op == "hadamard":\n        return {"failed": "repeated nonzero root"}\n',
        "",
        (f"{FORCED}[products-3:hadamard_product]", "tests/test_suites.py::test_products_match_the_check_route"),
    ),
    Mutant(
        "inheritance check dropped",
        SUITES,
        '        if poly_gcd(g, g.derivative()) % squarefree_part(multiple) != ZERO:\n'
        '            return {"failed": "multiple root not inherited"}\n',
        "",
        (f"{FORCED}[products-3:hermite_poulain]", "tests/test_suites.py::test_products_match_the_check_route"),
    ),
    Mutant(
        "every product but Hermite-Poulain trimmed of x^k",
        SUITES,
        'if op == "hadamard":  # out = x^k * head',
        'if op != "hermite-poulain":  # out = x^k * head',
        equivalent="x^k * h is real-rooted exactly when h is, so for the five ops with no check of "
        "their own a trimmed head answers every question as the product does",
    ),
]


def _run(mutant: Mutant) -> tuple[bool, str]:
    """(passed, message): the mutant applies once and, unless it is
    equivalent, one of its tests fails."""
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    found = source.count(mutant.old)
    if found != 1:
        return False, f"patch no longer applies: old text found {found} times in {mutant.path}"
    if mutant.equivalent:
        return True, f"equivalent: {mutant.equivalent}"
    with tempfile.TemporaryDirectory(prefix="polyafreq-mutant-") as tmp:
        work = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / mutant.path).write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return False, "survived: " + ", ".join(mutant.tests)
    if done.returncode != 1:  # not a test failure: collection or usage error
        return False, f"pytest exit {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return True, "killed: " + (failed[0][len("FAILED "):] if failed else "a test failed")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for mutant in chosen:
        ok, message = _run(mutant)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {message}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed or equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
