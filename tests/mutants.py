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
its tests are not run.  A run that outlasts `TIMEOUT_S` kills the mutant:
its process group is killed, and the mutant is reported as timed out.

Pytest does not collect this file (its name has no `test_` prefix), and
Tier-1 does not run it: it is slow.  Only the standard library and pytest
are used.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PF, ROOTS, SUITES = "src/polyafreq/pf.py", "src/polyafreq/roots.py", "src/polyafreq/suites.py"
COMBINATORICS, OPERATORS = "src/polyafreq/combinatorics.py", "src/polyafreq/operators.py"
JSONIO, POLYNOMIAL = "src/polyafreq/jsonio.py", "src/polyafreq/polynomial.py"
TRANSFORMS = "src/polyafreq/transforms.py"
FORCED = "tests/test_suites.py::test_forced_failure_carries_its_witness"
#: seconds one mutant's tests may run; a mutant that keeps a loop from
#: ending is killed at this bound, with every process of its session
TIMEOUT_S = 120


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
    # the window of the trimmed terms (`minors_nonneg`) and Neville elimination (`_neville_tn`)
    Mutant(
        "leading zeros not trimmed",
        PF,
        "lo, deg = support[0], support[-1]",
        "lo, deg = 0, support[-1]",
        ("tests/test_pf.py::test_neville_accepts_every_pf_window",),
    ),
    Mutant(
        "witness rows not shifted back by the trimmed zeros",
        PF,
        "tuple(r + lo for r in rows)",
        "tuple(rows)",
        ("tests/test_pf.py::test_leading_zeros_add_to_the_witness_rows", "tests/test_pf.py::test_minors_match_exhaustive_route"),
    ),
    Mutant(
        "elimination goes on past a negative entry",
        PF,
        "if p <= 0 or q < 0:",
        "if p <= 0:",
        ("tests/test_pf.py::test_neville_acceptance_is_sound",),
    ),
    Mutant(
        "elimination goes on under a zero pivot",
        PF,
        "if p <= 0 or q < 0:",
        "if p < 0 or q < 0:",
        equivalent="with p = 0 < q, row i becomes -q times row i - 1 right of column j, which has a "
        "positive diagonal entry; a column where row i - 1 is nonzero before that entry refuses at once, "
        "and that entry's column refuses at its negative multiple in row i",
    ),
    # the prefix walk (`combinatorics._descent_walk`)
    Mutant(
        "a run emitted out of order kept",
        COMBINATORICS,
        "if (run + low) & run:",
        "if run & (low - 1):",
        ("tests/test_combinatorics.py::test_stack_sort_degenerations", "tests/test_combinatorics.py::test_t_stack_poly_matches_recursive_oracle"),
    ),
    # both root verdicts from one chain (`roots.rootedness`)
    Mutant(
        "a palindrome that x^2 divides counted simple-rooted",
        ROOTS,
        "return real, inside == 0 and gcd_degree == 0 and k <= 1 and horner(g.nums, -2) != 0",
        "return real, inside == 0 and gcd_degree == 0 and horner(g.nums, -2) != 0",
        (
            "tests/test_roots.py::test_palindromes_at_half_degree_match_one_chain_of_f",
            "tests/test_roots.py::test_simple_rootedness_of_x_power_palindromes_reads_the_half",
        ),
    ),
    Mutant(
        "a root of the half at -2 left out of simple-rootedness",
        ROOTS,
        "return real, inside == 0 and gcd_degree == 0 and k <= 1 and horner(g.nums, -2) != 0",
        "return real, inside == 0 and gcd_degree == 0 and k <= 1",
        ("tests/test_roots.py::test_palindromes_at_half_degree_match_one_chain_of_f",),
    ),
    # the one bisection (`roots._sample_points`)
    Mutant(
        "split point left on a root",
        ROOTS,
        "        if not all(firsts):\n            return None\n",
        "",
        ("tests/test_roots.py::test_sample_points_separate_the_roots", "tests/test_roots.py::test_real_rootedness_reads_one_chain"),
    ),
    Mutant(
        "first member read twice at a split point",
        ROOTS,
        "sign * _sign_changes([first > 0, *_signs(chain[1:], a, b)])",
        "sign * _sign_changes([first > 0, *_signs(chain, a, b)[1:]])",
        ("tests/test_roots.py::test_sample_points_read_each_member_once_per_split_point",),
    ),
    # root dominance on the chains of f, g and c (`roots.root_dominance`), counted by `roots._descartes_count`
    Mutant(
        "common roots of f and g counted twice",
        ROOTS,
        "        chains.append((sturm_chain(Poly._from_ints(c, c[-1])), -1))\n",
        "        pass\n",
        ("tests/test_roots.py::test_dominance_points_separate_the_roots_of_the_product",),
    ),
    Mutant(
        "bisection bounded by the smaller root bound",
        ROOTS,
        "_sample_points(chains, max(bounds))",
        "_sample_points(chains, min(bounds))",
        ("tests/test_roots.py::test_dominance_points_separate_the_roots_of_the_product",),
    ),
    Mutant(
        "a zero coefficient counted as a sign",
        ROOTS,
        "return _sign_changes([v > 0 for v in c if v])",
        "return _sign_changes([v > 0 for v in c])",
        (
            "tests/test_roots.py::test_taylor_shift_count_matches_derivative_values",
            "tests/test_roots.py::test_root_dominance_matches_isolation_route",
        ),
    ),
    # the closed interval of `roots._within`, from two Descartes counts
    Mutant(
        "roots above hi let through",
        ROOTS,
        "hi == POS_INF or _descartes_count(f, hi) == 0",
        "True",
        ("tests/test_roots.py::test_roots_within", "tests/test_roots.py::test_one_chain_route_matches_yun_route"),
    ),
    Mutant(
        "roots below lo let through",
        ROOTS,
        "lo == NEG_INF or _descartes_count(f.affine_compose(-1, 0), -lo) == 0",
        "True",
        ("tests/test_roots.py::test_roots_within", "tests/test_roots.py::test_one_chain_route_matches_yun_route"),
    ),
    Mutant(
        "lo read on f instead of f(-x)",
        ROOTS,
        "_descartes_count(f.affine_compose(-1, 0), -lo)",
        "_descartes_count(f, lo)",
        ("tests/test_roots.py::test_roots_within", "tests/test_roots.py::test_one_chain_route_matches_yun_route"),
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
    # the operator conditions (`operators._condition_one`, `_condition_two`), one witness or None
    Mutant(
        "condition (i) passes a non-real-rooted slice",
        OPERATORS,
        'return ("non-real-rooted z-slice at xi", xi)',
        "return None",
        ("tests/test_operators.py::test_check_maincor_refutation",),
    ),
    Mutant(
        "condition (ii) drops its leading-sign witness",
        OPERATORS,
        'return ("leading signs differ", None)',
        "return None",
        ("tests/test_operators.py::test_condition_two_names_its_one_witness",),
    ),
    # E_q as the unitized A_q (`combinatorics.e_q_poly`)
    Mutant(
        "E_q unitized with sign -1",
        COMBINATORICS,
        "return unitize_with_degree(q_eulerian_poly(n, q), n)",
        "return unitize_with_degree(q_eulerian_poly(n, q), n, sign=-1)",
        ("tests/test_combinatorics.py::test_e_q_identity_and_degree_law",),
    ),
    # A_q as one integer pass per step (`combinatorics.q_eulerian_poly`)
    Mutant(
        "A_q recurrence weight off by one",
        COMBINATORICS,
        "(m - k + 1) * s * y",
        "(m - k) * s * y",
        ("tests/test_combinatorics.py::test_q_eulerian_matches_the_poly_recursion",),
    ),
    # the wire on integer numerators (`jsonio.poly_from_dict`, `jsonio.poly_to_dict`)
    Mutant(
        "grammar accepts a zero or signed denominator",
        JSONIO,
        "(?:/(0*[1-9][0-9]*))?",
        "(?:/([+-]?[0-9]+))?",
        ("tests/test_integer_kernels.py::test_each_wire_text_parses_as_fraction_does",),
    ),
    Mutant(
        "poly_to_dict skips its gcd",
        JSONIO,
        "g = math.gcd(p, den)",
        "g = 1",
        ("tests/test_integer_kernels.py::test_poly_to_dict_matches_fraction_per_coefficient",),
    ),
    # the one Taylor-shift loop and its users (`polynomial._taylor_shift`, `Poly.affine_compose`,
    # `unitize_with_degree`, `root_multiplicity`, `roots._descartes_count`)
    Mutant(
        "Taylor shift stops one coefficient short",
        POLYNOMIAL,
        "for j in range(d - 1, i - 1, -1):",
        "for j in range(d - 1, i, -1):",
        (
            "tests/test_roots.py::test_taylor_shift_count_matches_derivative_values",
            "tests/test_roots.py::test_root_dominance_matches_isolation_route",
        ),
    ),
    Mutant(
        "unitize without the zero padding",
        POLYNOMIAL,
        "[0] * (d + 1 - len(f.nums)) + list(reversed(f.nums))",
        "list(reversed(f.nums))",
        ("tests/test_integer_kernels.py::test_unitize_matches_the_power_sum",),
    ),
    Mutant(
        "root multiplicity counted from 1",
        POLYNOMIAL,
        "next(k for k, v in enumerate(c) if v)",
        "next(k for k, v in enumerate(c, 1) if v)",
        ("tests/test_poly_representation.py::test_root_multiplicity_matches",),
    ),
    Mutant(
        "affine_compose scales by s^k instead of s^(d-k)",
        POLYNOMIAL,
        "s ** (d - k)",
        "s ** k",
        ("tests/test_poly_representation.py::test_affine_compose_matches",),
    ),
    # the one convolution loop and the operator kernels on it (`polynomial._convolve`,
    # `operators.apply_phi`, `operators._derivative_sum`)
    Mutant(
        "convolution skips index 0 instead of a zero coefficient",
        POLYNOMIAL,
        "        if y:\n",
        "        if j:\n",
        ("tests/test_polynomial.py::test_mul_square", "tests/test_poly_representation.py::test_ring_operations_match"),
    ),
    Mutant(
        "apply_phi drops its lcm // Q_k.den scaling",
        OPERATORS,
        "term, m = _convolve(qk.nums, fk), den // qk.den",
        "term, m = _convolve(qk.nums, fk), 1",
        ("tests/test_operators.py::test_linear_kernels_match_defining_sums",),
    ),
    Mutant(
        "Horner weight one power of w.den too high",
        OPERATORS,
        "acc, wpow = [], 1",
        "acc, wpow = [], w.den",
        ("tests/test_operators.py::test_bilinear_kernels_match_defining_sums",),
    ),
    # the one derivative loop (`polynomial._derivative`)
    Mutant(
        "derivative weights x^i by i + 1",
        POLYNOMIAL,
        "return [i * c for i, c in enumerate(nums)][1:]",
        "return [i * c for i, c in enumerate(nums, 1)][1:]",
        (
            "tests/test_poly_representation.py::test_derivative_matches",
            "tests/test_operators.py::test_linear_kernels_match_defining_sums",
        ),
    ),
    # the one Horner loop (`polynomial.horner`), the signs `roots` reads off it and
    # the values of `transforms.e_transform`
    Mutant(
        "difference table of E one value short",
        TRANSFORMS,
        "values = [horner(f.nums, j) for j in range(len(f.nums))]",
        "values = [horner(f.nums, j) for j in range(len(f.nums) - 1)]",
        ("tests/test_transforms.py::test_e_transform_frozen",),
    ),
    Mutant(
        "Horner drops the powers of b",
        POLYNOMIAL,
        "        acc = acc * a + c * bpow\n",
        "        acc = acc * a + c\n",
        ("tests/test_integer_kernels.py::test_horner_matches_one_fraction_per_value",),
    ),
    Mutant(
        "Horner reads the coefficients constant term first",
        POLYNOMIAL,
        "    for c in reversed(nums):\n        acc = acc * a + c * bpow\n",
        "    for c in nums:\n        acc = acc * a + c * bpow\n",
        ("tests/test_integer_kernels.py::test_horner_matches_one_fraction_per_value",),
    ),
    Mutant(
        "a zero member counted as positive",
        ROOTS,
        "        if v:\n            signs.append(v > 0)\n",
        "        signs.append(v >= 0)\n",
        ("tests/test_integer_kernels.py::test_sign_variations_match_one_fraction_per_member",),
    ),
    Mutant(
        "v >= 0 read as the sign",
        ROOTS,
        "            signs.append(v > 0)\n",
        "            signs.append(v >= 0)\n",
        equivalent="a zero value is skipped before its sign is read, so v >= 0 and v > 0 agree on every value read",
    ),
    Mutant(
        "root multiplicity 0 returned at a root",
        POLYNOMIAL,
        "    if horner(f.nums, a, b):\n        return 0\n",
        "    if not horner(f.nums, a, b):\n        return 0\n",
        ("tests/test_poly_representation.py::test_root_multiplicity_matches",),
    ),
    Mutant(
        "root multiplicity shifts off a root",
        POLYNOMIAL,
        "    if horner(f.nums, a, b):\n        return 0\n",
        "",
        ("tests/test_poly_representation.py::test_root_multiplicity_shifts_only_at_a_root",),
    ),
    # the Eulerian family (`combinatorics.eulerian_poly`)
    Mutant(
        "Eulerian polynomial read at cycle weight 2",
        COMBINATORICS,
        "return X * q_eulerian_poly(n, 1)",
        "return X * q_eulerian_poly(n, 2)",
        ("tests/test_combinatorics.py::test_eulerian_matches_the_surjection_route",),
    ),
    # the digit limit of `jsonio.rational_from_str`
    Mutant(
        "a value of exactly 10^limit let through",
        JSONIO,
        "return n.bit_length() > 3 * limit and n >= 10**limit",
        "return n.bit_length() > 3 * limit and n > 10**limit",
        ("tests/test_cli.py::test_coefficient_digits_are_bounded_by_the_int_limit",),
    ),
    Mutant(
        "a digit string past the limit called malformed",
        JSONIO,
        'if not (limit and any(len(d) - d.count("_") > limit for d in _DIGITS.findall(text))):',
        "if True:",
        ("tests/test_cli.py::test_coefficient_digits_are_bounded_by_the_int_limit",),
    ),
    Mutant(
        "a message quotes the whole text",
        JSONIO,
        "return repr(text) if len(text) <= 20 else",
        "return repr(text) if True else",
        ("tests/test_cli.py::test_coefficient_digits_are_bounded_by_the_int_limit",),
    ),
    Mutant(
        "the exponent applied to zero",
        JSONIO,
        "    if exponent is not None and value:\n",
        "    if exponent is not None:\n",
        ("tests/test_integer_kernels.py::test_rational_from_str_refuses_a_huge_exponent_before_building_it",),
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
        child = subprocess.Popen(
            argv, cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return True, f"killed: timed out after {TIMEOUT_S} s"
    if child.returncode == 0:
        return False, "survived: " + ", ".join(mutant.tests)
    if child.returncode != 1:  # not a test failure: collection or usage error
        return False, f"pytest exit {child.returncode}:\n{stdout[-2000:]}{stderr[-2000:]}"
    failed = [line for line in stdout.splitlines() if line.startswith("FAILED")]
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
