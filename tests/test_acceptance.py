"""Acceptance criteria, one test per criterion.

Every check is exact (literal equality / exact Sturm verdicts); each test
prints a single pass/fail line with its runtime and enforces the stated
time budget.  Every case of a suite must pass, except at the boundary cases
of ``boundary_cases.py``: there the claims of ``cor-6-10`` (criterion 06)
and ``thm-7-1`` (criterion 08) are false, the suites correctly report them
as failures, and the tests require exactly those failures.  Each of their
witnesses is replayed through the CLI and proved by ``Poly`` arithmetic
alone, without the root-finding module.
"""

import json
import shlex
import time
from fractions import Fraction

from polyafreq.cli import main
from polyafreq.combinatorics import fz_h_poly, weyl_combination
from polyafreq.config import RunConfig
from polyafreq.jsonio import poly_from_json
from polyafreq.polynomial import Poly
from polyafreq.suites import run_suite

from boundary_cases import boundary_ids
from combinatorics_oracle import signed_perm_stats

XP1 = Poly([1, 1])


def _run(number, label, suite, max_n, budget_s):
    t0 = time.perf_counter()
    report = run_suite(suite, RunConfig(max_n=max_n, seed=0))
    elapsed = time.perf_counter() - t0
    fails = [c for c in report.cases if not c.verdict]
    status = "PASS" if not fails else f"FAIL ({len(fails)}/{len(report.cases)} cases)"
    print(f"ACCEPTANCE {number:02d} {label}: {status} [{elapsed:.2f} s]")
    assert elapsed < budget_s, f"{label}: {elapsed:.2f} s exceeded the {budget_s} s budget"
    boundary = set(boundary_ids(suite, report.cases))
    detail = [(c.case_id, c.witness) for c in fails if c.case_id not in boundary]
    assert not detail, f"{label}: failing cases {detail}"
    missing = sorted(boundary - {c.case_id for c in fails})
    assert not missing, f"{label}: boundary cases no longer reported {missing}"
    return fails


def _replay(capsys, witness) -> Poly:
    """Run a witness's repro command in-process; return the polynomial it checks."""
    argv = shlex.split(witness["repro"])
    assert argv[:3] == ["polyafreq", "check", "simple"], argv
    assert main(argv[1:]) == 1, argv
    assert json.loads(capsys.readouterr().out) == {"kind": "simple", "verdict": False}
    return poly_from_json(argv[argv.index("--poly") + 1])


def _alternates_strictly(f: Poly) -> bool:
    """Signs alternate with no zero coefficient, so f has no root t <= 0."""
    cs = f.coeffs
    return all(cs[k] * cs[k + 1] < 0 for k in range(len(cs) - 1))


def test_criterion_01_exact_identity_suite(capsys):
    with capsys.disabled():
        _run(1, "exact identities (shift, reflection, degree law)", "lemmas-4-3-4-5", 20, 5)


def test_criterion_02_two_stack_descent_counts(capsys):
    with capsys.disabled():
        _run(2, "two-pass stack-sort counts are PF + oracle", "thm-5-2", 12, 60)


def test_criterion_03_deformed_descent_family(capsys):
    with capsys.disabled():
        _run(3, "deformed descent family rooted/interlacing/discriminant", "thm-5-3", 10, 10)


def test_criterion_04_negative_cycle_weights(capsys):
    with capsys.disabled():
        _run(4, "negative integer cycle weights stay real-rooted", "thm-6-4", 10, 10)


def test_criterion_05_interlacing_chain(capsys):
    with capsys.disabled():
        _run(5, "signed-descent interlacing chain", "chain-6", 8, 10)


def test_criterion_06_subset_restrictions(capsys):
    # For S = {0, n} with n even, P(B_n, S; x) is palindromic of even degree
    # with P(-1) = 0, hence a double root at -1 (boundary_cases.py): the
    # simplicity clause is false there and the suite reports it.
    with capsys.disabled():
        fails = _run(6, "subset-restricted signed descent polynomials", "cor-6-10", 6, 60)
    factorisations = {2: XP1 ** 2, 4: XP1 ** 2 * Poly([1, 10, 1])}
    for case in fails:
        n = case.params["n"]
        p = _replay(capsys, case.witness)
        assert p == signed_perm_stats(n).restricted_descent_poly({0, n}), case.case_id
        assert p.degree == n and n % 2 == 0, case.case_id
        assert p.reversed_coeffs() == p and p(-1) == 0, case.case_id
        assert p.derivative()(-1) == 0, case.case_id
        if n in factorisations:
            assert p == factorisations[n], case.case_id


def test_criterion_07_multivariate_identity(capsys):
    with capsys.disabled():
        _run(7, "multivariate signed-descent identity", "thm-6-5", 5, 30)


def test_criterion_08_cluster_h_combinations(capsys):
    # The low-rank combinations of boundary_cases.py are counterexamples to
    # the claim: double roots at n = 2 and n = 4, no real zero for (2, -3)
    # at n = 2, and at n = 3 a root of h_B(2) below every root of F.
    with capsys.disabled():
        fails = _run(8, "cluster-complex h-polynomial combinations", "thm-7-1", 12, 10)
    for case in fails:
        params = case.params
        n = params["n"]
        if params["kind"] == "dfamily":
            family = fz_h_poly("D", n)
        else:
            family = weyl_combination(n, Fraction(params["alpha"]), Fraction(params["beta"]))
        if n == 3:
            # F = (1+x)(2+7x+2x^2); F(y - 7/2) alternates strictly in sign,
            # so F has no root at or below -7/2.  h_B(2) goes from 1 at -4 to
            # -3/4 at -7/2, so it has a root in (-4, -7/2): it cannot
            # interlace F.
            assert case.witness == {"relation": "none"}, case.case_id
            assert family == XP1 * Poly([2, 7, 2])
            assert _alternates_strictly(family.affine_compose(1, Fraction(-7, 2)))
            lower = fz_h_poly("B", 2)
            assert lower(-4) == 1 and lower(Fraction(-7, 2)) == Fraction(-3, 4)
            continue
        p = _replay(capsys, case.witness)
        assert p == family, case.case_id
        if params["kind"] == "dfamily" or params["alpha"] == "1":
            assert p == XP1 ** 2, case.case_id
        elif n == 2:
            # 2(1+x+x^2) = 2(x+1/2)^2 + 3/2 > 0 on the real line
            assert p == Poly([2, 2, 2]), case.case_id
            assert p == (Poly([Fraction(1, 2), 1]) ** 2).scale(2) + Poly([Fraction(3, 2)])
        else:
            assert p == (XP1 ** 2 * Poly([1, 8, 1])).scale(2), case.case_id


def test_criterion_09_product_property_suites(capsys):
    with capsys.disabled():
        _run(9, "bilinear product rootedness (200 instances each)", "products-3", 10, 60)


def test_criterion_10_pf_toeplitz_coherence(capsys):
    with capsys.disabled():
        _run(10, "PF windows pass exhaustive minors; counterexample refuted", "pf-coherence", 10, 30)


def test_criterion_11_nonneg_basis_images(capsys):
    with capsys.disabled():
        _run(11, "nonnegative basis combinations map to squeezed simple images", "thm-4-2", 12, 30)
