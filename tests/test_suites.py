import ast
import collections
import json
import shlex
from fractions import Fraction

import pytest

from polyafreq import cli, roots, suites
from polyafreq.combinatorics import b_euler_q, multisect, p_dn_poly
from polyafreq.config import RunConfig
from polyafreq.errors import ExactDivisionError
from polyafreq.jsonio import poly_to_dict, rational_from_str
from polyafreq.polynomial import Poly, ZERO, poly_gcd
from polyafreq.roots import ALTERNATING_RELATIONS, INTERLACING_RELATIONS, InterlaceRelation
from polyafreq.suites import SUITE_NAMES, run_suite

from boundary_cases import boundary_ids

SMALL = {
    "lemmas-4-3-4-5": 8,
    "thm-4-2": 4,
    "thm-4-7": 4,
    "thm-5-2": 5,
    "thm-5-3": 5,
    "thm-6-4": 5,
    "chain-6": 4,
    "cor-6-10": 3,
    "thm-6-5": 3,
    "thm-7-1": 5,
    "products-3": 4,
    "maincor-3-6": 4,
    "polya-line": 4,
    "pf-coherence": 5,
    "oracle-coherence": 5,
    "brenti-omega": 4,
}

# cor-6-10 and thm-7-1 correctly report counterexamples to their claims at
# the boundary cases of boundary_cases.py: palindromic polynomials with a
# double root at -1, and low-rank cluster combinations.  Every other case of
# every suite passes.


@pytest.mark.parametrize("name", sorted(SMALL))
def test_suite_runs_and_reports(name):
    report = run_suite(name, RunConfig(max_n=SMALL[name], seed=0))
    assert report.cases, name
    fails = [c for c in report.cases if not c.verdict]
    assert [c.case_id for c in fails] == boundary_ids(name, report.cases), name
    ids = [c.case_id for c in report.cases]
    assert ids == sorted(ids)
    payload = report.to_dict()
    json.dumps(payload)  # must be serializable
    assert payload["exit_code"] == (0 if not fails else 1)


def test_determinism_across_runs():
    a = run_suite("products-3", RunConfig(max_n=3, seed=11))
    b = run_suite("products-3", RunConfig(max_n=3, seed=11))
    assert [c.to_dict() for c in a.cases] == [c.to_dict() for c in b.cases]
    c = run_suite("products-3", RunConfig(max_n=3, seed=12))
    assert [x.to_dict() for x in a.cases] != [x.to_dict() for x in c.cases]


def test_jobs_equivalence():
    serial = run_suite("thm-6-4", RunConfig(max_n=4, seed=5, jobs=1))
    parallel = run_suite("thm-6-4", RunConfig(max_n=4, seed=5, jobs=2))
    assert [c.to_dict() for c in serial.cases] == [c.to_dict() for c in parallel.cases]


def test_each_e_image_reads_one_chain(monkeypatch):
    """thm-4-2 and thm-4-7 ask "simple-rooted?" and "roots in [-1, 0]?" of
    each E-image, and build one Sturm chain of it for both."""
    chains, images = [], []
    real_chain, real_e = roots.sturm_chain, suites.e_transform

    def counted_chain(f):
        chains.append(f)
        return real_chain(f)

    def recorded_e(f):
        images.append(real_e(f))
        return images[-1]

    monkeypatch.setattr(roots, "sturm_chain", counted_chain)
    monkeypatch.setattr(suites, "e_transform", recorded_e)
    # the images checked come first: the one of thm-4-2, the two of thm-4-7
    for name, checked in (("thm-4-2", 1), ("thm-4-7", 2)):
        generate, _ = suites._SUITES[name]
        for params in generate(RunConfig(seed=0)):
            chains.clear()
            images.clear()
            assert suites.evaluate_case(name, params) == (True, None), params
            expected = collections.Counter(images[:checked])
            built = collections.Counter(chains)
            assert {p: built[p] for p in expected} == expected, params


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("definitely-not-a-suite")


def test_suite_names_cover_registry():
    assert "all" in SUITE_NAMES
    assert len(SUITE_NAMES) == 17


def emitted_repros() -> set[tuple[str, str]]:
    """(kind, flags) of every `_repro_check` call in the suites' source."""
    tree = ast.parse(open(suites.__file__, encoding="utf-8").read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_repro_check":
            literals = [node.args[0]] + node.args[2:]
            assert all(isinstance(a, ast.Constant) for a in literals), ast.dump(node)
            kind, *flags = [a.value for a in literals]
            out.add((kind, flags[0] if flags else ""))
    return out


# A polynomial that fails each check the suites emit a repro for.
FAILING = {
    ("simple", ""): Poly([1, 2, 1]),  # (x+1)^2
    ("real-rooted", ""): Poly([1, 0, 1]),  # x^2 + 1
    ("pf", ""): Poly([1, 1, 1]),  # positive coefficients, complex roots
    ("interval", " --lo=-1 --hi 0"): Poly([2, 1]),  # root -2
    ("interval", " --lo=-inf --hi 0"): Poly([-1, 1]),  # root 1
}


def test_every_repro_replays_to_a_failing_verdict(capsys):
    assert emitted_repros() == set(FAILING)
    for (kind, flags), f in FAILING.items():
        argv = shlex.split(suites._repro_check(kind, f, flags)["repro"])
        assert argv[:2] == ["polyafreq", "check"]
        assert cli.main(argv[1:]) == 1, argv
        assert json.loads(capsys.readouterr().out)["verdict"] is False


def test_suite_names_are_cli_table_keys():
    assert {kind for kind, _ in emitted_repros()} <= set(cli._checks())
    assert set(suites._PRODUCT_OPS) <= set(cli._operations())


def test_evaluators_return_a_witness_or_none():
    """Every evaluator returns None or a witness, never a (verdict, witness)
    tuple: `evaluate_case` forms that pair."""
    tree = ast.parse(open(suites.__file__, encoding="utf-8").read())
    evaluators = [
        fn for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and (fn.name.startswith("_eval_") or fn.name == "_e_image_failure")
    ]
    assert len(evaluators) == len(suites._SUITES) + 1
    for fn in evaluators:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return):
                values = [node.value]
                while isinstance(values[-1], ast.IfExp):
                    values[-1:] = [values[-1].orelse, values[-1].body]
                assert not any(isinstance(v, ast.Tuple) for v in values), (fn.name, node.lineno)


F_PF = Poly([1, 3, 3, 1])


def _forced_division(*args):
    raise ExactDivisionError("forced")


# (suite, params, callee bound in `suites`, a wrong stand-in, the witness)
# for every check that once failed with no witness, and for the error exit.
FORCED_FAILURES = [
    ("lemmas-4-3-4-5", {"kind": "shift-monomial", "n": 2}, "e_transform", lambda f: f,
     {"failed": "(1 + x) E(x^n) = x E((1 + x)^n)"}),
    ("lemmas-4-3-4-5", {"kind": "reflect-commutes", "i": 0, "coeffs": ["1", "2"]}, "reflect", lambda f: f * f,
     {"failed": "E commutes with reflection"}),
    ("thm-5-2", {"kind": "oracle", "n": 3}, "t_stack_poly", lambda n, t: ZERO,
     {"failed": "W_2 closed form = two-stack enumeration"}),
    ("chain-6", {"kind": "corollary", "n": 3}, "interlace_relation", lambda f, g: InterlaceRelation.INTERLACES,
     {"relation": "interlaces"}),
    ("thm-6-5", {"n": 2, "i": 0, "qs": ["1", "2"]}, "signed_descent_poly", lambda n, e: ZERO,
     {"failed": "B_n(q_1, ..., q_n) = signed descent sum over e_j(q)"}),
    ("thm-7-1", {"kind": "hadamard", "n": 3}, "hadamard_product", lambda f, g: ZERO,
     {"failed": "h(B_n) = (1 + x)^n * (1 + x)^n"}),
    ("polya-line", suites._gen_line_checks(RunConfig(seed=0))[0], "polya_line_check", lambda *args: False,
     {"failed": "deg f real intersections with the line"}),
    ("pf-coherence", {"kind": "multisect", "i": 0, "poly": poly_to_dict(F_PF), "step": 2}, "is_pf_finite",
     lambda f: False, suites._repro_check("pf", multisect(F_PF, 2, 0))),
    ("oracle-coherence", {"kind": "eulerian", "n": 4}, "eulerian_oracle", lambda n: ZERO,
     {"failed": "A_n = S_n enumeration"}),
    ("oracle-coherence", {"kind": "surjection-identities", "n": 3}, "g_poly", lambda n: ZERO,
     {"failed": "surjection E_{n+1} = x G_n"}),
    ("oracle-coherence", {"kind": "q-eulerian", "n": 3, "q": "2"}, "q_eulerian_oracle", lambda n, q: ZERO,
     {"failed": "A_n(x; q) = excedance/cycle enumeration over S_n"}),
    ("oracle-coherence", {"kind": "stack-degenerations", "n": 3}, "narayana_poly", lambda n: ZERO,
     {"failed": "1-stack-sortable descents = N_n"}),
    ("oracle-coherence", {"kind": "b-marginal", "n": 3}, "b_euler_q", lambda n, q: ZERO,
     {"failed": "B_n(0) = signed descent sum over C(n, j) 0^j"}),
    ("oracle-coherence", {"kind": "pdn-palindrome", "n": 4}, "is_real_rooted", lambda f: False,
     suites._repro_check("real-rooted", p_dn_poly(4))),
    ("oracle-coherence", {"kind": "pdn-palindrome", "n": 4}, "p_dn_poly", lambda n: Poly([1, 2]),
     {"failed": "D_n descent polynomial is a palindrome"}),
    ("thm-5-2", {"kind": "pf", "n": 3}, "w2_poly", _forced_division, {"error": "ExactDivisionError: forced"}),
]


@pytest.mark.parametrize(
    "suite, params, callee, wrong, witness", FORCED_FAILURES, ids=[f"{c[0]}:{c[2]}" for c in FORCED_FAILURES]
)
def test_forced_failure_carries_its_witness(monkeypatch, suite, params, callee, wrong, witness):
    assert suites.evaluate_case(suite, params) == (True, None)
    monkeypatch.setattr(suites, callee, wrong)
    assert suites.evaluate_case(suite, params) == (False, witness)


def test_window_witness_behind_the_pf_verdict(monkeypatch):
    """A `pf-coherence` window reaches its minor check only when
    `is_pf_finite` holds, so a negative minor shows only behind a wrong PF
    verdict; the case then fails with that minor."""
    f = Poly([1, 1, 1])  # log-concave and unimodal, with non-real roots
    params = {"kind": "window", "i": 0, "poly": poly_to_dict(f)}
    assert suites.evaluate_case("pf-coherence", params) == (False, suites._repro_check("pf", f))
    monkeypatch.setattr(suites, "is_pf_finite", lambda f: True)
    witness = {"rows": [1, 2, 3], "cols": [0, 1, 2], "minor": "-1"}
    assert suites.evaluate_case("pf-coherence", params) == (False, witness)


def chain_by_gcds(b0, bt, bq):
    """The chain-6 evaluation of B_n(0), B_n(t), B_n(q) that decides
    strictness by three gcds."""
    if roots.interlace_relation(b0, bt) not in INTERLACING_RELATIONS:
        return {"failed": "left interlacing"}
    if roots.interlace_relation(bq, bt) not in ALTERNATING_RELATIONS:
        return {"failed": "middle alternation"}
    if roots.interlace_relation(bq, Poly([0, 1]) * b0) not in ALTERNATING_RELATIONS:
        return {"failed": "right alternation"}
    for lhs, rhs in ((b0, bt), (b0, bq), (bt, bq)):
        if poly_gcd(lhs, rhs).degree > 0:
            return {"failed": "common zero among the first three"}
    return None


def test_chain_strictness_matches_gcd_route():
    params = [p for p in suites._gen_chain(RunConfig(max_n=8, seed=0)) if p["kind"] == "chain"]
    params += [
        {"kind": "chain", "n": n, "q": q, "t": t}
        for q in ("0", "1/3", "2", "5")
        for _, t in suites._CHAIN_QT
        for n in range(1, 9)
    ]
    witnesses = set()
    for p in params:
        n, q, t = p["n"], rational_from_str(p["q"]), rational_from_str(p["t"])
        expected = chain_by_gcds(b_euler_q(n, 0), b_euler_q(n, t), b_euler_q(n, q))
        assert suites._eval_chain(p) == expected, p
        witnesses.add(None if expected is None else expected["failed"])
    assert {None, "common zero among the first three"} <= witnesses


# The roots of (B_n(0), B_n(t), B_n(q)) stand-ins in the chain's relations,
# where at most one of the pairs (b0, bt), (bt, bq), (b0, bq) has a common zero.
CHAIN_STAND_INS = {
    "all strict": ([-2], [-3, -1], [-4, Fraction(-3, 2)]),
    "left shares -2": ([-2], [-2, -1], [-3, Fraction(-3, 2)]),
    "middle shares -3": ([-2], [-3, -1], [-3, Fraction(-3, 2)]),
    "right shares -2": ([-2], [-3, -1], [-4, -2]),
}


@pytest.mark.parametrize("label", sorted(CHAIN_STAND_INS))
def test_chain_reads_strictness_of_each_relation(monkeypatch, label):
    b0, bt, bq = (suites._from_roots(r) for r in CHAIN_STAND_INS[label])
    params = {"kind": "chain", "n": 2, "q": "1/2", "t": "2"}
    by_weight = {0: b0, Fraction(2): bt, Fraction(1, 2): bq}
    monkeypatch.setattr(suites, "b_euler_q", lambda n, w: by_weight[w])
    expected = chain_by_gcds(b0, bt, bq)
    assert (expected is None) == (label == "all strict")
    assert suites.evaluate_case("chain-6", params) == (expected is None, expected)


def test_signed_descent_polys_have_constant_term_one():
    """gcd(B_n(q), x B_n(0)) = gcd(B_n(q), B_n(0)) rests on B_n(q)(0) = 1."""
    for q in ("0", "1/3", "1/2", "1", "2", "3", "5", "-1"):
        for n in range(11):
            assert b_euler_q(n, rational_from_str(q)).coeff(0) == 1, (n, q)
