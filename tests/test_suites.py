import ast
import collections
import json
import shlex
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polyafreq import cli, roots, suites
from polyafreq.combinatorics import b_euler_q, multisect, p_bn_subset, p_dn_poly, q_eulerian_poly, w2_poly
from polyafreq.config import RunConfig
from polyafreq.errors import ExactDivisionError
from polyafreq.jsonio import poly_to_dict, rational_from_str
from polyafreq.polynomial import X, XP1, Poly, ZERO, binom, poly_gcd, squarefree_part
from polyafreq.roots import (
    ALTERNATING_RELATIONS,
    INTERLACING_RELATIONS,
    InterlaceRelation,
    is_real_rooted,
    is_simple_rooted,
)
from polyafreq.suites import SUITE_NAMES, run_suite
from polyafreq.transforms import w_transform

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
    each E-image, and build one Sturm chain of it for both.  Only the chains
    built from the first E-transform on count: thm-4-7 first asks root
    dominance of its inputs, and an input of degree 1 can equal an image."""
    chains, images = [], []
    real_chain, real_e = roots.sturm_chain, suites.e_transform

    def counted_chain(f):
        chains.append(f)
        return real_chain(f)

    def recorded_e(f):
        if not images:
            chains.clear()
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
LINEAR, QUADRATIC = poly_to_dict(Poly([1, 1])), poly_to_dict(Poly([2, 3, 1]))  # x + 1, (x + 1)(x + 2)
# f = x^4 + 19/2 x^3 + ..., with no root at -1: W(f) has degree 4
W_DEGREE_LAW = {"kind": "w-degree-law", "i": 0, "staircase": 0,
                "poly": {"coeffs": ["-165/4", "-643/8", "35/4", "19/2", "1"]}}


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
    ("oracle-coherence", {"kind": "worpitzky", "n": 3}, "eulerian_poly", lambda n: Poly([0, 1]), {"index": 2}),
    ("products-3", {"op": "hermite-poulain", "i": 0, "f": LINEAR, "g": QUADRATIC}, "hermite_poulain",
     lambda f, g: Poly([25, -10, 1]), {"failed": "multiple root not inherited"}),
    ("products-3", {"op": "hadamard", "i": 0, "f": LINEAR, "g": QUADRATIC}, "hadamard_product",
     lambda f, g: Poly([0, 1, 2, 1]), {"failed": "repeated nonzero root"}),
    ("products-3", {"op": "schur", "i": 0, "f": LINEAR, "g": QUADRATIC}, "schur_product",
     lambda f, g: Poly([1, 0, 1]), suites._repro_check("real-rooted", Poly([1, 0, 1]))),
    ("thm-5-2", {"kind": "pf", "n": 3}, "w2_poly", _forced_division, {"error": "ExactDivisionError: forced"}),
    ("thm-5-2", {"kind": "pf", "n": 3}, "is_real_rooted", lambda f: False,
     suites._repro_check("real-rooted", multisect(X * XP1 ** 6, 2, 0).exact_divide(X))),
    ("thm-5-2", {"kind": "pf", "n": 3}, "w2_poly", lambda n: w2_poly(n).scale(2),
     {"failed": "pipeline normalization"}),
    ("thm-6-4", {"n": 3, "m": 2}, "unitize_with_degree", lambda f, d: ZERO, {"degree": "-inf", "expected": 2}),
    ("thm-6-4", {"n": 3, "m": 2}, "unitize_with_degree", lambda f, d: X, {"degree": "1", "expected": 2}),
    ("thm-6-4", {"n": 3, "m": 2}, "is_real_rooted", lambda f: False,
     suites._repro_check("real-rooted", q_eulerian_poly(3, -2))),
    ("cor-6-10", {"kind": "rooted", "n": 3, "subset": [0, 1]}, "is_simple_rooted", lambda f: False,
     suites._repro_check("simple", p_bn_subset(3, {0, 1}))),
    ("lemmas-4-3-4-5", W_DEGREE_LAW, "w_transform", lambda f: X * w_transform(f), {"w_degree": 5, "mult": 0}),
    ("maincor-3-6", {"kind": "image", "i": 0, "f": QUADRATIC, "symbol": "one-plus-z"}, "is_real_rooted",
     lambda f: False, suites._repro_check("real-rooted", Poly([5, 5, 1]))),
]


def _forced_ids(cases) -> list[str]:
    """`suite:callee`, with -2, -3, ... on a repeated pair, so that a later
    entry never renames an earlier one."""
    seen = collections.Counter()
    ids = []
    for suite, _, callee, _, _ in cases:
        key = f"{suite}:{callee}"
        seen[key] += 1
        ids.append(key if seen[key] == 1 else f"{key}-{seen[key]}")
    return ids


@pytest.mark.parametrize(
    "suite, params, callee, wrong, witness", FORCED_FAILURES, ids=_forced_ids(FORCED_FAILURES)
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


def two_stack_pipeline_by_binom(n):
    """The thm-5-2 multiplier pipeline, steps and normalization, with each
    weight C(n + k, n - 1) a generalized binomial applied per coefficient."""
    odd = multisect(X * XP1 ** (2 * n), 2, 0)
    if n > 0:
        odd = odd.exact_divide(X)
    stage = Poly(binom(n + k, n - 1) * c for k, c in enumerate(odd.coeffs))
    rev = stage.reversed_coeffs(n - 1) if not stage.is_zero else stage
    final = Poly(binom(n + k, n - 1) * c for k, c in enumerate(rev.coeffs))
    return [odd, stage, rev, final], Fraction(n * n) * binom(2 * n, n)


def test_two_stack_pipeline_matches_the_binom_route(monkeypatch):
    asked = []
    real = suites.is_real_rooted

    def recorded(f):
        asked.append(f)
        return real(f)

    monkeypatch.setattr(suites, "is_real_rooted", recorded)
    for n in range(1, 15):
        steps, normalization = two_stack_pipeline_by_binom(n)
        asked.clear()
        assert suites.evaluate_case("thm-5-2", {"kind": "pf", "n": n}) == (True, None)
        assert asked == [step for step in steps if step.degree > 0], n
        assert steps[-1] == w2_poly(n).scale(normalization)
    assert len(asked) == 4


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


def products_by_checks(params):
    """The products-3 evaluation that asks each check of the product in
    turn, stripping x from a Hadamard product one division at a time."""
    op = params["op"]
    f, g = suites.poly_from_dict(params["f"]), suites.poly_from_dict(params["g"])
    if op == "hermite-poulain":
        out = suites.hermite_poulain(f, g)
        if out.is_zero:
            return None
        if not is_real_rooted(out):
            return suites._repro_check("real-rooted", out)
        multiple = poly_gcd(out, out.derivative())
        if multiple.degree > 0 and poly_gcd(g, g.derivative()) % squarefree_part(multiple) != ZERO:
            return {"failed": "multiple root not inherited"}
        return None
    if op == "schur":
        out = suites.schur_product(f, g)
    elif op == "hadamard":
        out = suites.hadamard_product(f, g)
    elif op == "sharp":
        out = suites.sharp_product(f, g)
    elif op == "diamond":
        out = suites.diamond_product(f, g)
    elif op == "dot":
        out = suites.dot_form(f, g, suites.MultiplierSeq(kind=params["seq"]),
                              rational_from_str(params["alpha"]), rational_from_str(params["beta"]))
    else:
        out = suites.circ_form(f, g, suites.MultiplierSeq(kind=params["seq"]), rational_from_str(params["alpha"]))
    if out.is_zero:
        return None
    if not is_real_rooted(out):
        return suites._repro_check("real-rooted", out)
    if op == "hadamard":
        trimmed = out
        while not trimmed.is_zero and trimmed.coeff(0) == 0:
            trimmed = trimmed.exact_divide(Poly([0, 1]))
        if not trimmed.is_zero and trimmed.degree > 0 and not is_simple_rooted(trimmed):
            return {"failed": "repeated nonzero root"}
    return None


@st.composite
def product_inputs(draw):
    """0 or a nonzero constant times x^k (k <= 3), real linear factors drawn
    with repeats, and at most two non-real quadratics x^2 + bx + c."""
    if draw(st.integers(0, 9)) == 0:
        return ZERO
    f = Poly([draw(st.sampled_from([1, -1, 2, -3]))]) * Poly([0, 1]) ** draw(st.integers(0, 3))
    for r in draw(st.lists(st.sampled_from([-2, -1, Fraction(-1, 2), 1, Fraction(3, 2)]), max_size=4)):
        f = f * Poly([-r, 1])
    for b, c in draw(st.lists(st.sampled_from([(0, 1), (1, 1), (-1, 1), (2, 2), (1, 3)]), max_size=2)):
        f = f * Poly([c, b, 1])
    return f


@st.composite
def product_cases(draw):
    params = {"op": draw(st.sampled_from(suites._PRODUCT_OPS)), "i": 0,
              "f": poly_to_dict(draw(product_inputs())), "g": poly_to_dict(draw(product_inputs()))}
    if params["op"] in ("dot", "circ"):
        alpha = draw(st.sampled_from([Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1)]))
        params["alpha"] = str(alpha)
        params["seq"] = draw(st.sampled_from(("all_ones", "factorial_inverse")))
        if params["op"] == "dot":
            params["beta"] = str(alpha + draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3)])))
    return params


def _product_label(params, witness):
    """The kind of witness, or "not simple" for a passing product of one of
    the five ops with no check of their own that is not simple-rooted."""
    if witness is not None:
        return "repro" if "repro" in witness else witness["failed"]
    if params["op"] in ("hadamard", "hermite-poulain"):
        return None
    f, g = suites.poly_from_dict(params["f"]), suites.poly_from_dict(params["g"])
    out = suites._PRODUCTS[params["op"]](f, g, params)
    return None if out.is_zero or is_simple_rooted(out) else "not simple"


def _product_example(op, f, g):
    return {"op": op, "i": 0, "f": poly_to_dict(Poly(f)), "g": poly_to_dict(Poly(g))}


def test_products_match_the_check_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(product_cases())
    # (1, 1, 1) * (1, 2, 1) = (1 + x)^2, and (1 + D + D^2)(x^2 - 1) = (1 + x)^2
    @example(_product_example("hadamard", [1, 1, 1], [1, 2, 1]))
    @example(_product_example("hermite-poulain", [1, 1, 1], [-1, 0, 1]))
    def compare(params):
        witness = suites._eval_products(params)
        assert witness == products_by_checks(params), params
        seen.add(_product_label(params, witness))

    compare()
    expected = {None, "repro", "repeated nonzero root", "multiple root not inherited", "not simple"}
    assert expected <= seen, seen


@pytest.mark.parametrize("seed", [0, 3, 109])
def test_products_match_the_check_route_on_suite_cases(seed):
    for params in suites._gen_products(RunConfig(seed=seed)):
        assert suites._eval_products(params) == products_by_checks(params), params


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
