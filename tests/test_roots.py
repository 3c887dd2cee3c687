import collections
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import root_oracle
from fraction_oracle import from_roots
from polyafreq import polynomial, roots
from polyafreq.combinatorics import b_euler_q, eulerian_poly, fz_h_poly
from polyafreq.config import RunConfig
from polyafreq.errors import (
    NotRealRootedError,
    PolyafreqError,
    PreconditionError,
    ZeroPolynomialError,
)
from polyafreq.polynomial import NEG_INF, POS_INF, Poly, ZERO, monomial
from polyafreq.roots import (
    InterlaceRelation,
    alternates,
    check_nonneg_on_reals,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    negative_witness,
    root_dominance,
    roots_within,
)
from polyafreq.suites import run_suite

IR = InterlaceRelation


small_roots = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=0, max_size=6
)


def test_is_real_rooted():
    assert not is_real_rooted(Poly([1, 0, 1]))
    assert is_real_rooted(Poly([1, 2, 1]))
    assert is_real_rooted(Poly([1, 1]) ** 2 * Poly([0, 1]))
    assert not is_simple_rooted(Poly([1, 1]) ** 2 * Poly([0, 1]))
    assert is_simple_rooted(Poly([-2, 0, 1]))
    assert not is_real_rooted(Poly([-2, 0, 1]) * Poly([1, 1, 1]) ** 2)
    assert not is_simple_rooted(Poly([1, 2, 1]))
    assert is_real_rooted(Poly([0, 1, 4, 1]))
    assert is_simple_rooted(Poly([0, 1, 4, 1]))
    assert is_real_rooted(Poly([7]))
    assert is_simple_rooted(Poly([7]))
    with pytest.raises(ZeroPolynomialError):
        is_real_rooted(ZERO)


def test_roots_within():
    assert roots_within(monomial(2) * Poly([1, 1]), -1, 0)
    assert not roots_within(Poly([-1, 0, 1]), 0, POS_INF)
    assert roots_within(Poly([0, 1, 6, 6]), -1, 0)
    assert roots_within(Poly([1, 2, 1]), NEG_INF, 0)
    assert not roots_within(Poly([1, 0, 1]), NEG_INF, POS_INF)
    assert roots_within(Poly([1, 2, 1]), -1, -1)
    assert not roots_within(Poly([2, 3, 1]), -1, -1)
    assert not roots_within(Poly([1, 0, 1]), 0, 0)
    assert roots_within(Poly([1, 1]) ** 2 * Poly([0, 1]), -1, 0)
    assert not roots_within(Poly([1, 1]) ** 2 * Poly([0, 1]), Fraction(-1, 2), 0)
    # closed endpoints: x(x - 1) has its roots at both ends of [0, 1]
    f = Poly([0, 1]) * Poly([-1, 1])
    assert roots_within(f, 0, 1)
    assert not roots_within(f, -1, 0) and not roots_within(f, Fraction(1, 2), 2)
    # roots (3 +- sqrt(3))/6 of 1 - 6x + 6x^2, one on each side of 1/2
    f = Poly([1, -6, 6])
    assert roots_within(f, 0, 1)
    assert not roots_within(f, 0, Fraction(1, 2)) and not roots_within(f, Fraction(1, 2), 1)
    # +-sqrt(2) lies between 1.41 and 1.42
    f = Poly([-2, 0, 1])
    assert roots_within(f, Fraction(-142, 100), Fraction(142, 100))
    assert not roots_within(f, Fraction(-141, 100), Fraction(142, 100))
    assert not roots_within(f, 0, POS_INF)


def test_interlace_trivial_cases():
    assert interlace_relation(Poly([0, 1]), Poly([-1, 0, 1])) == IR.INTERLACES_STRICT
    assert interlace_relation(Poly([-1, 0, 1]), Poly([0, -1, 1])) == IR.ALTERNATES_LEFT
    assert interlace_relation(Poly([1]), Poly([1])) == IR.ALTERNATES_LEFT_STRICT
    assert interlace_relation(Poly([2]), Poly([0, 1])) == IR.INTERLACES_STRICT
    assert interlace_relation(Poly([0, 1]), Poly([2])) == IR.NONE
    with pytest.raises(NotRealRootedError):
        interlace_relation(Poly([1, 0, 1]), Poly([0, 1]))


def test_interlace_with_shared_and_multiple_roots():
    h = Poly([1, 1])
    f = h * Poly([0, 1])  # roots -1, 0
    g = h * h * Poly([0, 1])  # roots -1, -1, 0
    assert interlace_relation(f, g) == IR.INTERLACES
    f2 = from_roots([-2, 0])
    g2 = from_roots([-2, -1, 1])
    assert interlace_relation(f2, g2) == IR.INTERLACES
    assert interlace_relation(from_roots([-1, 0]), from_roots([-3, 2])) == IR.EQUAL_DEGREE_NONE


def reference_relation(roots_f, roots_g):
    """Direct rational-root classification, independent of Sturm machinery."""
    a, b = sorted(roots_f), sorted(roots_g)
    i, j = len(a), len(b)
    shared = bool(set(roots_f) & set(roots_g))
    if j == i + 1:
        if all(b[k] <= a[k] <= b[k + 1] for k in range(i)):
            return IR.INTERLACES if shared else IR.INTERLACES_STRICT
        return IR.NONE
    if i == j:
        if all(a[k] <= b[k] for k in range(i)) and all(b[k] <= a[k + 1] for k in range(i - 1)):
            return IR.ALTERNATES_LEFT if shared else IR.ALTERNATES_LEFT_STRICT
        return IR.EQUAL_DEGREE_NONE
    return IR.NONE


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_roots, small_roots)
def test_interlace_matches_rational_oracle(rf, rg):
    f, g = from_roots(rf), from_roots(rg)
    assert interlace_relation(f, g) == reference_relation(rf, rg)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_roots, small_roots, st.booleans())
def test_alternates_is_either_order(rf, rg, strict):
    # the relation of each order computed on its own, as alternates was defined
    f, g = from_roots(rf), from_roots(rg)
    ok = {IR.INTERLACES_STRICT, IR.ALTERNATES_LEFT_STRICT}
    if not strict:
        ok |= {IR.INTERLACES, IR.ALTERNATES_LEFT}
    either = reference_relation(rf, rg) in ok or reference_relation(rg, rf) in ok
    assert alternates(f, g, strict) == either == alternates(g, f, strict)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(small_roots.filter(lambda r: len(r) >= 1))
def test_obreschkoff_combinations(rf):
    # build g weaving strictly between the sorted roots of f, then all
    # nonzero combinations of (f, g) must be real-rooted
    rng = random.Random(17)
    a = sorted(rf)
    rg = [a[k] + Fraction(rng.randint(0, 3), 7) * ((a[k + 1] - a[k]) if k + 1 < len(a) else 1)
          for k in range(len(a))]
    f, g = from_roots(rf), from_roots(rg)
    rel = interlace_relation(f, g)
    assert rel in {IR.ALTERNATES_LEFT, IR.ALTERNATES_LEFT_STRICT}
    for _ in range(20):
        al = Fraction(rng.randint(-9, 9))
        be = Fraction(rng.randint(-9, 9))
        comb = al * f + be * g
        if not comb.is_zero:
            assert is_real_rooted(comb)


# -- the isolation route, kept as the oracle of the Cauchy-index route ---------


def _classify(alphas: list[int], betas: list[int], coprime: bool) -> IR:
    """The relation of (f, g) from the merged root positions of f and g."""
    i, j = len(alphas), len(betas)
    if j == i + 1:
        ok = all(betas[k] <= alphas[k] <= betas[k + 1] for k in range(i))
        if ok:
            return IR.INTERLACES_STRICT if coprime else IR.INTERLACES
        return IR.NONE
    if i == j:
        ok = all(alphas[k] <= betas[k] for k in range(i)) and all(
            betas[k] <= alphas[k + 1] for k in range(i - 1)
        )
        if ok:
            return IR.ALTERNATES_LEFT_STRICT if coprime else IR.ALTERNATES_LEFT
        return IR.EQUAL_DEGREE_NONE
    return IR.NONE


def isolation_relations(f, g):
    """The relations of (f, g) and of (g, f) by isolating and merging roots."""
    alphas, betas, coprime = root_oracle._expanded_positions(f, g)
    return _classify(alphas, betas, coprime), _classify(betas, alphas, coprime)


def isolation_alternates(f, g, strict):
    ok = {IR.INTERLACES_STRICT, IR.ALTERNATES_LEFT_STRICT}
    if not strict:
        ok |= {IR.INTERLACES, IR.ALTERNATES_LEFT}
    return any(rel in ok for rel in isolation_relations(f, g))


# x^2 - 2, 6x^2 + 6x + 1, x^2 - x - 1 and 2x^2 - 4x + 1 have irrational roots
_QUADRATICS = (Poly([-2, 0, 1]), Poly([1, 6, 6]), Poly([-1, -1, 1]), Poly([1, -4, 2]))
_linear = st.fractions(min_value=-3, max_value=3, max_denominator=3).map(lambda r: Poly([-r, 1]))
_factors = st.lists(
    st.tuples(st.one_of(_linear, st.sampled_from(_QUADRATICS)), st.integers(1, 3)), max_size=3
)
_leads = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)


def _product(factors, lead=1):
    p = Poly([lead])
    for h, m in factors:
        p = p * h ** m
    return p


@st.composite
def real_rooted_pairs(draw):
    """(f, g) real-rooted, often interlacing or alternating, with shared factors.

    h' interlaces h, and h + lam*h' alternates left of h for lam > 0 (right
    for lam < 0); a repeated root of h is a common root of the pair.
    """
    h = _product(draw(_factors), draw(_leads))
    kind = draw(st.sampled_from(("independent", "derivative", "hermite")))
    if kind == "independent":
        f, g = _product(draw(_factors), draw(_leads)), h
    elif kind == "derivative":
        f, g = h.derivative().scale(draw(_leads)) if h.degree else h, h
    else:
        f, g = (h + h.derivative().scale(draw(_leads))).scale(draw(_leads)), h
    shared = _product(draw(st.lists(st.tuples(_linear, st.integers(1, 2)), max_size=1)))
    f, g = f * shared, g * shared
    return (g, f) if draw(st.booleans()) else (f, g)


def test_cauchy_index_route_matches_isolation():
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(real_rooted_pairs(), st.booleans())
    def check(pair, strict):
        f, g = pair
        forward, backward = isolation_relations(f, g)
        assert interlace_relation(f, g) == forward
        assert interlace_relation(g, f) == backward
        assert alternates(f, g, strict) == isolation_alternates(f, g, strict)
        seen[forward] += 1

    check()
    assert set(seen) == set(IR), seen


def test_cauchy_index_route_on_fixed_pairs():
    # the Wronskian-sketch counterexample: u = (x-1)^3 is not square-free
    f = from_roots([1, 1, 1, Fraction(3, 2)])
    g = from_roots([Fraction(3, 2)] * 4)
    for a, b in ((f, g), (g, f)):
        assert interlace_relation(a, b) == isolation_relations(a, b)[0] == IR.EQUAL_DEGREE_NONE
        assert not alternates(a, b)
    b0, b1 = b_euler_q(20, 0), b_euler_q(20, 1)
    assert b1.degree == b0.degree + 1
    assert interlace_relation(b0, b1) == isolation_relations(b0, b1)[0] == IR.INTERLACES_STRICT
    assert alternates(b1, b0, strict=True)


def _no_isolation(*args, **kwargs):
    raise AssertionError("interlacing isolated roots")


def test_interlacing_isolates_no_root():
    pairs = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(real_rooted_pairs())
    def collect(pair):
        pairs.append((pair, isolation_relations(*pair)[0], isolation_alternates(*pair, False)))

    collect()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "sample_points_between_roots", _no_isolation)
        for (f, g), relation, either in pairs:
            assert interlace_relation(f, g) == relation
            assert alternates(f, g) == either
        report = run_suite("chain-6", RunConfig(seed=0))
    assert report.cases and all(c.verdict for c in report.cases)


# -- the check-first route, kept as the oracle of the index-first route -------

# x^2 + 1 and x^2 + x + 1 have no real root
_NON_REAL = (Poly([1, 0, 1]), Poly([1, 1, 1]))


@st.composite
def interlacing_inputs(draw):
    """(f, g), real-rooted or not, with degree gaps up to 2 and shared factors.

    The pairs of `real_rooted_pairs` get, on one side, a non-real quadratic
    or a second derivative; on both sides, a non-real quadratic or a repeated
    real root; or one side is replaced by a constant or by zero.
    """
    f, g = draw(real_rooted_pairs())
    kind = draw(st.sampled_from(
        ("plain", "one-non-real", "shared-non-real", "shared-repeated", "second-derivative",
         "constant", "zero")
    ))
    if kind == "one-non-real":
        f = f * draw(st.sampled_from(_NON_REAL))
    elif kind == "shared-non-real":
        q = draw(st.sampled_from(_NON_REAL))
        f, g = f * q, g * q
    elif kind == "shared-repeated":
        r = draw(_linear) ** draw(st.integers(2, 3))
        f, g = f * r, g * r
    elif kind == "second-derivative" and g.degree >= 2:
        f = g.derivative(2).scale(draw(_leads))
    elif kind == "constant":
        f = Poly([draw(_leads)])
    elif kind == "zero":
        f = ZERO
    return (g, f) if draw(st.booleans()) else (f, g)


def _result(fn, *args):
    """fn(*args), or the type and message of the package error it raised."""
    try:
        return fn(*args)
    except PolyafreqError as exc:
        return type(exc), str(exc)


def _input_kind(f, g, outcome):
    """Which part of the route the pair (f, g) exercised, for coverage."""
    if f.is_zero or g.is_zero:
        return "zero"
    u, v, c = root_oracle.coprime_parts(f, g)
    if len(u) > len(v):
        u, v = v, u
    certified = len(v) - len(u) <= 1 and abs(root_oracle.cauchy_index(u, v)) == len(v) - 1
    if outcome == (NotRealRootedError, "interlace relation needs real-rooted polynomials"):
        return "common factor not real-rooted" if certified else "input not real-rooted"
    if c.degree > 0 and polynomial.poly_gcd(c, c.derivative()).degree > 0:
        return "repeated common root"
    return "certified" if certified else "index fails"


def test_index_first_route_matches_check_first_route():
    gaps, kinds, relations = collections.Counter(), collections.Counter(), collections.Counter()

    # x(x^2+1) and (x-1)(x^2+1): the index of x/(x-1) passes, x^2+1 is not real-rooted
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(interlacing_inputs())
    @example((Poly([0, 1, 0, 1]), Poly([-1, 1, -1, 1])))
    @example((Poly([1, 0, 1]), Poly([0, 1])))
    def check(pair):
        f, g = pair
        for a, b in ((f, g), (g, f)):
            relation = _result(root_oracle.interlace_relation, a, b)
            assert _result(interlace_relation, a, b) == relation
            for strict in (False, True):
                assert _result(alternates, a, b, strict) == _result(
                    root_oracle.alternates, a, b, strict
                )
            relations[relation] += 1
        if not (f.is_zero or g.is_zero):
            gaps[abs(g.degree - f.degree), min(f.degree, g.degree) == 0] += 1
        kinds[_input_kind(f, g, _result(root_oracle.interlace_relation, f, g))] += 1

    check()
    for gap in (0, 1, 2):
        assert gaps[gap, False] and gaps[gap, True], gaps
    assert set(kinds) == {
        "zero", "input not real-rooted", "common factor not real-rooted",
        "repeated common root", "certified", "index fails",
    }, kinds
    assert set(IR) <= set(relations), relations
    for error in (ZeroPolynomialError, NotRealRootedError):
        assert any(isinstance(r, tuple) and r[0] is error for r in relations), relations


_woven = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=11, unique=True
)


def test_pass_path_builds_no_chain_of_the_inputs():
    passing = {IR.INTERLACES_STRICT, IR.ALTERNATES_LEFT_STRICT}
    pairs = [(b_euler_q(20, 0), b_euler_q(20, 1))]

    # distinct sorted roots dealt alternately, the last one to g, weave strictly
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_woven, _leads, _leads)
    def collect(points, a, b):
        points, odd = sorted(points), len(points) % 2
        pairs.append((from_roots(points[odd::2]).scale(a), from_roots(points[1 - odd::2]).scale(b)))

    collect()
    assert sum(1 for f, g in pairs if f.degree >= 3) >= 10
    shared, linear, far = Poly([-2, 0, 1]), Poly([-7, 1]), Poly([-8, 1])
    calls, sequences = [], []

    def spy(fn):
        def wrapper(p):
            calls.append(p)
            return fn(p)
        return wrapper

    def spy_sequence(a, b):
        # the function that asked for the remainder sequence
        sequences.append(sys._getframe(1).f_code.co_name)
        return polynomial._remainder_sequence(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "sturm_chain", spy(roots.sturm_chain))
        mp.setattr(roots, "is_real_rooted", spy(roots.is_real_rooted))
        mp.setattr(roots, "_remainder_sequence", spy_sequence)
        for f, g in pairs:
            # one sequence of the pair per call gives the index and gcd(f, g)
            assert interlace_relation(f, g) in passing
            assert alternates(f, g, strict=True) and alternates(g, f)
            assert interlace_relation(f * linear, g * linear) in {IR.INTERLACES, IR.ALTERNATES_LEFT}
            assert alternates(g * linear, f * linear)
            assert calls == [], (f, g, calls)
            assert sequences == ["_certifying_index"] * 5, (f, g, sequences)
            # a shared real factor of degree 2 is checked, and only it
            assert interlace_relation(f * shared, g * shared) in {IR.INTERLACES, IR.ALTERNATES_LEFT}
            assert not alternates(f * shared, g * shared, strict=True)
            assert set(calls) == {shared}, (f, g, calls)
            calls.clear()
            sequences.clear()
            # degrees two or more apart: no sequence of the pair, only the input checks' chains
            assert interlace_relation(f, g * far**2) == IR.NONE and not alternates(g * far**2, f)
            assert sequences and set(sequences) == {"sturm_chain"}, (f, g, sequences)
            calls.clear()
            sequences.clear()


def test_positive_sum_interlacing():
    # g interlaces each (x - r) g, hence interlaces any positive sum of them
    rng = random.Random(5)
    for _ in range(25):
        rg = sorted(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        g = from_roots(rg)
        fs = [from_roots(rg + [Fraction(rng.randint(-9, 9), 2)]) for _ in range(3)]
        total = ZERO
        for fi in fs:
            assert interlace_relation(g, fi) in {IR.INTERLACES, IR.INTERLACES_STRICT}
            total = total + fi
        assert is_real_rooted(total)
        assert interlace_relation(g, total) in {IR.INTERLACES, IR.INTERLACES_STRICT}


def test_root_dominance_examples():
    assert root_dominance(Poly([1, 1]) ** 2, Poly([0, 1]) * Poly([1, 1]))
    assert not root_dominance(monomial(2), Poly([1, 1]) ** 2)
    chain = [
        Poly([1, 1]) ** 3,
        Poly([0, 1]) * Poly([1, 1]) ** 2,
        monomial(2) * Poly([1, 1]),
        monomial(3),
    ]
    for f, g in zip(chain, chain[1:]):
        assert root_dominance(f, g)
    with pytest.raises(PreconditionError):
        root_dominance(Poly([0, 1]), Poly([0, 0, 1]))
    with pytest.raises(PreconditionError):
        root_dominance(Poly([0, -1]), Poly([0, -1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_roots, small_roots, small_roots)
def test_root_dominance_is_partial_order(r1, r2, r3):
    n = min(len(r1), len(r2), len(r3))
    if n == 0:
        return
    a, b, c = sorted(r1[:n]), sorted(r2[:n]), sorted(r3[:n])
    fa, fb, fc = from_roots(a), from_roots(b), from_roots(c)
    assert root_dominance(fa, fa)
    if root_dominance(fa, fb) and root_dominance(fb, fa):
        assert a == b
    if root_dominance(fa, fb) and root_dominance(fb, fc):
        assert root_dominance(fa, fc)


def test_check_nonneg_on_reals():
    assert check_nonneg_on_reals(monomial(2))
    assert not check_nonneg_on_reals(monomial(3))
    assert check_nonneg_on_reals(Poly([1]))
    assert not check_nonneg_on_reals(Poly([-1]))
    assert check_nonneg_on_reals(Poly([1, 0, 1]))
    assert not check_nonneg_on_reals(Poly([-1, 0, -1]))
    # discriminant shape x^2 (1+x)^2 (5 + 14x + 14x^2)
    disc = monomial(2) * Poly([1, 1]) ** 2 * Poly([5, 14, 14])
    assert check_nonneg_on_reals(disc)
    assert negative_witness(disc) is None


def test_negative_witness_found():
    p = monomial(2) * Poly([1, 1]) ** 2 * Poly([-1, 0, 24])  # dips below 0 near -1/2
    w = negative_witness(p)
    assert w is not None and p(w) < 0
    assert not check_nonneg_on_reals(p)
    q = Poly([0, -1])  # negative for x > 0
    w = negative_witness(q)
    assert w is not None and q(w) < 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=3), min_size=1, max_size=5))
def test_nonneg_check_agrees_with_sampling(coeffs):
    p = Poly(coeffs)
    if p.is_zero:
        return
    assert check_nonneg_on_reals(p) == (negative_witness(p) is None)


def distinct_real_roots(f):
    return roots._squarefree_chain(f, "root count")[2]


def test_count_distinct():
    assert distinct_real_roots(Poly([1, 2, 1])) == 1
    assert distinct_real_roots(Poly([1, 0, 1])) == 0
    assert distinct_real_roots(from_roots([0, 1, 2, 3])) == 4
    assert distinct_real_roots(Poly([1, 1]) ** 2 * Poly([0, 1])) == 2
    assert distinct_real_roots(Poly([-2, 0, 1]) ** 3 * Poly([1, 0, 1])) == 2
    assert distinct_real_roots(Poly([5])) == 0
    with pytest.raises(ZeroPolynomialError):
        distinct_real_roots(ZERO)


# -- the Yun route, kept as the oracle of the one-chain route ------------------

# x^2 + 1 and x^2 + x + 1 have no real root
_NONREAL = (Poly([1, 0, 1]), Poly([1, 1, 1]))
_polys = st.builds(
    _product,
    st.lists(
        st.tuples(st.one_of(_linear, st.sampled_from(_QUADRATICS + _NONREAL)), st.integers(1, 3)),
        max_size=4,
    ),
    _leads,
)
_endpoints = st.one_of(
    st.sampled_from((NEG_INF, POS_INF)), st.fractions(min_value=-4, max_value=4, max_denominator=3)
)


#: a 64-bit prime, the denominator of the endpoints beside a root
_DEN64 = 2**64 - 59


@st.composite
def within_queries(draw):
    """(f, lo, hi, kind) with lo <= hi and a rational root r of f of
    multiplicity at least m, 1 <= m <= 3.  Half the f are palindromes or
    constants times the m-th power of x, x + 1 or (x - r)(x - 1/r), which
    keeps or gives the shape; the others are products times (x - r)^m.  Each
    endpoint is r, r moved by 1/_DEN64, a point over _DEN64 or one of
    `_endpoints`; lo = hi = r is a kind of its own."""
    r = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        factor = monomial(1) if r == 0 else Poly([1, 1]) if r == -1 else _pair(r)
        p = draw(st.one_of(palindromes(), _leads.map(lambda c: Poly([c]))))
        f, shape = p * factor ** m, "palindrome"
    else:
        f, shape = draw(_polys) * Poly([-r, 1]) ** m, "product"
    if draw(st.booleans()):
        return f, r, r, (shape, "point")
    tiny = Fraction(1, _DEN64)
    end = st.one_of(
        st.sampled_from((r, r - tiny, r + tiny)),
        st.integers(-4 * _DEN64, 4 * _DEN64).map(lambda n: Fraction(n, _DEN64)),
        _endpoints,
    )
    lo, hi = sorted((draw(end), draw(end)))
    assume(lo != POS_INF and hi != NEG_INF)
    return f, lo, hi, (shape, "ends")


def test_one_chain_route_matches_yun_route():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_polys, _endpoints, _endpoints)
    def check(f, a, b):
        lo, hi = sorted((a, b))
        real, simple = is_real_rooted(f), is_simple_rooted(f)
        assert real == root_oracle.is_real_rooted(f)
        assert simple == root_oracle.is_simple_rooted(f)
        assert distinct_real_roots(f) == root_oracle.count_distinct_real_roots(f)
        within = None
        if lo != POS_INF and hi != NEG_INF:
            within = roots_within(f, lo, hi)
            assert within == root_oracle.roots_within(f, lo, hi)
        seen.add((f.degree > 0, real, simple, within))

    check()
    for key in ((False, True, True, True), (True, False, False, False),
                (True, True, False, True), (True, True, False, False),
                (True, True, True, True), (True, True, True, False)):
        assert key in seen, key

    reached = collections.Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(within_queries())
    def check_at_roots(query):
        f, lo, hi, kind = query
        within = roots_within(f, lo, hi)
        assert within == root_oracle.roots_within(f, lo, hi), (f, lo, hi)
        assert roots.simple_roots_within(f, lo, hi) == (root_oracle.is_simple_rooted(f), within)
        reached[kind, within] += 1
        reached["half", within] += root_oracle.palindromic_half(f) is not None

    check_at_roots()
    # both verdicts on palindromes read at half degree, on products, at a
    # root of full multiplicity and beside one
    for kind in ("half", ("palindrome", "point"), ("palindrome", "ends"), ("product", "point"), ("product", "ends")):
        for within in (True, False):
            assert reached[kind, within] >= 3, reached


# -- palindromes at half the degree, against the one chain of f --------------------

_reciprocal = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
_beyond_one = st.builds(
    lambda r, sign: r * sign,
    st.fractions(min_value=1, max_value=5, max_denominator=3).filter(lambda r: r != 1),
    st.sampled_from((1, -1)),
)
# x^2 + bx + 1: roots on the unit circle for |b| < 2, a double root +-1 at
# |b| = 2, and a real pair r, 1/r for |b| > 2
_middles = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.sampled_from((-2, 2)),
    st.fractions(min_value=2, max_value=5, max_denominator=3),
    st.fractions(min_value=-5, max_value=-2, max_denominator=3),
)

# x^4 + ax^3 + (c + 2)x^2 + ax + 1 = x^2 h(x + 1/x) for h = y^2 + ay + c, with
# c > a^2 / 4: h, the half of the palindrome, has no real root
_nonreal_halves = st.builds(
    lambda a, e: Poly([1, a, a * a / 4 + e + 2, a, 1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=0, max_value=3, max_denominator=3).filter(bool),
)


def _pair(r):
    """(x - r)(x - 1/r)."""
    return Poly([1, -(r + 1 / r), 1])


@st.composite
def palindromes(draw):
    """Products of palindromic quadratics and quartics, (1 + x)^i, (1 - x)^j
    and x^k, times a rational of either sign; an odd j makes an
    anti-palindrome.  Half the draws take distinct pairs r, 1/r with |r| > 1,
    i <= 1, j = 0 and k <= 1, which are simple-rooted."""
    if draw(st.booleans()):
        rs = draw(st.lists(_beyond_one, unique=True, min_size=1, max_size=3))
        factors = [(_pair(r), 1) for r in rs]
        i, j, k = draw(st.integers(0, 1)), 0, draw(st.integers(0, 1))
    else:
        factor = st.one_of(
            _reciprocal.map(_pair), _middles.map(lambda b: Poly([1, b, 1])), _nonreal_halves
        )
        factors = draw(st.lists(st.tuples(factor, st.integers(1, 2)), max_size=3))
        i, j, k = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    f = _product(factors, draw(_leads))
    return f * Poly([1, 1]) ** i * Poly([1, -1]) ** j * monomial(k)


def _check_against_one_chain(f):
    real, simple = is_real_rooted(f), is_simple_rooted(f)
    assert real == root_oracle.one_chain_is_real_rooted(f), f
    assert simple == root_oracle.one_chain_is_simple_rooted(f), f
    assert roots.rootedness(f) == (real, simple), f
    return real, simple


def test_palindromes_at_half_degree_match_one_chain_of_f():
    seen = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(palindromes())
    @example(Poly([0, 0, 1, 3, 1]))  # x^2 times a simple-rooted palindrome
    def check(f):
        half = root_oracle.palindromic_half(f)
        seen[half is not None, *_check_against_one_chain(f)] += 1
        seen["non-real half"] += half is not None and not root_oracle.is_real_rooted(half[0])

    check()
    # palindromes reach every verdict, and anti-palindromes the full chain
    for key in ((True, True, True), (True, True, False), (True, False, False), (False, True, True)):
        assert seen[key] >= 5, seen
    assert seen["non-real half"] >= 5, seen
    fixed = [eulerian_poly(n) for n in range(1, 26)]
    fixed += [b_euler_q(n, 1) for n in range(1, 21)]
    fixed += [fz_h_poly(family, n) for family in "ABD" for n in range(2, 16)]
    # all real-rooted; h_D(2) = (1 + x)^2 is the one that is not simple-rooted
    assert [f for f in fixed if _check_against_one_chain(f) != (True, True)] == [fz_h_poly("D", 2)]
    assert sum(root_oracle.palindromic_half(f) is not None for f in fixed) >= len(fixed) - 5


def test_simple_rootedness_of_x_power_palindromes_reads_the_half():
    """x^k p for every k <= 3: a palindrome that x^2 divides has no exit of
    its own, and its one remainder sequence is that of its half."""
    seen = collections.Counter()
    chains = []
    real_chain = roots.sturm_chain

    def counted_chain(f):
        chains.append(f)
        return real_chain(f)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(palindromes())
    def check(p):
        for k in range(4):
            f = p * monomial(k)
            expected = root_oracle.one_chain_is_simple_rooted(f)
            half = root_oracle.palindromic_half(f)
            chains.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(roots, "sturm_chain", counted_chain)
                assert is_simple_rooted(f) == expected, f
            assert chains == ([f] if half is None else [half[0]]), f
            seen[half is not None, k >= 2, expected] += 1

    check()
    # x^2 | f leaves a palindrome never simple-rooted; with k <= 1 both verdicts occur
    assert seen[True, True, True] == 0, seen
    for key in ((True, True, False), (True, False, True), (True, False, False), (False, False, True)):
        assert seen[key] >= 5, seen


_constants = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool).map(lambda c: Poly([c]))


def test_roots_within_a_constant_holds_on_every_interval():
    """A nonzero constant has no root, so every interval holds all of them."""
    ends = [NEG_INF, Fraction(-7), Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7), POS_INF]
    pairs = [(lo, hi) for lo in ends for hi in ends if lo <= hi and lo != POS_INF and hi != NEG_INF]
    # infinite, equal and finite endpoints, inside and beyond the bound B = 1
    assert {(NEG_INF, POS_INF), (Fraction(0), Fraction(0)), (Fraction(-7), Fraction(7))} <= set(pairs)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_constants)
    def check(f):
        for lo, hi in pairs:
            assert roots_within(f, lo, hi) == root_oracle.roots_within(f, lo, hi) is True, (f, lo, hi)

    check()


# -- a one-point interval, and both questions from one chain ---------------------


@st.composite
def point_queries(draw):
    """(f, a, kind) for roots_within(f, a, a): a root of full multiplicity, a
    root of lower multiplicity, no root, a point at or beyond the bound B the
    chain clips to, or a root beside a non-real factor."""
    a = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    power = Poly([-a, 1]) ** draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("full", "lower", "no-root", "beyond-bound", "non-real")))
    if kind == "full":
        f = power
    elif kind == "lower":
        other = st.one_of(_linear, st.sampled_from(_QUADRATICS)).filter(lambda p: p(a) != 0)
        f = power * draw(other)
    elif kind == "non-real":
        f = power * draw(st.sampled_from(_NONREAL))
    else:
        f = draw(_polys.filter(lambda p: p.degree > 0 and p(a) != 0))
        if kind == "beyond-bound":
            B = roots._squarefree_chain(f, "roots_within")[1]
            a = (B + draw(st.sampled_from((0, Fraction(1, 3), 5)))) * draw(st.sampled_from((1, -1)))
    return f.scale(draw(_leads)), a, kind


def test_one_point_interval_reads_the_chain():
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(point_queries())
    def check(query):
        f, a, kind = query
        within = roots_within(f, a, a)
        assert within == (polynomial.root_multiplicity(f, a) == f.degree), (f, a)
        seen[kind, within] += 1

    check()
    assert set(seen) == {
        ("full", True), ("lower", False), ("no-root", False), ("beyond-bound", False),
        ("non-real", False),
    }, seen


_interval_ends = st.one_of(_endpoints, st.sampled_from((Fraction(-1), Fraction(0), Fraction(1))))


def test_simple_roots_within_answers_both_questions():
    seen = collections.Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(_polys, palindromes()), _interval_ends, _interval_ends)
    def check(f, a, b):
        lo, hi = sorted((a, b))
        if lo == hi:
            return
        both = roots.simple_roots_within(f, lo, hi)
        assert both == (is_simple_rooted(f), roots_within(f, lo, hi)), (f, lo, hi)
        at_root = any(end not in (NEG_INF, POS_INF) and f(end) == 0 for end in (lo, hi))
        seen[root_oracle.palindromic_half(f) is not None, at_root, *both] += 1

    check()
    # palindromes, which is_simple_rooted reads at half degree, and endpoints
    # that are roots reach every verdict pair that can occur
    for half in (True, False):
        for key in ((True, True), (True, False), (False, False)):
            assert seen[half, False, *key], seen
    for key in ((True, True), (True, False), (False, True), (False, False)):
        assert seen[True, True, *key] + seen[False, True, *key], seen


def _no_yun(*args, **kwargs):
    raise AssertionError("a root question ran the Yun route")


def _outcome(fn, *args):
    """fn(*args), or the type of the NotRealRootedError it raised."""
    try:
        return fn(*args)
    except NotRealRootedError:
        return NotRealRootedError


def _dominance_reads(f, g):
    """The polynomials whose chains `root_dominance(f, g)` builds: f, then g
    once f is real-rooted, then the gcd c of their square-free parts once g
    is too and c is not constant."""
    if not root_oracle.is_real_rooted(f):
        return [f]
    if not root_oracle.is_real_rooted(g):
        return [f, g]
    c = polynomial.poly_gcd(polynomial.squarefree_part(f), polynomial.squarefree_part(g))
    return [f, g] + ([c] if c.degree > 0 else [])


def test_real_rootedness_reads_one_chain():
    cases = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_polys)
    def collect(f):
        cases.append((f, root_oracle.is_real_rooted(f), root_oracle.is_simple_rooted(f),
                      root_oracle.count_distinct_real_roots(f)))

    collect()
    b = b_euler_q(20, 1)
    cases.append((b, True, True, b.degree))
    # palindromes at both parities, with and without x^2, real-rooted or not
    for f in (Poly([0, 0, 1, 3, 3, 1]), Poly([0, 1, 0, 1]), Poly([2, 5, 2]), Poly([1, 1, 1])):
        cases.append((f, root_oracle.is_real_rooted(f), root_oracle.is_simple_rooted(f),
                      root_oracle.count_distinct_real_roots(f)))
    # each f against itself and against x^deg f, with the oracle's verdicts
    # and the polynomials whose chains root dominance builds
    pairs = []
    for f, _, _, _ in cases:
        f = f if f.is_standard else -f
        for g in (f, monomial(f.degree)):
            pairs.append((f, g, _outcome(root_oracle.root_dominance, f, g), _dominance_reads(f, g)))
    points = [root_oracle.sample_points_between_roots(f) for f, _, _, _ in cases]
    within = [f.degree > 0 and root_oracle.roots_within(f, -1, 0) for f, _, _, _ in cases]
    chains = []
    real_chain = roots.sturm_chain

    def counted_chain(f):
        chains.append(f)
        return real_chain(f)

    def reads(fn, *args):
        """fn(*args) and the polynomials whose Sturm chains it built."""
        chains.clear()
        return _outcome(fn, *args), list(chains)

    assert not hasattr(roots, "poly_gcd")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("squarefree_part", "poly_gcd"):
            mp.setattr(polynomial, name, _no_yun)
        mp.setattr(roots, "sturm_chain", counted_chain)
        for (f, real, simple, distinct), sample, inside in zip(cases, points, within):
            # a palindrome is decided on the chain of its half g, also when
            # x^2 divides it
            half = root_oracle.palindromic_half(f)
            real_reads = [f] if half is None else [half[0]]
            assert reads(is_real_rooted, f) == (real, real_reads)
            assert reads(is_simple_rooted, f) == (simple, real_reads)
            assert reads(roots.rootedness, f) == ((real, simple), real_reads)
            assert reads(distinct_real_roots, f) == (distinct, [f])
            assert reads(roots.sample_points_between_roots, f) == (sample, [f])
            if f.degree > 0:
                # roots_within reads the verdict of rootedness, then Descartes
                # counts that build no chain
                assert reads(roots_within, f, NEG_INF, POS_INF) == (real, real_reads)
                assert reads(roots_within, f, -1, 0) == (inside, real_reads)
        for f, g, expected, built in pairs:
            assert reads(root_dominance, f, g) == (expected, built)
    assert {expected for _, _, expected, _ in pairs} == {True, False, NotRealRootedError}
    assert {len(built) for _, _, _, built in pairs} == {1, 2, 3}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "is_real_rooted", _no_yun)
        for f, real, _, _ in cases:
            assert roots_within(f, NEG_INF, POS_INF) == real


# -- the one bisection, against the isolation route --------------------------------

# 0 is the first split point of (-B, B], and -1/2 a later one for some B
_split_roots = st.sampled_from((Fraction(0), Fraction(-1, 2))).map(lambda r: Poly([-r, 1]))
_real_linear = st.one_of(_split_roots, _linear)
_real_factor = st.one_of(_real_linear, st.sampled_from(_QUADRATICS))
_positive = st.fractions(min_value=Fraction(1, 3), max_value=4, max_denominator=3)


def _same_degree(h):
    """Real-rooted factors of the degree of h."""
    if h.degree == 1:
        return _real_linear
    return st.one_of(st.sampled_from(_QUADRATICS), st.builds(Poly.__mul__, _real_linear, _real_linear))


@st.composite
def dominance_pairs(draw):
    """Standard real-rooted (f, g) of equal degree, with repeated, shared and
    irrational roots.  A "shift" moves every root of f right by s >= 0, so f
    dominates g; a "replace" swaps each factor of f for one of its degree."""
    factors = draw(st.lists(st.tuples(_real_factor, st.integers(1, 2)), max_size=3))
    f = _product(factors, draw(_positive))
    if draw(st.booleans()):
        s = draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
        g = f.affine_compose(1, -s).scale(draw(_positive))
    else:
        g = _product([(draw(_same_degree(h)), m) for h, m in factors], draw(_positive))
    shared = _product(draw(st.lists(st.tuples(_real_linear, st.integers(1, 2)), max_size=1)))
    f, g = f * shared, g * shared
    return (g, f) if draw(st.booleans()) else (f, g)


@st.composite
def dominance_inputs(draw):
    """(kind, f, g): a dominance pair, that pair as f = g, the pair times
    high powers of linear factors, or the pair with a non-real quadratic in f
    and a real one in g, so that f is not real-rooted."""
    f, g = draw(dominance_pairs())
    kind = draw(st.sampled_from(("pair", "equal", "high", "nonreal")))
    if kind == "equal":
        g = f
    elif kind == "high":
        m = draw(st.integers(3, 6))
        f, g = f * draw(_real_linear) ** m, g * draw(_real_linear) ** m
    elif kind == "nonreal":
        f, g = f * draw(st.sampled_from(_NONREAL)), g * draw(st.sampled_from(_QUADRATICS))
    return kind, f, g


def test_root_dominance_matches_isolation_route():
    """Both argument orders of each pair, against the merged-positions route
    and the product-chain route, down to the NotRealRootedError."""
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(dominance_inputs())
    def check(drawn):
        kind, f, g = drawn
        for a, b in ((f, g), (g, f)):
            verdict = _outcome(root_dominance, a, b)
            assert verdict == _outcome(root_oracle.root_dominance, a, b), (a, b)
            assert verdict == _outcome(root_oracle.product_chain_root_dominance, a, b), (a, b)
            seen[verdict] += 1
        seen[kind] += 1
        if kind != "nonreal":
            seen["shared"] += polynomial.poly_gcd(f, g).degree > 0

    check()
    assert all(seen[key] >= 30 for key in ("pair", "equal", "high", "nonreal", "shared")), seen
    assert all(seen[key] >= 50 for key in (True, False, NotRealRootedError)), seen


def test_dominance_points_separate_the_roots_of_the_product():
    """`root_dominance` bisects on n_f + n_g - n_c: over (-B, B] that counts
    every distinct root of fg, and its points put exactly one root of fg
    between neighbours."""
    product = []
    real_sample = roots._sample_points

    def checked(chains, B):
        fg = product[0]
        distinct = root_oracle.count_distinct_real_roots(fg)
        assert sum(sign * roots._chain_count(chain, -B, B) for chain, sign in chains) == distinct
        points = real_sample(chains, B)
        assert len(points) == distinct + 1 and points == sorted(set(points))
        sf = polynomial.squarefree_part(fg)
        chain = roots.sturm_chain(sf)
        assert all(sf(t) != 0 for t in points)
        assert all(roots._chain_count(chain, a, b) == 1 for a, b in zip(points, points[1:]))
        return points

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dominance_inputs().filter(lambda drawn: drawn[0] != "nonreal"))
    def check(drawn):
        _, f, g = drawn
        product[:] = [f * g]
        root_dominance(f, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_sample_points", checked)
        check()


_shift_points = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(10**4, 10**5)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(2**63, 2**64)),
)


def test_taylor_shift_count_matches_derivative_values():
    """The Descartes count off one integer Taylor shift equals the sign
    variations of the derivative values at t, zeros skipped."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            _polys,
            st.builds(_product, _factors, _leads),
            _constants,
            st.lists(st.integers(-9, 9), min_size=31, max_size=41).map(Poly),
        ),
        _shift_points,
    )
    @example(Poly([-1, 0, 1]), Fraction(1))  # f(t) = 0, f' and f'' positive
    @example(Poly([0, 0, 0, 1]), Fraction(0))  # every value but the last is 0
    @example(Poly([3]), Fraction(98765, 43210))
    @example(ZERO, Fraction(5, 7))
    @example(Poly(range(-17, 19)) * Poly([-1, 3]) ** 3, Fraction(1, 3))
    @example(Poly(range(1, 40)), Fraction(-12345, 2**64 - 59))
    def check(f, t):
        derivs = [f.derivative(k) for k in range(len(f.nums))]
        assert roots._descartes_count(f, t) == roots._variations(derivs, t)
        seen.add(("zero" if any(p(t) == 0 for p in derivs) else "nonzero", t.denominator > 10**4))
        seen.add("constant" if f.degree == 0 else "t = 0" if t == 0 else "integer" if t.denominator == 1 else "")

    check()
    assert {"constant", "t = 0", "integer"} <= seen, seen
    assert {("zero", False), ("nonzero", False), ("nonzero", True)} <= seen, seen


_sign_polys = st.builds(
    _product,
    st.lists(
        st.tuples(st.one_of(_real_linear, st.sampled_from(_QUADRATICS + _NONREAL)), st.integers(1, 3)),
        max_size=4,
    ),
    _leads,
)


def test_sign_check_matches_yun_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_sign_polys)
    def check(p):
        nonneg = root_oracle.check_nonneg_on_reals(p)
        witness = negative_witness(p)
        assert check_nonneg_on_reals(p) == nonneg == (witness is None)
        if witness is not None:
            assert p(witness) < 0
        seen.add((p.degree > 0, nonneg))

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_sample_points_match_squarefree_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_sign_polys)
    def check(p):
        points = roots.sample_points_between_roots(p)
        assert points == root_oracle.sample_points_between_roots(p)
        seen.add(roots.sturm_chain(p)[-1].degree > 0)

    check()
    assert seen == {False, True}


def test_sample_points_read_each_member_once_per_split_point():
    """At a point the bisection keeps, each chain member is read once, by one
    `horner` call; at a point it moves off, only first members are read."""
    real_sample, real_horner = roots._sample_points, roots.horner
    seen = set()

    def counted(chains, B):
        calls = collections.Counter()

        def spy(nums, a, b=1):
            calls[Fraction(a, b)] += 1
            return real_horner(nums, a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(roots, "horner", spy)
            points = real_sample(chains, B)
        members = sum(len(chain) for chain, _ in chains)
        for x, n in calls.items():
            if any(chain[0](x) == 0 for chain, _ in chains):
                assert 1 <= n <= len(chains), (x, n)
                seen.add("moved")
            else:
                assert n == members, (x, n, members)
        seen.add(len(chains))
        return points

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(dominance_inputs().filter(lambda drawn: drawn[0] != "nonreal"), _sign_polys)
    def check(drawn, p):
        _, f, g = drawn
        root_dominance(f, g)
        roots.sample_points_between_roots(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_sample_points", counted)
        check()
    assert {"moved", 1, 2, 3} <= seen, seen


def test_sample_points_separate_the_roots():
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_sign_polys)
    def check(p):
        points = roots.sample_points_between_roots(p)
        assert points == sorted(set(points))
        assert all(p(t) != 0 for t in points)
        # with k distinct roots, k + 1 points and one root between neighbours
        # leave exactly one point below, between and above the roots
        assert len(points) == root_oracle.count_distinct_real_roots(p) + 1
        chain = roots.sturm_chain(polynomial.squarefree_part(p))
        assert all(roots._chain_count(chain, a, b) == 1 for a, b in zip(points, points[1:]))

    check()
