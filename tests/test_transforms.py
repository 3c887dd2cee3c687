import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import root_oracle
from fraction_oracle import binomial_poly, from_roots, to_binomial_basis
from polyafreq.config import RunConfig
from polyafreq.errors import ZeroPolynomialError
from polyafreq.jsonio import poly_from_dict
from polyafreq.polynomial import (
    NEG_INF,
    POS_INF,
    Poly,
    ZERO,
    binom,
    monomial,
    unitize_with_degree,
)
from polyafreq.roots import (
    InterlaceRelation,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    roots_within,
)
from polyafreq.transforms import (
    MultiplierSeq,
    apply_multiplier,
    e_inverse,
    e_multiplicity_at_minus_one,
    e_transform,
    is_multiplier_n_sequence,
    reflect,
    w_transform,
)
from polyafreq.suites import _gen_identities

IR = InterlaceRelation

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def polys(max_degree=10):
    return st.lists(rationals, max_size=max_degree + 1).map(Poly)


def test_binomial_basis_frozen():
    assert to_binomial_basis(monomial(2)) == [0, 1, 2]
    assert to_binomial_basis(binomial_poly(3)) == [0, 0, 0, 1]
    # difference table of (x+1)(x+2) on values 2, 6, 12
    assert to_binomial_basis(Poly([2, 3, 1])) == [2, 4, 2]


def test_e_transform_frozen():
    assert e_transform(monomial(2)) == Poly([0, 1, 2])
    assert e_transform(binomial_poly(5)) == monomial(5)
    assert e_transform(Poly([2, 3, 1])) == Poly([1, 1]) ** 2 * 2
    assert e_transform(monomial(3)) == Poly([0, 1, 6, 6])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(max_degree=30))
def test_e_round_trip(f):
    assert e_inverse(e_transform(f)) == f
    assert e_transform(e_inverse(f)) == f


def test_reflect():
    assert reflect(Poly([0, 1])) == Poly([-1, -1])
    assert reflect(Poly([0, 1, 1])) == Poly([0, 1, 1])
    assert reflect(monomial(2)) == Poly([1, 2, 1])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(polys(max_degree=20))
def test_reflect_commutes_with_e(f):
    assert reflect(e_transform(f)) == e_transform(reflect(f))


@pytest.mark.parametrize("n", range(1, 21))
def test_shift_identity_on_monomials(n):
    lhs = Poly([1, 1]) * e_transform(monomial(n))
    rhs = Poly([0, 1]) * e_transform(Poly([1, 1]) ** n)
    assert lhs == rhs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys(max_degree=10), st.fractions(min_value=-1, max_value=0, max_denominator=6))
def test_product_rule_identity(f, alpha):
    g = e_transform(f)
    lhs = e_transform(Poly([-alpha, 1]) * f)
    rhs = Poly([-alpha, 1]) * g + Poly([0, 1, 1]) * g.derivative()
    assert lhs == rhs


def test_product_rule_rootedness_conclusions():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 6)
        roots = [Fraction(-rng.randint(0, 12), 12) for _ in range(d)]
        f = e_inverse(from_roots(roots))  # E(f) is [-1,0]-rooted by construction
        alpha = Fraction(-rng.randint(0, 10), 10)
        g = e_transform(f)
        out = e_transform(Poly([-alpha, 1]) * f)
        assert roots_within(out, -1, 0)
        assert interlace_relation(g, out) in {IR.INTERLACES, IR.INTERLACES_STRICT}
        if is_simple_rooted(g):
            assert is_simple_rooted(out)


def test_w_transform_frozen():
    assert w_transform(Poly([0, 1])) == Poly([0, 1])
    assert w_transform(Poly([2, 3, 1])) == Poly([2])
    assert w_transform(Poly([1, 2])) == Poly([1, 1])
    assert w_transform(Poly([5])) == Poly([5])
    with pytest.raises(ZeroPolynomialError):
        w_transform(ZERO)


def test_w_transform_series_oracle():
    # sum_{i>=0} f(i) x^i * (1-x)^{d+1} must agree with W(f) as a power series
    rng = random.Random(3)
    for _ in range(10):
        f = Poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
        d = f.degree
        w = w_transform(f)
        N = 25
        series = [f(i) for i in range(N)]
        minus = Poly([1, -1]) ** (d + 1)
        prod = [
            sum(series[j] * minus.coeff(i - j) for j in range(max(0, i - d - 1), i + 1))
            for i in range(N - d - 2)
        ]
        for i, c in enumerate(prod):
            assert c == w.coeff(i)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys().filter(lambda f: not f.is_zero))
def test_w_transform_unitizes_back_to_e(f):
    # W(f) is E(f) de-unitized at d = deg f; unitizing at the same d undoes it
    assert unitize_with_degree(w_transform(f), f.degree) == e_transform(f)


def test_e_multiplicity_at_minus_one():
    assert e_multiplicity_at_minus_one(Poly([2, 3, 1])) == 2
    assert e_multiplicity_at_minus_one(monomial(7)) == 0
    assert e_multiplicity_at_minus_one(Poly([1, 1])) == 1
    staircase = Poly([1, 1]) * Poly([2, 1]) * Poly([3, 1])
    assert e_multiplicity_at_minus_one(staircase) == 3
    assert e_multiplicity_at_minus_one(staircase * Poly([7, 1])) == 3
    with pytest.raises(ZeroPolynomialError):
        e_multiplicity_at_minus_one(ZERO)


def staircase_length(f):
    """The largest k with (x+1)(x+2)...(x+k) dividing f, by trial division."""
    k = 0
    while True:
        quotient, remainder = divmod(f, Poly([k + 1, 1]))
        if not remainder.is_zero:
            return k
        f = quotient
        k += 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys(max_degree=6).filter(lambda f: not f.is_zero), st.integers(0, 5))
def test_e_multiplicity_matches_staircase_divisors(f, k):
    for j in range(1, k + 1):
        f = f * Poly([j, 1])
    assert e_multiplicity_at_minus_one(f) == staircase_length(f)


def test_e_multiplicity_matches_staircase_on_w_degree_law_inputs():
    inputs = [
        poly_from_dict(p["poly"])
        for p in _gen_identities(RunConfig(seed=0))
        if p["kind"] == "w-degree-law"
    ]
    assert len(inputs) == 25
    for f in inputs:
        assert e_multiplicity_at_minus_one(f) == staircase_length(f)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys(max_degree=8).filter(lambda f: not f.is_zero))
def test_degree_law_of_w(f):
    w = w_transform(f)
    drop = e_multiplicity_at_minus_one(f)
    expected = f.degree - drop
    assert (w.degree if not w.is_zero else -1) == expected


def test_apply_multiplier_gamma_shift_closed_form():
    for n in (1, 2, 5):
        for q in (Fraction(3), Fraction(-1, 2)):
            seq = MultiplierSeq.gamma_shift(q)
            image = apply_multiplier(seq, Poly([1, 1]) ** n)
            closed = Poly([1, 1]) ** (n - 1) * Poly([q, n + q])
            assert image == closed


def test_factorial_inverse_round_trip():
    import math

    f = Poly([5, 7, 11, 13])
    seq = MultiplierSeq.factorial_inverse()
    scaled = Poly([c * math.factorial(k) ** 2 for k, c in enumerate(f.coeffs)])
    assert apply_multiplier(seq, apply_multiplier(seq, scaled)) == f


def test_binom_negative_example():
    seq = MultiplierSeq.binom_negative(2, 1)
    assert [seq.term(k) for k in range(3)] == [1, -3, 6]
    assert apply_multiplier(seq, Poly([1, 2, 1])) == Poly([1, -6, 6])


def test_multiplier_n_sequence_laguerre_shift():
    assert not is_multiplier_n_sequence(MultiplierSeq.gamma_shift(-1), 3)
    assert is_multiplier_n_sequence(MultiplierSeq.gamma_shift(1), 5)
    assert is_multiplier_n_sequence(MultiplierSeq.binom_negative(2, 1), 2)
    # q is admissible exactly outside (-n, 0)
    for n in (2, 3, 5):
        for q in (Fraction(0), Fraction(1, 2), Fraction(-n), Fraction(-n - 2), Fraction(3)):
            assert is_multiplier_n_sequence(MultiplierSeq.gamma_shift(q), n)
        for q in (Fraction(-1, 2), Fraction(-n + 1), Fraction(-2 * n + 1, 2)):
            assert not is_multiplier_n_sequence(MultiplierSeq.gamma_shift(q), n)


# linear factors with a root at 0 or of either sign, quadratics with roots of
# one sign or of both, and non-real quadratics
_image_factors = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3).map(lambda r: Poly([-r, 1])),
    st.sampled_from((Poly([0, 1]), Poly([-2, 0, 1]), Poly([1, 6, 6]), Poly([1, -4, 2]),
                     Poly([1, 0, 1]), Poly([1, 1, 1]))),
)


@st.composite
def multiplier_images(draw):
    """(seq, n, h): an explicit sequence whose image of (x+1)^n is h."""
    factors = draw(st.lists(st.tuples(_image_factors, st.integers(1, 2)), max_size=3))
    h = Poly([draw(st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool))])
    for p, m in factors:
        h = h * p ** m
    n = h.degree + draw(st.integers(0, 2))
    seq = MultiplierSeq.explicit([h.coeff(k) / binom(n, k) for k in range(n + 1)])
    return seq, n, h


def test_multiplier_n_sequence_matches_two_interval_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(multiplier_images())
    def check(drawn):
        seq, n, h = drawn
        assert apply_multiplier(seq, Poly([1, 1]) ** n) == h
        verdict = is_multiplier_n_sequence(seq, n)
        assert verdict == root_oracle.is_multiplier_n_sequence(seq, n)
        seen.add(verdict)
        if h.degree == 0:
            seen.add("constant")
        if h.coeff(0) == 0:
            seen.add("root at 0")
        if not is_real_rooted(h):
            seen.add("non-real")
        elif not (roots_within(h, NEG_INF, 0) or roots_within(h, 0, POS_INF)):
            seen.add("both signs")

    check()
    assert seen == {True, False, "constant", "root at 0", "non-real", "both signs"}


def test_binom_negative_is_n_sequence():
    for n in (1, 2, 3, 4, 6):
        for r in (Fraction(0), Fraction(1), Fraction(5, 2)):
            assert is_multiplier_n_sequence(MultiplierSeq.binom_negative(n, r), n)


def test_e_image_of_nonneg_combinations():
    # combinations sum a_i x^i (x+1)^{d-i} with a_i >= 0 map to simple
    # [-1, 0]-rooted images squeezed between the extreme basis images
    rng = random.Random(23)
    for _ in range(15):
        d = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(0, 9)) for _ in range(d + 1)]
        if not any(coeffs):
            coeffs[rng.randrange(d + 1)] = Fraction(1)
        f = ZERO
        for i, a in enumerate(coeffs):
            if a:
                f = f + (monomial(i) * Poly([1, 1]) ** (d - i)).scale(a)
        image = e_transform(f)
        assert is_simple_rooted(image)
        assert roots_within(image, -1, 0)
        lowest = e_transform(Poly([1, 1]) ** d)
        highest = e_transform(monomial(d))
        for lhs, rhs in ((lowest, image), (image, highest)):
            assert interlace_relation(lhs, rhs) in {IR.ALTERNATES_LEFT, IR.ALTERNATES_LEFT_STRICT}


def test_integer_filled_root_polynomials_map_to_nonpositive():
    rng = random.Random(31)
    for _ in range(15):
        lam = -rng.randint(1, 3)
        Lam = rng.randint(0, 3)
        f = Poly([1])
        for k in range(lam, 0):
            f = f * Poly([-k, 1])
        for k in range(0, Lam + 1):
            f = f * Poly([-k, 1])
        for _ in range(rng.randint(0, 2)):
            num = rng.randint(lam * 4, Lam * 4)
            f = f * Poly([-Fraction(num, 4), 1])
        assert roots_within(e_transform(f), NEG_INF, 0)
