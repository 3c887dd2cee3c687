"""`Poly` on integer numerators against the `Fraction`-tuple loops it replaced.

Every operation is run both ways, on the zero polynomial, constants,
negative coefficients and leading coefficients, and rationals with
denominators of 64 bits and more.  The results must have the same
coefficients, the same `str` and compare equal, and every result must be in
canonical form: den > 0, gcd(den, *nums) == 1 and no trailing zero.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import poly_oracle as oracle
from polyafreq.errors import ZeroPolynomialError
from polyafreq.jsonio import rational_to_str
from polyafreq import polynomial
from polyafreq.polynomial import ONE, ZERO, Poly, monomial, root_multiplicity

coefficients = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    # denominators of 64 bits and more, as deep bisection points have
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(2**63, 2**90)),
)
#: Coefficient lists; trailing zeros exercise the trimming.
raw = st.lists(coefficients, max_size=9)
polys = raw.map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
scalars = st.one_of(st.integers(-5, 5).map(Fraction), coefficients)

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True)


def assert_canonical(p: Poly) -> None:
    assert type(p.nums) is tuple and all(type(c) is int for c in p.nums)
    assert type(p.den) is int and p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)


def assert_matches(p: Poly, expected: tuple) -> None:
    """p is canonical and is the oracle's coefficient tuple."""
    assert_canonical(p)
    assert p.coeffs == expected
    assert str(p) == oracle.to_str(expected)
    assert p == Poly(expected) and hash(p) == hash(Poly(expected))


@EXAMPLES
@given(raw)
def test_constructor_trims_and_normalises(cs):
    p = Poly(cs)
    assert_matches(p, oracle.trim(cs))
    assert Poly(p.coeffs) == p
    assert Poly(str(c) for c in cs) == p


def test_zero_and_constants():
    assert (ZERO.nums, ZERO.den) == ((), 1)
    assert Poly([0, Fraction(0, 7)]) == ZERO and Poly([]).den == 1
    assert (Poly([Fraction(-6, 4)]).nums, Poly([Fraction(-6, 4)]).den) == ((-3,), 2)
    assert (ONE.nums, ONE.den) == ((1,), 1)
    assert monomial(3, Fraction(-2, 6)) == Poly([0, 0, 0, Fraction(-1, 3)])
    assert Poly([Fraction(1, 2), Fraction(1, 3)]).nums == (3, 2)
    assert Poly._from_ints([2, -4, 0, 0], -6) == Poly([Fraction(-1, 3), Fraction(2, 3)])
    assert Poly._from_ints([0, 0], -5) == ZERO and Poly._from_ints([0, 0], -5).den == 1


@EXAMPLES
@given(polys, polys)
def test_ring_operations_match(f, g):
    a, b = f.coeffs, g.coeffs
    assert_matches(f + g, oracle.add(a, b))
    assert_matches(f - g, oracle.sub(a, b))
    assert_matches(-f, oracle.neg(a))
    assert_matches(f * g, oracle.mul(a, b))
    assert_matches(g * f, oracle.mul(b, a))


@EXAMPLES
@given(polys, scalars)
def test_scale_matches(f, c):
    expected = oracle.scale(f.coeffs, c)
    assert_matches(f.scale(c), expected)
    assert_matches(f * c, expected)
    assert_matches(c * f, expected)


@EXAMPLES
@given(polys)
def test_cancellation_is_canonical(f):
    assert_matches(f - f, ())
    assert_matches(f + (-f), ())
    assert_matches(f.scale(0), ())
    if not f.is_zero:
        # the denominator cancels: the result is monic
        monic = f.scale(1 / f.leading)
        assert_matches(monic, oracle.scale(f.coeffs, 1 / f.coeffs[-1]))
        assert monic.nums[-1] == monic.den


@EXAMPLES
@given(polys, nonzero_polys)
def test_divmod_matches(f, g):
    q_expected, r_expected = oracle.divmod_(f.coeffs, g.coeffs)
    q, r = divmod(f, g)
    assert_matches(q, q_expected)
    assert_matches(r, r_expected)
    assert_matches(f // g, q_expected)
    assert_matches(f % g, r_expected)


@EXAMPLES
@given(polys, nonzero_polys)
def test_exact_division_of_a_product(f, g):
    q, r = divmod(f * g, g)
    assert q == f and r == ZERO
    assert_canonical(q)
    assert (f * g).exact_divide(g) == f


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        divmod(Poly([1, 2]), ZERO)


@EXAMPLES
@given(polys, st.integers(0, 10))
def test_derivative_matches(f, k):
    assert_matches(f.derivative(k), oracle.derivative(f.coeffs, k))


#: a 64-bit denominator, as deep bisection points have
_BIG_DEN = Fraction(12345, 2**64 - 59)


@EXAMPLES
@given(
    st.one_of(
        st.lists(coefficients, max_size=7).map(Poly),
        st.lists(st.integers(-9, 9), min_size=31, max_size=41).map(Poly),
    ),
    scalars,
    scalars,
)
@example(ZERO, Fraction(2), Fraction(1, 3))
@example(Poly(range(-17, 19)), Fraction(0), Fraction(5, 3))
@example(Poly(range(1, 40)), Fraction(-7, 3), _BIG_DEN)
def test_affine_compose_matches(f, s, t):
    assert_matches(f.affine_compose(s, t), oracle.affine_compose(f.coeffs, s, t))


_points = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(2**63, 2**64)),
)


def test_root_multiplicity_matches():
    """The first nonzero coefficient of the shift against division by x - x0,
    on g * (x - x0)^m for multiplicities m of 0 to 4."""
    seen = set()

    @EXAMPLES
    @given(nonzero_polys, _points, st.integers(0, 4))
    @example(Poly([7]), Fraction(0), 0)
    @example(Poly([1, 1]), _BIG_DEN, 4)
    def check(g, x0, m):
        f = g * Poly([-x0, 1]) ** m
        mult = root_multiplicity(f, x0)
        assert mult == oracle.root_multiplicity(f, x0) and mult >= m
        seen.add(mult)
        seen.add("constant" if f.degree == 0 else "x0 = 0" if x0 == 0 else "64-bit" if x0.denominator >= 2**63 else "")

    check()
    assert {0, 1, 2, 3, 4, "constant", "x0 = 0", "64-bit"} <= seen, seen
    for route in (root_multiplicity, oracle.root_multiplicity):
        with pytest.raises(ZeroPolynomialError):
            route(ZERO, 1)


def test_root_multiplicity_shifts_only_at_a_root(monkeypatch):
    """Off a root one Horner value answers 0 and no Taylor shift is built."""
    shifts = []
    real_shift = polynomial._taylor_shift
    monkeypatch.setattr(polynomial, "_taylor_shift", lambda *args: shifts.append(args) or real_shift(*args))
    f = Poly([-1, 0, 1]) ** 2 * Poly([Fraction(2, 3), 1])
    assert [root_multiplicity(f, x0) for x0 in (3, Fraction(1, 2), _BIG_DEN, 1, -1, Fraction(-2, 3))] == [0, 0, 0, 2, 2, 1]
    assert [args[1:] for args in shifts] == [(1, 1), (-1, 1), (-2, 3)]


@EXAMPLES
@given(polys, st.integers(0, 4))
def test_reversed_coeffs_matches(f, extra):
    assert_matches(f.reversed_coeffs(), oracle.reversed_coeffs(f.coeffs))
    d = max(f.degree, 0) + extra
    assert_matches(f.reversed_coeffs(d), oracle.reversed_coeffs(f.coeffs, d))


@EXAMPLES
@given(polys, scalars)
def test_horner_matches(f, x0):
    value = f(x0)
    assert isinstance(value, Fraction)
    assert value == oracle.horner(f.coeffs, x0)


@EXAMPLES
@given(nonzero_polys)
def test_queries_read_the_numerators(f):
    assert f.degree == len(f.coeffs) - 1
    assert f.leading == f.coeffs[-1]
    assert f.is_standard == (f.coeffs[-1] > 0)
    assert [f.coeff(k) for k in range(-1, len(f.coeffs) + 2)] == [0, *f.coeffs, 0, 0]
    assume(f.degree >= 1)
    assert f**2 == f * f and f**0 == ONE


@given(coefficients)
def test_rational_to_str_reads_int_str_and_fraction_alike(q):
    # the string of Fraction(value), as every input was rendered before
    expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    inputs = [q, str(q), f" {q.numerator}/{q.denominator} "]
    if q.denominator == 1:
        inputs.append(q.numerator)
    for value in inputs:
        assert rational_to_str(value) == expected, value
