"""Kernels on integer numerators against the `Fraction` routes they replaced.

Each kernel reads `Poly.nums` and `Poly.den` and builds its result with
`Poly._from_ints`; `fraction_oracle` keeps the route that read
`Poly.coeffs`.  The strategies include the zero polynomial, constants,
denominators that do not cancel, and repeated roots.  The wire is checked
the same way: `poly_from_dict` against one `Fraction(str)` per coefficient,
on texts inside and outside its integer grammar, and `poly_to_dict` against
one printed `Fraction` per coefficient.  `horner` and the sign counts of
`roots` are checked against one `Fraction` per value.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracle as oracle
import poly_oracle
from polyafreq.combinatorics import multisect
from polyafreq.errors import PreconditionError, ZeroPolynomialError
from polyafreq.jsonio import poly_from_dict, poly_to_dict, rational_from_str
from polyafreq.operators import hadamard_product, schur_product
from polyafreq.pf import is_pf_finite
from polyafreq.polynomial import Poly, ZERO, horner, monic, unitize_with_degree
from polyafreq.roots import _variations, cauchy_root_bound, sturm_chain
from polyafreq.suites import _from_roots
from polyafreq.transforms import e_inverse, e_transform

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
polys = st.lists(rationals, max_size=10).map(Poly)
roots = st.lists(st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=4), max_size=8)
few_roots = st.lists(st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=4), max_size=4)
# nonpositive roots give nonnegative coefficients, the inputs on which
# `is_pf_finite` reaches its real-rootedness check
pf_candidates = st.one_of(
    polys,
    st.builds(oracle.from_roots, st.lists(st.fractions(-4, 0, max_denominator=3), max_size=6),
              st.integers(1, 3)),
)

EDGE = [ZERO, Poly([5]), Poly([Fraction(-3, 4)]), Poly([0, Fraction(1, 6)]), Poly([1, 1]) ** 4]


@pytest.mark.parametrize("f", EDGE)
def test_edge_inputs_match(f):
    assert e_transform(f) == oracle.e_transform(f)
    assert e_inverse(f) == oracle.e_inverse(f)
    assert monic(f) == oracle.monic(f)
    for sign in (1, -1):
        assert unitize_with_degree(f, 6, sign) == oracle.unitize_with_degree(f, 6, sign)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys)
def test_e_and_its_inverse_match_the_binomial_basis_routes(f):
    image, preimage = e_transform(f), e_inverse(f)
    assert image == oracle.e_transform(f)
    assert preimage == oracle.e_inverse(f)
    assert e_inverse(image) == f and e_transform(preimage) == f


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    polys | st.lists(st.integers(-9, 9), min_size=31, max_size=41).map(Poly),
    st.integers(0, 3),
    st.sampled_from((1, -1)),
)
@example(ZERO, 3, -1)
@example(Poly([0, 0, Fraction(1, 2**64 - 59), 3]), 2, 1)
def test_unitize_matches_the_power_sum(f, extra, sign):
    d = max(f.degree, 0) + extra
    expected = oracle.unitize_with_degree(f, d, sign)
    assert unitize_with_degree(f, d, sign) == expected == poly_oracle.unitize_binomial(f, d, sign)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(roots, st.integers(0, 2), st.integers(-3, 3))
@example([Fraction(1, 2), Fraction(1, 2), Fraction(-2, 3)], 1, 3)
def test_from_roots_matches_the_linear_factor_product(rs, repeat, lead):
    rs = rs + rs[:repeat]
    assert _from_roots(rs, lead) == oracle.from_roots(rs, lead)
    assert _from_roots(rs) == oracle.from_roots(rs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys, polys)
def test_bilinear_products_match(f, g):
    assert schur_product(f, g) == oracle.schur_product(f, g)
    assert hadamard_product(f, g) == oracle.hadamard_product(f, g)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys, st.integers(1, 4), st.integers(0, 3))
def test_multisect_matches(f, step, offset):
    offset %= step
    assert multisect(f, step, offset) == oracle.multisect(f, step, offset)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pf_candidates)
def test_pf_verdict_matches(f):
    assert is_pf_finite(f) == oracle.is_pf_finite(f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys)
def test_cauchy_bound_and_monic_match(f):
    assert monic(f) == oracle.monic(f)
    if f.is_zero:
        with pytest.raises(ZeroPolynomialError):
            cauchy_root_bound(f)
    else:
        assert cauchy_root_bound(f) == oracle.cauchy_root_bound(f)


# -- evaluation ------------------------------------------------------------------

_huge = st.integers(-(2**200), 2**200)
horner_polys = st.one_of(
    st.just(ZERO),
    st.integers(-9, 9).filter(bool).map(lambda c: Poly([c])),
    polys,
    st.lists(_huge, max_size=8).map(Poly),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(horner_polys, st.integers(-5, 5) | _huge, st.integers(1, 7) | st.integers(1, 2**200))
@example(ZERO, -3, 2)
@example(Poly([Fraction(-7, 3)]), 5, 2**200)
@example(Poly([1, 2, 3]), 6, 4)  # a / b not in lowest terms
def test_horner_matches_one_fraction_per_value(f, a, b):
    """horner(nums, a, b) = b^d * den * f(a/b) for any integers a and b > 0,
    so its sign is that of f(a/b); `Poly.__call__` gives the value."""
    value = oracle.evaluate(f, Fraction(a, b))
    v = horner(f.nums, a, b)
    assert v == value * f.den * b ** max(len(f.nums) - 1, 0)
    assert (v > 0) - (v < 0) == (value > 0) - (value < 0)
    assert f(Fraction(a, b)) == value and type(f(Fraction(a, b))) is Fraction


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(few_roots, st.integers(1, 3)), min_size=1, max_size=2), st.integers(0, 7))
def test_sign_variations_match_one_fraction_per_member(factors, pick):
    """At the roots of chain members, where some values vanish, and between them."""
    f = Poly([1])
    for rs, m in factors:
        f = f * oracle.from_roots(rs) ** m
    chain = sturm_chain(f)
    points = sorted({Fraction(r) for rs, _ in factors for r in rs} | {Fraction(pick, 3), Fraction(-pick, 5)})
    for x0 in points:
        assert _variations(chain, x0) == oracle.variations(chain, x0), x0


# -- the wire --------------------------------------------------------------------

#: Texts on both sides of the grammar \s*[+-]?[0-9]+(/0*[1-9][0-9]*)?\s*.
WIRE_TEXTS = [
    "0", "-0", "+0", "+3", "-12", "007", " 7 ", "\t-2/3\n", "2/4", "-6/8", "0/5", "3/007",
    "1.5", "-.5", "1e3", "2E-2", "1_000", "1/2_0", "1/0", "1/00", "-0/0", "3 / 4", "3/ 4",
    "3/-4", "3/+4", "+-3", "--3", "", " ", "/4", "3/", "1/2/3", "abc", "nan", "inf",
    "\u0663", "1\u0660", "\u00a01", "2\u2003", "\u20031/2", "1" * 4400, "1/" + "7" * 4400,
]
wire_alphabet = st.sampled_from(list("0123456789+-/ .e_\t") + ["\u0663", "\u00a0", "\u2003"])
wire_coeffs = st.one_of(
    st.sampled_from(WIRE_TEXTS),
    st.text(wire_alphabet, max_size=8),
    st.fractions(max_denominator=10**9).map(str),
    st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
)
wire_polys = st.one_of(
    polys,
    st.lists(st.integers(-10**40, 10**40) | st.fractions(max_denominator=10**12), max_size=8).map(Poly),
)


def _outcome(route, coeffs):
    """The polynomial a route builds, or the message of its `PreconditionError`."""
    try:
        return route(coeffs)
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _parse(coeffs):
    return poly_from_dict({"coeffs": coeffs})


@pytest.mark.parametrize("text", WIRE_TEXTS, ids=range(len(WIRE_TEXTS)))
def test_each_wire_text_parses_as_fraction_does(text):
    for coeffs in ([text], ["1/2", text, "3"]):
        assert _outcome(_parse, coeffs) == _outcome(oracle.poly_from_coeffs, coeffs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(wire_coeffs, max_size=6))
@example([1, -2, 0, 3.0])
@example([0.5, "1/3", -0.0])
def test_poly_from_dict_matches_fraction_per_coefficient(coeffs):
    assert _outcome(_parse, coeffs) == _outcome(oracle.poly_from_coeffs, coeffs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wire_polys)
@example(ZERO)
@example(Poly([Fraction(1, 2), Fraction(1, 4), Fraction(-3, 8)]))
@example(Poly([10**40 + 1, Fraction(-(10**39), 7)]))
def test_poly_to_dict_matches_fraction_per_coefficient(f):
    assert poly_to_dict(f) == {"coeffs": oracle.poly_to_coeffs(f)}
    assert poly_from_dict(poly_to_dict(f)) == f


@pytest.fixture
def limit_4300():
    """The default digit limit of `int()`, which the texts below are built around."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


#: Exponent texts on both sides of the digit limit, and malformed ones.
EXPONENT_TEXTS = [
    "1e3", " 2E-2 ", "1.e3", ".5e1", "-0.25e2", "1_0e1_0", "\u0663e\u0662", "1 e3", "1e 3",
    "1/2e3", "e3", "1e3e3", "1e", "1e-", "1e4299", "1e4300", "-1e-4299", "1e-4300", "5e-4300", "2e-4300",
    "3e-4299", "1" * 4299 + "e1", "1" * 4300 + "e1", "0." + "0" * 4298 + "1", "0." + "0" * 4299 + "1",
    "1" * 3000 + "." + "1" * 1300, "1" * 3000 + "." + "1" * 1301, "12e-4310",
]
#: Exponents whose power of ten `Fraction` would take seconds to minutes to build.
HUGE_EXPONENT_TEXTS = {"-1e400000": None, "1e-400000": None, "1e" + "9" * 30: None, "0e999999999": Fraction(0)}


@pytest.mark.parametrize("text", EXPONENT_TEXTS, ids=range(len(EXPONENT_TEXTS)))
def test_rational_from_str_bounds_the_digits_fraction_builds(text, limit_4300):
    assert _outcome(rational_from_str, text) == _outcome(oracle.rational_from_str, text)


@pytest.mark.parametrize("text", HUGE_EXPONENT_TEXTS, ids=range(len(HUGE_EXPONENT_TEXTS)))
def test_rational_from_str_refuses_a_huge_exponent_before_building_it(text, limit_4300):
    """0 has one digit at any exponent; anything else is refused."""
    expected = HUGE_EXPONENT_TEXTS[text]
    if expected is None:
        with pytest.raises(PreconditionError, match="has more than 4300 digits"):
            rational_from_str(text)
    else:
        assert rational_from_str(text) == expected
