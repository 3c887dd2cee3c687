"""Integer routes against the `Fraction` routes they replaced.

`Poly` stores integer numerators over one denominator.  `Poly.__call__`
evaluates by integer Horner on the homogenised form of those numerators,
and `poly_gcd` and `sturm_chain` run primitive pseudo-remainder sequences on
them.  The oracles below are the `Fraction` routes those functions used
before, built from the coefficient-tuple loops of `poly_oracle`: Horner over
`Fraction`, and Euclidean remainder sequences with a `content`-scaled
primitive part.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import poly_oracle as oracle
from poly_oracle import content, primitive_part
from polyafreq.combinatorics import eulerian_poly
from polyafreq.polynomial import (
    Poly,
    ZERO,
    _primitive_remainder,
    monic,
    poly_gcd,
)
from polyafreq.roots import sturm_chain


def fraction_horner(f: Poly, x0) -> Fraction:
    return oracle.horner(f.coeffs, x0)


def fraction_primitive(f: Poly) -> Poly:
    return ZERO if f.is_zero else Poly(oracle.scale(f.coeffs, 1 / content(f)))


def fraction_mod(f: Poly, g: Poly) -> Poly:
    return Poly(oracle.divmod_(f.coeffs, g.coeffs)[1])


def fraction_gcd(f: Poly, g: Poly) -> Poly:
    a, b = f, g
    while not b.is_zero:
        a, b = b, fraction_primitive(fraction_mod(a, b))
    return a if a.is_zero else Poly(oracle.scale(a.coeffs, 1 / a.coeffs[-1]))


def fraction_sturm_chain(f: Poly) -> list[Poly]:
    chain = [fraction_primitive(f)]
    d = Poly(oracle.derivative(f.coeffs))
    if not d.is_zero:
        chain.append(fraction_primitive(d))
        while True:
            r = fraction_mod(chain[-2], chain[-1])
            if r.is_zero:
                break
            chain.append(fraction_primitive(Poly(oracle.neg(r.coeffs))))
    return chain


small = st.fractions(min_value=-12, max_value=12, max_denominator=9)
nonzero_small = small.filter(lambda c: c != 0)
int_polys = st.lists(st.integers(-50, 50), max_size=14).map(Poly)
rational_polys = st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=30), max_size=14).map(Poly)
points = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-6, max_value=6, max_denominator=64),
    # large denominators, as deep bisection points have
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**64)),
)


def linear(r: Fraction) -> Poly:
    return Poly([-r, 1])


def quadratic(p: Fraction, q: Fraction) -> Poly:
    """x^2 + p x + q: irreducible over the reals when p^2 < 4q."""
    return Poly([q, p, 1])


factors = st.one_of(small.map(linear), st.tuples(small, small).map(lambda t: quadratic(*t)))
#: A product c * prod(h_i^{m_i}) with a rational c, possibly negative.
factored = st.tuples(
    nonzero_small, st.lists(st.tuples(factors, st.integers(1, 3)), max_size=4)
).map(lambda t: _product(t[0], t[1]))


def _product(c, parts) -> Poly:
    out = Poly([c])
    for h, m in parts:
        out = out * h**m
    return out


# -- evaluation ----------------------------------------------------------------


def test_eval_zero_and_constants():
    for x0 in (0, -3, Fraction(-7, 2), Fraction(5, 2**40)):
        assert ZERO(x0) == 0 and isinstance(ZERO(x0), Fraction)
        assert Poly([Fraction(-5, 3)])(x0) == Fraction(-5, 3)
        assert Poly([4])(x0) == 4


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(int_polys, rational_polys), points)
def test_eval_matches_fraction_horner(f, x0):
    value = f(x0)
    assert isinstance(value, Fraction)
    assert value == fraction_horner(f, x0)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(int_polys, rational_polys).filter(lambda f: not f.is_zero), small, st.integers(1, 3))
def test_eval_vanishes_at_exact_rational_roots(g, r, m):
    f = g * linear(r) ** m
    assert f(r) == 0 == fraction_horner(f, r)
    # just off the root the value is the oracle's, sign included
    for x0 in (r - Fraction(1, 10**12), r + Fraction(1, 3**30)):
        assert f(x0) == fraction_horner(f, x0)


# -- remainder sequences ------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=12),
    st.lists(st.integers(-30, 30), min_size=1, max_size=8).filter(lambda b: b[-1] != 0),
)
def test_primitive_remainder_keeps_the_sign(a, b):
    expected = fraction_primitive(fraction_mod(Poly(a), Poly(b)))
    assert Poly(_primitive_remainder(a, b)) == expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.one_of(int_polys, rational_polys))
def test_primitive_part_matches_content_scaling(f):
    assert primitive_part(f) == fraction_primitive(f)
    assert primitive_part(-f) == -primitive_part(f)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored, factored, st.lists(st.tuples(factors, st.integers(1, 2)), max_size=2))
def test_gcd_matches_fraction_euclid(f, g, shared):
    common = _product(1, shared)
    f, g = f * common, g * common
    assert poly_gcd(f, g) == fraction_gcd(f, g)
    assert poly_gcd(g, f) == fraction_gcd(g, f)
    assert poly_gcd(f, ZERO) == fraction_gcd(f, ZERO) == monic(f)
    assert poly_gcd(ZERO, g) == monic(g)


def test_gcd_of_zeros():
    assert poly_gcd(ZERO, ZERO) == ZERO == fraction_gcd(ZERO, ZERO)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored)
def test_sturm_chain_matches_fraction_route(f):
    assert sturm_chain(f) == fraction_sturm_chain(f)


def test_sturm_chain_of_constants_and_zero():
    assert sturm_chain(ZERO) == fraction_sturm_chain(ZERO) == [ZERO]
    assert sturm_chain(Poly([Fraction(-3, 4)])) == fraction_sturm_chain(Poly([Fraction(-3, 4)])) == [Poly([-1])]


def test_sturm_chain_of_eulerian_29():
    f = eulerian_poly(29)
    assert f.degree == 29
    chain = sturm_chain(f)
    assert chain == fraction_sturm_chain(f)
    # square-free with 29 real roots: one member per degree, leading signs all positive
    assert [p.degree for p in chain] == list(range(29, -1, -1))
    assert all(p.leading > 0 for p in chain)
