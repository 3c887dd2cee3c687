from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyafreq.errors import ExactDivisionError, ZeroPolynomialError
from polyafreq.polynomial import (
    NEG_INF,
    POS_INF,
    Poly,
    ZERO,
    binom,
    binomial_poly,
    content,
    monomial,
    poly_gcd,
    primitive_part,
    root_multiplicity,
    squarefree_decomposition,
    squarefree_part,
    unitize_with_degree,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def polys(max_degree=12):
    return st.lists(rationals, max_size=max_degree + 1).map(Poly)


def test_trimming_and_zero():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero
    assert Poly().degree == NEG_INF
    assert NEG_INF < -10**9 and NEG_INF < Fraction(-1, 3) and POS_INF > 10**9
    assert -NEG_INF == POS_INF


def test_mul_square():
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])


def test_exact_divide():
    q = Poly([-1, 0, 1]).exact_divide(Poly([-1, 1]))
    assert q == Poly([1, 1])
    with pytest.raises(ExactDivisionError):
        Poly([1, 0, 1]).exact_divide(Poly([-1, 1]))


def test_add_inverse():
    f = Poly([3, -2, 7])
    assert (f + (-f)).is_zero


def test_derivative():
    assert monomial(3).derivative() == Poly([0, 0, 3])
    assert Poly([1, 2, 1]).derivative(2) == Poly([2])
    assert Poly([5]).derivative().is_zero
    assert ZERO.derivative() == ZERO


def test_affine_compose():
    assert Poly([0, 0, 1]).affine_compose(1, 1) == Poly([1, 2, 1])
    assert Poly([0, 1]).affine_compose(-1, -1) == Poly([-1, -1])
    assert Poly([-1, 0, 1]).affine_compose(2, 0) == Poly([-1, 0, 4])


def test_eval():
    assert Poly([-1, 0, 1])(2) == 3
    assert Poly([7, 9])(0) == 7
    assert Poly([1, 4, 1])(-1) == -2


def test_mobius_unitize_examples():
    assert unitize_with_degree(Poly([0, 1]), 1) == Poly([0, 1])
    assert unitize_with_degree(monomial(2), 2) == monomial(2)
    # x + 4x^2 + x^3 -> x(1+x)^2 + 4x^2(1+x) + x^3
    assert unitize_with_degree(Poly([0, 1, 4, 1]), 3) == Poly([0, 1, 6, 6])
    # x + 6x^2 + 6x^3 -> x(1-x)^2 + 6x^2(1-x) + 6x^3
    assert unitize_with_degree(Poly([0, 1, 6, 6]), 3, sign=-1) == Poly([0, 1, 4, 1])
    # a degree above deg f adds a (1 +- x) factor per step
    assert unitize_with_degree(Poly([2]), 2, sign=-1) == Poly([2, -4, 2])
    assert unitize_with_degree(ZERO, 3) == ZERO
    with pytest.raises(ValueError):
        unitize_with_degree(Poly([0, 1, 4, 1]), 2)


def test_binomial_poly():
    assert binomial_poly(0) == Poly([1])
    assert binomial_poly(2) == Poly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert binom(-3, 2) == 6
    assert binom(Fraction(-5, 2), 1) == Fraction(-5, 2)
    assert binom(4, 7) == 0


def test_gcd_and_squarefree():
    f = Poly([1, 1]) ** 2 * Poly([0, 1])
    assert poly_gcd(f, f.derivative()) == Poly([1, 1])
    assert squarefree_part(f) == Poly([1, 1]) * Poly([0, 1])
    decomp = squarefree_decomposition(f)
    assert decomp == [(Poly([0, 1]), 1), (Poly([1, 1]), 2)]
    assert root_multiplicity(f, -1) == 2
    assert root_multiplicity(f, 5) == 0


def test_squarefree_of_constant():
    assert squarefree_decomposition(Poly([4])) == []
    with pytest.raises(ZeroPolynomialError):
        squarefree_decomposition(ZERO)


def test_content_primitive():
    f = Poly([Fraction(2, 3), Fraction(4, 3)])
    assert content(f) == Fraction(2, 3)
    assert primitive_part(f) == Poly([1, 2])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys(), rationals)
def test_eval_is_ring_homomorphism(f, g, x0):
    assert (f + g)(x0) == f(x0) + g(x0)
    assert (f * g)(x0) == f(x0) * g(x0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), rationals.filter(lambda a: a != 0), rationals)
def test_affine_compose_inverts(f, a, b):
    g = f.affine_compose(a, b)
    assert g.affine_compose(1 / a, -b / a) == f


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(max_degree=12), st.integers(min_value=0, max_value=3), st.sampled_from([1, -1]))
def test_mobius_round_trip(f, extra, sign):
    # the two substitutions at the same d are inverse to each other
    d = max(f.degree, 0) + extra
    u = unitize_with_degree(f, d, sign)
    assert unitize_with_degree(u, d, -sign) == f


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys(max_degree=8), polys(max_degree=4))
def test_divmod_invariant(f, g):
    if g.is_zero:
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree
