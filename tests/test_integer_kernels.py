"""Kernels on integer numerators against the `Fraction` routes they replaced.

Each kernel reads `Poly.nums` and `Poly.den` and builds its result with
`Poly._from_ints`; `fraction_oracle` keeps the route that read
`Poly.coeffs`.  The strategies include the zero polynomial, constants,
denominators that do not cancel, and repeated roots.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_oracle as oracle
from polyafreq.combinatorics import multisect
from polyafreq.errors import ZeroPolynomialError
from polyafreq.operators import hadamard_product, schur_product
from polyafreq.pf import is_pf_finite
from polyafreq.polynomial import Poly, ZERO, monic, unitize_with_degree
from polyafreq.roots import cauchy_root_bound
from polyafreq.suites import _from_roots
from polyafreq.transforms import e_inverse, e_transform

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)
polys = st.lists(rationals, max_size=10).map(Poly)
roots = st.lists(st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=4), max_size=8)
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
@given(polys, st.integers(0, 3), st.sampled_from((1, -1)))
def test_unitize_matches_the_power_sum(f, extra, sign):
    d = max(f.degree, 0) + extra
    assert unitize_with_degree(f, d, sign) == oracle.unitize_with_degree(f, d, sign)


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
