import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyafreq.errors import PreconditionError, ZeroPolynomialError
from polyafreq.polynomial import (
    NEG_INF,
    POS_INF,
    Poly,
    ZERO,
    binom,
    binomial_poly,
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
    hypergeom_2f1,
    is_multiplier_n_sequence,
    jacobi_poly,
    reflect,
    to_binomial_basis,
    w_transform,
)

IR = InterlaceRelation

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=5)


def polys(max_degree=10):
    return st.lists(rationals, max_size=max_degree + 1).map(Poly)


def from_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


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


def test_binom_negative_is_n_sequence():
    for n in (1, 2, 3, 4, 6):
        for r in (Fraction(0), Fraction(1), Fraction(5, 2)):
            assert is_multiplier_n_sequence(MultiplierSeq.binom_negative(n, r), n)


def test_hypergeom_frozen():
    assert hypergeom_2f1(-2, 3, 1) == Poly([1, -6, 6])
    assert hypergeom_2f1(-5, Fraction(1, 2), Fraction(7, 3))(0) == 1
    with pytest.raises(PreconditionError):
        hypergeom_2f1(-3, 2, -1)


def test_jacobi_identity_with_2f1():
    # P_n^{(0, r-1)}(1 - 2x) = 2F1(-n, n+r; 1; x)
    for n in (1, 2, 3, 5):
        for r in (Fraction(1), Fraction(2), Fraction(7, 2)):
            lhs = jacobi_poly(n, 0, r - 1).affine_compose(-2, 1)
            rhs = hypergeom_2f1(-n, n + r, 1)
            assert lhs == rhs
    assert jacobi_poly(2, 0, 0).affine_compose(-2, 1) == Poly([1, -6, 6])


def test_jacobi_roots_inside_unit_interval():
    for n in (2, 4):
        p = jacobi_poly(n, Fraction(1, 2), Fraction(3, 2))
        assert roots_within(p, -1, 1)


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
