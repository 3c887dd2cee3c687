import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyafreq.config import RunConfig
from polyafreq.errors import PreconditionError
from polyafreq.jsonio import poly_from_dict
from polyafreq.operators import (
    BivarOp,
    apply_phi,
    check_maincor,
    circ_form,
    diamond_product,
    dot_form,
    hadamard_product,
    hermite_poulain,
    l_phi,
    polya_line_check,
    schur_product,
    sharp_product,
)
from polyafreq.polynomial import Poly, ZERO, monomial, poly_gcd, squarefree_part
from polyafreq.roots import (
    InterlaceRelation,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    roots_within,
)
from polyafreq.suites import _SUITES
from polyafreq.transforms import MultiplierSeq, e_inverse, e_transform

IR = InterlaceRelation
X = Poly([0, 1])
XP1 = Poly([1, 1])

int_polys = st.lists(st.integers(-9, 9), max_size=7).map(Poly)
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sequences = st.sampled_from([
    MultiplierSeq.all_ones(),
    MultiplierSeq.factorial_inverse(),
    MultiplierSeq.gamma_shift(-2),  # lambda_2 = 0 drops one term
    MultiplierSeq.binom_negative(2, Fraction(1, 2)),
])


def from_roots(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def random_real_rooted(rng, max_deg=6, lo=-6, hi=6, den=3):
    d = rng.randint(1, max_deg)
    return from_roots(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(d))


def theorem_53_symbol(t) -> BivarOp:
    t = Fraction(t)
    q0 = Poly([1, 6 + t, 6 + t])
    q1 = X * Poly([1, 2]) * XP1 * 3
    q2 = monomial(2) * XP1 ** 2
    return BivarOp([q0, q1, q2])


def test_apply_phi_basic():
    assert apply_phi(BivarOp([Poly([1]), Poly([1])]), monomial(2)) == Poly([0, 2, 1])
    f = Poly([3, 1, 4, 1])
    assert apply_phi(BivarOp([Poly([1])]), f) == f


def test_apply_phi_matches_direct_recursion():
    # double-stepping the first-order recursion G_n = d/dx(x(1+x) G_{n-1})
    # equals the second-order operator application
    def g_step(p):
        return (X * XP1 * p).derivative()

    g = Poly([1])
    gs = [g]
    for _ in range(8):
        g = g_step(g)
        gs.append(g)
    F = theorem_53_symbol(0)
    for n in range(2, 9):
        assert apply_phi(F, gs[n - 2]) == gs[n]


def test_hermite_poulain_frozen():
    assert hermite_poulain(X, monomial(3)) == Poly([0, 0, 3])
    out = hermite_poulain(Poly([1, 1]), XP1 ** 2)
    assert out == Poly([3, 4, 1])
    out2 = hermite_poulain(XP1 ** 3, monomial(2))
    assert out2 == Poly([6, 6, 1])
    assert is_real_rooted(out) and is_real_rooted(out2)


def test_hermite_poulain_properties():
    rng = random.Random(7)
    for _ in range(40):
        f = random_real_rooted(rng)
        g = random_real_rooted(rng)
        out = hermite_poulain(f, g)
        if out.is_zero:
            continue
        assert is_real_rooted(out)
        multiple = poly_gcd(out, out.derivative())
        if multiple.degree > 0:
            # multiple zeros of the output must be multiple zeros of g
            carrier = poly_gcd(g, g.derivative())
            assert carrier % squarefree_part(multiple) == ZERO


def test_l_phi():
    f = Poly([2, -1, 3])
    assert l_phi(BivarOp([Poly([1])]), f, 0) == f
    assert l_phi(BivarOp([Poly([1]), Poly([1])]), monomial(2), 1) == Poly([3, 4, 1])


def test_l_phi_real_rooted_for_valid_symbol():
    F = theorem_53_symbol(0)
    g1 = Poly([1, 2])
    out = l_phi(F, g1, 1)
    assert out.is_zero or is_real_rooted(out)


def test_check_maincor_theorem_53():
    for t in (Fraction(-3, 2), -1, Fraction(-1, 2), 0, 1, 3):
        rep = check_maincor(theorem_53_symbol(t), 6)
        assert rep.all_hold, (t, rep)
    # the discriminant factors as x^2 (1+x)^2 (2 + t + (3-t)(1+2x)^2)
    for t in (Fraction(-3, 2), -1, 0, 3):
        F = theorem_53_symbol(t)
        disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
        inner = Poly([2 + Fraction(t), 0]) + Poly([1, 2]) ** 2 * (3 - Fraction(t))
        assert disc == monomial(2) * XP1 ** 2 * inner


def test_check_maincor_refutation():
    rep = check_maincor(theorem_53_symbol(-3), 4)
    assert rep.cond_i == "refuted"
    tag, xi = rep.witnesses[0]
    F = theorem_53_symbol(-3)
    disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
    assert disc(xi) < 0


def test_check_maincor_trivial_symbol():
    rep = check_maincor(BivarOp([Poly([1]), Poly([1])]), 10)
    assert rep.all_hold
    with pytest.raises(PreconditionError):
        check_maincor(BivarOp([ZERO, Poly([1, 1])]), 3)


def test_check_maincor_sampled_only():
    F = BivarOp([Poly([1]), Poly([3]), Poly([3]), Poly([1])])  # (1+z)^3 slice
    rep = check_maincor(F, 3)
    assert rep.cond_i == "sampled_only"


def test_polya_line_check():
    assert polya_line_check(XP1 ** 2, XP1 ** 4, 1, 1, 0)
    assert polya_line_check(XP1 ** 2, XP1 ** 4, 0, 1, 0)
    assert polya_line_check(XP1 ** 2, XP1 ** 4, 1, 0, 1)
    with pytest.raises(PreconditionError):
        polya_line_check(Poly([1, 0, 1]), XP1 ** 4, 1, 1, 0)
    with pytest.raises(PreconditionError):
        polya_line_check(XP1 ** 2, XP1 ** 4, 0, 0, 1)
    with pytest.raises(PreconditionError):
        polya_line_check(XP1 ** 3, XP1 ** 2, 1, 1, 0)


def test_polya_line_random():
    rng = random.Random(19)
    for _ in range(25):
        f = random_real_rooted(rng, max_deg=5)
        n = f.degree
        b = from_roots([-Fraction(rng.randint(1, 12), 2) for _ in range(n + rng.randint(0, 2))])
        s = Fraction(rng.randint(0, 4))
        t = Fraction(rng.randint(0, 4))
        if s + t == 0:
            t = Fraction(1)
        u = Fraction(rng.randint(-6, 6), 2)
        assert polya_line_check(f, b, s, t, u)


def test_schur_product():
    assert schur_product(XP1 ** 2, XP1 ** 2) == Poly([1, 4, 2])
    assert schur_product(Poly([5, 6, 7]), Poly([3])) == Poly([15])
    assert schur_product(X, X) == X


def test_hadamard_product():
    assert hadamard_product(XP1 ** 2, XP1 ** 2) == Poly([1, 4, 1])
    f = Poly([4, -2, 9])
    assert hadamard_product(f, Poly([1, 1, 1])) == f
    assert hadamard_product(XP1 ** 3, X * XP1 ** 2) == Poly([0, 3, 6, 1])


def test_sharp_product():
    assert sharp_product(X, X) == Poly([0, 1, 1])
    assert sharp_product(Poly([2, 8, 3]), Poly([5])) == Poly([10, 40, 15])
    assert sharp_product(XP1 ** 2, monomial(2)) == Poly([0, 0, 7, 6, 1])


def test_sharp_needs_nonpositive_rooted_second_argument():
    # the x^k weight is orientation-sensitive: with g having positive roots
    # the rootedness conclusion genuinely fails
    f = Poly([-3, 1])
    g = Poly([3, -4, 1])
    out = sharp_product(f, g)
    assert out == Poly([-9, 11, -5, 1])
    assert not is_real_rooted(out)


def test_diamond_product():
    assert diamond_product(X, X) == Poly([0, 1, 2])
    f = Poly([3, 1, 7])
    assert diamond_product(f, Poly([1])) == f
    assert diamond_product(XP1, X) == Poly([0, 2, 2])


def test_diamond_equals_dot_special_case():
    rng = random.Random(13)
    L = MultiplierSeq.factorial_inverse()
    for _ in range(15):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        assert diamond_product(f, g) == dot_form(f, g, L, -1, 0)


def test_sharp_equals_circ_special_case():
    rng = random.Random(29)
    L = MultiplierSeq.all_ones()
    for _ in range(15):
        f = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        g = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        assert sharp_product(f, g) == circ_form(f, g, L, 0)


def test_dot_form_frozen():
    out = dot_form(Poly([-4, 0, 1]), X * XP1, MultiplierSeq.factorial_inverse(), -1, 0)
    assert out == X * XP1 * Poly([-4, 3, 6])
    assert is_real_rooted(out)
    with pytest.raises(PreconditionError):
        dot_form(X, X, MultiplierSeq.all_ones(), 0, 0)


def test_dot_form_constant_second_argument():
    L = MultiplierSeq.explicit([Fraction(7), Fraction(1)])
    f = Poly([1, 2, 3])
    assert dot_form(f, Poly([5]), L, -1, 0) == f.scale(35)


def test_rootedness_of_products_small_sample():
    rng = random.Random(41)
    for _ in range(25):
        f = random_real_rooted(rng, max_deg=5)
        same_sign = from_roots([-Fraction(rng.randint(0, 9), 3) for _ in range(rng.randint(1, 5))])
        out = schur_product(f, same_sign)
        if not out.is_zero:
            assert is_real_rooted(out)
        out = hadamard_product(f, same_sign)
        if not out.is_zero:
            assert is_real_rooted(out)
            # nonzero roots are simple
            shifted = out
            while shifted.coeff(0) == 0 and not shifted.is_zero:
                shifted = shifted.exact_divide(X)
            if not shifted.is_zero and shifted.degree > 0:
                assert is_simple_rooted(shifted)
        out = sharp_product(f, same_sign)
        if not out.is_zero:
            assert is_real_rooted(out)
        unit = from_roots([-Fraction(rng.randint(0, 6), 6) for _ in range(rng.randint(1, 5))])
        assert is_real_rooted(diamond_product(f, unit))


def test_maincor_end_to_end_alternating_preservation():
    F = theorem_53_symbol(Fraction(-1, 2))
    assert check_maincor(F, 8).all_hold
    rng = random.Random(59)
    for _ in range(10):
        roots = sorted(Fraction(rng.randint(-12, 12), 3) for _ in range(4))
        g_roots = [roots[k] + Fraction(rng.randint(1, 5), 7) for k in range(4)]
        f, g = from_roots(roots), from_roots(sorted(g_roots))
        img_f, img_g = apply_phi(F, f), apply_phi(F, g)
        assert is_real_rooted(img_f) and is_real_rooted(img_g)
        rels = {interlace_relation(img_f, img_g), interlace_relation(img_g, img_f)}
        assert rels & {IR.INTERLACES, IR.INTERLACES_STRICT, IR.ALTERNATES_LEFT, IR.ALTERNATES_LEFT_STRICT}


# -- the kernels against their defining sums, term by term -------------------------


def defining_sum(f, g, c, w):
    """sum_k c(k) f^(k) g^(k) w^k up to the first vanishing derivative."""
    acc, k = ZERO, 0
    while not f.derivative(k).is_zero and not g.derivative(k).is_zero:
        acc = acc + (f.derivative(k) * g.derivative(k) * w ** k).scale(c(k))
        k += 1
    return acc


def inverse_factorial(k):
    return Fraction(1, math.factorial(k))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(int_polys, max_size=4), int_polys, int_polys, small_rationals)
def test_linear_kernels_match_defining_sums(qs, f, g, xi):
    F = BivarOp(qs)
    phi, l_sum = ZERO, ZERO
    for k, qk in enumerate(F.q_list):
        phi = phi + qk * f.derivative(k)
        l_sum = l_sum + f.derivative(k).affine_compose(1, xi).scale(qk(xi))
    assert apply_phi(F, f) == phi
    assert l_phi(F, f, xi) == l_sum
    hp = ZERO
    for k, a in enumerate(f.coeffs):
        hp = hp + g.derivative(k).scale(a)
    assert hermite_poulain(f, g) == hp


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_polys, int_polys, sequences, small_rationals, st.integers(1, 12))
def test_bilinear_kernels_match_defining_sums(f, g, L, alpha, gap):
    beta = alpha + Fraction(gap, 3)
    assert sharp_product(f, g) == defining_sum(f, g, inverse_factorial, X)
    assert diamond_product(f, g) == defining_sum(
        f, g, lambda k: inverse_factorial(k) ** 2, X * XP1
    )
    lam = lambda k: L.term(k) * inverse_factorial(k)
    x_alpha, x_beta = Poly([-alpha, 1]), Poly([-beta, 1])
    assert dot_form(f, g, L, alpha, beta) == defining_sum(f, g, lam, x_alpha * x_beta)
    assert circ_form(f, g, L, alpha) == defining_sum(f, g, lam, x_alpha)


def test_dot_form_reads_terms_through_the_smaller_degree():
    # an explicit sequence with terms 0 and 1 only is enough exactly when
    # the sum stops at k = min(deg f, deg g) <= 1
    L = MultiplierSeq.explicit([1, 1])
    for df in range(5):
        for dg in range(5):
            f, g = XP1 ** df, Poly([2, -1]) ** dg
            if min(df, dg) >= 2:
                with pytest.raises(PreconditionError):
                    dot_form(f, g, L, -1, 1)
            else:
                assert dot_form(f, g, L, -1, 1) == defining_sum(
                    f, g, lambda k: L.term(k) * inverse_factorial(k), Poly([-1, 0, 1])
                )


def test_diamond_equals_e_route_on_suite_inputs():
    cases = [p for p in _SUITES["products-3"][0](RunConfig(seed=0)) if p["op"] == "diamond"]
    assert len(cases) == 200
    for params in cases:
        f, g = poly_from_dict(params["f"]), poly_from_dict(params["g"])
        assert diamond_product(f, g) == e_transform(e_inverse(f) * e_inverse(g))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_polys, int_polys)
def test_diamond_equals_e_route(f, g):
    assert diamond_product(f, g) == e_transform(e_inverse(f) * e_inverse(g))
