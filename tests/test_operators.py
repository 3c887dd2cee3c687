import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import root_oracle
from fraction_oracle import from_roots
from minor_oracle import bareiss_determinant
from operator_oracle import quadratic_condition_one, subresultant_block
from polyafreq import operators
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
# mixed denominators, so that the kernels' common denominators do not cancel
rational_polys = st.lists(st.fractions(-9, 9, max_denominator=6), max_size=7).map(Poly)
kernel_polys = int_polys | rational_polys
small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
sequences = st.sampled_from([
    MultiplierSeq.all_ones(),
    MultiplierSeq.factorial_inverse(),
    MultiplierSeq.gamma_shift(-2),  # lambda_2 = 0 drops one term
    MultiplierSeq.binom_negative(2, Fraction(1, 2)),
])


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
    assert rep.cond_i is False
    tag, xi = rep.witnesses[0]
    F = theorem_53_symbol(-3)
    disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
    assert disc(xi) < 0


def test_check_maincor_trivial_symbol():
    rep = check_maincor(BivarOp([Poly([1]), Poly([1])]), 10)
    assert rep.all_hold
    with pytest.raises(PreconditionError):
        check_maincor(BivarOp([ZERO, Poly([1, 1])]), 3)


@pytest.mark.parametrize(
    "qs, witness",
    [
        ([[1, 1], []], ("Q_1 is zero", None)),
        ([[1, 0, 1], [0, 1]], ("Q_0 or Q_1 not real-rooted", None)),
        ([[1, 1], [2, 1]], ("Q_0 vs Q_1 relation", "equal_degree_none")),
        ([[1, 1], [0, -1]], ("leading signs differ", None)),
    ],
)
def test_condition_two_names_its_one_witness(qs, witness):
    rep = check_maincor(BivarOp(qs), 2)
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, False, True)
    assert rep.witnesses == [witness]


def test_zero_monomial_image_is_a_degree_drop(monkeypatch):
    """Condition (iii) names the first monomial whose image vanishes."""
    F = theorem_53_symbol(1)
    assert check_maincor(F, 4).all_hold
    real_apply = operators.apply_phi
    monkeypatch.setattr(
        operators, "apply_phi", lambda G, f: ZERO if f == monomial(2) else real_apply(G, f)
    )
    rep = check_maincor(F, 4)
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, True, False)
    assert rep.witnesses == [("degree drop at monomial", 2)]


def refuting_slice(F):
    """The z-slice at the witness of a refuted condition (i)."""
    rep = check_maincor(F, 1)
    assert rep.cond_i is False, rep
    tag, xi = rep.witnesses[0]
    assert tag == "non-real-rooted z-slice at xi"
    return xi, Poly([q(xi) for q in F.q_list])


def test_check_maincor_exact_above_z_degree_two():
    # (1+z)^3: sRes_0 and sRes_1 vanish identically, D = sRes_2 = 3
    assert check_maincor(BivarOp([[1], [3], [3], [1]]), 3).cond_i is True
    # z^3 - (3 + xi^2) z + xi has three real roots at every xi
    assert check_maincor(BivarOp([[0, 1], [-3, 0, -1], [], [1]]), 3).cond_i is True
    # z^3 - 3z + xi has one real root exactly when |xi| > 2
    xi, slice_z = refuting_slice(BivarOp([[0, 1], [-3], [], [1]]))
    assert abs(xi) > 2 and not root_oracle.is_real_rooted(slice_z)
    # (z^2 - xi)^2 has four non-real roots exactly when xi < 0
    xi, slice_z = refuting_slice(BivarOp([[0, 0, 1], [], [0, -2], [], [1]]))
    assert xi < 0 and not root_oracle.is_real_rooted(slice_z)


# -- condition (i) against the z-discriminant and the integer determinant -------

small_int_polys = st.lists(st.integers(-4, 4), max_size=4).map(Poly)
nonzero_int_polys = small_int_polys.filter(lambda p: not p.is_zero)
constants = st.integers(-4, 4).filter(bool).map(lambda c: Poly([c]))
# a leading coefficient with real roots: the slice drops degree there
real_rooted_leads = st.builds(
    lambda c, roots: Poly([c]) * from_roots(roots),
    st.integers(-3, 3).filter(bool),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)
# c(xi) (z + a(xi))^2: the z-discriminant vanishes identically
square_symbols = st.builds(
    lambda c, a: BivarOp([c * a * a, c * a * 2, c]), nonzero_int_polys, small_int_polys
)


def symbol(*qs):
    return BivarOp(qs)


quadratic_symbols = st.one_of(
    st.builds(symbol, small_int_polys, small_int_polys, nonzero_int_polys),
    st.builds(symbol, small_int_polys, small_int_polys, real_rooted_leads),
    st.builds(symbol, constants, constants, constants),
    square_symbols,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quadratic_symbols)
def test_condition_one_matches_the_discriminant_at_z_degree_two(F):
    assume(not F.q(0).is_zero)
    rep = check_maincor(F, 1)
    holds, _ = quadratic_condition_one(F)
    assert rep.cond_i is holds
    if not holds:
        _, xi = rep.witnesses[0]
        disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
        assert disc(xi) < 0


linear_in_xi = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(Poly).filter(
    lambda p: not p.is_zero
)
linear_factors = st.builds(lambda b, a: BivarOp([a, b]), linear_in_xi, linear_in_xi)


def times(F, G):
    """The product symbol F(xi, z) G(xi, z)."""
    out = [ZERO] * (F.degree_z + G.degree_z + 1)
    for i, p in enumerate(F.q_list):
        for j, q in enumerate(G.q_list):
            out[i + j] = out[i + j] + p * q
    return BivarOp(out)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(linear_factors, min_size=3, max_size=4), nonzero_int_polys)
def test_condition_one_on_products_of_linear_factors(factors, c):
    F = factors[0]
    for G in factors[1:]:
        F = times(F, G)
    assert check_maincor(F, 1).cond_i is True
    # z^2 + c(xi) has non-real roots wherever c(xi) > 0
    assume(not root_oracle.check_nonneg_on_reals(-c))
    xi, slice_z = refuting_slice(times(F, BivarOp([c, ZERO, Poly([1])])))
    assert c(xi) > 0 and not root_oracle.is_real_rooted(slice_z)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(small_int_polys, min_size=3, max_size=5).filter(lambda qs: not qs[-1].is_zero))
def test_subresultants_match_the_integer_determinant(qs):
    F = BivarOp(qs)
    d = F.degree_z
    first = None
    for j in range(d):
        sres = operators._determinant(operators._subresultant_matrix(F.q_list, j))
        for xi in range(-3, 4):
            block = subresultant_block([int(q(xi)) for q in F.q_list], j)
            assert sres(xi) == bareiss_determinant(block)
        if first is None and not sres.is_zero:
            first = sres
    assert operators._first_subresultant(F.q_list) == first


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


@pytest.mark.parametrize(
    "s, t, u, product",
    [(1, 1, 0, "apply_phi"), (0, 1, 0, "schur_product"), (1, 0, 1, "hermite_poulain")],
)
def test_polya_line_check_refuses_a_zero_product(monkeypatch, s, t, u, product):
    """A zero derivative sum has degree -inf, never deg f: the check fails."""
    assert polya_line_check(XP1 ** 2, XP1 ** 4, s, t, u)
    monkeypatch.setattr(operators, product, lambda *args: ZERO)
    assert polya_line_check(XP1 ** 2, XP1 ** 4, s, t, u) is False


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


H, T = Fraction(1, 2), Fraction(1, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(kernel_polys, max_size=4), kernel_polys, kernel_polys)
@example([Poly([H, 1]), ZERO, Poly([T, 0, Fraction(-2, 5)])], Poly([1, T, 2, H]), Poly([H, -1, Fraction(3, 4)]))
@example([Poly([T]), Poly([1, H])], Poly([Fraction(5, 6)]), ZERO)
@example([Poly([H]), ZERO, Poly([2])], ZERO, Poly([T, 1]))
def test_linear_kernels_match_defining_sums(qs, f, g):
    F = BivarOp(qs)
    phi = ZERO
    for k, qk in enumerate(F.q_list):
        phi = phi + qk * f.derivative(k)
    assert apply_phi(F, f) == phi
    hp = ZERO
    for k, a in enumerate(f.coeffs):
        hp = hp + g.derivative(k).scale(a)
    assert hermite_poulain(f, g) == hp


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_polys, kernel_polys, sequences, small_rationals, st.integers(1, 12))
@example(Poly([H, T, 1, Fraction(-1, 4)]), Poly([T, 2, Fraction(5, 2)]), MultiplierSeq.all_ones(), -T, 1)
@example(Poly([Fraction(7, 3)]), Poly([1, H, T]), MultiplierSeq.factorial_inverse(), H, 2)
@example(ZERO, Poly([1, H]), MultiplierSeq.all_ones(), T, 1)
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
