from fractions import Fraction

import pytest

from polyafreq.config import EnumGuards
from polyafreq.errors import PreconditionError, ResourceLimitError
from polyafreq.combinatorics import (
    SignedPerm,
    b_euler_multi,
    b_euler_q,
    cycle_count,
    descents,
    e_q_poly,
    eulerian_oracle,
    eulerian_poly,
    eulerian_t_poly,
    excedances,
    fz_h_poly,
    g_poly,
    is_t_stack_sortable,
    multisect,
    narayana_poly,
    p_bn_subset,
    p_dn_poly,
    q_eulerian_oracle,
    q_eulerian_poly,
    signed_perm_stats,
    stack_sort,
    surjection_poly,
    t_stack_poly,
    w2_closed,
    w2_poly,
)
from polyafreq.operators import hadamard_product
from polyafreq.polynomial import (
    Poly,
    ZERO,
    binom,
    monomial,
    unitize_with_degree,
)
from polyafreq.roots import is_real_rooted, is_simple_rooted
from polyafreq.transforms import e_transform

XP1 = Poly([1, 1])


def test_permutation_statistics():
    assert descents((1, 3, 2)) == 1
    assert excedances((2, 1)) == 1
    assert excedances((1, 2)) == 0
    assert cycle_count((1, 2)) == 2
    assert cycle_count((2, 1)) == 1
    assert cycle_count((2, 3, 1)) == 1


def test_eulerian_frozen():
    assert eulerian_poly(1) == Poly([0, 1])
    assert eulerian_poly(2) == Poly([0, 1, 1])
    assert eulerian_poly(3) == Poly([0, 1, 4, 1])
    assert eulerian_poly(4) == Poly([0, 1, 11, 11, 1])
    with pytest.raises(PreconditionError):
        eulerian_poly(0)


@pytest.mark.parametrize("n", range(1, 8))
def test_eulerian_matches_oracle(n):
    assert eulerian_poly(n) == eulerian_oracle(n)


def test_oracle_guard():
    with pytest.raises(ResourceLimitError):
        eulerian_oracle(4, guards=EnumGuards(sn_max=3, bn_max=3))


def test_surjection_family():
    assert surjection_poly(2) == Poly([0, 1, 2])
    assert surjection_poly(3) == Poly([0, 1, 6, 6])
    assert g_poly(1) == Poly([1, 2])
    for n in range(1, 10):
        assert surjection_poly(n + 1) == Poly([0, 1]) * g_poly(n)
        assert surjection_poly(n) == e_transform(monomial(n))
        assert unitize_with_degree(eulerian_poly(n), n) == surjection_poly(n)


def test_worpitzky_series():
    # sum_k k^n x^k * (1-x)^{n+1} agrees with the Eulerian polynomial
    N = 40
    for n in range(1, 9):
        a = eulerian_poly(n)
        minus = Poly([1, -1]) ** (n + 1)
        series = [Fraction(k) ** n for k in range(N)]
        for i in range(N - n - 2):
            conv = sum(series[j] * minus.coeff(i - j) for j in range(max(0, i - n - 1), i + 1))
            assert conv == a.coeff(i)


def test_eulerian_t_poly():
    assert eulerian_t_poly(3, 0) == eulerian_poly(3)
    assert eulerian_t_poly(3, -1) == Poly([0, 1, 3, 1])
    assert eulerian_t_poly(4, -1) == Poly([0, 1, 10, 10, 1])
    with pytest.raises(PreconditionError):
        eulerian_t_poly(2, 1)


def test_w2_closed_form():
    assert [w2_closed(3, k) for k in range(3)] == [1, 4, 1]
    assert [w2_closed(4, k) for k in range(4)] == [1, 10, 10, 1]
    assert all(w2_closed(n, 0) == 1 for n in range(1, 12))
    assert all(w2_closed(n, k).denominator == 1 for n in range(1, 10) for k in range(n))
    with pytest.raises(PreconditionError):
        w2_closed(3, 3)


def test_stack_sort():
    assert stack_sort((2, 3, 1)) == (2, 1, 3)
    assert stack_sort((2, 1, 3)) == (1, 2, 3)
    assert is_t_stack_sortable((2, 3, 1), 2)
    assert not is_t_stack_sortable((2, 3, 1), 1)
    assert stack_sort(()) == ()


@pytest.mark.parametrize("n", range(1, 8))
def test_stack_sort_degenerations(n):
    # every permutation is (n-1)-stack-sortable
    assert t_stack_poly(n, n - 1) == eulerian_poly(n).exact_divide(Poly([0, 1]))
    assert t_stack_poly(n, 1) == narayana_poly(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_w2_matches_stack_sort_oracle(n):
    assert w2_poly(n) == t_stack_poly(n, 2)


def test_q_eulerian():
    q = Fraction(2, 5)
    assert q_eulerian_poly(0, q) == Poly([1])
    assert q_eulerian_poly(1, q) == Poly([q])
    assert q_eulerian_poly(2, q) == Poly([q * q, q])
    for n in range(1, 7):
        for qv in (Fraction(1), Fraction(-2), Fraction(1, 2)):
            assert q_eulerian_poly(n, qv) == q_eulerian_oracle(n, qv)
    # at q = 1 the excedance distribution is the shifted Eulerian one
    for n in range(1, 8):
        assert q_eulerian_poly(n, 1) == eulerian_poly(n).exact_divide(Poly([0, 1]))


def test_e_q_identity_and_degree_law():
    for n in range(0, 8):
        for q in (Fraction(1, 2), Fraction(3), Fraction(-2)):
            lhs = e_q_poly(n, q)
            rhs = unitize_with_degree(q_eulerian_poly(n, q), n)
            assert lhs == rhs
    for m in range(1, 6):
        for n in range(1, 9):
            e = e_q_poly(n, -m)
            assert e.degree == min(n, m)
    # q = 0 collapses the family entirely
    for n in range(1, 6):
        assert e_q_poly(n, 0).is_zero
        assert q_eulerian_poly(n, 0).is_zero


def test_b_euler_frozen():
    q = Fraction(3, 7)
    assert b_euler_q(1, q) == Poly([1, q])
    assert b_euler_q(2, q) == Poly([1, q * q + 4 * q + 1, q * q])
    assert b_euler_q(2, 1) == Poly([1, 6, 1])
    assert b_euler_q(3, 1) == Poly([1, 23, 23, 1])
    for n in range(1, 7):
        assert b_euler_q(n, 0) == eulerian_poly(n).exact_divide(Poly([0, 1]))
    with pytest.raises(PreconditionError):
        b_euler_multi(2, [1])


def test_b_euler_series_oracle():
    # sum_i ((1+q) i + 1)^n x^i = B_n(x; q) / (1-x)^{n+1}
    q = Fraction(1, 2)
    for n in (1, 2, 3, 4):
        b = b_euler_q(n, q)
        minus = Poly([1, -1]) ** (n + 1)
        N = 25
        series = [((1 + q) * i + 1) ** n for i in range(N)]
        for i in range(N - n - 2):
            conv = sum(series[j] * minus.coeff(i - j) for j in range(max(0, i - n - 1), i + 1))
            assert conv == b.coeff(i)


def test_signed_perm_basics():
    sp = SignedPerm((-2, 1))
    assert sp.negatives == 1
    assert sp.type_b_descents == 1
    assert sp.negation_pattern == (0, 1)
    with pytest.raises(PreconditionError):
        SignedPerm((1, 3))


def test_signed_perm_stats_marginals():
    for n in range(1, 6):
        table = signed_perm_stats(n)
        assert len(table.rows) == 2 ** n * __import__("math").factorial(n)
        for q in (0, 1, 2):
            assert table.descent_poly(q) == b_euler_q(n, q)


def test_signed_perm_multivariate():
    for n in range(1, 5):
        qs = [Fraction(2 * k + 1, k + 2) for k in range(n)]
        assert signed_perm_stats(n).weighted_sum(qs) == b_euler_multi(n, qs)


def test_p_bn_subset():
    assert p_bn_subset(2, {0, 2}) == Poly([1, 2, 1])
    assert p_bn_subset(2, set()) == ZERO
    for n in range(1, 5):
        table = signed_perm_stats(n)
        full = p_bn_subset(n, set(range(n + 1)))
        assert full == b_euler_q(n, 1)
        for subset in ({0}, {n}, {0, n}, set(range(0, n + 1, 2))):
            assert p_bn_subset(n, subset) == table.restricted_descent_poly(subset)
    with pytest.raises(PreconditionError):
        p_bn_subset(2, {3})


def test_fz_h_frozen():
    assert fz_h_poly("A", 1) == Poly([1, 1])
    assert fz_h_poly("B", 2) == Poly([1, 4, 1])
    assert fz_h_poly("D", 2) == Poly([1, 2, 1])
    with pytest.raises(PreconditionError):
        fz_h_poly("D", 1)
    with pytest.raises(PreconditionError):
        fz_h_poly("E", 3)


@pytest.mark.parametrize("n", range(0, 13))
def test_fz_h_b_hadamard_route(n):
    assert fz_h_poly("B", n) == hadamard_product(XP1 ** n, XP1 ** n)


def test_p_dn_poly():
    assert p_dn_poly(2) == Poly([1, 2, 1])
    assert p_dn_poly(3) == Poly([1, 11, 11, 1])  # type D_3 matches A_3
    for n in range(2, 9):
        p = p_dn_poly(n)
        assert p.coeff(0) == 1 and p.leading == 1
        assert p.coeffs == tuple(reversed(p.coeffs))
        assert is_real_rooted(p)
    with pytest.raises(PreconditionError):
        p_dn_poly(1)


def test_multisect():
    assert multisect(XP1 ** 4, 2, 1) == Poly([4, 4])
    f = Poly([3, 1, 4, 1, 5])
    assert multisect(f, 1, 0) == f
    assert multisect(Poly([0, 1]) * XP1 ** 4, 2, 0) == Poly([0, 4, 4])
    with pytest.raises(PreconditionError):
        multisect(f, 2, 2)


def test_two_stack_pipeline_real_rootedness():
    # multisection of x(1+x)^{2n}, two coefficientwise multiplier stages and a
    # reversal reproduce the closed-form counts up to the stated normalization
    for n in range(1, 13):
        odd_binomials = multisect(Poly([0, 1]) * XP1 ** (2 * n), 2, 0).exact_divide(Poly([0, 1]))
        assert odd_binomials == Poly([Fraction(__import__("math").comb(2 * n, 2 * k + 1)) for k in range(n)])
        assert is_real_rooted(odd_binomials)
        stage = Poly(binom(n + k, n - 1) * c for k, c in enumerate(odd_binomials.coeffs))
        assert is_real_rooted(stage)
        reversed_stage = stage.reversed_coeffs(n - 1)
        assert is_real_rooted(reversed_stage) or reversed_stage.degree < 1
        final = Poly(binom(n + k, n - 1) * c for k, c in enumerate(reversed_stage.coeffs))
        norm = Fraction(n * n) * binom(2 * n, n)
        assert final == w2_poly(n).scale(norm)
        assert is_real_rooted(final)
