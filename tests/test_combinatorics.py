import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyafreq.errors import PreconditionError
from polyafreq.combinatorics import (
    b_euler_multi,
    b_euler_q,
    cycle_count,
    e_q_poly,
    eulerian_oracle,
    eulerian_poly,
    eulerian_t_poly,
    excedances,
    fz_h_poly,
    g_poly,
    multisect,
    narayana_poly,
    p_bn_subset,
    p_dn_poly,
    q_eulerian_oracle,
    q_eulerian_poly,
    signed_descent_poly,
    surjection_poly,
    t_stack_poly,
    w2_closed,
    w2_poly,
)
from polyafreq.operators import hadamard_product
from polyafreq.polynomial import (
    ONE,
    Poly,
    X,
    ZERO,
    binom,
    monomial,
    unitize_with_degree,
)
from polyafreq.roots import is_real_rooted, is_simple_rooted
from polyafreq.transforms import e_transform

import combinatorics_oracle as oracle
from combinatorics_oracle import (
    SignedPerm,
    descents,
    is_t_stack_sortable,
    signed_perm_stats,
    stack_sort,
)

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
    assert eulerian_poly(n) == eulerian_oracle(n) == oracle.eulerian_by_unitize(n)


def test_eulerian_matches_the_surjection_route():
    for n in range(1, 61):
        assert eulerian_poly(n) == oracle.eulerian_by_unitize(n), n


def test_oracle_guard(monkeypatch):
    monkeypatch.setenv("POLYAFREQ_MAX_ENUM", "3")
    for enumerate_s4 in (
        lambda: eulerian_oracle(4),
        lambda: t_stack_poly(4, 1),
        lambda: q_eulerian_oracle(4, 2),
    ):
        with pytest.raises(PreconditionError, match=r"^S_4 enumeration exceeds guard 3$"):
            enumerate_s4()
    assert eulerian_oracle(3) == eulerian_poly(3)


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


def test_t_stack_sortable_stops_once_sorted(monkeypatch):
    passes = []
    real_sort = oracle.stack_sort

    def counted_sort(perm):
        passes.append(perm)
        return real_sort(perm)

    monkeypatch.setattr(oracle, "stack_sort", counted_sort)
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            passes.clear()
            assert is_t_stack_sortable(perm, 10**18)
            # a sorted permutation costs no pass, and n - 1 passes sort any
            assert len(passes) <= n - 1
            assert (len(passes) == 0) == (perm == tuple(sorted(perm)))
    passes.clear()
    assert not is_t_stack_sortable((2, 3, 1), 1) and len(passes) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_stack_sort_degenerations(n):
    # every permutation is (n-1)-stack-sortable
    assert t_stack_poly(n, n - 1) == eulerian_poly(n).exact_divide(Poly([0, 1]))
    assert t_stack_poly(n, 1) == narayana_poly(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_w2_matches_stack_sort_oracle(n):
    assert w2_poly(n) == t_stack_poly(n, 2)


def test_one_stack_loop_matches_recursive_sort_on_s7():
    for perm in itertools.permutations(range(1, 8)):
        assert stack_sort(perm) == oracle.recursive_stack_sort(perm)


def _t_stack_oracle(n, t):
    counts = [0] * n
    target = tuple(range(1, n + 1))
    for perm in itertools.permutations(target):
        p = perm
        for _ in range(t):
            p = oracle.recursive_stack_sort(p)
        if p == target:
            counts[descents(perm)] += 1
    return Poly(counts)


@pytest.mark.parametrize("n", range(1, 8))
def test_t_stack_poly_matches_recursive_oracle(n):
    # t = 0 included: only the identity is sorted there, and a sortedness
    # test that compared a tuple with a list would count nothing
    for t in range(n):
        assert t_stack_poly(n, t) == _t_stack_oracle(n, t), t


@pytest.mark.parametrize("n", range(1, 8))
def test_descent_walk_matches_listing_routes(n):
    # t = n - 1 and above sort every permutation; t = 10**18 runs only if
    # the walk caps it
    for t in [*range(n + 2), 10**18]:
        assert t_stack_poly(n, t) == oracle.t_stack_by_listing(n, t), t
    assert eulerian_oracle(n) == oracle.eulerian_by_listing(n)


def test_descent_walk_matches_listing_routes_at_8():
    assert t_stack_poly(8, 2) == oracle.t_stack_by_listing(8, 2)
    assert eulerian_oracle(8) == oracle.eulerian_by_listing(8)


def test_q_eulerian_table_matches_per_permutation_sum():
    for n in range(8):
        for q in (0, -1, 3, Fraction(-5, 3), Fraction(1, 2)):
            assert q_eulerian_oracle(n, q) == oracle.q_eulerian_by_listing(n, q), (n, q)


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
    for route in (q_eulerian_poly, q_eulerian_oracle):
        with pytest.raises(PreconditionError, match=f"^{route.__name__} needs n >= 0$"):
            route(-1, q)


def test_q_eulerian_matches_the_poly_recursion():
    for n in range(13):
        for q in (0, 1, 2, 7, -1, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)):
            assert q_eulerian_poly(n, q) == oracle.q_eulerian_by_recursion(n, q), (n, q)


def test_e_q_identity_and_degree_law():
    for n in range(0, 9):
        for q in (0, 1, -1, -2, -3, -4, -5, Fraction(1, 2), Fraction(5, 3)):
            assert e_q_poly(n, q) == oracle.e_q_by_recursion(n, q), (n, q)
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


@functools.lru_cache(maxsize=None)
def _signed_table(n):
    return signed_perm_stats(n)


def _elementary(qs):
    """e_j(qs), the total weight of negating j letters when letter i weighs q_i."""
    return math.prod((Poly([1, q]) for q in qs), start=ONE).coeffs


_weights = st.one_of(st.just(Fraction(-1)), st.fractions(-4, 4, max_denominator=5))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(_weights, min_size=n, max_size=n)))
def test_signed_descent_kernel_matches_enumeration(qs):
    n = len(qs)
    assert signed_descent_poly(n, _elementary(qs)) == _signed_table(n).weighted_sum(qs)


@pytest.mark.parametrize("n", range(0, 7))
def test_signed_descent_kernel_marginals_and_subsets(n):
    table = _signed_table(n)
    for q in (0, 1, 2):
        e = [math.comb(n, j) * q**j for j in range(n + 1)]
        assert signed_descent_poly(n, e) == table.descent_poly(q), q
    if n <= 5:
        for mask in range(2 ** (n + 1)):
            subset = {s for s in range(n + 1) if mask >> s & 1}
            e = [math.comb(n, j) if j in subset else 0 for j in range(n + 1)]
            assert signed_descent_poly(n, e) == table.restricted_descent_poly(subset), subset


def test_signed_descent_kernel_arguments():
    assert signed_descent_poly(3, []) == ZERO
    assert signed_descent_poly(2, [1]) == Poly([1, 1])  # the unsigned S_2, by x^{des_B}
    with pytest.raises(PreconditionError):
        signed_descent_poly(2, [1, 2, 1, 0])
    with pytest.raises(PreconditionError):
        signed_descent_poly(-1, [])


def test_b_euler_at_weight_minus_one():
    # q_i = -1 lowers the degree of prod_i ((1+q_i) x + 1); the signed sum is
    # still the numerator over (1-x)^{n+1}
    assert b_euler_q(3, -1) == Poly([1, -1]) ** 3
    assert b_euler_multi(2, [-1, -1]) == Poly([1, -1]) ** 2
    for n in range(1, 6):
        for qs in ([-1] * n, [-1] + [Fraction(1, 2)] * (n - 1), [Fraction(k, 2) - 1 for k in range(n)]):
            expected = _signed_table(n).weighted_sum(qs)
            assert b_euler_multi(n, qs) == expected, qs
            assert signed_descent_poly(n, _elementary(qs)) == expected, qs


def test_fz_h_frozen():
    assert fz_h_poly("A", 1) == Poly([1, 1])
    assert fz_h_poly("B", 2) == Poly([1, 4, 1])
    assert fz_h_poly("D", 2) == Poly([1, 2, 1])
    with pytest.raises(PreconditionError):
        fz_h_poly("D", 1)
    with pytest.raises(PreconditionError):
        fz_h_poly("E", 3)


def test_shared_family_formulas_match_their_own_sums():
    # narayana_poly reads fz_h_poly("A", n - 1), and fz_h_poly("D", n) reads
    # weyl_combination(n, 1, -1); each once had its own sum, kept here
    for n in range(1, 40):
        narayana = Poly(Fraction(math.comb(n, k) * math.comb(n, k + 1), n) for k in range(n))
        assert narayana_poly(n) == narayana
    for n in range(2, 40):
        assert fz_h_poly("D", n) == fz_h_poly("B", n) - (X * fz_h_poly("A", n - 2)).scale(n)
    with pytest.raises(PreconditionError, match="narayana_poly needs n >= 1"):
        narayana_poly(0)
    with pytest.raises(PreconditionError, match="family D needs n >= 2"):
        fz_h_poly("D", 1)


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
