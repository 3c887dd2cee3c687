import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fraction_oracle import from_roots
from minor_oracle import bareiss_determinant, exhaustive_minors, toeplitz_window
from polyafreq.combinatorics import eulerian_poly, multisect, w2_poly
from polyafreq import pf
from polyafreq.errors import PreconditionError
from polyafreq.pf import (
    is_log_concave,
    is_pf_finite,
    is_unimodal,
    minors_nonneg,
)
from polyafreq.polynomial import NEG_INF, Poly, ZERO
from polyafreq.roots import roots_within


def test_toeplitz_window():
    w = toeplitz_window((1, 2, 1), 3)
    assert w == [[1, 0, 0], [2, 1, 0], [1, 2, 1]]
    w1 = toeplitz_window((1,), 4)
    assert all(w1[i][i] == 1 for i in range(4))
    assert all(w1[i][j] == 0 for i in range(4) for j in range(4) if i != j)
    w2 = toeplitz_window((1, 1, 0, 1), 4)
    assert [[w2[i][j] for j in (0, 2)] for i in (2, 3)] == [[0, 1], [1, 1]]


def test_bareiss_determinant():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0], [0, 0]]) == 0
    rng = random.Random(2)
    for n in (3, 4, 5):
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        # cross-check against cofactor expansion
        def cofactor_det(mat):
            if len(mat) == 1:
                return mat[0][0]
            return sum(
                (-1) ** j * mat[0][j] * cofactor_det(
                    [row[:j] + row[j + 1 :] for row in mat[1:]]
                )
                for j in range(len(mat))
            )
        assert bareiss_determinant(m) == cofactor_det(m)


def test_minors_nonneg_pf_window():
    report = minors_nonneg((1, 2, 1), 4, 4)
    assert report.nonnegative and report.witness is None


def test_minors_negative_witness():
    report = minors_nonneg((1, 1, 0, 1), 4, 2)
    assert not report.nonnegative
    rows, cols, value = report.witness
    assert value == -1
    w = toeplitz_window((1, 1, 0, 1), 4)
    i, j = rows
    a, b = cols
    assert w[i][a] * w[j][b] - w[i][b] * w[j][a] == -1


def test_minors_witness_is_lex_first():
    report = minors_nonneg((1, 1, 0, 1), 4, 4)
    assert report.witness[0] == (1, 3) and report.witness[1] == (0, 1)


def test_minors_identity_sequence():
    for r in (1, 2, 3, 4, 5):
        report = minors_nonneg((1,), 6, r)
        assert report.nonnegative


def test_minors_rational_entries():
    assert minors_nonneg((Fraction(1, 2), Fraction(1, 3)), 3, 2).nonnegative
    bad = [[Fraction(0), Fraction(1, 5)], [Fraction(1, 5), Fraction(1)]]
    report = exhaustive_minors(bad, 2)
    assert report.witness[2] == Fraction(-1, 25)


def test_minors_order_bound():
    with pytest.raises(PreconditionError):
        minors_nonneg((1,), 3, 4)


def test_minors_window_defaults():
    """The window defaults to deg + 3, deg the index of the last nonzero
    term, so trailing zeros do not widen it and a sequence gets the window
    of its `Poly`; the zero sequence gets 2.  The order defaults to
    min(4, window)."""
    assert minors_nonneg((1, 2, 1, 0)) == minors_nonneg((1, 2, 1), 5, 4)
    assert minors_nonneg(Poly([1, 2, 1, 0])) == minors_nonneg((1, 2, 1), 5, 4)
    assert minors_nonneg((1, 1, 1) + (0,) * 9).window == 5
    assert minors_nonneg((0, 0, 0)) == minors_nonneg(()) == minors_nonneg(ZERO) == minors_nonneg((), 2, 2)
    assert minors_nonneg((1,), 3) == minors_nonneg((1,), 3, 3)
    report = minors_nonneg((1, 1, 0, 1), order=2)
    assert (report.window, report.order, report.witness) == (6, 2, ((1, 3), (0, 1), -1))


def test_order_five_path():
    report = minors_nonneg((1, 5, 10, 10, 5, 1), 8, 5)
    assert report.nonnegative


def test_is_pf_finite():
    assert is_pf_finite(Poly([1, 2, 1]))
    assert not is_pf_finite(Poly([1, 1, 1]))
    assert is_pf_finite(w2_poly(5))
    assert is_pf_finite(ZERO)
    assert is_pf_finite(Poly([3]))
    assert not is_pf_finite(Poly([0, -1]))


_nonneg_coeffs = st.lists(st.fractions(min_value=0, max_value=6, max_denominator=3), max_size=7)
_near_nonpositive_roots = st.lists(st.fractions(min_value=-3, max_value=1, max_denominator=3), max_size=5)


def test_pf_finite_matches_roots_within_route():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_nonneg_coeffs.map(Poly), _near_nonpositive_roots.map(from_roots)))
    def check(f):
        nonneg = all(c >= 0 for c in f.coeffs)
        expected = f.is_zero or (nonneg and roots_within(f, NEG_INF, 0))
        assert is_pf_finite(f) == expected
        seen.add((nonneg, expected))

    check()
    assert seen == {(False, False), (True, False), (True, True)}


def test_pf_implies_tp_window():
    rng = random.Random(77)
    for _ in range(12):
        d = rng.randint(1, 8)
        f = from_roots([-Fraction(rng.randint(0, 12), 3) for _ in range(d)],
                       lead=rng.randint(1, 3))
        assert is_pf_finite(f)
        assert minors_nonneg(f).nonnegative


def test_pf_counterexample_window():
    report = minors_nonneg(Poly([1, 1, 0, 1]), 4, 2)
    assert not report.nonnegative
    assert report.witness[2] == -1


def test_sequence_predicates():
    assert is_log_concave((1, 4, 1))
    assert is_unimodal((1, 4, 1))
    assert not is_log_concave((1, 1, 0, 1))
    assert is_unimodal((1, 2, 2, 1))
    assert not is_unimodal((1, 0, 1))
    a6 = eulerian_poly(6).coeffs
    assert is_log_concave(a6) and is_unimodal(a6)


def test_pf_implication_chain():
    rng = random.Random(9)
    for _ in range(20):
        d = rng.randint(1, 8)
        f = from_roots([-Fraction(rng.randint(0, 12), 4) for _ in range(d)])
        assert is_pf_finite(f)
        assert is_log_concave(f.coeffs)
        assert is_unimodal(f.coeffs)


def test_pf_closed_under_multisection():
    rng = random.Random(15)
    for _ in range(12):
        d = rng.randint(2, 9)
        f = from_roots([-Fraction(rng.randint(0, 8), 2) for _ in range(d)])
        for step in (2, 3):
            for offset in range(step):
                assert is_pf_finite(multisect(f, step, offset))


# -- the admissible-minor route against the exhaustive one ------------------------------


def _pf_terms(roots, lead):
    return from_roots([-r for r in roots], lead=lead).coeffs


@st.composite
def toeplitz_queries(draw):
    """(terms, size, order) over the sequences a window check meets and more:
    PF sequences with zero padding on either side, the same times a factor
    with complex roots or with one term perturbed (so that low orders pass
    and a later one fails), free rational sequences with negative and zero
    terms, and late-failing windows whose first negative minor has order 5
    or more.  Orders reach 6, or 8 for the late-failing ones, so first-row
    expansions run over values that were themselves expanded so; windows
    are shorter and longer than the sequence."""
    kind = draw(st.sampled_from(("complex", "perturbed", "pf", "free", "late")))
    if kind == "late":
        # (x^2 + bx + c)(1 + x)^m with b^2 < 4c, as in
        # `test_first_negative_minor_at_each_order`
        b = draw(st.integers(1, 5))
        c = draw(st.integers(b * b // 4 + 1, b * b // 4 + 3))
        terms = (Poly([c, b, 1]) * Poly([1, 1]) ** draw(st.integers(1, 3))).coeffs
        order = draw(st.sampled_from((8, 7, 6, 5)))
        return terms, draw(st.integers(order, 8)), order
    terms = _draw_sequence(draw, kind, -3)
    order = draw(st.sampled_from((6, 5, 4, 3, 2, 1)))
    size = draw(st.integers(order, 8))
    return terms, size, order


def _draw_sequence(draw, kind, low):
    """A "free" sequence of rationals in [low, 6] and zeros, or a PF
    sequence, the same times a factor with complex roots ("complex") or with
    one term perturbed ("perturbed"); 0 to 2 zeros pad it on either side."""
    if kind == "free":
        return draw(st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(low, 6, max_denominator=4)),
            max_size=8,
        ))
    roots = draw(st.lists(st.fractions(0, 4, max_denominator=3), max_size=6))
    terms = list(_pf_terms(roots, draw(st.integers(1, 3))))
    if kind == "complex":
        # x^2 + 2sx + s^2 + e, roots -s +- i sqrt(e)
        s = draw(st.fractions(Fraction(1, 4), 2, max_denominator=4))
        e = s * s * draw(st.fractions(Fraction(1, 64), 2, max_denominator=64))
        terms = list((Poly(terms) * Poly([s * s + e, 2 * s, 1])).coeffs)
    if kind == "perturbed":
        i = draw(st.integers(0, len(terms) - 1))
        terms[i] += draw(st.fractions(-2, 2, max_denominator=8))
    return [Fraction(0)] * draw(st.integers(0, 2)) + terms + [Fraction(0)] * draw(st.integers(0, 2))


def scanned(terms, size, order):
    """`minors_nonneg` with the Neville elimination refusing every window,
    so that the minor scan (`pf._first_negative_minor`) answers alone."""
    with mock.patch.object(pf, "_neville_tn", return_value=False):
        return minors_nonneg(terms, size, order)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(toeplitz_queries())
def test_minors_match_exhaustive_route(query):
    terms, size, order = query
    expected = exhaustive_minors(toeplitz_window(terms, size), order)
    assert minors_nonneg(terms, size, order) == expected
    assert scanned(terms, size, order) == expected


@pytest.fixture(scope="module")
def pf_coherence_windows() -> list[Poly]:
    """The 100 polynomials whose windows seed-0 `pf-coherence` checks."""
    from polyafreq.config import RunConfig
    from polyafreq.jsonio import poly_from_dict
    from polyafreq.suites import _gen_pf_coherence

    windows = [
        poly_from_dict(p["poly"])
        for p in _gen_pf_coherence(RunConfig(seed=0))
        if p["kind"] == "window"
    ]
    assert len(windows) == 100
    return windows


def test_minors_match_exhaustive_route_on_fixed_windows(pf_coherence_windows):
    """Every seed-0 `pf-coherence` window and the w2(n) windows that
    `check pf-minors` meets at orders 4 and 5, through the public route,
    its default window and the minor scan alone, against one oracle
    result per window."""
    windows = [(f, 4) for f in pf_coherence_windows]
    windows += [(w2_poly(n), 4) for n in range(6, 12)]
    windows += [(w2_poly(n), 5) for n in range(4, 9)]
    for f, order in windows:
        size = len(f.coeffs) + 2
        expected = exhaustive_minors(toeplitz_window(f, size), order)
        assert minors_nonneg(f, size, order) == expected
        assert minors_nonneg(f, order=order) == expected
        assert scanned(f, size, order) == expected


@pytest.mark.parametrize("k", (1, 2, 3))
def test_minors_of_x_power_times_pf_windows_match_exhaustive_route(k, pf_coherence_windows):
    """x^k times each seed-0 `pf-coherence` polynomial, in the window of the
    polynomial's own default size: only the window of the trimmed terms is
    checked, and where it is smaller than 4 no minor above it is planned;
    the public route and the minor scan alone against one oracle result."""
    for f in pf_coherence_windows:
        size = len(f.coeffs) + 2
        shifted = Poly([0] * k + list(f.coeffs))
        expected = exhaustive_minors(toeplitz_window(shifted, size), 4)
        assert expected.nonnegative and expected.window == size
        assert minors_nonneg(shifted, size, 4) == expected
        assert scanned(shifted, size, 4) == expected


# -- Neville elimination against the exhaustive route -----------------------------------


def _integers(terms) -> list[int]:
    """terms times the lcm of their denominators, as `minors_nonneg` scales them."""
    terms = [Fraction(x) for x in terms]
    lcm = math.lcm(*(x.denominator for x in terms))
    return [int(x * lcm) for x in terms]


def _trimmed(terms, size):
    """The terms from the first nonzero one on and the size of their window
    in the size x size window of terms, as `minors_nonneg` passes them to
    `pf._neville_tn`, or None for a window of zeros."""
    lo = next((t for t, x in enumerate(terms) if x != 0), None)
    if lo is None or lo >= size:
        return None
    return terms[lo:], size - lo


@st.composite
def neville_queries(draw):
    """(terms, size): PF sequences, the same times a factor with complex
    roots or with one term perturbed, and free nonnegative rational
    sequences, with leading and trailing zeros, in windows shorter and
    longer than the sequence."""
    kind = draw(st.sampled_from(("complex", "perturbed", "pf", "free")))
    return _draw_sequence(draw, kind, 0), draw(st.integers(1, 8))


def test_neville_acceptance_is_sound():
    """When the elimination accepts a window, the exhaustive route finds no
    negative minor of any order in it.  On the window of the trimmed terms,
    which is nonsingular, it accepts exactly the totally nonnegative ones
    (Gasca and Pena); a window with leading zeros is singular and refused."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(neville_queries())
    def check(query):
        terms, size = query
        trimmed = _trimmed(terms, size)
        if trimmed != (terms, size):
            assert not pf._neville_tn(_integers(terms), size)
        if trimmed is not None:
            terms, size = trimmed
            tn = exhaustive_minors(toeplitz_window(terms, size), size).nonnegative
            assert pf._neville_tn(_integers(terms), size) == tn
            seen.add(tn)

    check()
    assert seen == {False, True}


def test_neville_accepts_every_pf_window(pf_coherence_windows):
    """The window of the trimmed terms of a PF sequence is totally
    nonnegative and nonsingular, so the elimination accepts it at every
    size, and `minors_nonneg` evaluates no minor of it: every seed-0
    `pf-coherence` window, the w2(n) windows and drawn PF sequences."""

    def accepted(f, size):
        trimmed = _trimmed(f.coeffs, size)
        return trimmed is None or pf._neville_tn(_integers(trimmed[0]), trimmed[1])

    fixed = pf_coherence_windows + [w2_poly(n) for n in range(4, 12)]
    with mock.patch.object(
        pf, "_first_negative_minor", side_effect=AssertionError("a minor was evaluated")
    ):
        for f in fixed:
            size = len(f.coeffs) + 2
            assert minors_nonneg(f, size, min(4, size)).nonnegative
            assert all(accepted(f, n) for n in range(1, size + 3))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.fractions(0, 6, max_denominator=4), max_size=10),
        st.integers(1, 3),
        st.integers(1, 14),
    )
    def check(roots, lead, size):
        assert accepted(from_roots([-r for r in roots], lead=lead), size)

    check()


def test_leading_zeros_add_to_the_witness_rows():
    """Non-PF g whose first negative minor has order 2, 3 or 4, times x^k:
    the witness is g's with k added to every row, and its window and order
    are those given, also when the order exceeds size - k."""
    for g, size, order in (((2, 1, 1), 5, 2), ((1, 1, 1), 5, 3), ((2, 2, 1), 5, 4)):
        rows, cols, value = minors_nonneg(g, size, 4).witness
        assert len(rows) == order
        for k in (1, 2, 3):
            terms = (0,) * k + g
            report = minors_nonneg(terms, size + k, 4)
            assert report == exhaustive_minors(toeplitz_window(terms, size + k), 4)
            assert report.window == size + k and report.order == 4
            assert report.witness == (tuple(r + k for r in rows), cols, value)
            # the window of the trimmed terms has size - 1 rows, so orders
            # above it are planned for nothing
            for top in range(1, size + k):
                assert minors_nonneg(terms, size + k - 1, top) == exhaustive_minors(
                    toeplitz_window(terms, size + k - 1), top
                )


def test_single_term_in_the_last_row():
    """A window whose only nonzero term sits in its last row: one 1 x 1
    minor, and no minor of order 2 or more is nonzero."""
    for size in (1, 2, 5):
        for c in (3, -2, Fraction(-1, 3)):
            terms = (0,) * (size - 1) + (c,)
            for order in range(1, size + 1):
                report = minors_nonneg(terms, size, order)
                assert report == exhaustive_minors(toeplitz_window(terms, size), order)
                assert report.window == size and report.order == order
                assert report.witness == (None if c > 0 else ((size - 1,), (0,), c))


def test_first_negative_minor_at_each_order():
    """(x^2 + bx + c)(1 + x)^m with b^2 < 4c has nonnegative terms but is not
    PF; these windows first fail at orders 2 to 8, as the exhaustive route
    finds them.  From order 7 on the witness is a first-row expansion over
    values that were themselves expanded so."""
    for terms, size, k in (
        ((2, 1, 1), 5, 2),
        ((1, 1, 1), 5, 3),
        ((2, 2, 1), 5, 4),
        ((1, 3, 4, 3, 1), 7, 5),
        ((1, 4, 7, 7, 4, 1), 8, 6),
        ((5, 9, 5, 1), 9, 7),
        ((14, 7, 1), 9, 8),
    ):
        order = min(8, size)
        report = minors_nonneg(terms, size, order)
        assert report == exhaustive_minors(toeplitz_window(terms, size), order)
        rows, cols, value = report.witness
        assert len(rows) == k and cols[0] == 0 and value < 0


def test_admissible_count_matches_the_scan():
    """The admissible minors that the scan enumerates, `_admissible_count`
    (the guard) and a brute-force count over every (rows, cols) agree, so
    the guard counts exactly the minors the scan can evaluate.  At the guard
    shapes, where the brute force is too slow, the first two agree."""

    def scanned(size, deg, order):
        return deg + 1 + sum(
            len(columns)
            for k in range(2, order + 1)
            for _, columns in pf._admissible_minors(size, deg, k)
        )

    def brute(size, deg, order):
        return sum(
            1
            for k in range(1, order + 1)
            for rows in itertools.combinations(range(size), k)
            for cols in itertools.combinations(range(size), k)
            if cols[0] == 0 and all(c <= r <= c + deg for r, c in zip(rows, cols))
        )

    for size, deg, order in ((1, 0, 1), (5, 2, 3), (6, 0, 6), (7, 3, 4), (8, 7, 5), (6, 1, 2)):
        count = pf._admissible_count(size, deg, order)
        assert count == brute(size, deg, order) == scanned(size, deg, order)
    # check pf-minors --terms 1,3,3,1 --window 12 --order 12 would be
    # scanned, one row more would not; --terms 1,3,4,3,1 --window 13 is
    # scanned at order 6 and refused at order 7 (`tests/test_cli.py`)
    for size, deg, order, count, refused in (
        (12, 3, 12, 331_981, False),
        (13, 3, 12, 1_077_869, True),
        (13, 4, 6, 547_742, False),
        (13, 4, 7, 1_023_022, True),
        (pf.MAX_ROWS, 1, 2, 175, False),
    ):
        assert pf._admissible_count(size, deg, order) == scanned(size, deg, order) == count
        assert (count > pf.MAX_MINORS) == refused


def test_scan_reaches_order_12():
    """The depth check of the minor scan: every admissible minor of orders 1 to
    12 of the 12 x 12 window of (1, 3, 3, 1), none negative."""
    assert pf._first_negative_minor([1, 3, 3, 1], 12, 3, 12) is None


def test_minor_guard_bounds_the_rows(monkeypatch):
    """From order 2 on a window of more than MAX_ROWS rows from its first
    nonzero term on is refused before the elimination, the count or the
    scan sees it, however few minors are admissible; MAX_ROWS rows are
    accepted by the elimination alone."""
    assert pf.MAX_ROWS == 45
    assert math.comb(45, 2) ** 2 <= pf.MAX_MINORS < math.comb(46, 2) ** 2
    assert minors_nonneg((1, 1), 60, 1).nonnegative  # order 1: no row bound
    monkeypatch.setattr(pf, "_first_negative_minor", None)
    assert minors_nonneg((1, 1), 45, 2).nonnegative
    assert minors_nonneg((0, 1, 1), 46, 2).nonnegative
    monkeypatch.setattr(pf, "_neville_tn", None)
    monkeypatch.setattr(pf, "_admissible_count", None)
    for terms, size in (((1, 1), 46), ((1, 1), 60), ((0, 1, 1), 47), ((1, 1), 10**9)):
        with pytest.raises(PreconditionError, match="more than 45 rows"):
            minors_nonneg(terms, size, 2)
    assert minors_nonneg([0] * 5, 60, 15).nonnegative  # every minor of a zero window is 0
