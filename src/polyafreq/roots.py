"""Exact real-root analysis via Sturm sequences.

Every root question on f reads one Sturm chain: that of f itself, or that
of its half when `rootedness`, or a function that reads it, is asked of a
palindrome (below).  The chain f, f', -rem, ... ends at gcd(f, f'), and
dividing every member by it leaves a Sturm chain of the square-free part of
f (Basu, Pollack and Roy, ch. 2).  f is real-rooted exactly when that chain
counts deg f - deg gcd(f, f') distinct real roots.  `roots_within` reads
that verdict and then two Descartes counts, each off one integer Taylor
shift: on a real-rooted f they count exactly the roots above hi and below
lo.  The one bisection, `_sample_points`, splits (-B, B] on a chain in the
half-open convention (lo, hi] and returns one sorted point in each
root-free interval.  Root dominance reads the chains of f, of g and, when
the two square-free parts share a factor c, of c: the distinct roots of fg
in (lo, hi] number n_f + n_g - n_c, and the same bisection splits on that
signed sum.  At each point it compares Descartes counts of f and g.  The
sign of p on the reals is its sign at the points of p.
Interlacing of f and g is decided from the Cauchy index Ind(f/g), which one
signed remainder sequence of g and f gives from leading signs and degrees
alone, with no evaluation.  That sequence ends at c = gcd(f, g), and c
scales every member alike, so it moves no sign variation and Ind(f/g) is
the index of the coprime parts f/c over g/c; no gcd is computed apart.
Whenever the index succeeds it also certifies that both parts are
real-rooted, so only c is checked; the full checks on the two inputs, one
chain each, run only when it fails.

A palindrome is decided at half its degree.  Strip x^k from f; when the
rest reads the same reversed and has at least 3 coefficients, divide out
the root -1 at odd degree.  What is left, of degree 2m, is x^m * g(x + 1/x)
for a g of degree m, read off the coefficients through
x^j + x^-j = D_j(x + 1/x), D_0 = 2, D_1 = y, D_j = y*D_{j-1} - D_{j-2}.
Each root y of g gives the two roots of x^2 - yx + 1: non-real when y is,
real and apart when y is real with |y| > 2, conjugate on the unit circle
when -2 < y < 2, and the root +-1 with doubled multiplicity when y = +-2,
since y -+ 2 = (x -+ 1)^2 / x.  So f is real-rooted exactly when g is and
has no root in (-2, 2), and simple-rooted exactly when k <= 1 and g is
simple-rooted with no root in [-2, 2]; one chain of g, counted between -2
and 2, answers both.  Any other input, anti-palindromes included, is read
on the chain of f.

Chains and Cauchy indices are read off the one remainder loop of the
package, `polynomial._remainder_sequence`, in Python `int`.  Every sign at a
rational point a/b, b > 0, and every test for a root there, is that of the
integer `polynomial.horner`(nums, a, b) = b^d * f(a/b) * den; no `Fraction`
is built per chain member, and `Fraction` here holds only points and bounds.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import NotRealRootedError, PreconditionError, ZeroPolynomialError
from .polynomial import (
    ExtendedRational,
    NEG_INF,
    POS_INF,
    Poly,
    _derivative,
    _primitive,
    _remainder_sequence,
    _taylor_shift,
    horner,
)


# -- Sturm chains ------------------------------------------------------------


def sturm_chain(f: Poly) -> list[Poly]:
    """Canonical Sturm chain of f, with positive integer-primitive rescaling.

    The members are f, f' and the negated remainders, each scaled by a
    positive rational to integer coefficients with gcd 1.
    """
    p = _primitive(f.nums)
    return [Poly._from_ints(q) for q in _remainder_sequence(p, _primitive(_derivative(p)))]


def _sign_changes(signs: list[bool]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _signs(members: list[Poly], a: int, b: int) -> list[bool]:
    """Whether each member that does not vanish at a/b, b > 0, is positive there."""
    signs = []
    for p in members:
        v = horner(p.nums, a, b)
        if v:
            signs.append(v > 0)
    return signs


def _variations(chain: list[Poly], x0: Fraction) -> int:
    return _sign_changes(_signs(chain, x0.numerator, x0.denominator))


def _chain_count(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_root_bound(f: Poly) -> Fraction:
    """B = 1 + ceil(max |a_i| / |a_n|) over i < n, an integer with every real
    root of f strictly inside (-B, B); a Fraction, so halving it stays exact."""
    if f.is_zero:
        raise ZeroPolynomialError("root bound of zero polynomial")
    if len(f.nums) == 1:
        return Fraction(1)
    lead = abs(f.nums[-1])
    return Fraction(1 - (-max(abs(c) for c in f.nums[:-1]) // lead))


def _squarefree_chain(f: Poly, what: str) -> tuple[list[Poly], Fraction, int, int]:
    """(chain, B, distinct real roots of f, deg gcd(f, f')) from one chain of f.

    The Sturm chain of f ends at gcd(f, f') up to scale; dividing every
    member by it leaves a Sturm chain of the square-free part of f, whose
    first member has the roots and the Cauchy bound B of that part (of f
    itself when the gcd is constant).  The chain counts roots in (lo, hi] at
    any two points, roots or not.
    """
    if f.is_zero:
        raise ZeroPolynomialError(f"{what} of zero polynomial")
    chain = sturm_chain(f)
    gcd = chain[-1]
    if gcd.degree > 0:
        chain = [p.exact_divide(gcd) for p in chain]
    B = cauchy_root_bound(chain[0])
    return chain, B, _chain_count(chain, -B, B), gcd.degree


_TWO = Fraction(2)


def _palindromic_half(f: Poly) -> tuple[Poly, int] | None:
    """(g, k) with f = x^k * (1 + x)^e * x^m * g(x + 1/x), or None.

    None unless f with x^k stripped is a palindrome p of at least 3
    coefficients; e is 1 at odd deg p, where p(-1) = 0, and 0 otherwise.
    g = a_m + sum_{j >= 1} a_{m+j} * D_j for the palindrome a = p / (1 + x)^e
    of degree 2m, in integers over the denominator of f.
    """
    nums = f.nums
    k = 0
    while k < len(nums) and not nums[k]:
        k += 1
    a = list(nums[k:])
    if len(a) < 3 or a != a[::-1]:
        return None
    if len(a) % 2 == 0:
        # synthetic division by 1 + x
        for i in range(1, len(a) - 1):
            a[i] -= a[i - 1]
        a.pop()
    m = len(a) // 2
    g = [a[m]] + [0] * m
    d_prev, d = [2], [0, 1]
    for c in a[m + 1 :]:
        for i, t in enumerate(d):
            g[i] += c * t
        step = [0, *d]
        for i, t in enumerate(d_prev):
            step[i] -= t
        d_prev, d = d, step
    return Poly._from_ints(g, f.den), k


def rootedness(f: Poly) -> tuple[bool, bool]:
    """(`is_real_rooted(f)`, `is_simple_rooted(f)`) from one chain: of f, or
    of g for a palindrome (module docstring)."""
    half = _palindromic_half(f)
    if half is None:
        _, _, distinct, gcd_degree = _squarefree_chain(f, "real-rootedness")
        real = distinct == f.degree - gcd_degree
        return real, real and gcd_degree == 0
    g, k = half
    chain, _, distinct, gcd_degree = _squarefree_chain(g, "real-rootedness")
    if distinct != g.degree - gcd_degree:
        return False, False
    # real: no root in the open (-2, 2), so the count on (-2, 2] is 0, or 1
    # at g(2) = 0; simple: also k <= 1, g square-free and no root at -2 or 2
    inside = _chain_count(chain, -_TWO, _TWO)
    real = inside == 0 or (inside == 1 and horner(g.nums, 2) == 0)
    return real, inside == 0 and gcd_degree == 0 and k <= 1 and horner(g.nums, -2) != 0


def is_real_rooted(f: Poly) -> bool:
    """All complex roots real; constants count as real-rooted."""
    return rootedness(f)[0]


def is_simple_rooted(f: Poly) -> bool:
    """All roots real and pairwise distinct."""
    return rootedness(f)[1]


def roots_within(f: Poly, lo: ExtendedRational, hi: ExtendedRational) -> bool:
    """True iff f is real-rooted and every root lies in the closed [lo, hi].

    Either endpoint may be NEG_INF / POS_INF.  Endpoints are compared, never
    converted to float, so a rational endpoint of any size stays exact.
    """
    if f.is_zero:
        raise ZeroPolynomialError("roots_within of zero polynomial")
    if lo == POS_INF:
        raise PreconditionError("lo endpoint may not be +inf")
    if hi == NEG_INF:
        raise PreconditionError("hi endpoint may not be -inf")
    if lo != NEG_INF:
        lo = Fraction(lo)
    if hi != POS_INF:
        hi = Fraction(hi)
    if lo > hi:
        raise PreconditionError("roots_within needs lo <= hi")
    return rootedness(f)[0] and _within(f, lo, hi)


def _within(f: Poly, lo: ExtendedRational, hi: ExtendedRational) -> bool:
    """Every root of the real-rooted f in [lo, hi], for lo <= hi.

    Descartes' rule is exact on a real-rooted polynomial, so no root lies
    above hi exactly when `_descartes_count`(f, hi) is 0, and none below lo
    exactly when f(-x) has none above -lo.
    """
    return (hi == POS_INF or _descartes_count(f, hi) == 0) and (
        lo == NEG_INF or _descartes_count(f.affine_compose(-1, 0), -lo) == 0
    )


def simple_roots_within(f: Poly, lo: ExtendedRational, hi: ExtendedRational) -> tuple[bool, bool]:
    """(is_simple_rooted(f), roots_within(f, lo, hi)) from one chain, for lo <= hi.

    `rootedness` answers both verdicts on the chain of f, or of the half of
    a palindrome, and two Descartes counts place the roots.
    """
    real, simple = rootedness(f)
    return simple, real and _within(f, lo, hi)


# -- interlacing and dominance ------------------------------------------------


class InterlaceRelation(enum.Enum):
    INTERLACES = "interlaces"
    INTERLACES_STRICT = "interlaces_strict"
    ALTERNATES_LEFT = "alternates_left"
    ALTERNATES_LEFT_STRICT = "alternates_left_strict"
    EQUAL_DEGREE_NONE = "equal_degree_none"
    NONE = "none"


# the relations that count as interlacing, as alternating, and as strict
INTERLACING_RELATIONS = frozenset(
    {InterlaceRelation.INTERLACES, InterlaceRelation.INTERLACES_STRICT}
)
ALTERNATING_RELATIONS = frozenset(
    {InterlaceRelation.ALTERNATES_LEFT, InterlaceRelation.ALTERNATES_LEFT_STRICT}
)
STRICT_RELATIONS = frozenset(
    {InterlaceRelation.INTERLACES_STRICT, InterlaceRelation.ALTERNATES_LEFT_STRICT}
)


def _certifying_index(f: Poly, g: Poly) -> tuple[int, Poly] | None:
    """(Ind(f/g), c = gcd(f, g)) when the index proves f/c and g/c real-rooted.

    None, with no remainder sequence built, unless 0 <= deg g - deg f <= 1;
    raises unless f and g are nonzero.  Sturm's generalised theorem needs no
    coprime inputs: Ind(f/g) = V(-inf) - V(+inf) on the signed remainder
    sequence g, f, -rem(g, f), ..., which ends at c up to scale.  Each member
    here is a positive multiple of the one in the theorem, so the signs at
    +-inf come from the leading coefficients and degrees alone.

    With u = f/c and v = g/c, Ind(f/g) = Ind(u/v) and |Ind(u/v)| <= deg v;
    equality forces deg v simple real poles whose jumps have one sign, hence
    a simple root of u in each of the deg v - 1 gaps between them.  That is
    every root of u when deg u = deg v - 1; at equal degrees the last root
    of u is real too, since non-real roots come in conjugate pairs.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlace relation needs nonzero polynomials")
    if not 0 <= g.degree - f.degree <= 1:
        return None
    seq = _remainder_sequence(_primitive(g.nums), _primitive(f.nums))
    at_pos = [p[-1] > 0 for p in seq]
    # the sign at -inf flips for odd degree, i.e. for an even coefficient count
    at_neg = [s == (len(p) % 2 == 1) for s, p in zip(at_pos, seq)]
    index = _sign_changes(at_neg) - _sign_changes(at_pos)
    last = seq[-1]
    if abs(index) != g.degree - (len(last) - 1):
        return None
    return index, Poly._from_ints(last, last[-1])


def _require_real_rooted(f: Poly, g: Poly, c: Poly | None) -> None:
    """Raise NotRealRootedError unless f and g are real-rooted.

    c is gcd(f, g) when the index has certified f/c and g/c, and then f and
    g are real-rooted exactly when c is, and c of degree <= 1 always is.
    Otherwise (c is None) the full checks on f and g decide.
    """
    if c is not None:
        real = c.degree <= 1 or is_real_rooted(c)
    else:
        real = is_real_rooted(f) and is_real_rooted(g)
    if not real:
        raise NotRealRootedError("interlace relation needs real-rooted polynomials")


def interlace_relation(f: Poly, g: Poly) -> InterlaceRelation:
    """Classify the ordered pair (f, g) by the weave of their root multisets.

    interlaces: deg g = deg f + 1 with beta_1 <= alpha_1 <= beta_2 <= ...;
    alternates_left: equal degrees with alpha_1 <= beta_1 <= alpha_2 <= ...;
    the strict variants additionally require gcd(f, g) constant.  Raises
    unless f and g are nonzero and real-rooted.

    The relation is decided from the Cauchy index of f/g, read with c =
    gcd(f, g) off the one signed remainder sequence of g and f; no root is
    isolated.  For u = f/c and v = g/c, f/g = u/v: the common factor scales
    every member of the sequence alike, so it moves no sign variation at
    +-inf and Ind(f/g) = Ind(u/v).  Interlacing says
    0 <= #{beta <= t} - #{alpha <= t} <= 1 at every t, and alternating left
    says 0 <= #{alpha <= t} - #{beta <= t} <= 1; a common factor leaves both
    counts unchanged, so (f, g) and (u, v) are related alike.  The index
    that relates u and v also certifies them (`_certifying_index`), so only
    c is then checked for real-rootedness; the full checks on f and g run
    only when the index fails, and no sequence is built unless
    0 <= deg g - deg f <= 1.  With equal degrees the sign of the index,
    times sign(lc u * lc v) = sign(lc f * lc g), says which of u and v has
    the smallest root; two constants have index 0 = deg u.
    """
    index, c = _certifying_index(f, g) or (None, None)
    _require_real_rooted(f, g, c)
    if index is None:
        return InterlaceRelation.EQUAL_DEGREE_NONE if f.degree == g.degree else InterlaceRelation.NONE
    coprime = c.degree <= 0
    if g.degree == f.degree + 1:
        return InterlaceRelation.INTERLACES_STRICT if coprime else InterlaceRelation.INTERLACES
    sign = 1 if (f.nums[-1] > 0) == (g.nums[-1] > 0) else -1
    if sign * index == f.degree - c.degree:
        return InterlaceRelation.ALTERNATES_LEFT_STRICT if coprime else InterlaceRelation.ALTERNATES_LEFT
    return InterlaceRelation.EQUAL_DEGREE_NONE


def alternates(f: Poly, g: Poly, strict: bool = False) -> bool:
    """True when one of f, g interlaces or alternates left of the other.

    Raises unless f and g are nonzero and real-rooted, also when strict is
    set and gcd(f, g) is not constant.  The answer is the certificate of
    `_certifying_index` on the lower-degree input over the other, and the
    full checks on f and g run only when it fails.
    """
    if f.degree > g.degree:
        f, g = g, f
    # With deg g = deg f + 1 only f can interlace g.  With equal degrees
    # Ind(g/f) = -Ind(f/g), since Ind(f/g) + Ind(g/f) is half the change of
    # sign(fg) from -inf to +inf, so one order alternates left exactly when
    # |Ind(f/g)| = deg f - deg c.
    _, c = _certifying_index(f, g) or (None, None)
    _require_real_rooted(f, g, c)
    return c is not None and not (strict and c.degree > 0)


# -- root dominance and global sign, from one set of sample points ------------


def _sample_points(chains: list[tuple[list[Poly], int]], B: Fraction) -> list[Fraction]:
    """One sorted point in each root-free interval of the roots that signed
    square-free chains count.

    The roots in (lo, hi] number the sum of sign * (V(lo) - V(hi)) over the
    (chain, sign) pairs.  Bisection splits (-B, B] until each piece holds at
    most one root; a split point that is a root of the first member of any
    chain moves towards the right end of its piece.  The points are -B and
    the right end of every piece that holds a root.  Each chain member is
    read once at each split point, the first members before the rest.
    """

    def variations(x: Fraction) -> int | None:
        """The signed sum of V(x), or None when x is a root of a first member."""
        a, b = x.numerator, x.denominator
        firsts = [horner(chain[0].nums, a, b) for chain, _ in chains]
        if not all(firsts):
            return None
        return sum(
            sign * _sign_changes([first > 0, *_signs(chain[1:], a, b)])
            for (chain, sign), first in zip(chains, firsts)
        )

    points = [-B]
    stack = [(-B, variations(-B), B, variations(B))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            points.append(hi)
        if v_lo - v_hi <= 1:
            continue
        mid = (lo + hi) / 2
        v_mid = variations(mid)
        while v_mid is None:
            mid = (mid + hi) / 2
            v_mid = variations(mid)
        stack.append((mid, v_mid, hi, v_hi))
        stack.append((lo, v_lo, mid, v_mid))
    return points


def sample_points_between_roots(p: Poly) -> list[Fraction]:
    """One rational point in each maximal root-free interval of p, sorted."""
    chain, B, _, _ = _squarefree_chain(p, "sampling")
    return _sample_points([(chain, 1)], B)


def _descartes_count(p: Poly, t: Fraction) -> int:
    """Sign variations of p(t), p'(t), ..., p^(d)(t), zeros skipped: those of
    the coefficients of p(x + t), read off `polynomial._taylor_shift`."""
    c = _taylor_shift(p.nums, t.numerator, t.denominator)
    return _sign_changes([v > 0 for v in c if v])


def root_dominance(f: Poly, g: Poly) -> bool:
    """True iff the i-th smallest roots satisfy alpha_i <= beta_i for all i.

    Both inputs must be standard, real-rooted and of equal degree.  That
    holds exactly when f has at most as many roots above t as g at every t,
    and both counts are constant between the roots of fg.  The roots of a
    real-rooted f above t are counted exactly by Descartes' rule on
    f(x + t), whose coefficients are f(t), f'(t), ..., f^(n)(t) up to k!
    (`_descartes_count`).  The square-free chains of f and g each check their
    input, and with the chain of c, the gcd of their first members, they
    count the distinct roots of fg in (lo, hi] as n_f + n_g - n_c, on which
    the bisection finds the sample points in (-B, B], B = max(B_f, B_g).
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("root dominance needs nonzero polynomials")
    if f.degree != g.degree:
        raise PreconditionError("root dominance needs equal degrees")
    if not (f.is_standard and g.is_standard):
        raise PreconditionError("root dominance needs positive leading coefficients")
    chains, bounds = [], []
    for p in (f, g):
        chain, B, distinct, gcd_degree = _squarefree_chain(p, "root dominance")
        if distinct != p.degree - gcd_degree:
            raise NotRealRootedError("root dominance needs real-rooted polynomials")
        chains.append((chain, 1))
        bounds.append(B)
    c = _remainder_sequence(*(_primitive(chain[0].nums) for chain, _ in chains))[-1]
    if len(c) > 1:
        chains.append((sturm_chain(Poly._from_ints(c, c[-1])), -1))
    points = _sample_points(chains, max(bounds))
    return all(_descartes_count(f, t) <= _descartes_count(g, t) for t in points)


def negative_witness(p: Poly) -> Fraction | None:
    """A rational point where p is negative, or None when p >= 0 everywhere."""
    for x in sample_points_between_roots(p):
        if horner(p.nums, x.numerator, x.denominator) < 0:
            return x
    return None


def check_nonneg_on_reals(p: Poly) -> bool:
    """True iff p(x) >= 0 for every real x."""
    if p.is_zero:
        raise ZeroPolynomialError("sign check of zero polynomial")
    return negative_witness(p) is None
