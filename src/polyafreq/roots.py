"""Exact real-root analysis via Sturm sequences.

Real-rootedness reads one Sturm chain, that of f itself: the chain
f, f', -rem, ... ends at gcd(f, f'), so it counts the distinct real roots of
f at any two points that are not roots, and f is real-rooted exactly when
that count equals deg f - deg gcd(f, f').  Interlacing is decided from a
Cauchy index, which the signed remainder sequence of the two coprime parts
gives from leading signs and degrees alone, with no evaluation.  Only root
dominance and the sample points of `sample_points_between_roots` isolate
roots, by interval bisection in the half-open convention (lo, hi], which
makes counts additive under splitting; closed-interval questions test
endpoints by exact evaluation.

Sturm chains are built in Python `int` by a primitive pseudo-remainder
sequence, and their members are evaluated at rational points by integer
Horner (`Poly.__call__`); only the returned values are `Fraction`.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .errors import (
    InternalCheckError,
    NotRealRootedError,
    PreconditionError,
    ZeroPolynomialError,
)
from .polynomial import (
    ExtendedRational,
    NEG_INF,
    POS_INF,
    Poly,
    poly_gcd,
    root_multiplicity,
    squarefree_decomposition,
    squarefree_part,
    _primitive,
    _primitive_remainder,
)

_REFINE_CAP = 100_000


# -- Sturm chains ------------------------------------------------------------


def sturm_chain(f: Poly) -> list[Poly]:
    """Canonical Sturm chain of f, with positive integer-primitive rescaling.

    The members are f, f' and the negated remainders, each scaled by a
    positive rational to integer coefficients with gcd 1.
    """
    p = _primitive(f.nums)
    chain = [p]
    d = [i * c for i, c in enumerate(p)][1:]
    if d:
        chain.append(_primitive(d))
        while True:
            r = _primitive_remainder(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    return [Poly._from_ints(q) for q in chain]


def _sign_changes(signs: list[bool]) -> int:
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(chain: list[Poly], x0: Fraction) -> int:
    signs = []
    for p in chain:
        v = p(x0)
        if v:
            signs.append(v > 0)
    return _sign_changes(signs)


def _chain_count(chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    return _variations(chain, lo) - _variations(chain, hi)


def cauchy_root_bound(f: Poly) -> Fraction:
    """B with every real root of f strictly inside (-B, B)."""
    if f.is_zero:
        raise ZeroPolynomialError("root bound of zero polynomial")
    if len(f.coeffs) == 1:
        return Fraction(1)
    lead = abs(f.coeffs[-1])
    return 1 + max(abs(c) for c in f.coeffs[:-1]) / lead


def _root_summary(f: Poly, what: str) -> tuple[int, int]:
    """(distinct real roots of f, deg gcd(f, f')) from the Sturm chain of f.

    The chain ends at gcd(f, f') up to scale, and dividing every member by
    it leaves a Sturm chain of the square-free part of f with the same sign
    variations at any point that is not a root, such as the Cauchy bound +-B.
    """
    if f.is_zero:
        raise ZeroPolynomialError(f"{what} of zero polynomial")
    chain = sturm_chain(f)
    B = cauchy_root_bound(f)
    return _chain_count(chain, -B, B), chain[-1].degree


def count_distinct_real_roots(f: Poly) -> int:
    return _root_summary(f, "root count")[0]


def is_real_rooted(f: Poly) -> bool:
    """All complex roots real; constants count as real-rooted."""
    distinct, gcd_degree = _root_summary(f, "real-rootedness")
    return distinct == f.degree - gcd_degree


def is_simple_rooted(f: Poly) -> bool:
    """All roots real and pairwise distinct."""
    distinct, gcd_degree = _root_summary(f, "real-rootedness")
    return gcd_degree == 0 and distinct == f.degree


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
    deg = len(f.coeffs) - 1
    if deg == 0:
        return True
    if lo == hi:
        return root_multiplicity(f, lo) == deg
    sf = squarefree_part(f)
    B = cauchy_root_bound(sf)
    chain = sturm_chain(sf)
    total = _chain_count(chain, -B, B)
    if total < sf.degree:
        return False
    left, right = max(lo, -B), min(hi, B)
    inside = _chain_count(chain, left, right) if left < right else 0
    if lo != NEG_INF and f(lo) == 0:
        inside += 1
    return inside == total


# -- isolation ---------------------------------------------------------------


def _isolate_squarefree(g: Poly, chain: list[Poly] | None = None) -> list[tuple[Fraction, Fraction]]:
    """Disjoint sorted (lo, hi) pairs isolating the real roots of square-free g.

    Interval endpoints are never roots of g; a rational root is returned as a
    degenerate pair (r, r).
    """
    if len(g.coeffs) <= 2:
        if len(g.coeffs) == 2:
            r = -g.coeffs[0] / g.coeffs[1]
            return [(r, r)]
        return []
    if chain is None:
        chain = sturm_chain(g)
    B = cauchy_root_bound(g)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-B, B, _chain_count(chain, -B, B))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            if g(hi) == 0:
                out.append((hi, hi))
            else:
                out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = _chain_count(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    out.sort()
    return out


def _halve(g: Poly, chain: list[Poly], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """One bisection step on an isolating interval for g."""
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    if g(mid) == 0:
        return mid, mid
    if _chain_count(chain, lo, mid) == 1:
        return lo, mid
    return mid, hi


def _boxes_disjoint(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> bool:
    alo, ahi = a
    blo, bhi = b
    if alo == ahi and blo == bhi:
        return alo != blo
    if alo == ahi:
        return not blo < alo < bhi
    if blo == bhi:
        return not alo < blo < ahi
    return ahi <= blo or bhi <= alo


def _separate_all(entries: list[list]) -> None:
    """Refine (box, poly, chain) entries in place until boxes are pairwise disjoint."""
    for _ in range(_REFINE_CAP):
        dirty = False
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if not _boxes_disjoint(entries[i][0], entries[j][0]):
                    for e in (entries[i], entries[j]):
                        e[0] = _halve(e[1], e[2], *e[0])
                    dirty = True
        if not dirty:
            return
    raise InternalCheckError("root box separation failed to converge")


def _count_in_open(g: Poly, chain: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of g strictly inside (lo, hi)."""
    if lo == hi:
        return 0
    n = _chain_count(chain, lo, hi)
    if g(hi) == 0:
        n -= 1
    return n


# -- interlacing and dominance ------------------------------------------------


class InterlaceRelation(enum.Enum):
    INTERLACES = "interlaces"
    INTERLACES_STRICT = "interlaces_strict"
    ALTERNATES_LEFT = "alternates_left"
    ALTERNATES_LEFT_STRICT = "alternates_left_strict"
    EQUAL_DEGREE_NONE = "equal_degree_none"
    NONE = "none"


def _expanded_positions(f: Poly, g: Poly) -> tuple[list[int], list[int], bool]:
    """Merged root order of f and g as integer positions.

    Returns (alphas, betas, coprime): the sorted positions, with multiplicity,
    of the roots of f and of g inside the merged sequence of distinct roots;
    a common root of f and g occupies one shared position.
    """
    sf, sg = squarefree_part(f), squarefree_part(g)
    c = poly_gcd(sf, sg)
    u = sf.exact_divide(c) if c.degree > 0 else sf
    v = sg.exact_divide(c) if c.degree > 0 else sg
    decomp_f = [(h, m, sturm_chain(h)) for h, m in squarefree_decomposition(f)]
    decomp_g = [(h, m, sturm_chain(h)) for h, m in squarefree_decomposition(g)]

    entries: list[list] = []
    tags: list[str] = []
    for p, tag in ((u, "f"), (v, "g"), (c, "fg")):
        if p.degree > 0:
            chain = sturm_chain(p)
            for box in _isolate_squarefree(p, chain):
                entries.append([box, p, chain])
                tags.append(tag)
    _separate_all(entries)
    merged = sorted(zip(entries, tags), key=lambda t: t[0][0])

    def mult_in(decomp, box) -> int:
        lo, hi = box
        for h, m, chain in decomp:
            if lo == hi:
                if h(lo) == 0:
                    return m
            elif _count_in_open(h, chain, lo, hi):
                return m
        raise InternalCheckError("isolated root not found in its own factorization")

    alphas: list[int] = []
    betas: list[int] = []
    for pos, (entry, tag) in enumerate(merged):
        if "f" in tag:
            alphas.extend([pos] * mult_in(decomp_f, entry[0]))
        if "g" in tag:
            betas.extend([pos] * mult_in(decomp_g, entry[0]))
    return alphas, betas, c.degree <= 0


def _cauchy_index(u: list[int], v: list[int]) -> int:
    """Cauchy index of u/v over the reals, for integer coefficient lists.

    Sturm's generalised theorem: the index is V(-inf) - V(+inf) on the
    signed remainder sequence v, u, -rem(v, u), ...  Each member here is a
    positive multiple of the one in the theorem, so the signs at +-inf come
    from the leading coefficients and degrees alone.
    """
    seq = [v, u]
    while True:
        r = _primitive_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])
    at_pos = [p[-1] > 0 for p in seq]
    # the sign at -inf flips for odd degree, i.e. for an even coefficient count
    at_neg = [s == (len(p) % 2 == 1) for s, p in zip(at_pos, seq)]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def _coprime_parts(f: Poly, g: Poly) -> tuple[list[int], list[int], bool]:
    """(u, v, coprime): f and g divided by c = gcd(f, g), as integer lists.

    u and v are positive multiples of f/c and g/c; coprime says that c is
    constant.  Raises unless f and g are nonzero and real-rooted.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlace relation needs nonzero polynomials")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise NotRealRootedError("interlace relation needs real-rooted polynomials")
    c = poly_gcd(f, g)
    if c.degree <= 0:
        return _primitive(f.nums), _primitive(g.nums), True
    return _primitive(f.exact_divide(c).nums), _primitive(g.exact_divide(c).nums), False


def interlace_relation(f: Poly, g: Poly) -> InterlaceRelation:
    """Classify the ordered pair (f, g) by the weave of their root multisets.

    interlaces: deg g = deg f + 1 with beta_1 <= alpha_1 <= beta_2 <= ...;
    alternates_left: equal degrees with alpha_1 <= beta_1 <= alpha_2 <= ...;
    the strict variants additionally require gcd(f, g) constant.

    The relation is decided from the Cauchy index of u/v, u = f/c and
    v = g/c for c = gcd(f, g); no root is isolated.  Interlacing says
    0 <= #{beta <= t} - #{alpha <= t} <= 1 at every t, and alternating left
    says 0 <= #{alpha <= t} - #{beta <= t} <= 1; a common factor leaves both
    counts unchanged, so (f, g) and (u, v) are related alike.
    |Ind(u/v)| = deg v forces deg v simple real poles whose jumps have one
    sign, hence a simple root of u in each gap between them.  With equal
    degrees the sign of the index, times sign(lc u * lc v), says which of
    u and v has the smallest root; two constants have index 0 = deg u.
    """
    u, v, coprime = _coprime_parts(f, g)
    du, dv = len(u) - 1, len(v) - 1
    if dv == du + 1:
        if abs(_cauchy_index(u, v)) == dv:
            return InterlaceRelation.INTERLACES_STRICT if coprime else InterlaceRelation.INTERLACES
        return InterlaceRelation.NONE
    if du == dv:
        sign = 1 if (u[-1] > 0) == (v[-1] > 0) else -1
        if sign * _cauchy_index(u, v) == du:
            return InterlaceRelation.ALTERNATES_LEFT_STRICT if coprime else InterlaceRelation.ALTERNATES_LEFT
        return InterlaceRelation.EQUAL_DEGREE_NONE
    return InterlaceRelation.NONE


def alternates(f: Poly, g: Poly, strict: bool = False) -> bool:
    """True when one of f, g interlaces or alternates left of the other."""
    u, v, coprime = _coprime_parts(f, g)
    if strict and not coprime:
        return False
    if len(u) > len(v):
        u, v = v, u
    # With deg v = deg u + 1 only u can interlace v.  With equal degrees
    # Ind(v/u) = -Ind(u/v), since Ind(u/v) + Ind(v/u) is half the change of
    # sign(uv) from -inf to +inf, so one order alternates left exactly when
    # |Ind(u/v)| = deg u.
    return len(v) - len(u) <= 1 and abs(_cauchy_index(u, v)) == len(v) - 1


def root_dominance(f: Poly, g: Poly) -> bool:
    """True iff the i-th smallest roots satisfy alpha_i <= beta_i for all i.

    Both inputs must be standard, real-rooted and of equal degree.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("root dominance needs nonzero polynomials")
    if f.degree != g.degree:
        raise PreconditionError("root dominance needs equal degrees")
    if not (f.is_standard and g.is_standard):
        raise PreconditionError("root dominance needs positive leading coefficients")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise NotRealRootedError("root dominance needs real-rooted polynomials")
    alphas, betas, _ = _expanded_positions(f, g)
    return all(a <= b for a, b in zip(alphas, betas))


# -- global sign questions -----------------------------------------------------


def check_nonneg_on_reals(p: Poly) -> bool:
    """True iff p(x) >= 0 for every real x."""
    if p.is_zero:
        raise ZeroPolynomialError("sign check of zero polynomial")
    deg = len(p.coeffs) - 1
    if deg == 0:
        return p.coeffs[0] > 0
    if deg % 2 == 1 or p.leading < 0:
        return False
    return all(
        count_distinct_real_roots(g) == 0
        for g, m in squarefree_decomposition(p)
        if m % 2 == 1
    )


def sample_points_between_roots(p: Poly) -> list[Fraction]:
    """Rational sample points hitting every maximal root-free interval of p."""
    if p.is_zero:
        raise ZeroPolynomialError("sampling of zero polynomial")
    if len(p.coeffs) == 1:
        return [Fraction(0)]
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    boxes = _isolate_squarefree(sf, chain)
    if not boxes:
        return [Fraction(0)]
    B = cauchy_root_bound(sf)
    points = [-B, B]
    for k in range(len(boxes) - 1):
        left, right = boxes[k], boxes[k + 1]
        for _ in range(_REFINE_CAP):
            if left[1] < right[0]:
                points.append((left[1] + right[0]) / 2)
                break
            if left[1] == right[0] and left[0] != left[1] and right[0] != right[1]:
                points.append(left[1])
                break
            left = _halve(sf, chain, *left)
            right = _halve(sf, chain, *right)
        else:
            raise InternalCheckError("sample point search failed to converge")
        boxes[k + 1] = right
    return points


def negative_witness(p: Poly) -> Fraction | None:
    """A rational point where p is negative, or None when p >= 0 everywhere."""
    for x in sample_points_between_roots(p):
        if p(x) < 0:
            return x
    return None

