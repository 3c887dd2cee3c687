"""Retired root routes of `polyafreq.roots`, kept as oracles.

The Yun-plus-evaluation route to real-rootedness: the Yun square-free
decomposition of f, one Sturm chain per square-free factor evaluated at the
Cauchy bound, the multiplicities summed, and a separate gcd(f, f') for
simple roots.  `roots_within` decides real-rootedness first and then counts
on the chain of the square-free part.  `polyafreq.roots` answers all of these
from the one Sturm chain of f.

The pairwise box-separation isolator: the roots of u = f/c, v = g/c and
c = gcd(f, g) are isolated in boxes, the boxes halved pairwise until they
are disjoint, and each box matched to its multiplicity in the Yun
decompositions of f and g.  `root_dominance` compared the merged positions,
and `check_nonneg_on_reals` counted the real roots of the factors of odd
multiplicity.  `polyafreq.roots` answers both from the sorted points of one
bisection.

The square-free sampling route: `squarefree_part`, then the Sturm chain and
Cauchy bound of that part, then the bisection.  `polyafreq.roots` reads the
same points off the chain of f divided by its last member.  The
two-interval multiplier test: the image of (x+1)^n has all roots in
(-inf, 0] or all in [0, +inf).  `polyafreq.transforms` asks one chain and
reads the sign of the roots from the coefficients.

The one-chain route to real-rootedness: `is_real_rooted` and
`is_simple_rooted` read the Sturm chain of f itself, whatever its shape.
`polyafreq.roots` still does for every input but a palindrome, which it
decides on the chain of its half g, f = x^k (1 + x)^e x^m g(x + 1/x).
`palindromic_half` finds g here by peeling x^(m-j) (x^2 + 1)^j off the top
of the palindrome, not by the D_k recurrence.

The product-chain route to root dominance: the square-free chain of fg,
real-rooted exactly when f and g are, checks both inputs and gives the
sample points, and at each point the Descartes counts of f and g are read
off the values of all their derivatives.  `polyafreq.roots` bisects on the
chains of f, g and gcd(f, g) and reads each count off one integer Taylor
shift.

The check-first interlacing route: `interlace_relation` and `alternates`
decide in full that f and g are real-rooted (here by the Yun route above)
before they read the Cauchy index.  `polyafreq.roots` reads the index first; when it succeeds it has
certified both coprime parts, and only their common factor is checked.
Here the index is read in two passes: `poly_gcd(f, g)` first, then the
remainder sequence of the coprime parts v = g/c and u = f/c.
`polyafreq.roots` reads the index and c = gcd(f, g) off the one sequence
of g and f.
"""

from fractions import Fraction

from polyafreq.errors import NotRealRootedError, PreconditionError, ZeroPolynomialError
from polyafreq.polynomial import (
    NEG_INF,
    POS_INF,
    Poly,
    monic,
    monomial,
    poly_gcd,
    root_multiplicity,
    squarefree_part,
    _primitive,
    _remainder_sequence,
)
from polyafreq.roots import (
    InterlaceRelation,
    _chain_count,
    _sample_points,
    _squarefree_chain,
    _variations,
    cauchy_root_bound,
    sturm_chain,
)
from polyafreq.transforms import apply_multiplier

_REFINE_CAP = 100_000


def squarefree_decomposition(f):
    """Yun decomposition: pairs (g, m) with f = lc * prod g^m.

    The returned g are monic, square-free, pairwise coprime, and listed with
    strictly increasing multiplicity m.
    """
    if f.is_zero:
        raise ZeroPolynomialError("square-free decomposition of zero")
    if f.degree == 0:
        return []
    fm = monic(f)
    d = poly_gcd(fm, fm.derivative())
    if d.degree == 0:
        return [(fm, 1)]
    out = []
    b = fm.exact_divide(d)
    z = fm.derivative().exact_divide(d) - b.derivative()
    m = 1
    while b.degree > 0:
        g = poly_gcd(b, z)
        if g.degree > 0:
            out.append((g, m))
        b = b.exact_divide(g)
        z = z.exact_divide(g) - b.derivative()
        m += 1
    return out


def count_distinct_real_roots(f):
    if f.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if f.degree == 0:
        return 0
    sf = squarefree_part(f)
    B = cauchy_root_bound(sf)
    return _chain_count(sturm_chain(sf), -B, B)


def count_real_roots_with_multiplicity(f):
    return sum(m * count_distinct_real_roots(g) for g, m in squarefree_decomposition(f))


def is_real_rooted(f):
    if f.is_zero:
        raise ZeroPolynomialError("real-rootedness of zero polynomial")
    return count_real_roots_with_multiplicity(f) == f.degree


def is_simple_rooted(f):
    return is_real_rooted(f) and poly_gcd(f, f.derivative()).degree <= 0


def one_chain_is_real_rooted(f):
    _, _, distinct, gcd_degree = _squarefree_chain(f, "real-rootedness")
    return distinct == f.degree - gcd_degree


def one_chain_is_simple_rooted(f):
    _, _, distinct, gcd_degree = _squarefree_chain(f, "real-rootedness")
    return gcd_degree == 0 and distinct == f.degree


def palindromic_half(f):
    """(g, k) with f = x^k (1 + x)^e x^m g(x + 1/x), e = deg f - k mod 2.

    None unless f with x^k stripped reads the same reversed and has at least
    3 coefficients.  x^m g(x + 1/x) = sum_j g_j x^(m-j) (x^2 + 1)^j, so the
    top remaining coefficient, at x^(m+j), is g_j.
    """
    coeffs = list(f.coeffs)
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    rest = coeffs[k:]
    if len(rest) < 3 or rest != rest[::-1]:
        return None
    p = Poly(rest)
    if p.degree % 2:
        p = p.exact_divide(Poly([1, 1]))
    m = p.degree // 2
    g = [Fraction(0)] * (m + 1)
    for j in range(m, -1, -1):
        g[j] = p.coeff(m + j)
        p = p - (monomial(m - j) * Poly([1, 0, 1]) ** j).scale(g[j])
    assert p.is_zero
    return Poly(g), k


def roots_within(f, lo, hi):
    """f real-rooted with every root in the closed [lo, hi]; lo <= hi."""
    if not is_real_rooted(f):
        return False
    if f.degree == 0:
        return True
    if lo != NEG_INF:
        lo = Fraction(lo)
    if hi != POS_INF:
        hi = Fraction(hi)
    if lo == hi:
        return root_multiplicity(f, lo) == f.degree
    sf = squarefree_part(f)
    B = cauchy_root_bound(sf)
    chain = sturm_chain(sf)
    total = _chain_count(chain, -B, B)
    left, right = max(lo, -B), min(hi, B)
    inside = _chain_count(chain, left, right) if left < right else 0
    if lo != NEG_INF and f(lo) == 0:
        inside += 1
    return inside == total


def is_multiplier_n_sequence(seq, n):
    """The image of (x+1)^n is zero, or has all roots <= 0 or all >= 0."""
    image = apply_multiplier(seq, Poly([1, 1]) ** n)
    if image.is_zero:
        return True
    return roots_within(image, NEG_INF, 0) or roots_within(image, 0, POS_INF)


def sample_points_between_roots(p):
    """One point in each root-free interval, by bisection on the chain of
    the square-free part."""
    if p.is_zero:
        raise ZeroPolynomialError("sampling of zero polynomial")
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    B = cauchy_root_bound(sf)
    points = [-B]
    stack = [(-B, _variations(chain, -B), B, _variations(chain, B))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            points.append(hi)
        if v_lo - v_hi <= 1:
            continue
        mid = (lo + hi) / 2
        while sf(mid) == 0:
            mid = (mid + hi) / 2
        v_mid = _variations(chain, mid)
        stack.append((mid, v_mid, hi, v_hi))
        stack.append((lo, v_lo, mid, v_mid))
    return points


# -- the pairwise box-separation isolator ------------------------------------------


def _isolate_squarefree(g, chain):
    """Disjoint sorted (lo, hi) pairs isolating the real roots of square-free g.

    Interval endpoints are never roots of g; a rational root is returned as a
    degenerate pair (r, r).
    """
    if g.degree == 0:
        return []
    if g.degree == 1:
        r = -g.coeffs[0] / g.coeffs[1]
        return [(r, r)]
    B = cauchy_root_bound(g)
    out = []
    stack = [(-B, B, _chain_count(chain, -B, B))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((hi, hi) if g(hi) == 0 else (lo, hi))
            continue
        mid = (lo + hi) / 2
        left = _chain_count(chain, lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, cnt - left))
    return sorted(out)


def _halve(g, chain, lo, hi):
    """One bisection step on an isolating interval for g."""
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    if g(mid) == 0:
        return mid, mid
    if _chain_count(chain, lo, mid) == 1:
        return lo, mid
    return mid, hi


def _boxes_disjoint(a, b):
    alo, ahi = a
    blo, bhi = b
    if alo == ahi and blo == bhi:
        return alo != blo
    if alo == ahi:
        return not blo < alo < bhi
    if blo == bhi:
        return not alo < blo < ahi
    return ahi <= blo or bhi <= alo


def _separate_all(entries):
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
    raise AssertionError("root box separation failed to converge")


def _count_in_open(g, chain, lo, hi):
    """Distinct roots of g strictly inside (lo, hi)."""
    if lo == hi:
        return 0
    n = _chain_count(chain, lo, hi)
    if g(hi) == 0:
        n -= 1
    return n


def _expanded_positions(f, g):
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

    entries = []
    tags = []
    for p, tag in ((u, "f"), (v, "g"), (c, "fg")):
        if p.degree > 0:
            chain = sturm_chain(p)
            for box in _isolate_squarefree(p, chain):
                entries.append([box, p, chain])
                tags.append(tag)
    _separate_all(entries)
    merged = sorted(zip(entries, tags), key=lambda t: t[0][0])

    def mult_in(decomp, box):
        lo, hi = box
        for h, m, chain in decomp:
            if lo == hi:
                if h(lo) == 0:
                    return m
            elif _count_in_open(h, chain, lo, hi):
                return m
        raise AssertionError("isolated root not found in its own factorization")

    alphas = []
    betas = []
    for pos, (entry, tag) in enumerate(merged):
        if "f" in tag:
            alphas.extend([pos] * mult_in(decomp_f, entry[0]))
        if "g" in tag:
            betas.extend([pos] * mult_in(decomp_g, entry[0]))
    return alphas, betas, c.degree <= 0


def root_dominance(f, g):
    """alpha_i <= beta_i for the i-th smallest roots, from merged positions."""
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


def product_chain_root_dominance(f, g):
    """alpha_i <= beta_i for the i-th smallest roots, from the Descartes
    counts by derivative values at the sample points of the chain of fg."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("root dominance needs nonzero polynomials")
    if f.degree != g.degree:
        raise PreconditionError("root dominance needs equal degrees")
    if not (f.is_standard and g.is_standard):
        raise PreconditionError("root dominance needs positive leading coefficients")
    chain, B, distinct, gcd_degree = _squarefree_chain(f * g, "root dominance")
    if distinct != 2 * f.degree - gcd_degree:
        raise NotRealRootedError("root dominance needs real-rooted polynomials")
    f_derivs = [f.derivative(k) for k in range(f.degree + 1)]
    g_derivs = [g.derivative(k) for k in range(g.degree + 1)]
    return all(
        _variations(f_derivs, t) <= _variations(g_derivs, t)
        for t in _sample_points([(chain, 1)], B)
    )


def check_nonneg_on_reals(p):
    """p >= 0 on the reals: even degree, positive leading coefficient and no
    real root of odd multiplicity."""
    if p.is_zero:
        raise ZeroPolynomialError("sign check of zero polynomial")
    if p.degree == 0:
        return p.coeffs[0] > 0
    if p.degree % 2 == 1 or p.leading < 0:
        return False
    return all(
        count_distinct_real_roots(g) == 0
        for g, m in squarefree_decomposition(p)
        if m % 2 == 1
    )


def cauchy_index(u, v):
    """Ind(u/v) for integer coefficient lists: V(-inf) - V(+inf) on the
    signed remainder sequence v, u, -rem(v, u), ..., read at +-inf off the
    leading signs and degrees."""
    seq = _remainder_sequence(v, u)
    at_pos = [p[-1] > 0 for p in seq]
    at_neg = [s == (len(p) % 2 == 1) for s, p in zip(at_pos, seq)]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def _sign_changes(signs):
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def coprime_parts(f, g):
    """(u, v, c): c = gcd(f, g), and positive primitive integer multiples of
    f/c and g/c, for nonzero f and g."""
    c = poly_gcd(f, g)
    if c.degree <= 0:
        return _primitive(f.nums), _primitive(g.nums), c
    return _primitive(f.exact_divide(c).nums), _primitive(g.exact_divide(c).nums), c


def _checked_coprime_parts(f, g):
    """(u, v, coprime) after the full real-rootedness checks on f and g."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomialError("interlace relation needs nonzero polynomials")
    if not is_real_rooted(f) or not is_real_rooted(g):
        raise NotRealRootedError("interlace relation needs real-rooted polynomials")
    u, v, c = coprime_parts(f, g)
    return u, v, c.degree <= 0


def interlace_relation(f, g):
    """The relation of (f, g) from Ind(u/v), after both input checks."""
    u, v, coprime = _checked_coprime_parts(f, g)
    du, dv = len(u) - 1, len(v) - 1
    if dv == du + 1:
        if abs(cauchy_index(u, v)) == dv:
            return InterlaceRelation.INTERLACES_STRICT if coprime else InterlaceRelation.INTERLACES
        return InterlaceRelation.NONE
    if du == dv:
        sign = 1 if (u[-1] > 0) == (v[-1] > 0) else -1
        if sign * cauchy_index(u, v) == du:
            return InterlaceRelation.ALTERNATES_LEFT_STRICT if coprime else InterlaceRelation.ALTERNATES_LEFT
        return InterlaceRelation.EQUAL_DEGREE_NONE
    return InterlaceRelation.NONE


def alternates(f, g, strict=False):
    """One of f, g interlaces or alternates left of the other, after both
    input checks."""
    u, v, coprime = _checked_coprime_parts(f, g)
    if strict and not coprime:
        return False
    if len(u) > len(v):
        u, v = v, u
    return len(v) - len(u) <= 1 and abs(cauchy_index(u, v)) == len(v) - 1
