"""Differential operators built from bivariate symbols, and bilinear products.

A symbol F(x,z) = sum_k Q_k(x) z^k acts on polynomials as
phi_F(f) = sum_k Q_k(x) f^(k)(x).  The hypothesis checker decides the
operator's rootedness-preservation conditions exactly.  Condition (i) asks
that every slice F(xi, z), xi real, be real-rooted in z.  Let D(xi) be the
first principal subresultant coefficient sRes_j(F, dF/dz) in z that is not
identically zero (Basu, Pollack and Roy, ch. 4).  Where D(xi) != 0, Q_d(xi)
is nonzero (it divides D) and the slice has exactly d - j distinct roots,
so on each interval between consecutive real zeros of D its roots move
without meeting and its number of real roots is constant.  At a zero of D
the slice is a limit of the slices beside it, hence real-rooted when they
are (Hurwitz's theorem).  So condition (i) holds exactly when the slice is
real-rooted at one point of each open interval that the real zeros of D
cut the line into.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import (
    NotRealRootedError,
    PreconditionError,
    ZeroPolynomialError,
)
from .polynomial import ONE, Poly, X, ZERO, _convolve, _derivative, monomial
from .roots import (
    STRICT_RELATIONS,
    interlace_relation,
    is_real_rooted,
    sample_points_between_roots,
)
from .transforms import MultiplierSeq


@dataclasses.dataclass(frozen=True, init=False)
class BivarOp:
    """F(x,z) = sum Q_k(x) z^k, stored as the tuple of z-coefficients Q_k."""

    q_list: tuple[Poly, ...]

    def __init__(self, q_list):
        qs = [q if isinstance(q, Poly) else Poly(q) for q in q_list]
        while qs and qs[-1].is_zero:
            qs.pop()
        object.__setattr__(self, "q_list", tuple(qs))

    @property
    def degree_z(self) -> int:
        return len(self.q_list) - 1

    def q(self, k: int) -> Poly:
        return self.q_list[k] if 0 <= k < len(self.q_list) else ZERO


def apply_phi(F: BivarOp, f: Poly) -> Poly:
    """phi_F(f) = sum_k Q_k * f^(k), summed on integer numerators over
    lcm(Q_k.den) * f.den and normalised once, by `Poly._from_ints`."""
    den = math.lcm(*(q.den for q in F.q_list))
    acc, fk = [], f.nums
    for qk in F.q_list:
        term, m = _convolve(qk.nums, fk), den // qk.den
        acc += [0] * (len(term) - len(acc))
        for i, t in enumerate(term):
            acc[i] += m * t
        fk = _derivative(fk)
    return Poly._from_ints(acc, den * f.den)


def hermite_poulain(f: Poly, g: Poly) -> Poly:
    """f(d/dx) applied to g: sum a_k g^(k) where f = sum a_k x^k."""
    return apply_phi(BivarOp([Poly._from_ints([a], f.den) for a in f.nums]), g)


# -- hypothesis checking -------------------------------------------------------


@dataclasses.dataclass
class HypothesisReport:
    """Verdicts for the three operator conditions.

    cond_i holds when every z-slice is real-rooted; when it fails, the xi of
    a non-real-rooted z-slice is its witness.  cond_ii is the strict
    interlacing/sign clause on (Q_0, Q_1); cond_iii the degree and
    leading-sign bookkeeping of the monomial images.
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    witnesses: list[tuple[str, object]] = dataclasses.field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


def _subresultant_matrix(qs: tuple[Poly, ...], j: int) -> list[list[Poly]]:
    """The square block whose determinant is sRes_j(q, dq) in z.

    Rows are q z^(d-2-j), ..., q and then dq z^(d-1-j), ..., dq, for
    q = sum Q_k z^k and dq = sum k Q_k z^(k-1), with coefficients from the
    highest power down; the block keeps the leading 2d - 1 - 2j columns.
    """
    d = len(qs) - 1
    q = [qs[k] for k in range(d, -1, -1)]
    dq = [qs[k] * k for k in range(d, 0, -1)]
    width = 2 * d - 1 - j
    rows = [
        [ZERO] * (width - len(p) - s) + p + [ZERO] * s
        for p, shifts in ((q, d - 1 - j), (dq, d - j))
        for s in reversed(range(shifts))
    ]
    return [row[: width - j] for row in rows]


def _determinant(rows: list[list[Poly]]) -> Poly:
    """Fraction-free Bareiss elimination over Q[xi]: each update divides
    exactly by the previous pivot, unless that is 1, and a zero pivot swaps
    in a lower row."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if swap is None:
                return ZERO
            m[k], m[swap], sign = m[swap], m[k], -sign
        pivot, top = m[k][k], m[k]
        divide = prev != ONE
        for row in m[k + 1:]:
            lead = row[k]
            for c in range(k + 1, n):
                entry = row[c] * pivot - lead * top[c]
                row[c] = entry.exact_divide(prev) if divide else entry
        prev = pivot
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def _first_subresultant(qs: tuple[Poly, ...]) -> Poly:
    """sRes_j(q, dq) for the first j at which it is not identically zero."""
    d = len(qs) - 1
    for j in range(d - 1):
        sres = _determinant(_subresultant_matrix(qs, j))
        if not sres.is_zero:
            return sres
    # the block of sRes_{d-1} is the single entry d*Q_d, never zero
    return qs[d] * d


def _condition_one(F: BivarOp) -> tuple[str, object] | None:
    """Real-rootedness of F(xi, z) for every real xi."""
    if F.degree_z <= 1:
        return None
    for xi in sample_points_between_roots(_first_subresultant(F.q_list)):
        if not is_real_rooted(Poly([q(xi) for q in F.q_list])):
            return ("non-real-rooted z-slice at xi", xi)
    return None


def _condition_two(F: BivarOp) -> tuple[str, object] | None:
    q0, q1 = F.q(0), F.q(1)
    if q1.is_zero:
        return ("Q_1 is zero", None)
    try:
        rel = interlace_relation(q0, q1)
    except NotRealRootedError:
        return ("Q_0 or Q_1 not real-rooted", None)
    if rel not in STRICT_RELATIONS:
        return ("Q_0 vs Q_1 relation", rel.value)
    if q0.degree > 0 and q0.is_standard != q1.is_standard:
        return ("leading signs differ", None)
    return None


def _condition_three(F: BivarOp, d: int) -> tuple[str, object] | None:
    deg_q0 = F.q(0).degree
    sign = None
    for k in range(d + 1):
        image = apply_phi(F, monomial(k))
        if image.degree != deg_q0 + k:
            return ("degree drop at monomial", k)
        s = image.is_standard
        if sign is None:
            sign = s
        elif s != sign:
            return ("leading sign flip at monomial", k)
    return None


def check_maincor(F: BivarOp, d: int) -> HypothesisReport:
    """Check the operator hypotheses for degrees up to d.

    Condition (i) is decided exactly at every z-degree: a slice of z-degree
    at most 1 is always real-rooted, and above that the slice is checked
    between the real zeros of the subresultant D of the module docstring.
    Each condition returns None when it holds, else its one witness.
    """
    if F.q(0).is_zero:
        raise PreconditionError("hypothesis check needs Q_0 != 0")
    wit_i, wit_ii, wit_iii = _condition_one(F), _condition_two(F), _condition_three(F, d)
    return HypothesisReport(
        cond_i=wit_i is None,
        cond_ii=wit_ii is None,
        cond_iii=wit_iii is None,
        witnesses=[w for w in (wit_i, wit_ii, wit_iii) if w is not None],
    )


def polya_line_check(f: Poly, b: Poly, s, t, u) -> bool:
    """Count the real intersections, with multiplicity, of the derivative web
    of (f, b) against the line s*x - t*y + u = 0; True when it is deg f.

    Requires f real-rooted, b real-rooted with positive coefficients through
    index deg f, s, t >= 0 and s + t > 0.
    """
    s, t, u = Fraction(s), Fraction(t), Fraction(u)
    if s < 0 or t < 0 or s + t <= 0:
        raise PreconditionError("line parameters need s, t >= 0 and s + t > 0")
    if f.is_zero:
        raise ZeroPolynomialError("polya_line_check needs nonzero f")
    if not is_real_rooted(f):
        raise PreconditionError("f must be real-rooted")
    n = f.degree
    if b.is_zero or b.degree < n:
        raise PreconditionError("b must have degree at least deg f")
    if not is_real_rooted(b):
        raise PreconditionError("b must be real-rooted")
    if any(b.coeff(k) <= 0 for k in range(n + 1)):
        raise PreconditionError("b needs positive coefficients through index deg f")
    if t == 0:
        # vertical line x = -u/s: a derivative sum evaluated along y
        out = hermite_poulain(b.affine_compose(-u / s, 0), f)
    elif s == 0:
        # horizontal line y = u/t: coefficients b_k f^(k)(u/t), and
        # f^(k)(xi) = k! [z^k] f(xi + z) makes that a Schur product
        out = schur_product(b, f.affine_compose(1, u / t))
    else:
        ratio = s / t
        weights = BivarOp([monomial(k, ratio ** k * b.coeff(k)) for k in range(n + 1)])
        out = apply_phi(weights, f.affine_compose(ratio, u / t))
    return out.degree == n and is_real_rooted(out)


# -- bilinear products -----------------------------------------------------------


def schur_product(f: Poly, g: Poly) -> Poly:
    """sum_k k! a_k b_k x^k, truncated at the smaller degree."""
    return Poly._from_ints(
        [math.factorial(k) * a * b for k, (a, b) in enumerate(zip(f.nums, g.nums))], f.den * g.den
    )


def hadamard_product(f: Poly, g: Poly) -> Poly:
    """Coefficientwise product sum_k a_k b_k x^k."""
    return Poly._from_ints([a * b for a, b in zip(f.nums, g.nums)], f.den * g.den)


def _derivative_sum(f: Poly, g: Poly, c, w: Poly) -> Poly:
    """sum_{k <= K} c(k) f^(k) g^(k) w^k, K = min(deg f, deg g).  All c(k)
    are taken first, L the lcm of their denominators; then Horner in w runs on
    integer numerators, for k = K down to 0: acc <- acc * w.nums + c(k) * L *
    w.den^(K-k) * f^(k) g^(k), over f.den * g.den * L * w.den^K, and the sum
    is normalised once, by `Poly._from_ints`."""
    if f.is_zero or g.is_zero:
        return ZERO
    K = min(f.degree, g.degree)
    cs = [c(k) for k in range(K + 1)]
    lcm = math.lcm(*(ck.denominator for ck in cs))
    fks, gks = [f.nums], [g.nums]
    for _ in range(K):
        fks.append(_derivative(fks[-1]))
        gks.append(_derivative(gks[-1]))
    acc, wpow = [], 1
    for k in range(K, -1, -1):
        acc, term = _convolve(acc, w.nums), _convolve(fks[k], gks[k])
        weight = cs[k].numerator * (lcm // cs[k].denominator) * wpow
        acc += [0] * (len(term) - len(acc))
        for i, t in enumerate(term):
            acc[i] += weight * t
        wpow *= w.den
    return Poly._from_ints(acc, f.den * g.den * lcm * w.den ** K)


def sharp_product(f: Poly, g: Poly) -> Poly:
    """sum_k f^(k) g^(k) x^k / k!."""
    return _derivative_sum(f, g, lambda k: Fraction(1, math.factorial(k)), X)


def diamond_product(f: Poly, g: Poly) -> Poly:
    """sum_k (f^(k)/k!)(g^(k)/k!) x^k (x+1)^k, which equals E(E^-1(f) E^-1(g))."""
    return _derivative_sum(f, g, lambda k: Fraction(1, math.factorial(k) ** 2), Poly([0, 1, 1]))


def dot_form(f: Poly, g: Poly, L: MultiplierSeq, alpha, beta) -> Poly:
    """sum_k (lambda_k / k!) f^(k) g^(k) (x-alpha)^k (x-beta)^k."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not alpha < beta:
        raise PreconditionError("dot form needs alpha < beta")
    w = Poly([-alpha, 1]) * Poly([-beta, 1])
    return _derivative_sum(f, g, lambda k: L.term(k) / math.factorial(k), w)


def circ_form(f: Poly, g: Poly, L: MultiplierSeq, alpha) -> Poly:
    """sum_k (lambda_k / k!) f^(k) g^(k) (x-alpha)^k."""
    w = Poly([-Fraction(alpha), 1])
    return _derivative_sum(f, g, lambda k: L.term(k) / math.factorial(k), w)
