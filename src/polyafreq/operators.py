"""Differential operators built from bivariate symbols, and bilinear products.

A symbol F(x,z) = sum_k Q_k(x) z^k acts on polynomials as
phi_F(f) = sum_k Q_k(x) f^(k)(x).  The hypothesis checker decides, exactly
for z-degree <= 2 and by sampling otherwise, whether the operator's
rootedness-preservation conditions hold.
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
from .polynomial import ONE, Poly, X, ZERO, monomial
from .roots import (
    InterlaceRelation,
    check_nonneg_on_reals,
    interlace_relation,
    is_real_rooted,
    negative_witness,
)
from .transforms import MultiplierSeq

_STRICT_PAIR = {InterlaceRelation.INTERLACES_STRICT, InterlaceRelation.ALTERNATES_LEFT_STRICT}


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
    """phi_F(f) = sum_k Q_k * f^(k)."""
    acc = ZERO
    fk = f
    for k, qk in enumerate(F.q_list):
        if k > 0:
            fk = fk.derivative()
            if fk.is_zero:
                break
        if not qk.is_zero:
            acc = acc + qk * fk
    return acc


def hermite_poulain(f: Poly, g: Poly) -> Poly:
    """f(d/dx) applied to g: sum a_k g^(k) where f = sum a_k x^k."""
    return apply_phi(BivarOp([Poly([a]) for a in f.coeffs]), g)


def l_phi(F: BivarOp, f: Poly, xi) -> Poly:
    """The z-polynomial sum_k Q_k(xi) f^(k)(xi + z)."""
    xi = Fraction(xi)
    constants = BivarOp([Poly([qk(xi)]) for qk in F.q_list])
    return apply_phi(constants, f).affine_compose(1, xi)


# -- hypothesis checking -------------------------------------------------------


@dataclasses.dataclass
class HypothesisReport:
    """Verdicts for the three operator conditions.

    cond_i is 'proved' or 'refuted' (exact, z-degree <= 2) or 'sampled_only';
    refutations carry a witness.  cond_ii is the strict interlacing/sign
    clause on (Q_0, Q_1); cond_iii the degree and leading-sign bookkeeping
    of the monomial images.
    """

    cond_i: str
    cond_ii: bool
    cond_iii: bool
    witnesses: list[tuple[str, object]] = dataclasses.field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return self.cond_i == "proved" and self.cond_ii and self.cond_iii


_SAMPLE_GRID = [Fraction(n, 4) for n in range(-32, 33)] + [Fraction(-1024), Fraction(1024)]


def _condition_one(F: BivarOp) -> tuple[str, list]:
    """Real-rootedness of F(xi, z) for every real xi."""
    witnesses: list[tuple[str, object]] = []
    if F.degree_z <= 1:
        return "proved", witnesses
    if F.degree_z == 2:
        disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
        if disc.is_zero or check_nonneg_on_reals(disc):
            return "proved", witnesses
        xi = negative_witness(disc)
        witnesses.append(("negative z-discriminant at xi", xi))
        return "refuted", witnesses
    for xi in _SAMPLE_GRID:
        slice_z = Poly([q(xi) for q in F.q_list])
        if not slice_z.is_zero and not is_real_rooted(slice_z):
            witnesses.append(("non-real-rooted z-slice at xi", xi))
            return "refuted", witnesses
    return "sampled_only", witnesses


def _condition_two(F: BivarOp) -> tuple[bool, list]:
    q0, q1 = F.q(0), F.q(1)
    if q1.is_zero:
        return False, [("Q_1 is zero", None)]
    try:
        rel = interlace_relation(q0, q1)
    except NotRealRootedError:
        return False, [("Q_0 or Q_1 not real-rooted", None)]
    if rel not in _STRICT_PAIR:
        return False, [("Q_0 vs Q_1 relation", rel.value)]
    if q0.degree > 0 and (q0.leading > 0) != (q1.leading > 0):
        return False, [("leading signs differ", None)]
    return True, []


def _condition_three(F: BivarOp, d: int) -> tuple[bool, list]:
    deg_q0 = F.q(0).degree
    sign = None
    for k in range(d + 1):
        image = apply_phi(F, monomial(k))
        if image.is_zero or image.degree != deg_q0 + k:
            return False, [("degree drop at monomial", k)]
        s = image.leading > 0
        if sign is None:
            sign = s
        elif s != sign:
            return False, [("leading sign flip at monomial", k)]
    return True, []


def check_maincor(F: BivarOp, d: int) -> HypothesisReport:
    """Check the operator hypotheses for degrees up to d.

    Condition (i) is decided exactly through the z-discriminant when the
    z-degree is at most 2; for higher z-degree a rational grid is sampled,
    which can refute soundly but only report 'sampled_only' otherwise.
    """
    if F.q(0).is_zero:
        raise PreconditionError("hypothesis check needs Q_0 != 0")
    verdict_i, wit_i = _condition_one(F)
    ok_ii, wit_ii = _condition_two(F)
    ok_iii, wit_iii = _condition_three(F, d)
    return HypothesisReport(
        cond_i=verdict_i,
        cond_ii=ok_ii,
        cond_iii=ok_iii,
        witnesses=wit_i + wit_ii + wit_iii,
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
    if out.is_zero:
        return False
    return out.degree == n and is_real_rooted(out)


# -- bilinear products -----------------------------------------------------------


def schur_product(f: Poly, g: Poly) -> Poly:
    """sum_k k! a_k b_k x^k, truncated at the smaller degree."""
    return Poly(
        math.factorial(k) * a * b for k, (a, b) in enumerate(zip(f.coeffs, g.coeffs))
    )


def hadamard_product(f: Poly, g: Poly) -> Poly:
    """Coefficientwise product sum_k a_k b_k x^k."""
    return Poly(a * b for a, b in zip(f.coeffs, g.coeffs))


def _derivative_sum(f: Poly, g: Poly, c, w: Poly) -> Poly:
    """sum_{k <= min(deg f, deg g)} c(k) f^(k) g^(k) w^k."""
    if f.is_zero or g.is_zero:
        return ZERO
    acc = ZERO
    fk, gk, wk = f, g, ONE
    for k in range(min(f.degree, g.degree) + 1):
        if k:
            fk, gk, wk = fk.derivative(), gk.derivative(), wk * w
        ck = c(k)
        if ck:
            acc = acc + (fk * gk * wk).scale(ck)
    return acc


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
