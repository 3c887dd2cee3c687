"""Basis transforms and coefficientwise multiplier machinery.

The binomial-to-monomial transform E sends C(x,k) to x^k and is computed
with forward-difference tables.  The companion transform W produces the
numerator of sum_i f(i) x^i over (1-x)^{deg f + 1} and is obtained from E
by the substitution x -> x/(1-x) with a (1-x)-power prefactor.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import InternalCheckError, PreconditionError, ZeroPolynomialError
from .polynomial import (
    NEG_INF,
    POS_INF,
    Poly,
    ZERO,
    binom,
    binomial_poly,
    root_multiplicity,
    unitize_with_degree,
)
from .roots import roots_within


def to_binomial_basis(f: Poly) -> list[Fraction]:
    """Coefficients a_k with f = sum a_k C(x,k), via forward differences."""
    if f.is_zero:
        return []
    values = [f(i) for i in range(len(f.coeffs))]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def from_binomial_basis(coeffs) -> Poly:
    acc = ZERO
    for k, c in enumerate(coeffs):
        if c:
            acc = acc + binomial_poly(k).scale(c)
    return acc


def e_transform(f: Poly) -> Poly:
    """Replace C(x,k) by x^k on the binomial expansion of f."""
    return Poly(to_binomial_basis(f))


def e_inverse(g: Poly) -> Poly:
    """Exact two-sided inverse of e_transform."""
    return from_binomial_basis(g.coeffs)


def reflect(f: Poly) -> Poly:
    """The algebra automorphism x -> -1-x."""
    return f.affine_compose(-1, -1)


def w_transform(f: Poly) -> Poly:
    """Numerator W(f) of sum_{i>=0} f(i) x^i = W(f)(x) / (1-x)^{deg f + 1}.

    Computed by de-unitizing E(f): W(f)(x) = (1-x)^{deg f} E(f)(x/(1-x)).
    """
    if f.is_zero:
        raise ZeroPolynomialError("W-transform of zero polynomial")
    return unitize_with_degree(e_transform(f), len(f.coeffs) - 1, sign=-1)


def e_multiplicity_at_minus_one(f: Poly) -> int:
    """mult(-1, E(f)), cross-checked against divisibility of f by (x+1)...(x+k).

    The two characterizations must agree; a mismatch raises InternalCheckError.
    """
    if f.is_zero:
        raise ZeroPolynomialError("multiplicity query on zero polynomial")
    via_e = root_multiplicity(e_transform(f), -1)
    k = 0
    rest = f
    while True:
        factor = Poly([k + 1, 1])
        quotient, remainder = divmod(rest, factor)
        if not remainder.is_zero:
            break
        rest = quotient
        k += 1
    if via_e != k:
        raise InternalCheckError(
            f"mult(-1, E(f)) = {via_e} but maximal staircase divisor has length {k}"
        )
    return via_e


# -- multiplier sequences ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MultiplierSeq:
    """A coefficientwise multiplier sequence, explicit or generated on demand.

    kinds: 'explicit' (finite list), 'factorial_inverse' (1/k!),
    'gamma_shift' (q+k), 'binom_negative' (C(-n-r, k)).
    """

    kind: str
    values: tuple[Fraction, ...] = ()
    q: Fraction | None = None
    n: int | None = None
    r: Fraction | None = None

    @classmethod
    def explicit(cls, values) -> "MultiplierSeq":
        return cls(kind="explicit", values=tuple(Fraction(v) for v in values))

    @classmethod
    def factorial_inverse(cls) -> "MultiplierSeq":
        return cls(kind="factorial_inverse")

    @classmethod
    def all_ones(cls) -> "MultiplierSeq":
        return cls(kind="all_ones")

    @classmethod
    def gamma_shift(cls, q) -> "MultiplierSeq":
        return cls(kind="gamma_shift", q=Fraction(q))

    @classmethod
    def binom_negative(cls, n: int, r) -> "MultiplierSeq":
        if n < 1:
            raise PreconditionError("binom_negative needs n >= 1")
        r = Fraction(r)
        if r < 0:
            raise PreconditionError("binom_negative needs r >= 0")
        return cls(kind="binom_negative", n=n, r=r)

    def term(self, k: int) -> Fraction:
        if self.kind == "explicit":
            if k >= len(self.values):
                raise PreconditionError(f"explicit multiplier sequence has no term {k}")
            return self.values[k]
        if self.kind == "factorial_inverse":
            return Fraction(1, math.factorial(k))
        if self.kind == "all_ones":
            return Fraction(1)
        if self.kind == "gamma_shift":
            return self.q + k
        if self.kind == "binom_negative":
            return binom(-self.n - self.r, k)
        raise ValueError(f"unknown multiplier kind {self.kind!r}")


def apply_multiplier(seq: MultiplierSeq, f: Poly) -> Poly:
    """Coefficientwise product: sum gamma_k a_k x^k."""
    return Poly(seq.term(k) * c for k, c in enumerate(f.coeffs))


def is_multiplier_n_sequence(seq: MultiplierSeq, n: int) -> bool:
    """Algebraic degree-n test: the image of (x+1)^n is real-rooted with all
    roots of one sign (an identically zero image passes vacuously)."""
    image = apply_multiplier(seq, Poly([1, 1]) ** n)
    if image.is_zero:
        return True
    return roots_within(image, NEG_INF, 0) or roots_within(image, 0, POS_INF)


# -- terminating hypergeometric series ------------------------------------------


def pochhammer(a, m: int) -> Fraction:
    a = Fraction(a)
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def hypergeom_2f1(a: int, b, c) -> Poly:
    """Terminating 2F1(a, b; c; x) as an exact polynomial; needs a = -n <= 0.

    Raises if (c)_m vanishes inside the truncation range.
    """
    if a > 0:
        raise PreconditionError("2F1 terminates only for a nonpositive integer a")
    n = -a
    b, c = Fraction(b), Fraction(c)
    if c.denominator == 1 and -n < c <= 0:
        raise PreconditionError("pole of (c)_m inside the truncation range")
    coeffs = []
    num, den = Fraction(1), Fraction(1)
    for m in range(n + 1):
        coeffs.append(num / (den * math.factorial(m)))
        num *= (a + m) * (b + m)
        den *= c + m
    return Poly(coeffs)


def jacobi_poly(n: int, alpha, beta) -> Poly:
    """Jacobi P_n^{(alpha,beta)} as an exact polynomial in x."""
    if n < 0:
        raise PreconditionError("jacobi_poly needs n >= 0")
    alpha, beta = Fraction(alpha), Fraction(beta)
    series = hypergeom_2f1(-n, 1 + alpha + beta + n, 1 + alpha)
    lead = pochhammer(1 + alpha, n) / math.factorial(n)
    # substitute the argument (1 - x)/2
    return series.affine_compose(Fraction(-1, 2), Fraction(1, 2)).scale(lead)
