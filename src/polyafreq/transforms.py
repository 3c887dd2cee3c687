"""Basis transforms and coefficientwise multiplier machinery.

The binomial-to-monomial transform E sends C(x,k) to x^k and is computed
with a forward-difference table of integer values; its inverse sums integer
falling factorials.  The companion transform W produces the numerator of
sum_i f(i) x^i over (1-x)^{deg f + 1} and is obtained from E by the
substitution x -> x/(1-x) with a (1-x)-power prefactor.  All three compute
on `Poly`'s integer numerators over its one denominator.  `Fraction`
remains in the multiplier sequences, whose terms are rational parameters.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .errors import PreconditionError, ZeroPolynomialError
from .polynomial import Poly, binom, horner, root_multiplicity, unitize_with_degree
from .roots import is_real_rooted


def e_transform(f: Poly) -> Poly:
    """Replace C(x,k) by x^k on the binomial expansion of f.

    The coefficient of x^k is the k-th forward difference at 0 of the
    integer values `horner`(nums, j) = den * f(j), j = 0..deg f, over den.
    """
    values = [horner(f.nums, j) for j in range(len(f.nums))]
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return Poly._from_ints(out, f.den)


def e_inverse(g: Poly) -> Poly:
    """Exact two-sided inverse of e_transform: sum_k g_k C(x,k), summed as
    nums_k * (d!/k!) * x(x-1)...(x-k+1) over den * d! for d = deg g."""
    d = max(len(g.nums) - 1, 0)
    out, falling = [0] * (d + 1), [1]
    for k, c in enumerate(g.nums):
        weight = c * (math.factorial(d) // math.factorial(k))
        for i, a in enumerate(falling):
            out[i] += weight * a
        falling = [p - k * q for p, q in zip([0] + falling, falling + [0])]  # times x - k
    return Poly._from_ints(out, g.den * math.factorial(d))


def reflect(f: Poly) -> Poly:
    """The algebra automorphism x -> -1-x."""
    return f.affine_compose(-1, -1)


def w_transform(f: Poly) -> Poly:
    """Numerator W(f) of sum_{i>=0} f(i) x^i = W(f)(x) / (1-x)^{deg f + 1}.

    Computed by de-unitizing E(f): W(f)(x) = (1-x)^{deg f} E(f)(x/(1-x)).
    """
    if f.is_zero:
        raise ZeroPolynomialError("W-transform of zero polynomial")
    return unitize_with_degree(e_transform(f), f.degree, sign=-1)


def e_multiplicity_at_minus_one(f: Poly) -> int:
    """mult(-1, E(f)), the length k of the longest staircase (x+1)...(x+k)
    that divides f."""
    if f.is_zero:
        raise ZeroPolynomialError("multiplicity query on zero polynomial")
    return root_multiplicity(e_transform(f), -1)


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
    roots of one sign (an identically zero image passes vacuously).  Descartes'
    rule, exact on real-rooted polynomials, reads the sign from the coefficients
    of image(x) or image(-x), which must never change sign."""
    image = apply_multiplier(seq, Poly([1, 1]) ** n)
    if image.is_zero:
        return True
    signs = {c > 0 for c in image.nums if c}
    flipped = {(c > 0) != (k % 2 == 1) for k, c in enumerate(image.nums) if c}
    return (len(signs) == 1 or len(flipped) == 1) and is_real_rooted(image)

