"""Dense univariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` throughout; index i holds the
coefficient of x^i and the trailing coefficient of a nonzero polynomial is
never zero.  The zero polynomial has an empty coefficient tuple and degree
``NEG_INF``, a formal value comparing below every number.

Evaluation, `primitive_part` and `poly_gcd` clear the denominators once and
then compute in Python `int`: evaluation runs Horner on the homogenised form
and `poly_gcd` runs a primitive pseudo-remainder sequence.  They return the
same `Fraction` and `Poly` values that rational arithmetic gives.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

from .errors import ExactDivisionError, ZeroPolynomialError

RationalLike = Fraction | int | str


class _Extreme:
    """Formal signed infinity, usable as a degree or interval endpoint."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __lt__(self, other):
        if isinstance(other, _Extreme):
            return self._sign < other._sign
        return self._sign < 0

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, _Extreme):
            return self._sign > other._sign
        return self._sign > 0

    def __ge__(self, other):
        return self == other or self > other

    def __eq__(self, other):
        return isinstance(other, _Extreme) and self._sign == other._sign

    def __hash__(self):
        return hash(("_Extreme", self._sign))

    def __neg__(self):
        return POS_INF if self._sign < 0 else NEG_INF

    def __repr__(self):
        return "+inf" if self._sign > 0 else "-inf"


NEG_INF = _Extreme(-1)
POS_INF = _Extreme(+1)

#: Extended rationals: a Fraction or one of the two formal infinities.
ExtendedRational = Fraction | _Extreme


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclasses.dataclass(frozen=True, init=False)
class Poly:
    """Immutable dense polynomial over Fraction, constant term first."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | _Extreme:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_standard(self) -> bool:
        """Positive leading coefficient."""
        return bool(self.coeffs) and self.coeffs[-1] > 0

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    @functools.cached_property
    def _integer_form(self) -> tuple[tuple[int, ...], int]:
        """(nums, L): L the lcm of the coefficient denominators, nums_i = L*c_i."""
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (lcm // c.denominator) for c in self.coeffs), lcm

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        return Poly(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    def __sub__(self, other: Poly) -> Poly:
        return Poly(a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    def __neg__(self) -> Poly:
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return ZERO
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: RationalLike) -> Poly:
        c = _as_fraction(c)
        return Poly(c * a for a in self.coeffs)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.is_zero or len(self.coeffs) < len(other.coeffs):
            return ZERO, self
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, len(other.coeffs) - 1
        inv_lead = 1 / other.coeffs[-1]
        quot = [Fraction(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            q = rem[dd + k] * inv_lead
            quot[k] = q
            if q:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= q * b
        return Poly(quot), Poly(rem[:dd])

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def exact_divide(self, other: Poly) -> Poly:
        """Quotient self/other, raising ExactDivisionError on a nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ExactDivisionError(f"{other} does not divide {self}")
        return q

    # -- calculus and composition ------------------------------------------

    def derivative(self, k: int = 1) -> Poly:
        if k < 0:
            raise ValueError("negative derivative order")
        cs = self.coeffs
        for _ in range(k):
            if len(cs) <= 1:
                return ZERO
            cs = tuple(Fraction(i) * cs[i] for i in range(1, len(cs)))
        return Poly(cs)

    def __call__(self, x0: RationalLike) -> Fraction:
        """Exact evaluation by integer Horner on the homogenised form.

        With x0 = a/b, n_i = L*c_i for L the lcm of the coefficient
        denominators and d = deg self, the value is
        (sum_i n_i * a^i * b^(d-i)) / (L * b^d).
        """
        x0 = _as_fraction(x0)
        a, b = x0.numerator, x0.denominator
        nums, lcm = self._integer_form
        acc, bpow = 0, 1
        for c in reversed(nums):
            acc = acc * a + c * bpow
            bpow *= b
        # bpow ends at b^(d+1), one factor of b past the denominator
        return Fraction(acc * b, lcm * bpow)

    def affine_compose(self, a: RationalLike, b: RationalLike) -> Poly:
        """Expand self(a*x + b) exactly."""
        arg = Poly([_as_fraction(b), _as_fraction(a)])
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * arg + Poly([c])
        return acc

    def reversed_coeffs(self, degree: int | None = None) -> Poly:
        """x^d * self(1/x) for d = degree (defaults to deg self)."""
        if degree is None:
            if self.is_zero:
                return ZERO
            degree = len(self.coeffs) - 1
        if degree < len(self.coeffs) - 1:
            raise ValueError("reversal degree below true degree")
        cs = [Fraction(0)] * (degree + 1)
        for i, c in enumerate(self.coeffs):
            cs[degree - i] = c
        return Poly(cs)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"Poly('{self}')"


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def monomial(k: int, c: RationalLike = 1) -> Poly:
    return Poly([0] * k + [_as_fraction(c)])


# -- gcd and square-free structure ------------------------------------------


def content(f: Poly) -> Fraction:
    """Positive rational c with f/c integer-primitive; 0 for the zero polynomial."""
    if f.is_zero:
        return Fraction(0)
    num = math.gcd(*(c.numerator for c in f.coeffs))
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return Fraction(num, den)


def primitive_part(f: Poly) -> Poly:
    """f scaled by a positive rational to integer coefficients with gcd 1."""
    return Poly(_primitive_ints(f))


def monic(f: Poly) -> Poly:
    if f.is_zero:
        return ZERO
    return f.scale(1 / f.leading)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic f."""
    a, b = _primitive_ints(f), _primitive_ints(g)
    while b:
        a, b = b, _primitive_remainder(a, b)
    return monic(Poly(a))


def _primitive(nums) -> list[int]:
    """The integers nums divided by their gcd, as a new list."""
    g = math.gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


def _primitive_ints(f: Poly) -> list[int]:
    """Coefficients of primitive_part(f) as Python ints."""
    return _primitive(f._integer_form[0])


def _primitive_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of |lc(b)|^k * (a mod b) on integer coefficient lists.

    Each elimination step multiplies the partial remainder by |lc(b)| and
    subtracts a multiple of b, so k <= deg a - deg b + 1.  The factor is
    positive: the result is the positive integer-primitive rescaling of the
    rational remainder a mod b, with its sign.  b must be nonzero.
    """
    db = len(b) - 1
    lead = abs(b[-1])
    # -sign(lc(b)) * b: adding q * neg cancels a leading q after the rescaling
    neg = [-c for c in b] if b[-1] > 0 else b
    r = list(a)
    while len(r) > db:
        q = r.pop()
        k = len(r) - db
        if lead != 1:
            r = [lead * c for c in r]
        for j in range(db):
            r[k + j] += q * neg[j]
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ZeroPolynomialError("square-free part of zero")
    if len(f.coeffs) <= 2:
        return monic(f)
    return monic(f.exact_divide(poly_gcd(f, f.derivative())))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: pairs (g, m) with f = lc * prod g^m.

    The returned g are monic, square-free, pairwise coprime, and listed with
    strictly increasing multiplicity m.
    """
    if f.is_zero:
        raise ZeroPolynomialError("square-free decomposition of zero")
    if len(f.coeffs) == 1:
        return []
    fm = monic(f)
    d = poly_gcd(fm, fm.derivative())
    if d.degree == 0:
        return [(fm, 1)]
    out: list[tuple[Poly, int]] = []
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


def root_multiplicity(f: Poly, x0: RationalLike) -> int:
    """Multiplicity of the rational point x0 as a root of f."""
    if f.is_zero:
        raise ZeroPolynomialError("root multiplicity in zero polynomial")
    x0 = _as_fraction(x0)
    lin = Poly([-x0, 1])
    mult = 0
    while f(x0) == 0:
        f = f.exact_divide(lin)
        mult += 1
    return mult


# -- binomial machinery ------------------------------------------------------


def binom(alpha: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) for rational alpha."""
    if k < 0:
        return Fraction(0)
    alpha = _as_fraction(alpha)
    if alpha.denominator == 1 and alpha >= 0:
        n = alpha.numerator
        return Fraction(math.comb(n, k)) if k <= n else Fraction(0)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)


def binomial_poly(k: int) -> Poly:
    """The polynomial C(x, k) = x(x-1)...(x-k+1)/k!."""
    p = ONE
    for i in range(k):
        p = p * Poly([-i, 1])
    return p.scale(Fraction(1, math.factorial(k)))


# -- Moebius-style substitutions ---------------------------------------------


def unitize_with_degree(f: Poly, d: int, sign: int = 1) -> Poly:
    """(1 + sign*x)^d * f(x/(1 + sign*x)) for any d >= deg f and sign = +-1.

    sign = +1 sends [-1,0]-rooted polynomials to nonpositive-rooted ones;
    sign = -1 is its inverse at the same d.
    """
    if f.is_zero:
        return ZERO
    if d < len(f.coeffs) - 1:
        raise ValueError("unitize degree below deg f")
    shift = Poly([1, sign])
    powers = [ONE]
    for _ in range(d):
        powers.append(powers[-1] * shift)
    acc = ZERO
    for j, c in enumerate(f.coeffs):
        if c:
            acc = acc + monomial(j, c) * powers[d - j]
    return acc
