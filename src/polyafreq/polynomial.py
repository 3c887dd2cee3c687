"""Dense univariate polynomials over exact rationals.

A `Poly` stores integer numerators over one positive denominator: index i
of `nums` holds the numerator of the coefficient of x^i, the denominator
`den` is shared, gcd(den, *nums) is 1 and the last numerator of a nonzero
polynomial is never zero.  The zero polynomial has no numerators and degree
``NEG_INF``, the float -inf, which compares below every number.

`nums` and `den` are the one representation the kernels compute in.  Ring
operations, derivatives, division, evaluation, `monic` and substitutions run
in Python `int` and divide by one gcd per result, through `Poly._from_ints`;
they return the same values that `Fraction` arithmetic gives.  The one
Horner loop, `horner`, gives the integer b^d * f(a/b): its sign is that of
f(a/b), which is all `root_multiplicity` and the sign counts of `roots`
read, `Poly.__call__` divides it by den * b^d into the value, and
`transforms.e_transform` reads it at 0..d.  The one shift loop,
`_taylor_shift`, expands f(x + t) for `Poly.affine_compose`,
`unitize_with_degree`, `root_multiplicity` and `roots._descartes_count`
(`root_dominance`, `roots_within`), and the one derivative loop,
`_derivative`, gives f' for `Poly.derivative`, `roots.sturm_chain` and the
operator kernels.  The one remainder loop, `_remainder_sequence`, runs a
signed primitive pseudo-remainder sequence on integer numerators; `poly_gcd`
reads its last member, and `roots` reads all of it: the whole Sturm chain,
and for interlacing the signs at +-inf and the last member, gcd(f, g), from
the one sequence of the pair.  `Fraction` remains where a value is a
rational: the views `coeffs`, `coeff` and `leading`, the value of
`Poly.__call__`, `__str__`, and rational parameters such as those of
`scale`, `monomial` and `binom`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

from .errors import ExactDivisionError, ZeroPolynomialError

RationalLike = Fraction | int | str

NEG_INF = -math.inf
POS_INF = math.inf

#: Extended rationals: a Fraction or one of the two float infinities, which
#: compare exactly with every Fraction.
ExtendedRational = Fraction | float


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _convolve(a, b) -> list[int]:
    """The one product loop: the coefficients of the product of the integer
    polynomials a and b, as a new list (all zeros when either is empty)."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def horner(nums, a: int, b: int = 1) -> int:
    """The one Horner loop: sum_i nums_i * a^i * b^(d-i) = b^d * f(a/b) for
    f = sum_i nums_i * x^i of degree d, and 0 for no nums.  With b > 0 its
    sign is the sign of f(a/b)."""
    acc, bpow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _derivative(nums) -> list[int]:
    """The one derivative loop: the integers of f' for f = sum_i nums_i * x^i."""
    return [i * c for i, c in enumerate(nums)][1:]


def _taylor_shift(nums, a: int, b: int = 1) -> list[int]:
    """The one shift loop: the new list c with sum_k c_k * y^k equal to
    sum_i nums_i * b^(d-i) * (y + a)^i = b^d * f((y + a)/b), f = sum_i nums_i * x^i."""
    d = len(nums) - 1
    c = [n * b ** (d - i) for i, n in enumerate(nums)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


@dataclasses.dataclass(frozen=True, init=False)
class Poly:
    """Immutable dense polynomial over the rationals, constant term first.

    Coefficient i is nums[i]/den, stored in canonical form: den > 0,
    gcd(den, *nums) == 1 and the last entry of nums is nonzero.  The zero
    polynomial is ((), 1).  Equal polynomials therefore have equal fields,
    and the dataclass equality and hash are those of the polynomial.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _from_ints(cls, nums: list[int], den: int = 1) -> Poly:
        """The polynomial sum_i nums[i]/den * x^i, for any nonzero integer den.

        Takes ownership of the list nums, which it may modify.
        """
        self = object.__new__(cls)
        self._store(nums, den)
        return self

    def _store(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    # -- basic queries -----------------------------------------------------

    @functools.cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @property
    def degree(self) -> int | float:
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    @property
    def is_standard(self) -> bool:
        """Positive leading coefficient."""
        return bool(self.nums) and self.nums[-1] > 0

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def _over(self, den: int) -> list[int]:
        """The numerators over den, a multiple of self.den."""
        m = den // self.den
        return [m * c for c in self.nums] if m != 1 else list(self.nums)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        den = math.lcm(self.den, other.den)
        a, b = self._over(den), other._over(den)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly._from_ints(a, den)

    def __sub__(self, other: Poly) -> Poly:
        den = math.lcm(self.den, other.den)
        a, b = self._over(den), other._over(den)
        if len(a) < len(b):
            a.extend([0] * (len(b) - len(a)))
        for i, c in enumerate(b):
            a[i] -= c
        return Poly._from_ints(a, den)

    def __neg__(self) -> Poly:
        return Poly._from_ints([-c for c in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly._from_ints(_convolve(self.nums, other.nums), self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: RationalLike) -> Poly:
        c = _as_fraction(c)
        p = c.numerator
        return Poly._from_ints([p * a for a in self.nums], self.den * c.denominator)

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
        """Quotient and remainder by integer pseudo-division.

        Each step scales the partial remainder and quotient by the smallest
        positive s with lc(other) | s*t, t the leading numerator, keeping
        S*A = Q*B + R on the numerators A, B with S the product of the s.
        One division by S at the end gives the unique rational answer.
        """
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        if self.is_zero or len(self.nums) < len(other.nums):
            return ZERO, self
        b = other.nums
        db, lead = len(b) - 1, b[-1]
        rem = list(self.nums)
        quot = [0] * (len(rem) - db)
        total = 1
        for k in range(len(quot) - 1, -1, -1):
            t = rem.pop()
            if not t:
                continue
            g = math.gcd(t, lead) if lead > 0 else -math.gcd(t, lead)
            s = lead // g
            if s != 1:
                rem = [s * c for c in rem]
                quot = [s * c for c in quot]
                total *= s
            q = t // g
            quot[k] = q
            for j in range(db):
                rem[k + j] -= q * b[j]
        den = total * self.den
        return Poly._from_ints([other.den * c for c in quot], den), Poly._from_ints(rem, den)

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
        nums = self.nums
        for _ in range(k):
            nums = _derivative(nums)
        return Poly._from_ints(list(nums), self.den)

    def __call__(self, x0: RationalLike) -> Fraction:
        """Exact evaluation on the homogenised form: with x0 = a/b and
        d = deg self, the value is `horner`(nums, a, b) / (den * b^d)."""
        x0 = _as_fraction(x0)
        b = x0.denominator
        return Fraction(horner(self.nums, x0.numerator, b), self.den * b ** max(len(self.nums) - 1, 0))

    def affine_compose(self, a: RationalLike, b: RationalLike) -> Poly:
        """Expand self(a*x + b) exactly: with b = p/q, a = r/s and c the shift of
        nums by p/q, x^k has c_k * (q*r)^k * s^(d-k) / (den * (q*s)^d)."""
        a, b = _as_fraction(a), _as_fraction(b)
        q, r, s = b.denominator, a.numerator, a.denominator
        c = _taylor_shift(self.nums, b.numerator, q)
        d = len(c) - 1
        out = [ck * (q * r) ** k * s ** (d - k) for k, ck in enumerate(c)]
        return Poly._from_ints(out, self.den * (q * s) ** max(d, 0))

    def reversed_coeffs(self, degree: int | None = None) -> Poly:
        """x^d * self(1/x) for d = degree (defaults to deg self)."""
        n = len(self.nums)
        if degree is None:
            if not n:
                return ZERO
            degree = n - 1
        if degree < n - 1:
            raise ValueError("reversal degree below true degree")
        return Poly._from_ints([0] * (degree + 1 - n) + list(reversed(self.nums)), self.den)

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.nums:
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
XP1 = Poly([1, 1])


def monomial(k: int, c: RationalLike = 1) -> Poly:
    c = _as_fraction(c)
    return Poly._from_ints([0] * k + [c.numerator], c.denominator)


# -- gcd and square-free structure ------------------------------------------


def monic(f: Poly) -> Poly:
    if f.is_zero:
        return ZERO
    return Poly._from_ints(list(f.nums), f.nums[-1])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic f."""
    seq = _remainder_sequence(_primitive(f.nums), _primitive(g.nums))
    return monic(Poly._from_ints(seq[-1]))


def _primitive(nums) -> list[int]:
    """The integers nums divided by their gcd, as a new list."""
    g = math.gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


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


def _remainder_sequence(a: list[int], b: list[int]) -> list[list[int]]:
    """The signed primitive remainder sequence a, b, -rem(a, b), ..., or [a]
    when b is empty; each member is a positive multiple of the signed one."""
    seq = [a]
    while b:
        seq.append(b)
        b = [-c for c in _primitive_remainder(seq[-2], b)]
    return seq


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero:
        raise ZeroPolynomialError("square-free part of zero")
    return monic(f.exact_divide(poly_gcd(f, f.derivative())))


def root_multiplicity(f: Poly, x0: RationalLike) -> int:
    """Multiplicity of the rational point x0 as a root of f: the index of the
    first nonzero coefficient of f(x + x0)."""
    if f.is_zero:
        raise ZeroPolynomialError("root multiplicity in zero polynomial")
    x0 = _as_fraction(x0)
    a, b = x0.numerator, x0.denominator
    if horner(f.nums, a, b):
        return 0
    c = _taylor_shift(f.nums, a, b)
    return next(k for k, v in enumerate(c) if v)


# -- binomial machinery ------------------------------------------------------


def binom(alpha: RationalLike, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) for rational alpha."""
    if k < 0:
        return Fraction(0)
    alpha = _as_fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / math.factorial(k)


# -- Moebius-style substitutions ---------------------------------------------


def unitize_with_degree(f: Poly, d: int, sign: int = 1) -> Poly:
    """(1 + sign*x)^d * f(x/(1 + sign*x)) for any d >= deg f and sign = +-1.

    sign = +1 sends [-1,0]-rooted polynomials to nonpositive-rooted ones;
    sign = -1 is its inverse at the same d.  With R = x^d * f(1/x) the value
    is x^d * R(1/x + sign): the reversal of R shifted by sign.
    """
    if d < len(f.nums) - 1:
        raise ValueError("unitize degree below deg f")
    c = _taylor_shift([0] * (d + 1 - len(f.nums)) + list(reversed(f.nums)), sign)
    return Poly._from_ints(c[::-1], f.den)
