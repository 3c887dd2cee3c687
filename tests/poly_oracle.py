"""`Poly` arithmetic on `Fraction` coefficient tuples, as the oracle.

These are the loops `Poly` ran when it stored a tuple of `Fraction`
coefficients, constant term first and with no trailing zero.  Each function
takes such tuples (`Poly.coeffs`) and returns one, so the integer
representation can be compared with them coefficient by coefficient.
`content` and `primitive_part` are the `Fraction` definitions that
`poly_gcd` and `sturm_chain` are checked against.  `root_multiplicity` and
`unitize_binomial` are the loops that `polynomial._taylor_shift` replaced:
division by x - x0 while x0 is a root, and the binomial expansion of
(1 + sign*x)^d * f(x/(1 + sign*x)) term by term.
"""

import itertools
import math
from fractions import Fraction

from polyafreq.errors import ZeroPolynomialError
from polyafreq.polynomial import Poly, _primitive

Coeffs = tuple[Fraction, ...]


def trim(cs) -> Coeffs:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    return trim(x + y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0)))


def sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return trim(x - y for x, y in itertools.zip_longest(a, b, fillvalue=Fraction(0)))


def neg(a: Coeffs) -> Coeffs:
    return trim(-c for c in a)


def mul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def scale(a: Coeffs, c) -> Coeffs:
    c = Fraction(c)
    return trim(c * x for x in a)


def divmod_(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a or len(a) < len(b):
        return (), a
    rem = list(a)
    dn, dd = len(rem) - 1, len(b) - 1
    inv_lead = 1 / b[-1]
    quot = [Fraction(0)] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        q = rem[dd + k] * inv_lead
        quot[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    return trim(quot), trim(rem[:dd])


def derivative(a: Coeffs, k: int = 1) -> Coeffs:
    cs = a
    for _ in range(k):
        if len(cs) <= 1:
            return ()
        cs = tuple(Fraction(i) * cs[i] for i in range(1, len(cs)))
    return trim(cs)


def affine_compose(a: Coeffs, s, t) -> Coeffs:
    """a(s*x + t)."""
    arg = trim([t, s])
    acc: Coeffs = ()
    for c in reversed(a):
        acc = add(mul(acc, arg), trim([c]))
    return acc


def reversed_coeffs(a: Coeffs, degree: int | None = None) -> Coeffs:
    if degree is None:
        if not a:
            return ()
        degree = len(a) - 1
    if degree < len(a) - 1:
        raise ValueError("reversal degree below true degree")
    cs = [Fraction(0)] * (degree + 1)
    for i, c in enumerate(a):
        cs[degree - i] = c
    return trim(cs)


def horner(a: Coeffs, x0) -> Fraction:
    x0 = Fraction(x0)
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x0 + c
    return acc


def to_str(a: Coeffs) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
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


def content(f: Poly) -> Fraction:
    """Positive rational c with f/c integer-primitive; 0 for the zero polynomial."""
    if f.is_zero:
        return Fraction(0)
    num = math.gcd(*(c.numerator for c in f.coeffs))
    den = math.lcm(*(c.denominator for c in f.coeffs))
    return Fraction(num, den)


def primitive_part(f: Poly) -> Poly:
    """f scaled by a positive rational to integer coefficients with gcd 1.

    Divides the numerators by their gcd, as `poly_gcd` and `sturm_chain` do.
    """
    return Poly._from_ints(_primitive(f.nums))


def root_multiplicity(f: Poly, x0) -> int:
    """Multiplicity of x0 as a root of f, one exact division at a time."""
    if f.is_zero:
        raise ZeroPolynomialError("root multiplicity in zero polynomial")
    x0 = Fraction(x0)
    lin = Poly([-x0, 1])
    mult = 0
    while f(x0) == 0:
        f = f.exact_divide(lin)
        mult += 1
    return mult


def unitize_binomial(f: Poly, d: int, sign: int = 1) -> Poly:
    """(1 + sign*x)^d * f(x/(1 + sign*x)) on integer numerators, as the sum
    of nums_j * x^j * (1 + sign*x)^(d-j) over j."""
    if d < len(f.nums) - 1:
        raise ValueError("unitize degree below deg f")
    out = [0] * (d + 1)
    for j, c in enumerate(f.nums):
        if c:
            # c * C(d - j, i) * sign^i, term by term from the previous one
            for i in range(d - j + 1):
                out[i + j] += c
                c = c * (d - j - i) * sign // (i + 1)
    return Poly._from_ints(out, f.den)
