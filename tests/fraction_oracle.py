"""The `Fraction` routes of the coefficient kernels, kept as oracles.

Evaluation built one normalised `Fraction` per value, and the sign counts of
`roots` read only the sign of its numerator; `polynomial.horner` returns the
integer b^d * f(a/b) instead, and `roots` reads its sign.  `evaluate` and
`variations` are that route.  `rational_from_str` is `Fraction(str)` with
the digit limit applied to the value it builds, however long that takes.

E, its inverse, the (1 + sign*x)^d substitution, the root product of the
suites, the bilinear products, multisection, the finite PF verdict, the
Cauchy bound and `monic` compute on `Poly`'s integer numerators over one
denominator, and so does the wire, `jsonio.poly_to_dict` and
`jsonio.poly_from_dict`.  Before that, each read `Poly.coeffs`, the
`Fraction` view, did its arithmetic in `Fraction` and built a `Poly` back,
and the wire parsed and printed one `Fraction` per coefficient.  These are
those routes, written as they ran, so each kernel can be compared with them.
"""

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

from polyafreq.errors import PreconditionError, ZeroPolynomialError
from polyafreq.jsonio import _excerpt
from polyafreq.polynomial import ONE, Poly, ZERO, monomial
from polyafreq.roots import is_real_rooted


def binomial_poly(k: int) -> Poly:
    """The polynomial C(x, k) = x(x-1)...(x-k+1)/k!."""
    p = ONE
    for i in range(k):
        p = p * Poly([-i, 1])
    return p.scale(Fraction(1, math.factorial(k)))


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
    return Poly(to_binomial_basis(f))


def e_inverse(g: Poly) -> Poly:
    return from_binomial_basis(g.coeffs)


def unitize_with_degree(f: Poly, d: int, sign: int = 1) -> Poly:
    """(1 + sign*x)^d * f(x/(1 + sign*x)), summed over powers of 1 + sign*x."""
    if f.is_zero:
        return ZERO
    if d < len(f.nums) - 1:
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


def from_roots(roots, lead=1) -> Poly:
    """lead * prod (x - r), one `Fraction` linear factor at a time."""
    p = Poly([lead])
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def schur_product(f: Poly, g: Poly) -> Poly:
    return Poly(math.factorial(k) * a * b for k, (a, b) in enumerate(zip(f.coeffs, g.coeffs)))


def hadamard_product(f: Poly, g: Poly) -> Poly:
    return Poly(a * b for a, b in zip(f.coeffs, g.coeffs))


def multisect(f: Poly, step: int, offset: int) -> Poly:
    return Poly(f.coeffs[offset::step])


def is_pf_finite(f: Poly) -> bool:
    if f.is_zero:
        return True
    if any(c < 0 for c in f.coeffs):
        return False
    return is_real_rooted(f)


def cauchy_root_bound(f: Poly) -> Fraction:
    if f.is_zero:
        raise ZeroPolynomialError("root bound of zero polynomial")
    if len(f.coeffs) == 1:
        return Fraction(1)
    lead = abs(f.coeffs[-1])
    return Fraction(1 + math.ceil(max(abs(c) for c in f.coeffs[:-1]) / lead))


def monic(f: Poly) -> Poly:
    return ZERO if f.is_zero else f.scale(1 / f.leading)


def poly_from_coeffs(coeffs) -> Poly:
    """The polynomial of a wire 'coeffs' list, one `Fraction(str)` per entry."""
    return Poly(rational_from_str(str(c)) for c in coeffs)


def poly_to_coeffs(f: Poly) -> list[str]:
    """The wire 'coeffs' list of f, one printed `Fraction` per coefficient."""
    return [str(c) for c in f.coeffs]


def evaluate(f: Poly, x0) -> Fraction:
    """f(x0) by integer Horner on the homogenised form, as one `Fraction`."""
    x0 = Fraction(x0)
    a, b = x0.numerator, x0.denominator
    acc, bpow = 0, 1
    for c in reversed(f.nums):
        acc = acc * a + c * bpow
        bpow *= b
    # bpow ends at b^(d+1), one factor of b past the denominator
    return Fraction(acc * b, f.den * bpow)


def variations(chain, x0) -> int:
    """Sign changes of the nonzero values of the chain at x0, each read off
    the numerator of its `Fraction`."""
    signs = [v.numerator > 0 for v in (evaluate(p, x0) for p in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def rational_from_str(text: str) -> Fraction:
    """`Fraction(text)`, refused when its numerator or denominator has more
    than `sys.get_int_max_str_digits()` digits, when a digit string of the
    text has more than that many, or when it is malformed."""
    limit = sys.get_int_max_str_digits()
    too_long = f"rational {_excerpt(text)} has more than {limit} digits"
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        digit_strings = re.findall(r"\d+(?:_\d+)*", text)
        if limit and any(len(d.replace("_", "")) > limit for d in digit_strings):
            raise PreconditionError(too_long) from exc
        raise PreconditionError(f"malformed rational {_excerpt(text)}") from exc
    digits = max(Decimal(n).adjusted() + 1 for n in (value.numerator, value.denominator))
    if limit and digits > limit:
        raise PreconditionError(too_long)
    return value
