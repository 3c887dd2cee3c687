r"""Wire format: polynomials as JSON objects with string rationals.

The contract is {"coeffs": ["c0", "c1", ...]} ascending in degree, each
rational rendered "p/q", or just "p" when the denominator is one.  No
floats appear anywhere on the wire.

Both directions work on `Poly`'s numerators over its one denominator.
`poly_to_dict` prints each coefficient with one gcd.  `poly_from_dict` reads
a text that fully matches the ASCII grammar
``\s*[+-]?[0-9]+(/0*[1-9][0-9]*)?\s*`` as two `int`s and builds the `Poly`
once, over the lcm of the denominators; any other text goes to
`rational_from_str`, which gives `Fraction`'s value or a `PreconditionError`.
Both routes refuse a numerator or denominator of more digits than `int()`
converts, and `rational_from_str` refuses it before building a power of ten
from an exponent.  A JSON number is read as its text, so it keeps every digit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .errors import PreconditionError
from .polynomial import Poly


def rational_to_str(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


_RATIO = re.compile(r"\s*([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\s*", re.ASCII)


_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")

_DIGITS = re.compile(r"\d+(?:_\d+)*")  # a digit string as `int()` reads it


def _excerpt(text: str) -> str:
    """text quoted, cut to its first 20 characters when it is longer."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def _exceeds(value: Fraction, limit: int) -> bool:
    """The numerator or denominator of value has more than limit > 0 digits;
    a bit length above 3 * limit is necessary for that."""
    n = max(abs(value.numerator), value.denominator)
    return n.bit_length() > 3 * limit and n >= 10**limit


def rational_from_str(text: str) -> Fraction:
    """`Fraction`'s value of text, refusing a numerator or denominator of more
    than `sys.get_int_max_str_digits()` digits, the limit `int()` holds a
    digit string to (none when it is 0), and a text with a longer digit
    string, which `int()` does not read; a message quotes an `_excerpt`.

    A text m e k, k the exponent, is read as Fraction(m e 0) * 10^k, and a
    k too large for the limit is refused before 10^k is built: with
    L = len(text), m has numerator and denominator below 10^L, so a nonzero
    value has numerator above 10^(k - L) or denominator above 10^(-k - L).
    """
    exponent = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    try:
        if exponent is None:
            value = Fraction(text.strip())
        else:
            value = Fraction(text[: exponent.start()].lstrip() + "e0")
            k = int(exponent[1])
    except (ValueError, ZeroDivisionError) as exc:
        if not (limit and any(len(d) - d.count("_") > limit for d in _DIGITS.findall(text))):
            raise PreconditionError(f"malformed rational {_excerpt(text)}") from exc
        value = None
    if exponent is not None and value:
        if limit and abs(k) >= limit + len(text):
            value = None
        else:
            value *= Fraction(10) ** k
    if value is None or (limit and _exceeds(value, limit)):
        raise PreconditionError(f"rational {_excerpt(text)} has more than {limit} digits")
    return value


def minor_to_dict(witness) -> dict:
    """A minor (rows, cols, value) of a `pf.MinorReport` witness."""
    rows, cols, value = witness
    return {"rows": list(rows), "cols": list(cols), "minor": rational_to_str(value)}


def poly_to_dict(f: Poly) -> dict:
    den, coeffs = f.den, []
    for p in f.nums:
        g = math.gcd(p, den)
        coeffs.append(str(p // g) if g == den else f"{p // g}/{den // g}")
    return {"coeffs": coeffs}


def poly_from_dict(data) -> Poly:
    if not isinstance(data, dict) or "coeffs" not in data or not isinstance(data["coeffs"], list):
        raise PreconditionError("polynomial JSON must be an object with a 'coeffs' list")
    pairs = []
    for c in data["coeffs"]:
        text = str(c)
        match = _RATIO.fullmatch(text)
        try:
            pairs.append((int(match[1]), int(match[2] or 1)))
        except (TypeError, ValueError):  # no match, or more digits than int() reads
            value = rational_from_str(text)
            pairs.append((value.numerator, value.denominator))
    den = math.lcm(*(q for _, q in pairs))
    return Poly._from_ints([p * (den // q) for p, q in pairs], den)


def poly_to_json(f: Poly) -> str:
    return json.dumps(poly_to_dict(f), separators=(",", ":"))


def poly_from_json(text: str) -> Poly:
    try:
        data = json.loads(text, parse_float=str, parse_int=str)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"malformed polynomial JSON: {exc}") from exc
    return poly_from_dict(data)


def load_poly_argument(arg: str) -> Poly:
    """Accept either inline polynomial JSON or a path to a JSON file."""
    text = arg.strip()
    if not text.startswith("{"):
        try:
            with open(arg, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise PreconditionError(f"cannot read polynomial file {arg!r}: {exc}") from exc
    return poly_from_json(text)
