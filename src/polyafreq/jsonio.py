"""Wire format: polynomials as JSON objects with string rationals.

The contract is {"coeffs": ["c0", "c1", ...]} ascending in degree, each
rational rendered "p/q", or just "p" when the denominator is one.  No
floats appear anywhere on the wire.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import PreconditionError
from .polynomial import Poly


def rational_to_str(value: Fraction) -> str:
    return str(value if isinstance(value, Fraction) else Fraction(value))


def rational_from_str(text: str) -> Fraction:
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"malformed rational {text!r}") from exc
    return value


def minor_to_dict(witness) -> dict:
    """A minor (rows, cols, value) of a `pf.MinorReport` witness."""
    rows, cols, value = witness
    return {"rows": list(rows), "cols": list(cols), "minor": rational_to_str(value)}


def poly_to_dict(f: Poly) -> dict:
    return {"coeffs": [rational_to_str(c) for c in f.coeffs]}


def poly_from_dict(data) -> Poly:
    if not isinstance(data, dict) or "coeffs" not in data or not isinstance(data["coeffs"], list):
        raise PreconditionError("polynomial JSON must be an object with a 'coeffs' list")
    return Poly(rational_from_str(str(c)) for c in data["coeffs"])


def poly_to_json(f: Poly) -> str:
    return json.dumps(poly_to_dict(f), separators=(",", ":"))


def poly_from_json(text: str) -> Poly:
    try:
        data = json.loads(text)
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
