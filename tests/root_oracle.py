"""The Yun-plus-evaluation route to real-rootedness, kept as an oracle.

`polyafreq.roots` answers every real-rootedness question from the one Sturm
chain of f.  The route here is the one it replaced: the Yun square-free
decomposition of f, one Sturm chain per square-free factor evaluated at the
Cauchy bound, the multiplicities summed, and a separate gcd(f, f') for
simple roots.  `roots_within` decides real-rootedness first and then counts
on the chain of the square-free part.
"""

from fractions import Fraction

from polyafreq.errors import ZeroPolynomialError
from polyafreq.polynomial import (
    NEG_INF,
    POS_INF,
    poly_gcd,
    root_multiplicity,
    squarefree_decomposition,
    squarefree_part,
)
from polyafreq.roots import _chain_count, cauchy_root_bound, sturm_chain


def count_distinct_real_roots(f):
    if f.is_zero:
        raise ZeroPolynomialError("root count of zero polynomial")
    if f.degree == 0:
        return 0
    sf = squarefree_part(f)
    B = cauchy_root_bound(sf)
    return _chain_count(sturm_chain(sf), -B, B)


def count_real_roots_with_multiplicity(f):
    return sum(m * count_distinct_real_roots(g) for g, m in squarefree_decomposition(f))


def is_real_rooted(f):
    if f.is_zero:
        raise ZeroPolynomialError("real-rootedness of zero polynomial")
    return count_real_roots_with_multiplicity(f) == f.degree


def is_simple_rooted(f):
    return is_real_rooted(f) and poly_gcd(f, f.derivative()).degree <= 0


def roots_within(f, lo, hi):
    """f real-rooted with every root in the closed [lo, hi]; lo <= hi."""
    if not is_real_rooted(f):
        return False
    if f.degree == 0:
        return True
    if lo != NEG_INF:
        lo = Fraction(lo)
    if hi != POS_INF:
        hi = Fraction(hi)
    if lo == hi:
        return root_multiplicity(f, lo) == f.degree
    sf = squarefree_part(f)
    B = cauchy_root_bound(sf)
    chain = sturm_chain(sf)
    total = _chain_count(chain, -B, B)
    left, right = max(lo, -B), min(hi, B)
    inside = _chain_count(chain, left, right) if left < right else 0
    if lo != NEG_INF and f(lo) == 0:
        inside += 1
    return inside == total
