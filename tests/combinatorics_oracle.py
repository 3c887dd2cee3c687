"""Retired enumeration routes of `polyafreq.combinatorics`, kept as oracles.

The signed permutations of 1..n listed one by one, with a table of their
type-B descents, negative counts and negation patterns; `StatTable` sums
x^{des_B} over the table with the weights of the type-B families.
`polyafreq.combinatorics.signed_descent_poly` counts the same sums by
descent sets.

The recursive stack sort s(L n R) = s(L) s(R) n, which
`polyafreq.combinatorics.stack_sort` replaces by the one-stack loop.
"""

import dataclasses
import itertools
from fractions import Fraction

from polyafreq.errors import PreconditionError
from polyafreq.polynomial import Poly


@dataclasses.dataclass(frozen=True)
class SignedPerm:
    """Window of a signed permutation: |values| is a permutation of 1..n."""

    window: tuple[int, ...]

    def __post_init__(self):
        n = len(self.window)
        if sorted(abs(v) for v in self.window) != list(range(1, n + 1)) or 0 in self.window:
            raise PreconditionError("window must be a signed permutation of 1..n")

    @property
    def negatives(self) -> int:
        return sum(1 for v in self.window if v < 0)

    @property
    def type_b_descents(self) -> int:
        """Descents of (0, w_1, ..., w_n)."""
        prev = 0
        count = 0
        for v in self.window:
            if prev > v:
                count += 1
            prev = v
        return count

    @property
    def negation_pattern(self) -> tuple[int, ...]:
        """Indicator, per letter 1..n, of whether that letter appears negated."""
        flags = [0] * len(self.window)
        for v in self.window:
            if v < 0:
                flags[-v - 1] = 1
        return tuple(flags)


def signed_permutations(n: int):
    for base in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPerm(tuple(s * v for s, v in zip(signs, base)))


@dataclasses.dataclass(frozen=True)
class StatTable:
    """Per-element statistics (descents, negatives, negation pattern) of the
    signed permutations of 1..n."""

    n: int
    rows: tuple[tuple[int, int, tuple[int, ...]], ...]

    def descent_poly(self, q) -> Poly:
        q = Fraction(q)
        coeffs = [Fraction(0)] * (self.n + 1)
        for d, neg, _ in self.rows:
            coeffs[d] += q ** neg
        return Poly(coeffs)

    def restricted_descent_poly(self, allowed_negative_counts) -> Poly:
        allowed = set(allowed_negative_counts)
        coeffs = [Fraction(0)] * (self.n + 1)
        for d, neg, _ in self.rows:
            if neg in allowed:
                coeffs[d] += 1
        return Poly(coeffs)

    def weighted_sum(self, qs) -> Poly:
        """sum over the group of x^{descents} prod q_i^{pattern_i}."""
        qs = [Fraction(v) for v in qs]
        if len(qs) != self.n:
            raise PreconditionError("need one weight per position")
        coeffs = [Fraction(0)] * (self.n + 1)
        for d, _, pattern in self.rows:
            w = Fraction(1)
            for flag, q in zip(pattern, qs):
                if flag:
                    w *= q
            coeffs[d] += w
        return Poly(coeffs)


def signed_perm_stats(n: int) -> StatTable:
    rows = tuple(
        (sp.type_b_descents, sp.negatives, sp.negation_pattern)
        for sp in signed_permutations(n)
    )
    return StatTable(n=n, rows=rows)


def stack_sort(perm: tuple[int, ...]) -> tuple[int, ...]:
    """One pass of the recursive stack sort s(L n R) = s(L) s(R) n."""
    if len(perm) <= 1:
        return tuple(perm)
    top = max(perm)
    pivot = perm.index(top)
    return stack_sort(perm[:pivot]) + stack_sort(perm[pivot + 1 :]) + (top,)
