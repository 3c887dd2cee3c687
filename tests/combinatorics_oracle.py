"""Retired enumeration routes of `polyafreq.combinatorics`, kept as oracles.

The signed permutations of 1..n listed one by one, with a table of their
type-B descents, negative counts and negation patterns; `StatTable` sums
x^{des_B} over the table with the weights of the type-B families.
`polyafreq.combinatorics.signed_descent_poly` counts the same sums by
descent sets.

The permutations of 1..n listed one by one with `itertools.permutations`:
their descents, one-stack sorting passes and excedance/cycle weights, summed
per permutation.  `polyafreq.combinatorics` counts the same descent sums by
a memoized walk over prefixes, and the excedance/cycle sum by a table of
counts.  The recursive stack sort s(L n R) = s(L) s(R) n checks the
one-stack loop.

The Eulerian A_n through the surjection family, by x -> x/(1 - x);
`polyafreq.combinatorics.eulerian_poly` reads x A_n(x; 1) off the integer
q-Eulerian recurrence instead.  The q-Eulerian A_n(x; q) by its recursion
in n on `Poly`s;
`polyafreq.combinatorics.q_eulerian_poly` runs the same recursion on
integer coefficient lists.  The unitized family E_n by its own recursion in
n; `polyafreq.combinatorics.e_q_poly` unitizes A_n(x; q) instead.
"""

import dataclasses
import itertools
from fractions import Fraction

from polyafreq.combinatorics import cycle_count, excedances, surjection_poly
from polyafreq.errors import PreconditionError
from polyafreq.polynomial import X, XP1, Poly, unitize_with_degree


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


def recursive_stack_sort(perm: tuple[int, ...]) -> tuple[int, ...]:
    """One pass of the recursive stack sort s(L n R) = s(L) s(R) n."""
    if len(perm) <= 1:
        return tuple(perm)
    top = max(perm)
    pivot = perm.index(top)
    return recursive_stack_sort(perm[:pivot]) + recursive_stack_sort(perm[pivot + 1 :]) + (top,)


def descents(perm: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


def stack_sort(perm: tuple[int, ...]) -> tuple[int, ...]:
    """One pass of stack sorting, s(L n R) = s(L) s(R) n: each entry first
    pops every smaller entry off the top of the stack, then is pushed; the
    stack is emptied at the end."""
    out = []
    stack = []
    for v in perm:
        while stack and stack[-1] < v:
            out.append(stack.pop())
        stack.append(v)
    out.extend(reversed(stack))
    return tuple(out)


def is_t_stack_sortable(perm: tuple[int, ...], t: int) -> bool:
    # a sorted p stays sorted, and n - 1 passes sort any p of length n
    p, target = tuple(perm), tuple(sorted(perm))
    for _ in range(t):
        if p == target:
            break
        p = stack_sort(p)
    return p == target


def eulerian_by_listing(n: int) -> Poly:
    """sum over S_n of x^{des + 1}."""
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        counts[descents(perm) + 1] += 1
    return Poly(counts)


def eulerian_by_unitize(n: int) -> Poly:
    """(1 - x)^n E_n(x/(1 - x)) for the surjection polynomial E_n."""
    return unitize_with_degree(surjection_poly(n), n, sign=-1)


def t_stack_by_listing(n: int, t: int) -> Poly:
    """sum over the t-stack-sortable permutations of S_n of x^{des}."""
    counts = [0] * n
    for perm in itertools.permutations(range(1, n + 1)):
        if is_t_stack_sortable(perm, t):
            counts[descents(perm)] += 1
    return Poly(counts)


def q_eulerian_by_listing(n: int, q) -> Poly:
    """sum over S_n of x^{exc} q^{cycles}, one Fraction power per permutation."""
    q = Fraction(q)
    coeffs = [Fraction(0)] * max(n, 1)
    for perm in itertools.permutations(range(1, n + 1)):
        coeffs[excedances(perm)] += q ** cycle_count(perm)
    return Poly(coeffs)


def q_eulerian_by_recursion(n: int, q) -> Poly:
    """A_{m+1} = (m x + q) A_m - x(x-1) dA_m/dx, A_0 = 1, on `Poly`s."""
    q = Fraction(q)
    x_xm1 = X * Poly([-1, 1])
    a = Poly([1])
    for m in range(n):
        a = Poly([q, m]) * a - x_xm1 * a.derivative()
    return a


def e_q_by_recursion(n: int, q) -> Poly:
    """E_{n+1} = (1+x)(q E_n + x dE_n/dx), E_0 = 1."""
    q = Fraction(q)
    e = Poly([1])
    for _ in range(n):
        e = XP1 * (e.scale(q) + X * e.derivative())
    return e
