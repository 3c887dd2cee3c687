"""Combinatorial polynomial families and their enumeration oracles.

Every family has a closed-form or recursive generator; where an oracle by
brute-force enumeration exists (descent counts over the symmetric group,
signed permutations, stack sorting), equality of the two routes is a test,
not an assumption of the generators.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from .config import EnumGuards
from .errors import PreconditionError, ResourceLimitError
from .polynomial import Poly, ZERO, binom, monomial, unitize_with_degree
from .transforms import w_transform

X = Poly([0, 1])
XP1 = Poly([1, 1])


def _guards(guards: EnumGuards | None) -> EnumGuards:
    return guards if guards is not None else EnumGuards.from_env()


# -- permutation statistics -----------------------------------------------------


def descents(perm: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(perm, perm[1:]) if a > b)


def excedances(perm: tuple[int, ...]) -> int:
    return sum(1 for i, v in enumerate(perm, start=1) if v > i)


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return cycles


# -- Eulerian and surjection families --------------------------------------------


def surjection_poly(n: int) -> Poly:
    """Generating polynomial of surjection counts onto [k], via the recursion
    E_n = x d/dx ((1+x) E_{n-1}) with E_1 = x."""
    if n < 1:
        raise PreconditionError("surjection_poly needs n >= 1")
    e = X
    for _ in range(n - 1):
        e = X * (XP1 * e).derivative()
    return e


def g_poly(n: int) -> Poly:
    """G_n = E_{n+1}/x, via G_n = d/dx (x(1+x) G_{n-1}) with G_0 = 1."""
    if n < 0:
        raise PreconditionError("g_poly needs n >= 0")
    g = Poly([1])
    for _ in range(n):
        g = (X * XP1 * g).derivative()
    return g


def eulerian_poly(n: int) -> Poly:
    """The descent polynomial sum over S_n of x^{des+1}, computed through the
    surjection family by the substitution x -> x/(1-x)."""
    if n < 1:
        raise PreconditionError("eulerian_poly needs n >= 1")
    return unitize_with_degree(surjection_poly(n), n, sign=-1)


def eulerian_oracle(n: int, guards: EnumGuards | None = None) -> Poly:
    """Descent enumeration over S_n; equals eulerian_poly on the guarded range."""
    g = _guards(guards)
    if n > g.sn_max:
        raise ResourceLimitError(f"S_{n} enumeration exceeds guard {g.sn_max}")
    if n < 1:
        raise PreconditionError("eulerian_oracle needs n >= 1")
    counts = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        counts[descents(perm) + 1] += 1
    return Poly(counts)


def eulerian_t_poly(n: int, t) -> Poly:
    """A_n(x) + t x A_{n-2}(x) for n > 2."""
    if n <= 2:
        raise PreconditionError("eulerian_t_poly needs n > 2")
    return eulerian_poly(n) + (X * eulerian_poly(n - 2)).scale(Fraction(t))


# -- stack sorting ---------------------------------------------------------------


def stack_sort(perm: tuple[int, ...]) -> tuple[int, ...]:
    """One pass of the recursive stack sort s(L n R) = s(L) s(R) n."""
    if len(perm) <= 1:
        return tuple(perm)
    top = max(perm)
    pivot = perm.index(top)
    return stack_sort(perm[:pivot]) + stack_sort(perm[pivot + 1 :]) + (top,)


def is_t_stack_sortable(perm: tuple[int, ...], t: int) -> bool:
    p = tuple(perm)
    for _ in range(t):
        p = stack_sort(p)
    return p == tuple(sorted(perm))


def t_stack_poly(n: int, t: int, guards: EnumGuards | None = None) -> Poly:
    """Descent polynomial of the t-stack-sortable permutations in S_n."""
    if t < 0:
        raise PreconditionError("t_stack_poly needs t >= 0")
    g = _guards(guards)
    if n > g.sn_max:
        raise ResourceLimitError(f"S_{n} enumeration exceeds guard {g.sn_max}")
    counts = [0] * n
    for perm in itertools.permutations(range(1, n + 1)):
        if is_t_stack_sortable(perm, t):
            counts[descents(perm)] += 1
    return Poly(counts)


def w2_closed(n: int, k: int) -> Fraction:
    """Closed-form count of 2-stack-sortable permutations in S_n with k descents."""
    if n < 1 or not 0 <= k <= n - 1:
        raise PreconditionError("w2_closed needs n >= 1 and 0 <= k <= n-1")
    f = math.factorial
    return Fraction(
        f(n + k) * f(2 * n - k - 1),
        f(k + 1) * f(n - k) * f(2 * k + 1) * f(2 * n - 2 * k - 1),
    )


def w2_poly(n: int) -> Poly:
    if n < 1:
        raise PreconditionError("w2_poly needs n >= 1")
    return Poly(w2_closed(n, k) for k in range(n))


def narayana_poly(n: int) -> Poly:
    """Descent polynomial of the 1-stack-sortable permutations of [n]."""
    if n < 1:
        raise PreconditionError("narayana_poly needs n >= 1")
    return Poly(binom(n, k) * binom(n, k + 1) / n for k in range(n))


# -- q-analogs --------------------------------------------------------------------


def q_eulerian_poly(n: int, q) -> Poly:
    """Joint excedance/cycle polynomial at a fixed cycle weight q, by the
    recursion A_{n+1} = (n x + q) A_n - x(x-1) dA_n/dx with A_0 = 1."""
    if n < 0:
        raise PreconditionError("q_eulerian_poly needs n >= 0")
    q = Fraction(q)
    a = Poly([1])
    for m in range(n):
        a = Poly([q, m]) * a - (X * Poly([-1, 1])) * a.derivative()
    return a


def q_eulerian_oracle(n: int, q, guards: EnumGuards | None = None) -> Poly:
    """sum over S_n of x^{exc} q^{c}, by enumeration."""
    g = _guards(guards)
    if n > g.sn_max:
        raise ResourceLimitError(f"S_{n} enumeration exceeds guard {g.sn_max}")
    q = Fraction(q)
    coeffs = [Fraction(0)] * n if n else [Fraction(1)]
    if n == 0:
        return Poly(coeffs)
    for perm in itertools.permutations(range(1, n + 1)):
        coeffs[excedances(perm)] += q ** cycle_count(perm)
    return Poly(coeffs)


def e_q_poly(n: int, q) -> Poly:
    """Unitized q-Eulerian family: E_{n+1} = (1+x)(q E_n + x dE_n/dx), E_0 = 1."""
    if n < 0:
        raise PreconditionError("e_q_poly needs n >= 0")
    q = Fraction(q)
    e = Poly([1])
    for _ in range(n):
        e = XP1 * (e.scale(q) + X * e.derivative())
    return e


# -- signed permutations -----------------------------------------------------------


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


def signed_perm_stats(n: int, guards: EnumGuards | None = None) -> StatTable:
    g = _guards(guards)
    if n > g.bn_max:
        raise ResourceLimitError(f"signed enumeration of size {n} exceeds guard {g.bn_max}")
    rows = tuple(
        (sp.type_b_descents, sp.negatives, sp.negation_pattern)
        for sp in signed_permutations(n)
    )
    return StatTable(n=n, rows=rows)


# -- type-B Eulerian analogs ---------------------------------------------------------


def b_euler_multi(n: int, qs) -> Poly:
    """W-transform of prod_i ((1+q_i) x + 1)."""
    qs = [Fraction(v) for v in qs]
    if len(qs) != n:
        raise PreconditionError(f"need exactly {n} weights")
    f = Poly([1])
    for q in qs:
        f = f * Poly([1, 1 + q])
    return w_transform(f)


def b_euler_q(n: int, q) -> Poly:
    return b_euler_multi(n, [q] * n)


def p_bn_subset(n: int, subset) -> Poly:
    """Descent polynomial of the signed permutations whose negative-entry
    count lies in the given subset of [0, n], via the W-transform route."""
    subset = set(subset)
    if not subset <= set(range(n + 1)):
        raise PreconditionError("subset must be contained in {0, ..., n}")
    if not subset:
        return ZERO
    f = ZERO
    for s in sorted(subset):
        f = f + (monomial(s) * XP1 ** (n - s)).scale(binom(n, s))
    return w_transform(f)


def p_dn_poly(n: int) -> Poly:
    """Coxeter descent polynomial of type D via the type-B/type-A relation."""
    if n < 2:
        raise PreconditionError("p_dn_poly needs n >= 2")
    pb = b_euler_q(n, 1)
    pa = b_euler_q(n - 1, 0)
    return pb - (X * pa).scale(n * 2 ** (n - 1))


# -- cluster-complex h-polynomials ----------------------------------------------------


def fz_h_poly(family: str, n: int) -> Poly:
    """h-polynomials of the cluster complexes of the classical Weyl families."""
    if family == "A":
        if n < 0:
            raise PreconditionError("family A needs n >= 0")
        m = n + 1
        return Poly(binom(m, k) * binom(m, k + 1) / m for k in range(m))
    if family == "B":
        if n < 0:
            raise PreconditionError("family B needs n >= 0")
        return Poly(binom(n, k) ** 2 for k in range(n + 1))
    if family == "D":
        if n < 2:
            raise PreconditionError("family D needs n >= 2")
        return fz_h_poly("B", n) - (X * fz_h_poly("A", n - 2)).scale(n)
    raise PreconditionError(f"unknown family {family!r}")


def weyl_combination(n: int, alpha, beta) -> Poly:
    """alpha * h_B(n) + beta * n * x * h_A(n-2)."""
    if n < 2:
        raise PreconditionError("weyl_combination needs n >= 2")
    alpha, beta = Fraction(alpha), Fraction(beta)
    return fz_h_poly("B", n).scale(alpha) + (X * fz_h_poly("A", n - 2)).scale(beta * n)


# -- multisection ------------------------------------------------------------------


def multisect(f: Poly, step: int, offset: int) -> Poly:
    """Extract coefficients a_{step*j + offset} into sum_j a_{...} x^j."""
    if step < 1:
        raise PreconditionError("multisect needs step >= 1")
    if not 0 <= offset < step:
        raise PreconditionError("multisect needs 0 <= offset < step")
    return Poly(f.coeffs[offset::step])
