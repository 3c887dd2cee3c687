"""Combinatorial polynomial families and their enumeration oracles.

Every family has a closed-form or recursive generator.  Over the symmetric
group (descent and excedance counts, stack sorting) a guarded count is kept
beside it as an oracle, and equality of the two routes is a test, not an
assumption of the generators.

Descents over S_n, of every permutation or of the t-stack-sortable ones, are
counted by one walk (`_descent_walk`) that places the letters left to right
instead of listing the n! permutations.  A stack-sorting pass pops every
smaller entry before it pushes, so each stack decreases from bottom to top
and is just the set of its letters, a bitmask: a letter v entering a pass
pops the letters of mask & ((1 << v) - 1), smallest first, into the next
pass.  After a prefix the state is the set of letters left, the last letter
(it decides whether the next one is a descent) and the t stack masks; the
completions of equal states are counted once, in a memo local to one call.
The last pass must emit the letters in increasing order, so a prefix is
dropped at the first letter it emits out of order.  t is capped at n - 1,
as the docstring of `t_stack_poly` argues.  The excedance/cycle count still
visits every permutation, but counts them into an integer table.

Type-B descent statistics are counted by descent sets in O(n^2) terms
(`signed_descent_poly`), not by listing the 2^n n! signed permutations;
that route never calls the W-transform, so it still checks the W route of
the type-B families.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .config import max_enum
from .errors import PreconditionError
from .polynomial import X, XP1, Poly, ZERO, unitize_with_degree
from .transforms import e_transform, w_transform


def _require_enumerable(n: int) -> None:
    """Refuse an S_n enumeration above the POLYAFREQ_MAX_ENUM guard."""
    bound = max_enum()
    if n > bound:
        raise PreconditionError(f"S_{n} enumeration exceeds guard {bound}")


# -- permutation statistics -----------------------------------------------------


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
    """The descent polynomial sum over S_n of x^{des+1}: x A_n(x; 1), since
    excedances and descents are equidistributed over S_n (Foata)."""
    if n < 1:
        raise PreconditionError("eulerian_poly needs n >= 1")
    return X * q_eulerian_poly(n, 1)


def eulerian_oracle(n: int) -> Poly:
    """Descent count over S_n; equals eulerian_poly on the guarded range."""
    _require_enumerable(n)
    if n < 1:
        raise PreconditionError("eulerian_oracle needs n >= 1")
    return Poly([0] + _descent_walk(n, None))


def eulerian_t_poly(n: int, t) -> Poly:
    """A_n(x) + t x A_{n-2}(x) for n > 2."""
    if n <= 2:
        raise PreconditionError("eulerian_t_poly needs n > 2")
    return eulerian_poly(n) + (X * eulerian_poly(n - 2)).scale(Fraction(t))


# -- stack sorting ---------------------------------------------------------------


def _descent_walk(n: int, passes: int | None) -> list[int]:
    """Counts by descent number of the permutations of [n] that the given
    number of stack-sorting passes sorts, or of all of them for None.

    Letter v is the bit 1 << v, so a descent is a bit below the last one.  A
    pass receives an increasing run of letters, each popping the smaller
    letters of the stack before it is pushed; with u the run's largest
    letter, the pass emits the stack's letters below u and the rest of the
    run, in increasing order, and keeps those above u and u itself.  low is
    the bit of the next letter the last pass must emit, so the run that
    pass emits is in order exactly when it fills the bits from low upward.
    Once every letter is placed, each stack flushes in increasing order and
    so does the pipeline: the last pass emits the stacked letters, which are
    those from low upward, in order, and every completed walk counts.  The
    counts of a state's completions are packed in one int, one field of
    n!.bit_length() bits per descent number, and a descent shifts them up
    one field.
    """
    width = math.factorial(n).bit_length()
    memo = {}

    def complete(left: int, last: int, stacks: tuple[int, ...], low: int) -> int:
        if not left:
            return 1
        # low is fixed by the others: the letters neither left nor stacked
        key = (left, last, stacks)
        packed = memo.get(key)
        if packed is not None:
            return packed
        packed = 0
        rest = left
        while rest:
            bit = rest & -rest
            rest ^= bit
            run, after = bit, stacks
            if passes is not None:
                masks = []
                for mask in stacks:
                    if run:
                        top = 1 << (run.bit_length() - 1)
                        run, mask = (mask & (top - 1)) | (run ^ top), (mask & -top) | top
                    masks.append(mask)
                if (run + low) & run:
                    continue
                after = tuple(masks)
            sub = complete(left ^ bit, bit, after, low + run)
            packed += sub << width if last > bit else sub
        memo[key] = packed
        return packed

    packed = complete((1 << n) - 1, 0, (0,) * (passes or 0), 1)
    field = (1 << width) - 1
    return [packed >> (d * width) & field for d in range(n)]


def t_stack_poly(n: int, t: int) -> Poly:
    """Descent polynomial of the t-stack-sortable permutations in S_n.

    t above n - 1 counts as n - 1, which is exact.  If a word ends with its
    j largest letters in increasing order, a pass leaves them there and puts
    the largest other letter just in front of them: that letter pops every
    letter before it, and none pops it until the suffix arrives.  So after j
    passes the j largest letters are in place, n - 1 passes sort any word of
    length n, and a pass leaves a sorted word unchanged.
    """
    if n < 1:
        raise PreconditionError("t_stack_poly needs n >= 1")
    if t < 0:
        raise PreconditionError("t_stack_poly needs t >= 0")
    _require_enumerable(n)
    return Poly(_descent_walk(n, min(t, n - 1)))


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
    """Descent polynomial of the 1-stack-sortable permutations of [n], which is
    the cluster h-polynomial of type A_{n-1}."""
    if n < 1:
        raise PreconditionError("narayana_poly needs n >= 1")
    return fz_h_poly("A", n - 1)


# -- q-analogs --------------------------------------------------------------------


def q_eulerian_poly(n: int, q) -> Poly:
    """Joint excedance/cycle polynomial at a fixed cycle weight q = p/s, by the
    recursion A_{m+1} = (m x + q) A_m - x(x-1) dA_m/dx with A_0 = 1, run as
    a'_k = (q + k) a_k + (m - k + 1) a_{k-1} on integer numerators over s^n."""
    if n < 0:
        raise PreconditionError("q_eulerian_poly needs n >= 0")
    q = Fraction(q)
    p, s = q.numerator, q.denominator
    a = [1]
    for m in range(n):
        a = [(p + k * s) * x + (m - k + 1) * s * y for k, (x, y) in enumerate(zip(a + [0], [0] + a))]
    return Poly._from_ints(a, s ** n)


def q_eulerian_oracle(n: int, q) -> Poly:
    """sum over S_n of x^{exc} q^{c}, by enumeration into a table of counts
    by (exc, c), to which q is applied once per entry."""
    if n < 0:
        raise PreconditionError("q_eulerian_oracle needs n >= 0")
    _require_enumerable(n)
    q = Fraction(q)
    table = [[0] * (n + 1) for _ in range(max(n, 1))]
    for perm in itertools.permutations(range(1, n + 1)):
        table[excedances(perm)][cycle_count(perm)] += 1
    return Poly(sum(count * q**c for c, count in enumerate(row) if count) for row in table)


def e_q_poly(n: int, q) -> Poly:
    """Unitized q-Eulerian family E_n = (1+x)^n A_n(x/(1+x); q)."""
    if n < 0:
        raise PreconditionError("e_q_poly needs n >= 0")
    return unitize_with_degree(q_eulerian_poly(n, q), n)


# -- type-B descent statistics ---------------------------------------------------------


def signed_descent_poly(n: int, negation_weights) -> Poly:
    """sum over the signed permutations w of 1..n of x^{des_B w} times the
    weight of the set of letters that w negates, where negation_weights[j]
    = e_j is the total weight of the j-letter sets (missing entries are 0).

    Counted by descent sets (Stanley, EC1, 1.4), never by enumeration.  The
    w whose descents (those of 0, w_1, ..., w_n) lie in S increase on each
    block b_1, ..., b_k that S cuts, and the first block, which follows 0, is
    positive: by weight there are sum_j e_j C(n-j, b_1) (n-b_1)!/(b_2!...b_k!)
    of them.  Summed over the S with first block b and r further blocks the
    multinomials give r! S(n-b, r), and
        sum_w x^{des_B w} wt(w) = sum_b E_b sum_r r! S(n-b, r) x^r (1-x)^{n-r}
    with E_b = sum_j e_j C(n-j, b).
    """
    if n < 0:
        raise PreconditionError("signed_descent_poly needs n >= 0")
    e = [Fraction(v) for v in negation_weights]
    if len(e) > n + 1:
        raise PreconditionError(f"need at most {n + 1} negation weights")
    coeffs = [Fraction(0)] * (n + 1)
    surjections = [1]  # r! S(m, r) for r = 0..m, here m = 0
    for m in range(n + 1):  # the first block holds b = n - m letters
        first_block = sum(ej * math.comb(n - j, n - m) for j, ej in enumerate(e))
        if first_block:
            for r, count in enumerate(surjections):
                coeffs[r] += first_block * count
        surjections = [0] + [
            r * (surjections[r - 1] + (surjections[r] if r <= m else 0)) for r in range(1, m + 2)
        ]
    return unitize_with_degree(Poly(coeffs), n, sign=-1)


# -- type-B Eulerian analogs ---------------------------------------------------------


def b_euler_multi(n: int, qs) -> Poly:
    """W-transform of prod_i ((1+q_i) x + 1), normalized by n + 1 even where
    a weight q_i = -1 lowers the degree of the product."""
    if n < 0:
        raise PreconditionError("b_euler_multi needs n >= 0")
    qs = [Fraction(v) for v in qs]
    if len(qs) != n:
        raise PreconditionError(f"need exactly {n} weights")
    f = Poly([1])
    for q in qs:
        f = f * Poly([1, 1 + q])
    return unitize_with_degree(e_transform(f), n, sign=-1)


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
    # sum over s in the subset of C(n, s) x^s (1 + x)^(n - s)
    weights = [math.comb(n, s) if s in subset else 0 for s in range(n + 1)]
    return w_transform(unitize_with_degree(Poly._from_ints(weights), n))


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
        return Poly._from_ints([math.comb(m, k) * math.comb(m, k + 1) for k in range(m)], m)
    if family == "B":
        if n < 0:
            raise PreconditionError("family B needs n >= 0")
        return Poly._from_ints([math.comb(n, k) ** 2 for k in range(n + 1)])
    if family == "D":
        if n < 2:
            raise PreconditionError("family D needs n >= 2")
        return weyl_combination(n, 1, -1)
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
    return Poly._from_ints(list(f.nums[offset::step]), f.den)
