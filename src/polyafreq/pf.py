"""Total positivity of Toeplitz windows and Polya frequency verdicts.

The finite PF verdict is exact through real-rootedness; bounded Toeplitz
windows with minor checks corroborate it (total positivity of the infinite
matrix cannot be decided from a window, so the window check is never the
primary verdict).

The window M[i][j] = a_{i-j} of a sequence with a_t = 0 outside
0 <= t <= deg is lower-triangular and banded.  A minor with sorted rows r
and columns c is therefore 0 unless c_i <= r_i <= c_i + deg for every i:
if r_i < c_i, rows r_0..r_i meet columns c_i..c_{k-1} in a zero block, and
if r_i > c_i + deg, rows r_i..r_{k-1} meet columns c_0..c_i in one; either
block spans k + 1 rows and columns, so the minor vanishes (Frobenius-Koenig).
The window is also shift-invariant: moving the rows and columns of a
nonzero minor down by c_0 <= r_0 gives an equal minor that comes no later
in lexicographic order.  So the lexicographically first negative minor has
c_0 = 0, and `minors_nonneg` evaluates only the admissible minors
{c_0 = 0, c_i <= r_i <= c_i + deg}, in the order of an exhaustive check.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

from .errors import PreconditionError
from .polynomial import Poly
from .roots import is_real_rooted

#: Most minors one `minors_nonneg` call evaluates: the admissible minors of
#: every order plus its table of all 2 x 2 minors of the window.
MAX_MINORS = 1_000_000


def _terms_of(s) -> tuple[Fraction, ...]:
    if isinstance(s, Poly):
        return s.coeffs
    return tuple(Fraction(t) for t in s)


@dataclasses.dataclass(frozen=True)
class MinorReport:
    """Verdict of a minor check; a negative verdict carries the
    lexicographically first offending minor."""

    nonnegative: bool
    witness: tuple[tuple[int, ...], tuple[int, ...], Fraction] | None = None


def bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            lead = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - lead * mk[j]) // prev
            mi[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _admissible_count(size: int, deg: int, order: int) -> int:
    """Number of admissible minors of orders 1..order >= 1, for deg < size.

    count[r][c] holds the admissible (rows, cols) of the current order whose
    last row is r and last column c; those of the next order end at an
    admissible (r, c) after any (r', c') with r' < r and c' < c, a sum read
    from the two-dimensional prefix sums of count.
    """
    total = deg + 1
    if order < 2:
        return total
    count = [[int(c == 0 and r <= deg) for c in range(size)] for r in range(size)]
    for _ in range(2, order + 1):
        below = [[0] * (size + 1)]
        for row in count:
            running = 0
            sums = [0]
            for value, above in zip(row, below[-1][1:]):
                running += value
                sums.append(above + running)
            below.append(sums)
        count = [
            [below[r][c] if c <= r <= c + deg else 0 for c in range(size)]
            for r in range(size)
        ]
        total += sum(map(sum, count))
    return total


def _pair(a: int, b: int, n: int) -> int:
    """Index of the pair a < b in itertools.combinations(range(n), 2)."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _row_parts(rows: tuple[int, ...], n: int):
    """The det2 rows the order-k loop of `minors_nonneg` reads for these rows."""
    if len(rows) == 2:
        return _pair(*rows, n)
    if len(rows) == 3:
        return _pair(rows[1], rows[2], n)
    if len(rows) == 4:
        return _pair(rows[0], rows[1], n), _pair(rows[2], rows[3], n)
    return None


def _col_parts(cols: tuple[int, ...], n: int):
    """The det2 columns the order-k loop of `minors_nonneg` reads for these columns."""
    if len(cols) == 2:
        return _pair(*cols, n)
    if len(cols) == 3:
        c0, c1, c2 = cols
        return cols + (_pair(c1, c2, n), _pair(c0, c2, n), _pair(c0, c1, n))
    if len(cols) == 4:
        # Laplace expansion along the first two rows: the (top, bottom) pairs of
        # the six column splits, whose signs are + - + + - +
        c0, c1, c2, c3 = cols
        return (
            _pair(c0, c1, n), _pair(c2, c3, n),
            _pair(c0, c2, n), _pair(c1, c3, n),
            _pair(c0, c3, n), _pair(c1, c2, n),
            _pair(c1, c2, n), _pair(c0, c3, n),
            _pair(c1, c3, n), _pair(c0, c2, n),
            _pair(c2, c3, n), _pair(c0, c1, n),
        )
    return None


@functools.lru_cache(maxsize=128)
def _plan(size: int, deg: int, k: int):
    """The admissible k x k minors of a size x size window of bandwidth deg.

    Returns (columns, parts, entries).  columns lists each admissible column
    set once, and parts its `_col_parts`.  entries holds (rows,
    `_row_parts(rows)`, ids) for the row sets in lexicographic order, where
    ids index the row set's admissible column sets in lexicographic order.
    Every row set with r_0 <= deg has one, and the column sets are generated
    column by column, c_i running from max(c_{i-1} + 1, r_i - deg) to r_i,
    so the cost grows with the plan and not with C(size - 1, k - 1).
    """
    index: dict[tuple[int, ...], int] = {}
    entries = []
    for rows in itertools.combinations(range(size), k):
        if rows[0] > deg:
            break
        partial = [(0,)]
        for r in rows[1:]:
            partial = [
                cols + (c,)
                for cols in partial
                for c in range(max(cols[-1] + 1, r - deg), r + 1)
            ]
        ids = tuple(index.setdefault(cols, len(index)) for cols in partial)
        entries.append((rows, _row_parts(rows, size), ids))
    return list(index), [_col_parts(cols, size) for cols in index], entries


def minors_nonneg(terms, size: int, order: int) -> MinorReport:
    """Check the k x k minors, k <= order, of the size x size Toeplitz window
    M[i][j] = a_{i-j} of a sequence (a `Poly` or an iterable of rationals,
    zero-padded) for nonnegativity.

    Only the admissible minors {c_0 = 0, c_i <= r_i <= c_i + deg} are
    evaluated: by the band and shift argument of the module docstring every
    other minor is 0 or equals an admissible one that comes earlier.  They
    are enumerated lexicographically in (k, rows, cols) from compiled plans
    (`_plan`, cached per (size, deg, k)), so the first negative one found is
    the lexicographically first negative minor of the whole window.
    Denominators are cleared first (a positive scaling, so minor signs are
    unchanged); 2 x 2 minors come from one table, orders 3 and 4 from
    Laplace expansions over it and higher orders from Bareiss elimination.
    More than MAX_MINORS evaluations raise PreconditionError before any.
    """
    if order > size:
        raise PreconditionError("minor order exceeds matrix dimension")
    a = _terms_of(terms)[:size]
    support = [t for t, x in enumerate(a) if x != 0]
    if not support or order < 1:
        return MinorReport(nonnegative=True)
    deg = support[-1]
    table = math.comb(size, 2) ** 2 if order >= 2 else 0
    if table > MAX_MINORS or table + _admissible_count(size, deg, order) > MAX_MINORS:
        raise PreconditionError(
            f"minors up to order {order} of a window of size {size} and bandwidth {deg} "
            f"need more than {MAX_MINORS} evaluations"
        )
    lcm = math.lcm(*(x.denominator for x in a))
    a = [int(x * lcm) for x in a[: deg + 1]]

    def report(rows, cols, det_int, k):
        value = Fraction(det_int, lcm ** k)
        return MinorReport(nonnegative=False, witness=(tuple(rows), tuple(cols), value))

    for i, x in enumerate(a):
        if x < 0:
            return report((i,), (0,), x, 1)
    if order < 2:
        return MinorReport(nonnegative=True)

    m = [[a[i - j] if 0 <= i - j <= deg else 0 for j in range(size)] for i in range(size)]
    pairs = list(itertools.combinations(range(size), 2))
    det2 = [
        [m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0] for c0, c1 in pairs]
        for r0, r1 in pairs
    ]

    columns, parts, entries = _plan(size, deg, 2)
    for rows, ri, ids in entries:
        row = det2[ri]
        for ci in ids:
            d = row[parts[ci]]
            if d < 0:
                return report(rows, columns[ci], d, 2)

    # k = 3: expansion along the first row of each minor
    if order >= 3:
        columns, parts, entries = _plan(size, deg, 3)
        for rows, bi, ids in entries:
            top = m[rows[0]]
            bottom = det2[bi]
            for ci in ids:
                c0, c1, c2, p12, p02, p01 = parts[ci]
                d = top[c0] * bottom[p12] - top[c1] * bottom[p02] + top[c2] * bottom[p01]
                if d < 0:
                    return report(rows, columns[ci], d, 3)

    # k = 4: Laplace along the first two rows, six products of cached 2x2s
    if order >= 4:
        columns, parts, entries = _plan(size, deg, 4)
        for rows, (ti, bi), ids in entries:
            top = det2[ti]
            bottom = det2[bi]
            for ci in ids:
                t0, b0, t1, b1, t2, b2, t3, b3, t4, b4, t5, b5 = parts[ci]
                d = (
                    top[t0] * bottom[b0] - top[t1] * bottom[b1] + top[t2] * bottom[b2]
                    + top[t3] * bottom[b3] - top[t4] * bottom[b4] + top[t5] * bottom[b5]
                )
                if d < 0:
                    return report(rows, columns[ci], d, 4)

    # k >= 5: generic fraction-free elimination
    for k in range(5, order + 1):
        columns, _, entries = _plan(size, deg, k)
        for rows, _, ids in entries:
            for ci in ids:
                cols = columns[ci]
                d = bareiss_determinant([[m[i][j] for j in cols] for i in rows])
                if d < 0:
                    return report(rows, cols, d, k)

    return MinorReport(nonnegative=True)


def pf_window_report(f, size: int | None = None, order: int = 4) -> MinorReport:
    """Minor check of the Toeplitz window of a coefficient sequence.

    Default window size is deg + 3 and default minor order 4.
    """
    terms = _terms_of(f)
    if size is None:
        size = len(terms) + 2
    return minors_nonneg(terms, size, min(order, size))


# -- sequence-level verdicts --------------------------------------------------------


def is_pf_finite(f: Poly) -> bool:
    """Exact finite-PF verdict: nonnegative coefficients and a generating
    polynomial with only real nonpositive roots.  The zero sequence is PF."""
    if f.is_zero:
        return True
    if any(c < 0 for c in f.coeffs):
        return False
    # nonnegative coefficients leave no positive root
    return is_real_rooted(f)


def is_log_concave(s) -> bool:
    terms = _terms_of(s)
    return all(
        terms[i] * terms[i] >= terms[i - 1] * terms[i + 1]
        for i in range(1, len(terms) - 1)
    )


def is_unimodal(s) -> bool:
    terms = _terms_of(s)
    i = 0
    while i + 1 < len(terms) and terms[i] <= terms[i + 1]:
        i += 1
    while i + 1 < len(terms) and terms[i] >= terms[i + 1]:
        i += 1
    return i == len(terms) - 1

