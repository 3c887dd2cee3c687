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
The same holds at the lower edge of the support: when a_t = 0 for t < lo,
a minor with r_i < c_i + lo for some i has the zero block of rows
r_0..r_i against columns c_i..c_{k-1}.  Every other minor has r_0 >= lo
and columns below size - lo, and its entries are those of the window of
a_lo, a_{lo+1}, ... (the sequence of f / x^lo) on rows r - lo.  So the
size x size window of a sequence with lo leading zeros has the negative
minors of the (size - lo) x (size - lo) window of its trimmed terms, with
lo added to every row, and that map keeps lexicographic order.
The window is also shift-invariant: moving the rows and columns of a
nonzero minor down by c_0 <= r_0 gives an equal minor that comes no later
in lexicographic order.  So the lexicographically first negative minor has
c_0 = 0, and `minors_nonneg` evaluates only the admissible minors
{c_0 = 0, c_i <= r_i <= c_i + deg}, in the order of an exhaustive check.

The window is persymmetric as well, M = J M^T J with J the reversal
(Karlin, Total Positivity, 1968).  The twin of an admissible minor (R, C)
with t = max R has rows t - c for c in reversed C and columns t - r for r
in reversed R: its entries are those of (R, C) transposed and reversed, so
it has the same value, and the band conditions carry over, so it is
admissible, with the same t and the minor itself as its twin.  Of a pair
of twins only the one that comes first in lexicographic order is
evaluated: were the other the first negative minor, its earlier twin would
be a negative minor before it.

Most windows are totally nonnegative, and for those no minor need be
evaluated.  Neville elimination clears each column from the bottom up,
replacing row i by row_i - (q / p) row_{i-1}, with q its entry in the
column and p the entry above it.  Each such step factors the window as
A = (I + (q / p) E_{i,i-1}) A'; a step with q = 0 is skipped, and scaling
a row by a positive number, as the fraction-free form does, only adds a
positive diagonal factor.  When every q / p is nonnegative the factors are
nonnegative bidiagonal matrices, and what is left of a lower-triangular
window is its diagonal.  Such a product with a positive diagonal is
totally nonnegative (Whitney, J. Analyse Math. 2, 1952; Cauchy-Binet), so
an elimination that runs through with q >= 0, p > 0 and a positive
diagonal proves that the window has no negative minor at any order.
Conversely a nonsingular totally nonnegative matrix always runs through so
(Gasca and Pena, Linear Algebra Appl. 165, 1992).  The window of the
trimmed terms is nonsingular, since its diagonal is a_lo != 0, so it is
accepted exactly when it is totally nonnegative, as that of a PF sequence
is, and only windows with a negative minor are left to the minor scan.
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

#: Most minors one `minors_nonneg` call accepts, counted as the admissible
#: minors of every order, twins included, plus its table of all 2 x 2 minors
#: of the window of the trimmed terms, of which about half of the admissible
#: minors are evaluated.  It also bounds that window to 45 rows, and so the
#: cost of its Neville elimination.
MAX_MINORS = 1_000_000


def _terms_of(s) -> tuple[Fraction, ...]:
    if isinstance(s, Poly):
        return s.coeffs
    return tuple(Fraction(t) for t in s)


@dataclasses.dataclass(frozen=True)
class MinorReport:
    """A minor check of a window of this size up to this order, with the
    lexicographically first negative minor or None."""

    window: int
    order: int
    witness: tuple[tuple[int, ...], tuple[int, ...], Fraction] | None = None

    @property
    def nonnegative(self) -> bool:
        return self.witness is None


@functools.lru_cache(maxsize=128)
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


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _pair(a: int, b: int, n: int) -> int:
    """Index of the pair a < b in itertools.combinations(range(n), 2)."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _row_parts(rows: tuple[int, ...], n: int):
    """What the order-k loop of `minors_nonneg` reads for these rows: det2 rows
    for k <= 4, and the first row and the key of the others for k >= 5."""
    if len(rows) == 2:
        return _pair(*rows, n)
    if len(rows) == 3:
        return _pair(rows[1], rows[2], n)
    if len(rows) == 4:
        return _pair(rows[0], rows[1], n), _pair(rows[2], rows[3], n)
    return rows[0], _mask(rows[1:]) << n


def _col_parts(cols: tuple[int, ...], n: int):
    """What the order-k loop of `minors_nonneg` reads for these columns: det2
    columns for k <= 4, and for k >= 5 one (c_j, shift, mask, sign) per term
    of the expansion along the first row.  shift moves the sub-minor down to
    first column 0 (c_1 for j = 0, else 0), and mask is that of C minus c_j
    so shifted."""
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
    mask = _mask(cols)
    shifts = (cols[1],) + (0,) * (len(cols) - 1)
    return tuple(
        (c, s, (mask ^ 1 << c) >> s, -1 if j % 2 else 1)
        for j, (c, s) in enumerate(zip(cols, shifts))
    )


@functools.lru_cache(maxsize=128)
def _plan(size: int, deg: int, k: int):
    """The admissible k x k minors of a size x size window of bandwidth deg
    that come no later than their twins.

    Returns (columns, parts, keys, entries).  columns lists each planned
    column set once and parts its `_col_parts`.  entries holds (rows,
    `_row_parts(rows)`, row keys, ids) for the row sets in lexicographic
    order, where ids index the row set's planned column sets in
    lexicographic order.  For k >= 4 a minor (R, C) is keyed
    mask(R) << size | mask(C) and its twin mask(t - c) << size | mask(t - r),
    t = max R; keys holds (mask(C), mask(size - 1 - c) << size) per column
    set and the row keys are (mask(R) << size, size - 1 - t, mask(t - r)),
    so that the twin's key is one shift and two ors away.  Row sets are
    extended one row at a time, each column c_i running from
    max(c_{i-1} + 1, r_i - deg) to at most r_i, so the cost grows with the
    plan and not with C(size - 1, k - 1).
    """
    index: dict[tuple[int, ...], int] = {}
    entries = []

    def extend(rows, partial):
        """Plan the row sets that start with rows, whose column sets so far
        are partial, in lexicographic order."""
        i = len(rows)
        if i == k:
            # the twin's rows t - c_{k-1}, t - c_{k-2}, ... come no earlier
            # than rows exactly when C reversed is at most mirror; when they
            # equal rows the minor is its own twin
            t = rows[-1]
            mirror = tuple(t - r for r in rows)
            ids = tuple(
                index.setdefault(cols, len(index)) for cols in partial if cols[::-1] <= mirror
            )
            if ids:
                keys = (_mask(rows) << size, size - 1 - t, _mask(mirror)) if k >= 4 else None
                entries.append((rows, _row_parts(rows, size), keys, ids))
            return
        for r in range(rows[-1] + 1, size - k + i + 1):
            # a planned minor has c_{k-1} <= t - r_0 (the twin test above), so
            # c_i <= t - r_0 - (k - 1 - i), with t = r on the last row and
            # t <= size - 1 before it
            cap = min(r, (r if i == k - 1 else size - 1) - rows[0] - (k - 1 - i))
            grown = [
                cols + (c,)
                for cols in partial
                for c in range(max(cols[-1] + 1, r - deg), cap + 1)
            ]
            if grown:
                extend(rows + (r,), grown)

    for r0 in range(min(deg, size - k) + 1):
        extend((r0,), [(0,)])
    columns = list(index)
    keys = [
        (_mask(cols), _mask(size - 1 - c for c in cols) << size) for cols in columns
    ] if k >= 4 else None
    return columns, [_col_parts(cols, size) for cols in columns], keys, entries


def _neville_tn(a: list[int], m: int) -> bool:
    """True only if the m x m window of the integer terms a is totally
    nonnegative, by Neville elimination (see the module docstring).

    Column by column, each row from the bottom up is replaced by
    p row_i - q row_{i-1}, with q its entry in the column and p the entry
    above it, and divided by its content; the elimination gives up at the
    first q < 0, or p <= 0 under a q != 0, and on a diagonal pivot a_0 <= 0.
    Rows keep their entries of columns j..i only: the window stays lower
    triangular, and every column left of j is already cleared below row j.
    """
    if not a or a[0] <= 0:
        return False
    n = len(a)
    rows = [[a[i - j] if i - j < n else 0 for j in range(i + 1)] for i in range(m)]
    for j in range(m - 1):
        for i in range(m - 1, j, -1):
            row = rows[i]
            q = row[j]
            if q == 0:
                continue
            above = rows[i - 1]
            p = above[j]
            if p <= 0 or q < 0:
                return False
            new = [0] * (j + 1)
            new += (p * x - q * y for x, y in zip(row[j + 1 : i], above[j + 1 :]))
            new.append(p * row[i])
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new
    return True


def _first_negative_minor(a: list[int], size: int, deg: int, order: int):
    """The lexicographically first negative minor of order at most order of
    the size x size window of the integer terms a = a_0..a_deg, as (rows,
    cols, value, k), or None: the minor scan of `minors_nonneg`."""
    for i, x in enumerate(a):
        if x < 0:
            return (i,), (0,), x, 1
    if order < 2:
        return None

    m = [[a[i - j] if 0 <= i - j <= deg else 0 for j in range(size)] for i in range(size)]
    pairs = list(itertools.combinations(range(size), 2))
    det2 = [
        [m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0] for c0, c1 in pairs]
        for r0, r1 in pairs
    ]

    columns, parts, _, entries = _plan(size, deg, 2)
    for rows, ri, _, ids in entries:
        row = det2[ri]
        for ci in ids:
            d = row[parts[ci]]
            if d < 0:
                return rows, columns[ci], d, 2

    # k = 3: expansion along the first row of each minor
    if order >= 3:
        columns, parts, _, entries = _plan(size, deg, 3)
        for rows, bi, _, ids in entries:
            top = m[rows[0]]
            bottom = det2[bi]
            for ci in ids:
                c0, c1, c2, p12, p02, p01 = parts[ci]
                d = top[c0] * bottom[p12] - top[c1] * bottom[p02] + top[c2] * bottom[p01]
                if d < 0:
                    return rows, columns[ci], d, 3

    # k = 4: Laplace along the first two rows, six products of cached 2x2s;
    # the values are kept, keyed as in `_plan`, when order 5 reads them
    values: dict[int, int] = {}
    if order >= 4:
        keep = order >= 5
        columns, parts, keys, entries = _plan(size, deg, 4)
        for rows, (ti, bi), (row_key, shift, twin_cols), ids in entries:
            top = det2[ti]
            bottom = det2[bi]
            for ci in ids:
                t0, b0, t1, b1, t2, b2, t3, b3, t4, b4, t5, b5 = parts[ci]
                d = (
                    top[t0] * bottom[b0] - top[t1] * bottom[b1] + top[t2] * bottom[b2]
                    + top[t3] * bottom[b3] - top[t4] * bottom[b4] + top[t5] * bottom[b5]
                )
                if d < 0:
                    return rows, columns[ci], d, 4
                if keep:
                    col_key, twin_rows = keys[ci]
                    values[row_key | col_key] = values[twin_rows >> shift | twin_cols] = d

    # k >= 5: expansion along the first row over the order k - 1 values
    for k in range(5, order + 1):
        get = values.get
        values = {}
        keep = k < order
        columns, parts, keys, entries = _plan(size, deg, k)
        for rows, (r0, sub_key), (row_key, shift, twin_cols), ids in entries:
            top = m[r0]
            for ci in ids:
                d = 0
                for c, s, col_key, sign in parts[ci]:
                    if c > r0:
                        break
                    d += sign * top[c] * get(sub_key >> s | col_key, 0)
                if d < 0:
                    return rows, columns[ci], d, k
                if keep:
                    col_key, twin_rows = keys[ci]
                    values[row_key | col_key] = values[twin_rows >> shift | twin_cols] = d

    return None


def minors_nonneg(terms, size: int | None = None, order: int | None = None) -> MinorReport:
    """Check the k x k minors, k <= order, of the size x size Toeplitz window
    M[i][j] = a_{i-j} of a sequence (a `Poly` or an iterable of rationals,
    zero-padded) for nonnegativity.  The window defaults to deg + 3, with
    deg the index of the last nonzero term (2 for the zero sequence), and
    the order to min(4, size); an order above the window raises
    PreconditionError.

    With lo the first index of the support, only the window of the trimmed
    terms a_lo..a_deg is checked, of size size - lo and bandwidth deg - lo,
    and lo is added to the rows of its witness: by the lower-band argument
    of the module docstring the other minors of the window vanish, and the
    shift keeps lexicographic order.  An order above size - lo plans no
    minor.  More than MAX_MINORS admissible minors and 2 x 2 table entries
    of that window raise PreconditionError before any minor is evaluated.
    Denominators are cleared first (a positive scaling, so minor signs are
    unchanged).

    From order 2 on, Neville elimination (`_neville_tn`) runs first.  When
    it accepts, the window is a product of nonnegative bidiagonal factors
    and a positive diagonal, so it is totally nonnegative at every order
    (module docstring) and no minor is evaluated.  A PF sequence is always
    accepted: its trimmed window is totally nonnegative and nonsingular
    (Gasca and Pena).  The guard's bound on the window also bounds the
    elimination, O((size - lo)^3) steps.

    Otherwise the minors are scanned (`_first_negative_minor`), the only
    source of witnesses.  Only the admissible minors
    {c_0 = 0, c_i <= r_i <= c_i + deg - lo} that come
    no later than their persymmetric twins are evaluated: by the band, shift
    and twin arguments of the module docstring every other minor is 0 or
    equals one of them that comes earlier.  They are enumerated
    lexicographically in (k, rows, cols) from compiled plans (`_plan`,
    cached per (size, deg, k)), so the first negative one found is the
    lexicographically first negative minor of the whole window.
    2 x 2 minors come from one table, orders 3 and 4 from
    Laplace expansions over it.  An order k >= 5 minor is expanded along its
    first row, det = sum_j (-1)^j a_{r_0 - c_j} D(R - r_0, C - c_j): each
    sub-minor, shifted down to first column 0, is admissible or 0, and its
    value is read from a table of the order k - 1 values, keyed by row and
    column bitmasks, that the order k - 1 loop fills under each minor's key
    and its twin's.
    """
    a = _terms_of(terms)
    if size is None:
        size = max((t for t, x in enumerate(a) if x != 0), default=-1) + 3
    if order is None:
        order = min(4, size)
    if order > size:
        raise PreconditionError("minor order exceeds matrix dimension")
    a = a[:size]
    support = [t for t, x in enumerate(a) if x != 0]
    if not support or order < 1:
        return MinorReport(size, order)
    # the window of the trimmed terms; lo goes back onto the witness rows
    lo, deg = support[0], support[-1]
    n, band = size - lo, deg - lo
    table = math.comb(n, 2) ** 2 if order >= 2 else 0
    if table > MAX_MINORS or table + _admissible_count(n, band, order) > MAX_MINORS:
        raise PreconditionError(
            f"a window of size {size} and bandwidth {deg} has more than {MAX_MINORS} "
            f"admissible minors of order up to {order} and 2 x 2 table entries"
        )
    lcm = math.lcm(*(x.denominator for x in a))
    a = [int(x * lcm) for x in a[lo : deg + 1]]
    if order >= 2 and _neville_tn(a, n):
        return MinorReport(size, order)
    found = _first_negative_minor(a, n, band, order)
    if found is None:
        return MinorReport(size, order)
    rows, cols, d, k = found
    return MinorReport(size, order, (tuple(r + lo for r in rows), cols, Fraction(d, lcm ** k)))


# -- sequence-level verdicts --------------------------------------------------------


def is_pf_finite(f: Poly) -> bool:
    """Exact finite-PF verdict: nonnegative coefficients and a generating
    polynomial with only real nonpositive roots.  The zero sequence is PF."""
    if f.is_zero:
        return True
    if any(c < 0 for c in f.nums):
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

