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
Each is expanded along its first row,
det = sum_j (-1)^j a_{r_0 - c_j} D(R - r_0, C - c_j), and every sub-minor,
shifted down to first column 0, is admissible or 0, so one table of the
admissible values of order k - 1 gives every value of order k.

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
So `minors_nonneg` first bounds the rows of the window (MAX_ROWS), then
runs the elimination, and only for a window it refuses counts the
admissible minors (MAX_MINORS) and scans them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

from .errors import PreconditionError
from .polynomial import Poly
from .roots import is_real_rooted

#: Most rows the window of the trimmed terms may have at order 2 or more.
#: It bounds Neville elimination, O(rows^3) steps, before any count is
#: taken.  C(45, 2)^2 <= MAX_MINORS < C(46, 2)^2: no larger window has at
#: most MAX_MINORS 2 x 2 minors.
MAX_ROWS = 45

#: Most minors one `minors_nonneg` call scans: the admissible minors of
#: every order up to the one asked for, which `_admissible_count` counts
#: exactly.
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


def _admissible_minors(size: int, deg: int, k: int):
    """The admissible k x k minors {c_0 = 0, c_i <= r_i <= c_i + deg}, k >= 2,
    of a size x size window, as (rows, column sets) per row set, both in
    lexicographic order.  Each column c_i runs from max(c_{i-1} + 1, r_i - deg)
    to r_i, a range that is never empty."""
    for rows in itertools.combinations(range(size), k):
        if rows[0] > deg:
            return
        columns = [(0,)]
        for r in rows[1:]:
            columns = [
                cols + (c,) for cols in columns for c in range(max(cols[-1] + 1, r - deg), r + 1)
            ]
        yield rows, columns


def _first_negative_minor(a: list[int], size: int, deg: int, order: int):
    """The lexicographically first negative minor of order at most order of
    the size x size window of the integer terms a = a_0..a_deg, as (rows,
    cols, value, k), or None: the minor scan of `minors_nonneg`.

    Each admissible minor is expanded along its first row over the values
    of order k - 1, keyed by (rows, cols); a sub-minor shifted down to first
    column 0 that is not admissible is 0 (module docstring)."""
    for i, x in enumerate(a):
        if x < 0:
            return (i,), (0,), x, 1
    values = {((r,), (0,)): x for r, x in enumerate(a)}
    for k in range(2, order + 1):
        get = values.get
        values = {}
        keep = k < order
        for rows, columns in _admissible_minors(size, deg, k):
            r0, below = rows[0], rows[1:]
            for cols in columns:
                c1 = cols[1]
                d = a[r0] * get((tuple(r - c1 for r in below), tuple(c - c1 for c in cols[1:])), 0)
                for j in range(1, k):
                    c = cols[j]
                    if c > r0:
                        break
                    term = a[r0 - c] * get((below, cols[:j] + cols[j + 1 :]), 0)
                    d += -term if j % 2 else term
                if d < 0:
                    return rows, cols, d, k
                if keep:
                    values[rows, cols] = d
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
    shift keeps lexicographic order.  No minor of an order above size - lo
    is evaluated.  Denominators are cleared first (a positive scaling, so
    minor signs are unchanged).

    The guards and the two routes run in this order:
    - from order 2 on, a trimmed window of more than MAX_ROWS rows raises
      PreconditionError, before anything of its size is built;
    - from order 2 on, Neville elimination (`_neville_tn`) runs.  When it
      accepts, the window is a product of nonnegative bidiagonal factors
      and a positive diagonal, so it is totally nonnegative at every order
      (module docstring) and no minor is evaluated.  A PF sequence is
      always accepted: its trimmed window is totally nonnegative and
      nonsingular (Gasca and Pena);
    - more than MAX_MINORS admissible minors of the trimmed window raise
      PreconditionError before any minor is evaluated;
    - the minors are scanned (`_first_negative_minor`), the only source of
      witnesses.  Only the admissible minors {c_0 = 0, c_i <= r_i <= c_i +
      deg - lo} are evaluated, each by one expansion along its first row
      (module docstring), lexicographically in (k, rows, cols), so the first
      negative one found is the lexicographically first negative minor of
      the whole window.
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
    if order >= 2 and n > MAX_ROWS:
        raise PreconditionError(
            f"a window of size {size} has more than {MAX_ROWS} rows from its first "
            f"nonzero term on, at minor order {order}"
        )
    lcm = math.lcm(*(x.denominator for x in a))
    a = [int(x * lcm) for x in a[lo : deg + 1]]
    if order >= 2 and _neville_tn(a, n):
        return MinorReport(size, order)
    if _admissible_count(n, band, order) > MAX_MINORS:
        raise PreconditionError(
            f"a window of size {size} and bandwidth {deg} has more than {MAX_MINORS} "
            f"admissible minors of order up to {order}"
        )
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

