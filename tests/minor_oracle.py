"""Exhaustive minor check of an arbitrary matrix: the oracle of `pf.minors_nonneg`.

This is the route `pf.minors_nonneg` took before it evaluated only the
admissible minors of a Toeplitz window.  It checks every k x k minor of the
matrix, k <= order, in lexicographic order of (k, rows, cols), so its
verdict and witness are what the pruned route must reproduce.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from polyafreq.errors import PreconditionError
from polyafreq.pf import MinorReport
from polyafreq.polynomial import Poly

Matrix = list[list[Fraction]]


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


# index layout of the six 2+2 column splits in a Laplace expansion along the
# first two rows of a 4x4 minor: (top pair, bottom pair); their signs,
# + - + + - +, are written out in the order-4 loop of `exhaustive_minors`
_SPLITS4 = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
    ((1, 2), (0, 3)),
    ((1, 3), (0, 2)),
    ((2, 3), (0, 1)),
)


def toeplitz_window(s, size: int) -> Matrix:
    """size x size matrix M[i][j] = a_{i-j} with zero padding."""
    terms = s.coeffs if isinstance(s, Poly) else tuple(Fraction(t) for t in s)
    zero = Fraction(0)

    def entry(i, j):
        k = i - j
        return terms[k] if 0 <= k < len(terms) else zero

    return [[entry(i, j) for j in range(size)] for i in range(size)]


def exhaustive_minors(matrix: Matrix, order: int) -> MinorReport:
    """Exhaustively check every k x k minor, k <= order, for nonnegativity.

    Denominators are cleared first (a positive scaling, so minor signs are
    unchanged); small minors go through cached Laplace expansions and
    orders above four fall back to Bareiss elimination.  Enumeration is
    lexicographic in (k, rows, cols) and stops at the first negative minor.
    """
    n = len(matrix)
    if order > n:
        raise PreconditionError("minor order exceeds matrix dimension")
    lcm = 1
    for row in matrix:
        for a in row:
            lcm = math.lcm(lcm, Fraction(a).denominator)
    m = [[int(Fraction(a) * lcm) for a in row] for row in matrix]

    def report(rows, cols, det_int, k):
        value = Fraction(det_int, lcm ** k)
        return MinorReport(n, order, (tuple(rows), tuple(cols), value))

    # k = 1
    if order >= 1:
        for i in range(n):
            for j in range(n):
                if m[i][j] < 0:
                    return report((i,), (j,), m[i][j], 1)

    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: t for t, p in enumerate(pairs)}

    # k = 2, recording the table reused by the higher orders
    det2: list[list[int]] = []
    if order >= 2:
        for r0, r1 in pairs:
            mr0, mr1 = m[r0], m[r1]
            det2.append([mr0[c0] * mr1[c1] - mr0[c1] * mr1[c0] for c0, c1 in pairs])
        for ri, (r0, r1) in enumerate(pairs):
            row = det2[ri]
            for ci, (c0, c1) in enumerate(pairs):
                if row[ci] < 0:
                    return report((r0, r1), (c0, c1), row[ci], 2)

    # k = 3: expansion along the first row of each minor
    if order >= 3:
        triples = list(itertools.combinations(range(n), 3))
        col_parts = [
            (
                pair_index[(c1, c2)],
                pair_index[(c0, c2)],
                pair_index[(c0, c1)],
            )
            for c0, c1, c2 in triples
        ]
        for r0, r1, r2 in triples:
            top = m[r0]
            bottom = det2[pair_index[(r1, r2)]]
            for ci, (c0, c1, c2) in enumerate(triples):
                p12, p02, p01 = col_parts[ci]
                d = top[c0] * bottom[p12] - top[c1] * bottom[p02] + top[c2] * bottom[p01]
                if d < 0:
                    return report((r0, r1, r2), (c0, c1, c2), d, 3)

    # k = 4: Laplace along the first two rows, six products of cached 2x2s
    if order >= 4:
        quads = list(itertools.combinations(range(n), 4))
        col_splits = [
            tuple(
                pair_index[(quad[i], quad[j])]
                for split in _SPLITS4
                for i, j in split
            )
            for quad in quads
        ]
        for quad_r in quads:
            r0, r1, r2, r3 = quad_r
            top = det2[pair_index[(r0, r1)]]
            bottom = det2[pair_index[(r2, r3)]]
            for quad_c, (t0, b0, t1, b1, t2, b2, t3, b3, t4, b4, t5, b5) in zip(quads, col_splits):
                d = (
                    top[t0] * bottom[b0] - top[t1] * bottom[b1] + top[t2] * bottom[b2]
                    + top[t3] * bottom[b3] - top[t4] * bottom[b4] + top[t5] * bottom[b5]
                )
                if d < 0:
                    return report(quad_r, quad_c, d, 4)

    # k >= 5: generic fraction-free elimination
    for k in range(5, order + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                d = bareiss_determinant([[m[i][j] for j in cols] for i in rows])
                if d < 0:
                    return report(rows, cols, d, k)

    return MinorReport(n, order)
