"""Retired routes of `polyafreq.operators` condition (i), kept as oracles.

The z-discriminant route: at z-degree 2 the slice
F(xi, z) = Q_2 z^2 + Q_1 z + Q_0 is real-rooted (or of degree at most 1) at
every real xi exactly when Q_1^2 - 4 Q_0 Q_2 >= 0 on the reals, so one
`negative_witness` call on the discriminant decides it.  `polyafreq.operators`
decides every z-degree from the first subresultant of F and dF/dz that is
not identically zero, and reads it through Bareiss elimination over Q[xi];
`subresultant_block` builds the same block from one integer slice, for
`minor_oracle.bareiss_determinant`.
"""

from __future__ import annotations

from polyafreq.roots import negative_witness


def quadratic_condition_one(F):
    """(holds, witnesses) of condition (i) for a symbol of z-degree 2."""
    assert F.degree_z == 2
    disc = F.q(1) * F.q(1) - F.q(0) * F.q(2) * 4
    xi = None if disc.is_zero else negative_witness(disc)
    if xi is None:
        return True, []
    return False, [("negative z-discriminant at xi", xi)]


def subresultant_block(coeffs: list[int], j: int) -> list[list[int]]:
    """The integer block of sRes_j(s, s') for s = sum coeffs[k] z^k of formal
    degree d = len(coeffs) - 1: rows s z^(d-2-j), ..., s, then
    s' z^(d-1-j), ..., s', columns z^(2d-2-j) down to z^j."""
    d = len(coeffs) - 1
    deriv = [k * coeffs[k] for k in range(1, d + 1)]
    top = 2 * d - 2 - j
    rows = []
    for poly, shifts in ((coeffs, d - 1 - j), (deriv, d - j)):
        for shift in range(shifts - 1, -1, -1):
            rows.append([
                poly[power - shift] if 0 <= power - shift < len(poly) else 0
                for power in range(top, j - 1, -1)
            ])
    return rows
