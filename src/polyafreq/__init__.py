"""Exact arithmetic for real-rooted polynomials and Polya frequency checks."""

from .polynomial import NEG_INF, POS_INF, Poly, ZERO, ONE, X, monomial
from .roots import (
    InterlaceRelation,
    interlace_relation,
    is_real_rooted,
    is_simple_rooted,
    root_dominance,
    roots_within,
)
from .transforms import MultiplierSeq, e_inverse, e_transform, reflect, w_transform
from .operators import BivarOp, apply_phi

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Poly",
    "ZERO",
    "ONE",
    "X",
    "monomial",
    "InterlaceRelation",
    "interlace_relation",
    "is_real_rooted",
    "is_simple_rooted",
    "root_dominance",
    "roots_within",
    "MultiplierSeq",
    "e_inverse",
    "e_transform",
    "reflect",
    "w_transform",
    "BivarOp",
    "apply_phi",
]
