"""Run-time configuration: the enumeration guard and the suite run knobs."""

from __future__ import annotations

import dataclasses
import os

from .errors import PreconditionError

#: Environment variable overriding the enumeration guard.
MAX_ENUM_ENV = "POLYAFREQ_MAX_ENUM"


def max_enum() -> int:
    """The largest n of S_n that an enumeration oracle may count over.

    9 unless the MAX_ENUM_ENV variable, a positive integer, overrides it.
    Only `q_eulerian_oracle` lists the n! permutations; `eulerian_oracle`
    and `t_stack_poly` walk prefixes, whose memoized states grow more slowly
    but still steeply with n and t (single runs at a guard of 14:
    `eulerian_oracle(13)` 0.16 s, `t_stack_poly(13, 2)` 3.1 s,
    `t_stack_poly(12, 11)` 16.5 s, `t_stack_poly(13, 12)` 133 s).  No code
    enumerates signed permutations.
    """
    raw = os.environ.get(MAX_ENUM_ENV)
    if raw is None:
        return 9
    try:
        bound = int(raw)
    except ValueError:
        bound = 0
    if bound < 1:
        raise PreconditionError(f"{MAX_ENUM_ENV} must be a positive integer, got {raw!r}")
    return bound


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Common knobs for verification suite runs."""

    max_n: int | None = None
    seed: int = 0
    jobs: int = 1
