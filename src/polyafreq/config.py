"""Run-time configuration: the enumeration guard and the suite run knobs."""

from __future__ import annotations

import dataclasses
import os

from .errors import PreconditionError

#: Environment variable overriding the enumeration guard.
MAX_ENUM_ENV = "POLYAFREQ_MAX_ENUM"


def max_enum() -> int:
    """The largest n of a symmetric-group enumeration (n! cases).

    9 unless the MAX_ENUM_ENV variable, a positive integer, overrides it;
    no code enumerates signed permutations.
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
