"""Run-time configuration dataclasses."""

from __future__ import annotations

import dataclasses
import os

from .errors import PreconditionError

#: Environment variable overriding both enumeration guards at once.
MAX_ENUM_ENV = "POLYAFREQ_MAX_ENUM"


@dataclasses.dataclass(frozen=True)
class EnumGuards:
    """Size limits for brute-force enumeration oracles.

    sn_max bounds symmetric-group enumerations (n! cases), bn_max signed
    ones (2^n n! cases).  The MAX_ENUM_ENV variable, a positive integer,
    overrides both.
    """

    sn_max: int = 9
    bn_max: int = 8

    @classmethod
    def from_env(cls) -> "EnumGuards":
        raw = os.environ.get(MAX_ENUM_ENV)
        if raw is None:
            return cls()
        try:
            bound = int(raw)
        except ValueError:
            bound = 0
        if bound < 1:
            raise PreconditionError(f"{MAX_ENUM_ENV} must be a positive integer, got {raw!r}")
        return cls(sn_max=bound, bn_max=bound)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Common knobs for verification suite runs."""

    max_n: int | None = None
    seed: int = 0
    jobs: int = 1
