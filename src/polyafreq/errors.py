"""Exception types shared across the package."""


class PolyafreqError(Exception):
    """Base class for all package errors."""


class ZeroPolynomialError(PolyafreqError, ValueError):
    """An operation that needs a nonzero polynomial received the zero polynomial."""


class ExactDivisionError(PolyafreqError, ArithmeticError):
    """Exact polynomial division was requested but the divisor does not divide."""


class NotRealRootedError(PolyafreqError, ValueError):
    """A real-rooted polynomial was required."""


class PreconditionError(PolyafreqError, ValueError):
    """An operation precondition (degree, range, sign, ...) was violated."""
