"""Exception hierarchy.

Everything raised on purpose by this package derives from TailboundError so
callers can catch one type. The CLI maps subclasses to exit codes.
"""

__all__ = [
    "ConfigError", "DegenerateDistributionError", "DomainError",
    "InfeasibleMomentsError", "InternalConsistencyError", "OracleError",
    "OrderError", "PreconditionError", "SolverFailureError", "TailboundError",
]


class TailboundError(Exception):
    """Base class for all tailbound errors."""


class DomainError(TailboundError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class OrderError(DomainError):
    """A computation needs moments of higher order than are available."""


class InfeasibleMomentsError(DomainError):
    """A moment sequence violates a feasibility inequality.

    No probability distribution on the stated support has these moments, so
    any bound computed from them would be meaningless.
    """


class DegenerateDistributionError(DomainError):
    """A required moment is zero (point mass at the origin, etc.)."""


class PreconditionError(DomainError):
    """Inputs violate a hypothesis that the bound formula needs."""


class ConfigError(TailboundError, ValueError):
    """Bad CLI flags, config file entries, or distribution tags."""


class SolverFailureError(TailboundError, RuntimeError):
    """The root finder could not bracket or refine a solution."""


class InternalConsistencyError(TailboundError, RuntimeError):
    """Two code paths that must agree did not; indicates a numerical fault."""


class OracleError(TailboundError, RuntimeError):
    """An oracle (the brute root scan) or a series failed to converge."""


# what float arithmetic raises when a value leaves the range of a double: a
# power that overflows, or a division by a value that underflowed to 0.
# Callers turn these into a DomainError naming the quantity.
FLOAT_RANGE_ERRORS = (OverflowError, ZeroDivisionError)
