"""Exception hierarchy shared by all modules.

Every invalid input raises OutOfDomain, except gamma = +-1 where an operation
rejects it (CptInvariantBoundary) and boosts at or onto gamma = +-1
(BoostUndefined).  NonConvergent is no invalid input: an oracle's quadrature
missed its tolerance.
"""


class EdgeCurrentsError(Exception):
    """Base class for all library errors."""


class OutOfDomain(EdgeCurrentsError, ValueError):
    """Argument outside the domain of an operation."""


class CptInvariantBoundary(EdgeCurrentsError):
    """Operation rejects the limiting boundary conditions gamma = +-1."""


class BoostUndefined(EdgeCurrentsError):
    """Boosts do not act on gamma = +-1 (signature undefined there)."""


class NonConvergent(EdgeCurrentsError):
    """Quadrature failed to meet its tolerance: an oracle's two evaluations disagree."""
