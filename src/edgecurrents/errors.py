"""Exception hierarchy shared by all modules."""


class EdgeCurrentsError(Exception):
    """Base class for all library errors."""


class InvalidMomentum(EdgeCurrentsError):
    """Transverse momentum l must be strictly positive."""


class InvalidDeficiency(EdgeCurrentsError):
    """Deficiency parameter mu must be strictly positive."""


class BoostUndefined(EdgeCurrentsError):
    """Boosts do not act on gamma = +-1 (signature undefined there)."""


class CptInvariantBoundary(EdgeCurrentsError):
    """Operation rejects the limiting boundary conditions gamma = +-1."""


class NoEdgeState(EdgeCurrentsError):
    """No edge mode exists at the requested momentum (decay rate <= 0)."""


class GridTooSmall(EdgeCurrentsError):
    """Finite-difference grids need at least 3 points per axis."""


class OutOfDomain(EdgeCurrentsError, ValueError):
    """Argument outside the domain of an operation."""


class NonConvergent(EdgeCurrentsError):
    """Quadrature failed to meet its tolerance: an oracle's two evaluations disagree."""


class DegeneratePair(EdgeCurrentsError):
    """gamma in {0, +-1, inf} does not yield a nondegenerate conjugate pair."""
