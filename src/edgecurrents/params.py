"""Model parameters, the projective boundary parameter and its discrete symmetries.

The boundary condition psi_2(0, y) = i * gamma * psi_1(0, y) is labelled by a
single point gamma of the projective real line (gamma = inf encodes
psi_1(0, y) = 0).  Every derived boundary characteristic (edge velocity,
signature, rapidity) and the discrete duality maps live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import BoostUndefined, OutOfDomain

GammaLike = Union["ProjectiveReal", float, int, str]


@dataclass(frozen=True)
class ProjectiveReal:
    """A point of the projective real line; ``value is None`` encodes infinity."""

    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is not None:
            v = float(self.value)
            if math.isnan(v) or math.isinf(v):
                raise OutOfDomain(
                    "finite projective values must be finite floats; "
                    "use ProjectiveReal() for the point at infinity"
                )
            object.__setattr__(self, "value", v)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def inv(self) -> "ProjectiveReal":
        """Projective inversion: inv(0) = inf, inv(inf) = 0."""
        if self.is_infinite:
            return ProjectiveReal(0.0)
        if self.value == 0.0:
            return ProjectiveReal()
        return ProjectiveReal(1.0 / self.value)

    def neg(self) -> "ProjectiveReal":
        """Projective negation; -inf = inf."""
        if self.is_infinite:
            return self
        return ProjectiveReal(-self.value)

    def __float__(self) -> float:
        if self.value is None:
            raise OutOfDomain("the point at infinity has no float value")
        return self.value

    def __repr__(self) -> str:
        return "ProjectiveReal(inf)" if self.is_infinite else f"ProjectiveReal({self.value!r})"


GAMMA_INFINITY = ProjectiveReal()


def as_gamma(g: GammaLike) -> ProjectiveReal:
    """Coerce a float, ``'inf'`` or ProjectiveReal to a ProjectiveReal."""
    if isinstance(g, ProjectiveReal):
        return g
    if isinstance(g, str):
        if g.strip().lower() in ("inf", "infinity", "oo"):
            return GAMMA_INFINITY
        return ProjectiveReal(float(g))
    return ProjectiveReal(float(g))


@dataclass(frozen=True)
class ModelParams:
    """One fermion species: mass m and boundary parameter gamma."""

    m: float
    gamma: ProjectiveReal

    def __post_init__(self) -> None:
        m = float(self.m)
        if not math.isfinite(m):
            raise OutOfDomain(f"the mass must be a finite float, got m={m}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "gamma", as_gamma(self.gamma))

    @property
    def is_cpt_invariant_bc(self) -> bool:
        """True exactly for the limiting boundary conditions gamma = +-1."""
        return _is_unit(self.gamma)


@dataclass(frozen=True)
class BoundaryCharacter:
    """Edge velocity, signature eta, rapidity theta and epsilon = sgn(v_edge).

    ``eta is None`` marks the undefined signature at gamma = +-1, where
    ``theta is None`` likewise marks an infinite rapidity.  ``epsilon is None``
    marks vanishing edge velocity.
    """

    v_edge: float
    eta: int | None
    theta: float | None
    epsilon: int | None


def _is_unit(gamma: ProjectiveReal) -> bool:
    """True exactly at gamma = +-1."""
    return not gamma.is_infinite and abs(gamma.value) == 1.0


def _homogeneous(gamma: ProjectiveReal) -> tuple[float, float]:
    """Homogeneous coordinates (a, b) of gamma = b/a: the condition a psi_2 = i b psi_1.

    (1, gamma) up to |gamma| = 1e150, (1/|gamma|, sgn gamma) above, where gamma^2
    would overflow, and (0, 1) at gamma = inf.  So a >= 0, a^2 + b^2 never
    overflows, and every formula of gamma, written once in (a, b), covers the
    whole projective line; with a = 1 it is the plain formula in gamma.
    """
    g = gamma.value
    if g is None:
        return 0.0, 1.0
    return (1.0, g) if abs(g) <= 1e150 else (1.0 / abs(g), math.copysign(1.0, g))


def _nonnegative_mass(p: ModelParams) -> tuple[int, float, float, float]:
    """(sign, m, a, b) of p at m >= 0, of its reflection dual with sign -1 at m < 0.

    (a, b) are the homogeneous coordinates of _homogeneous.  The dual
    (-m, -1/gamma) has the coordinates (|b|, -a sgn b), exact and again with
    a >= 0: gamma = 0 maps to (0, 1), which is inf, and inf to (1, -0.0).  A
    quantity odd under the dual, such as j^2, is sign times its value there.
    """
    a, b = _homogeneous(p.gamma)
    if p.m < 0:
        return -1, -p.m, abs(b), -a if b > 0 else a
    return 1, p.m, a, b


def _singular_coefficients(a: float, b: float) -> tuple[float, float, float]:
    """(c_log, c_dipole, c_x2) at gamma = b/a, see _homogeneous.

    c_dipole is [g/(pi(g^2-1))] theta with theta from _rapidity, and
    d = (b - a)(b + a) keeps full precision next to gamma = +-1.  c_x2 is
    0.0 - (...), which is +0.0 at gamma = inf, as at gamma = 0.
    """
    d = (b - a) * (b + a)
    c_log = -(1.0 / (2.0 * math.pi)) * (b * b + a * a) / d
    c_dip = 0.0 if b == 0.0 else (a * b / (math.pi * d)) * _rapidity(a, b)
    c_x2 = 0.0 - abs(a * b) / (4.0 * math.pi * d)
    return c_log, c_dip, c_x2


def _rapidity(a: float, b: float) -> float:
    """theta = ln|(a + b)/(a - b)| = ln|(1+gamma)/(1-gamma)| at gamma = b/a != +-1.

    Where the ratio is near 1 the log is taken as 2 atanh(h), with h = gamma or
    1/gamma (theta is invariant under gamma -> 1/gamma), which keeps full
    precision; +0.0 at gamma = 0 and inf.
    """
    h = b / a if abs(b) < a else a / b
    return 2.0 * math.atanh(h) if abs(h) < 0.5 else math.log(abs((a + b) / (a - b)))


def edge_velocity(gamma: GammaLike) -> float:
    """Common travel velocity 2*gamma/(1+gamma^2) of all edge modes; 0 at gamma=inf."""
    a, b = _homogeneous(as_gamma(gamma))
    return 2.0 * a * b / (a * a + b * b)


def boundary_character(gamma: GammaLike) -> BoundaryCharacter:
    """Derive (v_edge, eta, theta, epsilon) from the boundary parameter.

    eta = sgn((1-gamma)/(1+gamma)) and eta*exp(theta) = (1+gamma)/(1-gamma), so
    theta = ln|(1+gamma)/(1-gamma)| (tanh(theta) = v_edge, see _rapidity); it is
    finite at every gamma != +-1.  gamma = inf maps to (0, -1, 0, None).
    """
    g = as_gamma(gamma)
    v = edge_velocity(g)
    a, b = _homogeneous(g)
    if abs(b) == a:
        # maximal edge velocity: signature undefined, rapidity infinite
        return BoundaryCharacter(v_edge=v, eta=None, theta=None, epsilon=1 if v > 0 else -1)
    eta = 1 if abs(b) < a else -1
    theta = _rapidity(a, b)
    epsilon = None if v == 0.0 else (1 if v > 0 else -1)
    return BoundaryCharacter(v_edge=v, eta=eta, theta=theta, epsilon=epsilon)


def _gamma_from_ratio(r: float) -> ProjectiveReal:
    """Invert r = (1+gamma)/(1-gamma) = eta*e^theta; r = -1 is gamma = inf."""
    if r == -1.0:
        return GAMMA_INFINITY
    return ProjectiveReal((r - 1.0) / (r + 1.0))


def _gamma_from_eta_theta(eta: int, theta: float) -> ProjectiveReal:
    # gamma = tanh(theta/2) for eta = 1 and its inverse for eta = -1: the
    # Cayley inverse of eta*e^theta, without the rounding of e^theta near 1
    t = math.tanh(0.5 * theta)
    if eta == 1:
        return ProjectiveReal(t)
    return GAMMA_INFINITY if t == 0.0 else ProjectiveReal(1.0 / t)


def boost(gamma: GammaLike, chi: float) -> ProjectiveReal:
    """Act with a boost of rapidity chi parallel to the boundary: theta -> theta + chi.

    The signature eta is Lorentz invariant and kept fixed.  Raises
    BoostUndefined for gamma = +-1, and when the boosted point rounds onto
    gamma = +-1 or overflows.
    """
    ch = boundary_character(gamma)
    if ch.eta is None:
        raise BoostUndefined("boosts are undefined at gamma = +-1")
    try:
        out = _gamma_from_eta_theta(ch.eta, ch.theta + chi)
    except OutOfDomain:  # 1/tanh overflowed, or chi is nan
        out = None
    if out is None or _is_unit(out):
        raise BoostUndefined(f"boost by chi={chi!r} leaves the representable gammas != +-1")
    return out


def reflection_dual(p: ModelParams) -> ModelParams:
    """Space reflection y -> -y lifted by sigma_1: (m, gamma) -> (-m, -1/gamma)."""
    return ModelParams(-p.m, p.gamma.inv().neg())


def cpt_dual(p: ModelParams) -> ModelParams:
    """CPT map: positive-energy states of (m, gamma) <-> negative-energy of (m, 1/gamma)."""
    return ModelParams(p.m, p.gamma.inv())


def halfplane_dual(p: ModelParams) -> ModelParams:
    """Duality relating boundary states of complementary half planes: (-m, 1/gamma)."""
    return ModelParams(-p.m, p.gamma.inv())
