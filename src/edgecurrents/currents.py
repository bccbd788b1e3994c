"""Ground-state current density <j^2(x)> of the filled Dirac sea and the filled edge states.

Implements the filled-sea calculation: the current densities of a mode
spinor, as the one bilinear j^mu = psi^dagger sigma^mu psi of the arrays that
spectrum's eval_* return, the partial-fraction expansion of the bulk mode sum
in v = exp(arcsinh(k/a)), the closed-form bulk and edge profiles, and the split
of the total into distributional singular coefficients (delta'(x) ln Lambda,
delta'(x), 1/x^2) plus a smooth regular remainder.

The closed forms are derived for m >= 0 with Fermi energy E_F = -m; at m < 0
they take the reflection duality (m, gamma) -> (-m, -1/gamma), exactly in the
homogeneous coordinates of gamma, under which j^2 flips sign.  So at either
sign of m they fill the edge states below -|m|, while oracle.oracle_edge_current
fills them below E_F = -m; the two differ at m < 0, gamma < 0, where the edge
branch crosses the gap (ROADMAP item 3).  The singular coefficients depend on
gamma alone.

The regulator is a cutoff in rapidity along the boundary: the closed forms
and oracle.oracle_bulk_current sum the bulk modes of transverse momentum l
over v = exp(arcsinh(k/a)) in (1/Lambda, Lambda), a = sqrt(l^2 + m^2), so
|k| <~ Lambda a(l)/2.  The coefficient c_log of delta'(x) ln Lambda, and the
CLI's log_delta_prime_at_Lambda = c_log ln Lambda, refer to this Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CptInvariantBoundary, OutOfDomain
from .params import ModelParams, _homogeneous, _nonnegative_mass, _singular_coefficients
from .spectrum import bulk_mode, edge_mode_at_k, eval_bulk, eval_edge


# psi(t) = 1 - (1+t) e^{-t} = e^{-t} t^2 sum_j t^j/(j+2)!: below t = 1/2 its terms j <= 18 reach
# full precision, highest first for Horner's scheme; above it expm1 loses at most 2 bits
_PSI_SERIES = [1.0 / math.factorial(j + 2) for j in range(18, -1, -1)]


def _as_output(a):
    """A 0-d result as a Python float; arrays pass through."""
    a = np.asarray(a)
    return a if a.ndim else float(a)


def _reject_cpt_invariant(p: ModelParams) -> None:
    if p.is_cpt_invariant_bc:
        raise CptInvariantBoundary("current densities are not defined at gamma = +-1")


# ---------------------------------------------------------------------------
# current densities of mode spinors and the partial-fraction expansion


def _bilinears(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Current densities j^mu = psi^dagger sigma^mu psi of spinors on the last axis of u.

    u has the shape (*shape, 2) that eval_bulk, eval_edge and eval_defect
    return; j0 = |u1|^2 + |u2|^2, j1 = 2 Re(u1* u2), j2 = 2 Im(u1* u2), each
    of shape ``shape``.
    """
    cross = 2.0 * np.conj(u[..., 0]) * u[..., 1]
    return (np.conj(u) * u).real.sum(axis=-1), cross.real, cross.imag


def j1_identically_zero_check(p: ModelParams, samples: Iterable[tuple]) -> bool:
    """Verify that j^1 = psi^dagger sigma_1 psi is below 1e-12 for all sampled modes.

    Each sample is a tuple (l, k, x, y); the bulk mode (l, k) is always
    evaluated, the edge mode at k whenever it exists.
    """
    for l, k, x, y in samples:
        if abs(_bilinears(eval_bulk(bulk_mode(p, l, k, "negative"), p, x, y))[1]) > 1e-12:
            return False
        mode = edge_mode_at_k(p, k)
        if mode is not None and abs(_bilinears(eval_edge(mode, p, x, y))[1]) > 1e-12:
            return False
    return True


@dataclass(frozen=True)
class PartialFractionData:
    """Terms of the partial-fraction expansion of -(f/g) dk/E in the variable v.

    P1 = a/2, P2 = -(a/2) v^-2, P3 = il (gamma+1)/(gamma-1) v^-1 and
    P4 = -il 4 gamma/(gamma^2-1) (v - v3)^-1 satisfy, pointwise off the pole,
    P1+P2+P3+P4 = (f/g)/v = -(f/g)(1/E)(dk/dv).  gamma enters through its
    homogeneous coordinates ``gamma_ab`` of params._homogeneous (not the scale a).
    """

    m: float
    gamma_ab: tuple[float, float]
    l: float
    a: float
    v3: complex
    p3_coeff: complex
    p4_coeff: complex

    def p1(self, v):
        return self.a / 2.0 * np.ones_like(np.asarray(v, dtype=float))

    def p2(self, v):
        return -self.a / 2.0 / np.asarray(v, dtype=float) ** 2

    def p3(self, v):
        return self.p3_coeff / np.asarray(v, dtype=float)

    def p4(self, v):
        return self.p4_coeff / (np.asarray(v, dtype=float) - self.v3)

    def total(self, v):
        return self.p1(v) + self.p2(v) + self.p3(v) + self.p4(v)

    def reference(self, v):
        """Independent right-hand side (f/g)(1/v) evaluated from the spinor data."""
        v = np.asarray(v, dtype=float)
        k = self.a * (v - 1.0 / v) / 2.0
        E = -self.a * (v + 1.0 / v) / 2.0
        ga, gb = self.gamma_ab
        g = ga * (self.m - E) + gb * (k - 1j * self.l)
        ratio = (k - 1j * self.l) * np.conj(g) / g
        return ratio / v


def partial_fractions(p: ModelParams, l: float) -> PartialFractionData:
    """Build the partial-fraction data of -(f/g) dk/E at transverse momentum l."""
    _reject_cpt_invariant(p)
    if not 0.0 < l < math.inf:
        raise OutOfDomain(f"need 0 < l < inf, got l={l}")
    m = p.m
    a = math.sqrt(l * l + m * m)
    ga, gb = _homogeneous(p.gamma)
    return PartialFractionData(
        m=m, gamma_ab=(ga, gb), l=l, a=a,
        v3=complex((1j * l + m) / a * (gb - ga) / (gb + ga)),
        p3_coeff=complex(1j * l * (gb + ga) / (gb - ga)),
        p4_coeff=complex(-1j * l * 4.0 * ga * gb / (gb * gb - ga * ga)),
    )


# ---------------------------------------------------------------------------
# closed forms and the singular/regular decomposition


@dataclass(frozen=True)
class SingularPart:
    """Distributional coefficients of <j^2>: delta'(x) ln Lambda, delta'(x), 1/x^2."""

    c_log_delta_prime: float
    c_delta_prime: float
    c_inv_x2: float


def _closed_form(p: ModelParams, x: float | np.ndarray, profile: str) -> float | np.ndarray:
    """A smooth profile at x > 0 and any m: "bulk", "edge", "total" or "regular"; x broadcasts.

    All four come from one set of terms, in the homogeneous coordinates (a, b)
    of params._homogeneous, gamma = b/a: c = ab/(2 pi (b-a)(b+a)) =
    g/(2 pi (g^2-1)), u = 1/(2x^2), s = 2mx, t = s a/b = 2mx/g and
    phi(t) = (1+t) e^{-t} = 1 - psi(t).  The bulk and edge exponentials
    c u phi(s) and 2c u phi(t) Theta(g), and the tail 2c u Theta(g^2-1) that
    bulk and edge carry with opposite signs, are evaluated only by the
    profiles that need them.  The total, and the regular part total -
    c_inv_x2/x^2 with c_inv_x2/x^2 = -c u sgn(g), cancel the tails in the
    formula, not in floats: c u [phi(s) - 2 phi(t) Theta(g)] and
    c u [2 psi(t) Theta(g) - psi(s)], exactly 0 at m = 0.  At m < 0 the
    profile is minus the one at the exact reflection dual (-m, -1/gamma) of
    params._nonnegative_mass, as in oracle.oracle_bulk_current; every term is
    homogeneous of degree 0 in (a, b).  Rejects any x outside (0, inf), nan
    included, and gamma = +-1.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < math.inf)
    if not inside.all():
        raise OutOfDomain(f"closed forms need 0 < x < inf, got x={x[~inside].flat[0]}")
    _reject_cpt_invariant(p)
    sign, m, a, b = _nonnegative_mass(p)
    c = a * b / (2.0 * math.pi * ((b - a) * (b + a)))
    u, s = 1.0 / (2.0 * x * x), 2.0 * m * x
    t = s * a / b if b > 0 else None
    bulk_exp = lambda: c * (u + m / x) * np.exp(-s)  # noqa: E731
    edge_exp = lambda: 2.0 * c * (u + m * a / (b * x)) * np.exp(-t) if b > 0 else 0.0  # noqa: E731
    tail = lambda: 2.0 * c * u * (1.0 if abs(b) > a else 0.0)  # noqa: E731
    profiles = {
        "bulk": lambda: bulk_exp() - tail(),
        # gamma = 0 has no edge states: +0.0 at every x, where tail() is -0.0, or nan as u overflows
        "edge": lambda: (np.zeros_like(x) if b == 0.0 else
                         2.0 * c * u * _psi(t) if b > a else tail() - edge_exp()),
        # + 0.0, and in the regular part the two products apart: a profile that vanishes
        # (where both terms underflow, or at m = 0) is +0.0 at either sign of c
        "total": lambda: bulk_exp() - edge_exp() + 0.0,
        "regular": lambda: (2.0 * c * u * _psi(t) if b > 0 else 0.0) - c * u * _psi(s),
    }
    return sign * _as_output(profiles[profile]())


def _psi(t):
    """psi(t) = 1 - (1+t) e^{-t}, without its cancellation at small t."""
    s = np.minimum(t, 0.5)  # the discarded series branch stays finite at large t
    t = np.minimum(t, 1e3)  # psi is 1.0 from t ~ 40 on; t e^{-t} would be nan at t = inf
    series = 0.0
    for coef in _PSI_SERIES:  # np.polyval's Horner steps, without its array set-up per call
        series = series * s + coef
    return np.where(t < 0.5, np.exp(-s) * s * s * series, -np.expm1(-t) - t * np.exp(-t))


def singular_part(p: ModelParams) -> SingularPart:
    """The three singular coefficients of <j^2>; a function of gamma alone.

    c_log = -(1/2pi)(g^2+1)/(g^2-1), c_dipole = [g/(pi(g^2-1))] ln|(1+g)/(1-g)|,
    c_x2 = -|g|/(4 pi (g^2-1)); (-1/2pi, 0, 0) at gamma = inf.
    """
    _reject_cpt_invariant(p)
    return SingularPart(*_singular_coefficients(*_homogeneous(p.gamma)))


@dataclass(frozen=True)
class CurrentDecomposition:
    """<j^2(x)> split into singular coefficients and smooth profiles.

    total_smooth(x) = bulk_smooth(x) + edge_smooth(x) and regular(x) =
    total_smooth(x) - c_inv_x2/x^2, finite on (0, inf), are closed forms of
    their own: for gamma^2 > 1 the algebraic 1/x^2 tails of the two smooth
    parts cancel in the formula, not in floats, and the total decays
    exponentially.  Every profile is _closed_form at both signs of m: at
    m < 0 it is minus the closed form at the exact reflection dual.  The
    singular coefficients depend on gamma alone and are odd under the dual,
    so they are singular_part(params) at every m.
    """

    params: ModelParams
    singular: SingularPart

    def bulk_smooth(self, x):
        return _closed_form(self.params, x, "bulk")

    def edge_smooth(self, x):
        return _closed_form(self.params, x, "edge")

    def total_smooth(self, x):
        return _closed_form(self.params, x, "total")

    def regular(self, x):
        return _closed_form(self.params, x, "regular")


def total_decomposition(p: ModelParams) -> CurrentDecomposition:
    """Assemble the decomposition of <j^2>; its singular part is singular_part(p) at every m."""
    return CurrentDecomposition(p, singular_part(p))
