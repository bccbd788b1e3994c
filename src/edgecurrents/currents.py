"""Ground-state current density <j^2(x)> at Fermi energy E_F = -m.

Implements the filled-sea calculation: pointwise bulk and edge integrands,
the v-substitution v = exp(arcsinh(k/a)) with its partial-fraction expansion,
the closed-form bulk and edge profiles, and the split of the total into
distributional singular coefficients (delta'(x) ln Lambda, delta'(x), 1/x^2)
plus a smooth regular remainder.

Closed forms are derived for m >= 0; negative masses are routed through the
reflection duality (m, gamma) -> (-m, -1/gamma), under which j^2 flips sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CptInvariantBoundary, InvalidMomentum, NoEdgeState, OutOfDomain
from .params import (ModelParams, _homogeneous, _singular_coefficients, edge_velocity,
                     reflection_dual)
from .spectrum import bulk_mode, edge_mode_at_k, eval_bulk, eval_edge


def _as_output(a):
    """A 0-d result as a Python float; arrays pass through."""
    a = np.asarray(a)
    return a if a.ndim else float(a)


def heaviside(t: float | np.ndarray) -> float | np.ndarray:
    """Step function with the documented midpoint convention Theta(0) = 1/2; broadcasts."""
    return _as_output(np.heaviside(t, 0.5))


def _reject_cpt_invariant(p: ModelParams) -> None:
    if p.is_cpt_invariant_bc:
        raise CptInvariantBoundary("current densities are not defined at gamma = +-1")


# ---------------------------------------------------------------------------
# pointwise integrands


def bulk_integrand_j2(p: ModelParams, l: float, k: float, x: float) -> float:
    """j^2 of a single filled bulk mode: k/E - (1/E) Re((f/g) e^{-2ilx}).

    g = m - E + gamma (k - il), f = (k - il) g*, on the negative energy
    branch; f/g is unchanged by scaling g to a (m - E) + b (k - il) in the
    homogeneous coordinates of params._homogeneous.  Identical to
    u^dagger sigma_2 u of the evaluated spinor.
    """
    _reject_cpt_invariant(p)
    if l <= 0:
        raise InvalidMomentum(f"bulk modes need l > 0, got l={l}")
    E = -math.sqrt(k * k + l * l + p.m * p.m)
    a, b = _homogeneous(p.gamma)
    g = a * (p.m - E) + b * (k - 1j * l)
    ratio = (k - 1j * l) * np.conj(g) / g
    return k / E - float(np.real(ratio * np.exp(-2j * l * x))) / E


def edge_integrand_j2(p: ModelParams, k: float, x: float) -> float:
    """j^2 of a single filled edge mode: v_edge lam e^{-2 lam x}, v_edge = 2 gamma/(1+gamma^2)."""
    mode = edge_mode_at_k(p, k)
    if mode is None:
        raise NoEdgeState(f"no edge mode at k={k} for (m={p.m}, gamma={p.gamma})")
    return edge_velocity(p.gamma) * mode.lam * math.exp(-2.0 * mode.lam * x)


def j1_identically_zero_check(p: ModelParams, samples: Iterable[tuple]) -> bool:
    """Verify that j^1 = psi^dagger sigma_1 psi is below 1e-12 for all sampled modes.

    Each sample is a tuple (l, k, x, y); the bulk mode (l, k) is always
    evaluated, the edge mode at k whenever it exists.
    """
    for l, k, x, y in samples:
        u = eval_bulk(bulk_mode(p, l, k, "negative"), p, x, y)
        if abs(2.0 * np.real(np.conj(u[0]) * u[1])) > 1e-12:
            return False
        mode = edge_mode_at_k(p, k)
        if mode is not None:
            w = eval_edge(mode, p, x, y)
            if abs(2.0 * np.real(np.conj(w[0]) * w[1])) > 1e-12:
                return False
    return True


# ---------------------------------------------------------------------------
# v-substitution and partial fractions


def v_of_k(k: float, a: float) -> float:
    """Substitution v = exp(arcsinh(k/a)) mapping k in R to v in (0, inf)."""
    if a <= 0:
        raise ValueError(f"scale a must be positive, got {a}")
    return math.exp(math.asinh(k / a))


def k_of_v(v: float, a: float) -> float:
    """Inverse substitution k = a (v - 1/v)/2."""
    if a <= 0:
        raise ValueError(f"scale a must be positive, got {a}")
    return a * (v - 1.0 / v) / 2.0


@dataclass(frozen=True)
class PartialFractionData:
    """Terms of the partial-fraction expansion of -(f/g) dk/E in the variable v.

    P1 = a/2, P2 = -(a/2) v^-2, P3 = il (gamma+1)/(gamma-1) v^-1 and
    P4 = -il 4 gamma/(gamma^2-1) (v - v3)^-1 satisfy, pointwise off the pole,
    P1+P2+P3+P4 = (f/g)/v = -(f/g)(1/E)(dk/dv).  gamma enters through its
    homogeneous coordinates ``gamma_ab`` of params._homogeneous (not the scale a).
    D1, D2 are the two quadratic denominators; D1 degenerates at gamma = inf,
    D2 at gamma = 0.
    """

    m: float
    gamma_ab: tuple[float, float]
    l: float
    a: float
    v3: complex
    v4: complex
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

    def d1(self, v):
        """D1 = (a/2)(1 + gamma)(v - v3)(v - v4)."""
        ga, gb = self.gamma_ab
        if ga == 0.0:
            raise ValueError("D1 degenerates at gamma = inf")
        v = np.asarray(v, dtype=float)
        return self.a / 2.0 * (gb / ga + 1.0) * (v - self.v3) * (v - self.v4)

    def d2(self, v):
        """D2 = (a/2)(1 + 1/gamma)(v - v3)(v + v4), the conjugate of D1 at (-m, 1/gamma)."""
        ga, gb = self.gamma_ab
        if gb == 0.0:
            raise ValueError("D2 degenerates at gamma = 0")
        v = np.asarray(v, dtype=float)
        return self.a / 2.0 * (ga / gb + 1.0) * (v - self.v3) * (v + self.v4)


def partial_fractions(p: ModelParams, l: float) -> PartialFractionData:
    """Build the partial-fraction data of -(f/g) dk/E at transverse momentum l."""
    _reject_cpt_invariant(p)
    if l <= 0:
        raise InvalidMomentum(f"need l > 0, got l={l}")
    m = p.m
    a = math.sqrt(l * l + m * m)
    ga, gb = _homogeneous(p.gamma)
    return PartialFractionData(
        m=m, gamma_ab=(ga, gb), l=l, a=a,
        v3=complex((1j * l + m) / a * (gb - ga) / (gb + ga)), v4=complex((-1j * l + m) / a),
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


def _closed_form_domain(p: ModelParams, x: float | np.ndarray) -> np.ndarray:
    """x as a float array; rejects any x outside (0, inf), nan included, and m < 0."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < math.inf)
    if not inside.all():
        raise OutOfDomain(f"closed forms need 0 < x < inf, got x={x[~inside].flat[0]}")
    if p.m < 0:
        raise OutOfDomain("closed forms are derived for m >= 0; use total_decomposition")
    return x


def closed_form_bulk_j2(p: ModelParams, x: float | np.ndarray) -> float | np.ndarray:
    """Closed-form smooth bulk current at x > 0 for m >= 0; x broadcasts.

    [g/(2 pi (g^2-1))] (1/(2x^2) + m/x) e^{-2mx} - [g/(pi (g^2-1))] (1/(2x^2)) Theta(g^2-1);
    its delta' coefficients are those of singular_part.  Written in the
    homogeneous coordinates (a, b) of params._homogeneous, g/(g^2-1) =
    ab/(b^2-a^2), so it is 0 at gamma = inf and stays finite where g^2 would
    overflow.
    """
    x = _closed_form_domain(p, x)
    _reject_cpt_invariant(p)
    a, b = _homogeneous(p.gamma)
    c = a * b / (2.0 * math.pi * (b * b - a * a))
    smooth = c * (1.0 / (2.0 * x * x) + p.m / x) * np.exp(-2.0 * p.m * x)
    smooth -= 2.0 * c * (1.0 / (2.0 * x * x)) * heaviside(b * b - a * a)
    return _as_output(smooth)


def closed_form_edge_j2(p: ModelParams, x: float | np.ndarray) -> float | np.ndarray:
    """Closed-form edge current at x > 0 for m >= 0; x broadcasts.

    [g/(2 pi (g^2-1) x^2)] [ Theta(g^2-1) - (1+t) e^{-t} Theta(g) ],  t = 2mx/g,
    written in the homogeneous coordinates (a, b) of params._homogeneous.
    Vanishes identically for gamma in (-1, 0) and for gamma in {0, inf}.
    """
    x = _closed_form_domain(p, x)
    _reject_cpt_invariant(p)
    a, b = _homogeneous(p.gamma)
    if b == 0.0:  # v_edge = 0; t = 2mx/g is undefined
        return _as_output(np.zeros_like(x))
    c = a * b / (math.pi * ((b - a) * (b + a)))
    if b > a:  # gamma > 1: the bracket 1 - (1+t) e^{-t} without its cancellation at small t
        t = 2.0 * p.m * x * a / b
        return _as_output(c * (1.0 / (2.0 * x * x)) * (-np.expm1(-t) - t * np.exp(-t)))
    out = c * (1.0 / (2.0 * x * x)) * heaviside(b * b - a * a)
    if b > 0:
        out -= c * (1.0 / (2.0 * x * x) + p.m * a / (b * x)) * np.exp(-2.0 * p.m * x * a / b)
    return _as_output(out)


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

    regular(x) = bulk_smooth(x) + edge_smooth(x) - c_inv_x2/x^2 is finite on
    (0, inf); for gamma^2 > 1 the algebraic 1/x^2 tails of the two smooth
    parts cancel in their sum, which then decays exponentially.  At m < 0
    each profile is minus the closed form at reflection_dual(params).
    """

    params: ModelParams
    singular: SingularPart

    def _smooth(self, closed_form, x):
        if self.params.m < 0:
            return -closed_form(reflection_dual(self.params), x)
        return closed_form(self.params, x)

    def bulk_smooth(self, x):
        return self._smooth(closed_form_bulk_j2, x)

    def edge_smooth(self, x):
        return self._smooth(closed_form_edge_j2, x)

    def total_smooth(self, x):
        return self.bulk_smooth(x) + self.edge_smooth(x)

    def regular(self, x):
        x = np.asarray(x, dtype=float)
        return _as_output(self.total_smooth(x) - self.singular.c_inv_x2 / (x * x))


def total_decomposition(p: ModelParams) -> CurrentDecomposition:
    """Assemble the full decomposition of <j^2>; m < 0 via reflection duality."""
    _reject_cpt_invariant(p)
    if p.m < 0:  # j^2 flips sign under reflection_dual
        dual = _singular_coefficients(*_homogeneous(reflection_dual(p).gamma))
        return CurrentDecomposition(p, SingularPart(*(-c for c in dual)))
    return CurrentDecomposition(p, singular_part(p))
