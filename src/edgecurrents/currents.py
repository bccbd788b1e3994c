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
from typing import Callable, Iterable

import numpy as np

from .errors import CptInvariantBoundary, InvalidMomentum, NoEdgeState, OutOfDomain
from .params import ModelParams, _singular_coefficients, reflection_dual
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
    branch.  Identical to u^dagger sigma_2 u of the evaluated spinor.
    """
    _reject_cpt_invariant(p)
    if l <= 0:
        raise InvalidMomentum(f"bulk modes need l > 0, got l={l}")
    E = -math.sqrt(k * k + l * l + p.m * p.m)
    if p.gamma.is_infinite:
        # gamma -> inf limit of f/g = (k-il) g*/g with g ~ gamma (k-il)
        ratio = k + 1j * l
    else:
        g = p.m - E + p.gamma.value * (k - 1j * l)
        ratio = (k - 1j * l) * np.conj(g) / g
    return k / E - float(np.real(ratio * np.exp(-2j * l * x))) / E


def edge_integrand_j2(p: ModelParams, k: float, x: float) -> float:
    """j^2 of a single filled edge mode: 2 gamma lam/(1+gamma^2) e^{-2 lam x}."""
    mode = edge_mode_at_k(p, k)
    if mode is None:
        raise NoEdgeState(f"no edge mode at k={k} for (m={p.m}, gamma={p.gamma})")
    if p.gamma.is_infinite:
        return 0.0  # spinor direction (0, -1): psi_1* psi_2 = 0
    g = p.gamma.value
    return 2.0 * g * mode.lam / (1.0 + g * g) * math.exp(-2.0 * mode.lam * x)


def j1_identically_zero_check(p: ModelParams, samples: Iterable[tuple]) -> bool:
    """Verify that j^1 = psi^dagger sigma_1 psi is below 1e-12 for all sampled modes.

    Each sample is a tuple (l, k, x, y); the bulk mode (l, k) is always
    evaluated, the edge mode at k whenever it exists.
    """
    for l, k, x, y in samples:
        u = eval_bulk(bulk_mode(p, l, k, "negative"), p, x, y).as_array()
        if abs(2.0 * np.real(np.conj(u[0]) * u[1])) > 1e-12:
            return False
        mode = edge_mode_at_k(p, k)
        if mode is not None:
            w = eval_edge(mode, p, x, y).as_array()
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
    P1+P2+P3+P4 = (f/g)/v = -(f/g)(1/E)(dk/dv).  D1, D2 are the two quadratic
    denominators (D2 degenerates at gamma = 0, D1 at gamma = inf).
    """

    m: float
    gamma_finite: float | None  # None encodes gamma = inf
    l: float
    a: float
    v3: complex
    v4: complex
    p3_coeff: complex
    p4_coeff: complex
    d1_coeffs: tuple[complex, complex, complex] | None
    d2_coeffs: tuple[complex, complex, complex] | None

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
        if self.gamma_finite is None:
            ratio = k + 1j * self.l  # limit of (k-il) g*/g for g ~ gamma (k-il)
        else:
            g = self.m - E + self.gamma_finite * (k - 1j * self.l)
            ratio = (k - 1j * self.l) * np.conj(g) / g
        return ratio / v

    def d1(self, v):
        if self.d1_coeffs is None:
            raise ValueError("D1 degenerates at gamma = inf")
        c2, c1, c0 = self.d1_coeffs
        v = np.asarray(v, dtype=float)
        return c2 * v * v + c1 * v + c0

    def d2(self, v):
        if self.d2_coeffs is None:
            raise ValueError("D2 degenerates at gamma = 0")
        c2, c1, c0 = self.d2_coeffs
        v = np.asarray(v, dtype=float)
        return c2 * v * v + c1 * v + c0


def partial_fractions(p: ModelParams, l: float) -> PartialFractionData:
    """Build the partial-fraction data of -(f/g) dk/E at transverse momentum l."""
    _reject_cpt_invariant(p)
    if l <= 0:
        raise InvalidMomentum(f"need l > 0, got l={l}")
    m = p.m
    a = math.sqrt(l * l + m * m)
    v4 = (-1j * l + m) / a
    if p.gamma.is_infinite:
        v3 = (1j * l + m) / a  # limit of (gamma-1)/(gamma+1) -> 1
        p3_coeff = 1j * l
        p4_coeff = 0.0j
        d1 = None
        d2 = ((a / 2.0) * 1.0, (a / 2.0) * (v4 - v3), -(a / 2.0) * v3 * v4)
    else:
        g = p.gamma.value
        v3 = (1j * l + m) / a * (g - 1.0) / (g + 1.0)
        p3_coeff = 1j * l * (g + 1.0) / (g - 1.0)
        p4_coeff = -1j * l * 4.0 * g / (g * g - 1.0)
        c1 = (a / 2.0) * (g + 1.0)
        d1 = (c1, -c1 * (v3 + v4), c1 * v3 * v4)
        if g == 0.0:
            d2 = None
        else:
            c2 = (a / 2.0) * (1.0 / g + 1.0)
            d2 = (c2, c2 * (v4 - v3), -c2 * v3 * v4)
    return PartialFractionData(
        m=m, gamma_finite=None if p.gamma.is_infinite else p.gamma.value,
        l=l, a=a, v3=complex(v3), v4=complex(v4),
        p3_coeff=complex(p3_coeff), p4_coeff=complex(p4_coeff),
        d1_coeffs=d1, d2_coeffs=d2,
    )


# ---------------------------------------------------------------------------
# closed forms and the singular/regular decomposition


@dataclass(frozen=True)
class SingularPart:
    """Distributional coefficients of <j^2>: delta'(x) ln Lambda, delta'(x), 1/x^2."""

    c_log_delta_prime: float
    c_delta_prime: float
    c_inv_x2: float

    def neg(self) -> "SingularPart":
        return SingularPart(-self.c_log_delta_prime, -self.c_delta_prime, -self.c_inv_x2)


@dataclass(frozen=True)
class BulkClosedForm:
    """Smooth x > 0 value of j^2_bulk plus its two delta'(x) coefficients."""

    smooth: float | np.ndarray
    c_log_delta_prime: float
    c_delta_prime: float


def _gamma_value_checked(p: ModelParams) -> float | None:
    """Finite gamma value, None for gamma = inf; rejects gamma = +-1."""
    _reject_cpt_invariant(p)
    return None if p.gamma.is_infinite else p.gamma.value


def _closed_form_domain(p: ModelParams, x: float | np.ndarray) -> np.ndarray:
    """x as a float array; rejects any x <= 0 and m < 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise OutOfDomain(f"closed form only valid at x > 0, got x={x.min()}")
    if p.m < 0:
        raise OutOfDomain("closed forms are derived for m >= 0; use total_decomposition")
    return x


def closed_form_bulk_j2(p: ModelParams, x: float | np.ndarray) -> BulkClosedForm:
    """Closed-form bulk current at x > 0 for m >= 0; x broadcasts.

    smooth = [g/(2 pi (g^2-1))] (1/(2x^2) + m/x) e^{-2mx}
             - [g/(pi (g^2-1))] (1/(2x^2)) Theta(g^2-1),
    with the two delta' coefficients of singular_part.  The smooth part
    vanishes in the gamma = inf limit.
    """
    x = _closed_form_domain(p, x)
    s = singular_part(p)
    g = p.gamma.value
    if g is None:
        smooth = np.zeros_like(x)
    else:
        c = g / (2.0 * math.pi * (g * g - 1.0))
        smooth = c * (1.0 / (2.0 * x * x) + p.m / x) * np.exp(-2.0 * p.m * x)
        smooth -= 2.0 * c * (1.0 / (2.0 * x * x)) * heaviside(g * g - 1.0)
    return BulkClosedForm(smooth=_as_output(smooth), c_log_delta_prime=s.c_log_delta_prime,
                          c_delta_prime=s.c_delta_prime)


def closed_form_edge_j2(p: ModelParams, x: float | np.ndarray) -> float | np.ndarray:
    """Closed-form edge current at x > 0 for m >= 0; x broadcasts.

    [g/(2 pi (g^2-1) x^2)] [ Theta(g^2-1) - (1+t) e^{-t} Theta(g) ],  t = 2mx/g.
    Vanishes identically for gamma in (-1, 0) and for gamma in {0, inf}.
    """
    x = _closed_form_domain(p, x)
    g = _gamma_value_checked(p)
    if g is None or g == 0.0:
        return _as_output(np.zeros_like(x))
    c = g / (math.pi * ((g - 1.0) * (g + 1.0)))
    if g > 1.0:  # the bracket 1 - (1+t) e^{-t} without its cancellation at small t
        t = 2.0 * p.m * x / g
        return _as_output(c * (1.0 / (2.0 * x * x)) * (-np.expm1(-t) - t * np.exp(-t)))
    out = c * (1.0 / (2.0 * x * x)) * heaviside(g * g - 1.0)
    if g > 0:
        out -= c * (1.0 / (2.0 * x * x) + p.m / (g * x)) * np.exp(-2.0 * p.m * x / g)
    return _as_output(out)


def singular_part(p: ModelParams) -> SingularPart:
    """The three singular coefficients of <j^2>; a function of gamma alone.

    c_log = -(1/2pi)(g^2+1)/(g^2-1), c_dipole = [g/(pi(g^2-1))] ln|(1+g)/(1-g)|,
    c_x2 = -|g|/(4 pi (g^2-1)); analytic gamma = inf limits (-1/2pi, 0, 0).
    """
    return SingularPart(*_singular_coefficients(_gamma_value_checked(p)))


@dataclass(frozen=True)
class CurrentDecomposition:
    """<j^2(x)> split into singular coefficients and smooth profile functions.

    regular(x) = bulk_smooth(x) + edge_smooth(x) - c_inv_x2/x^2 is finite on
    (0, inf); for gamma^2 > 1 the algebraic 1/x^2 tails of the two smooth
    parts cancel in their sum, which then decays exponentially.
    """

    params: ModelParams
    singular: SingularPart
    bulk_smooth: Callable[[float], float]
    edge_smooth: Callable[[float], float]

    def total_smooth(self, x):
        return self.bulk_smooth(x) + self.edge_smooth(x)

    def regular(self, x):
        x = np.asarray(x, dtype=float)
        return _as_output(self.total_smooth(x) - self.singular.c_inv_x2 / (x * x))


def total_decomposition(p: ModelParams) -> CurrentDecomposition:
    """Assemble the full decomposition of <j^2>; m < 0 via reflection duality."""
    _reject_cpt_invariant(p)
    if p.m < 0:
        dual = total_decomposition(reflection_dual(p))
        return CurrentDecomposition(
            params=p,
            singular=dual.singular.neg(),
            bulk_smooth=lambda x, f=dual.bulk_smooth: -f(x),
            edge_smooth=lambda x, f=dual.edge_smooth: -f(x),
        )
    return CurrentDecomposition(params=p, singular=singular_part(p),
                                bulk_smooth=lambda x: closed_form_bulk_j2(p, x).smooth,
                                edge_smooth=lambda x: closed_form_edge_j2(p, x))
