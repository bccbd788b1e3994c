"""Ground-state current density <j^2(x)> of the filled Dirac sea and the filled edge states.

Implements the filled-sea calculation: the current densities of a mode
spinor, as the one bilinear j^mu = psi^dagger sigma^mu psi of the arrays that
spectrum's eval_* return, the closed-form bulk and edge profiles, and the
split of the total into distributional singular coefficients (delta'(x)
ln Lambda, delta'(x), 1/x^2) plus a smooth regular remainder.  The steps of
the bulk derivation, such as the partial-fraction expansion of the mode sum
in v = exp(arcsinh(k/a)), are checked in tests/derivation.py.

The library has one Fermi level, E_F = -|m|, the bottom of the gap, decided
in one function, params._nonnegative_mass.  The closed forms are derived
for m >= 0 with E_F = -m; at m < 0 they, and the oracles, take the
reflection duality (m, gamma) -> (-m, -1/gamma), exactly in the homogeneous
coordinates of gamma, under which j^2 flips sign.  So at either sign of m
the edge states below -|m| are filled, also at m < 0, gamma < 0, where the
edge branch crosses the gap and -m would be another level in it.  -|m| is
the convention of m > 0, and the level that the Qi-Wu-Zhang lattice half
plane follows, to within 0.3-5% over x = 4..32 (ROADMAP items 3 and 14).
The singular coefficients depend on gamma alone.

The regulator is a cutoff in rapidity along the boundary: the closed forms
and oracle.oracle_bulk_current sum the bulk modes of transverse momentum l
over v = exp(arcsinh(k/a)) in (1/Lambda, Lambda), a = sqrt(l^2 + m^2), so
|k| <~ Lambda a(l)/2.  The coefficient c_log of delta'(x) ln Lambda, and the
CLI's log_delta_prime_at_Lambda = c_log ln Lambda, refer to this Lambda.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfDomain
from .params import (ModelParams, _homogeneous, _nonnegative_mass, _reject_cpt_invariant,
                     _singular_coefficients)


# psi(t) = 1 - (1+t) e^{-t} = e^{-t} t^2 sum_j t^j/(j+2)!: below t = 1/2 its terms j <= 18 reach
# full precision, highest first for Horner's scheme; above it expm1 loses at most 2 bits
_PSI_SERIES = [1.0 / math.factorial(j + 2) for j in range(18, -1, -1)]


def _as_output(a):
    """A 0-d result as a Python float; arrays pass through."""
    a = np.asarray(a)
    return a if a.ndim else float(a)


# ---------------------------------------------------------------------------
# current densities of mode spinors


def _bilinears(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Current densities j^mu = psi^dagger sigma^mu psi of spinors on the last axis of u.

    u has the shape (*shape, 2) that eval_bulk, eval_edge and eval_defect
    return; j0 = |u1|^2 + |u2|^2, j1 = 2 Re(u1* u2), j2 = 2 Im(u1* u2), each
    of shape ``shape``.
    """
    cross = 2.0 * np.conj(u[..., 0]) * u[..., 1]
    return (np.conj(u) * u).real.sum(axis=-1), cross.real, cross.imag


# ---------------------------------------------------------------------------
# closed forms and the singular/regular decomposition


class SingularPart(NamedTuple):
    """Distributional coefficients of <j^2>: delta'(x) ln Lambda, delta'(x), 1/x^2."""

    c_log_delta_prime: float
    c_delta_prime: float
    c_inv_x2: float


def _closed_form(p: ModelParams, x: float | np.ndarray) -> tuple:
    """The smooth profiles (bulk, edge, total, regular) at x > 0 and any m.

    x broadcasts.  All four come from one set of terms, in the homogeneous
    coordinates (a, b) of params._homogeneous, gamma = b/a: c = ab/(2 pi
    (b-a)(b+a)) = g/(2 pi (g^2-1)), u = 1/(2x^2), s = 2mx, t = s a/b = 2mx/g
    and phi(t) = (1+t) e^{-t} = 1 - psi(t).  The bulk and edge exponentials
    c u phi(s) and 2c u phi(t) Theta(g), the tail 2c u Theta(g^2-1) that
    bulk and edge carry with opposite signs, and 2c u psi(t) Theta(g) are
    each evaluated once for all four.  The total, and the regular part
    total - c_inv_x2/x^2 with c_inv_x2/x^2 = -c u sgn(g), cancel the tails
    in the formula, not in floats: c u [phi(s) - 2 phi(t) Theta(g)] and
    c u [2 psi(t) Theta(g) - psi(s)], exactly 0 at m = 0.  At m < 0 the
    profile is minus the one at the exact reflection dual (-m, -1/gamma) of
    params._nonnegative_mass, as in every oracle; every term
    is homogeneous of degree 0 in (a, b).  Rejects any x outside (0, inf),
    nan included, and gamma = +-1.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < math.inf)
    if not inside.all():
        raise OutOfDomain(f"closed forms need 0 < x < inf, got x={x[~inside].flat[0]}")
    _reject_cpt_invariant(p)
    sign, m, a, b = _nonnegative_mass(p)
    c = a * b / (2.0 * math.pi * ((b - a) * (b + a)))
    u, s = 1.0 / (2.0 * x * x), 2.0 * m * x
    bulk_exp = c * (u + m / x) * np.exp(-s)
    tail = 2.0 * c * u * (1.0 if abs(b) > a else 0.0)
    t = s * a / b if b > 0 else None
    edge_exp = 2.0 * c * (u + m * a / (b * x)) * np.exp(-t) if b > 0 else 0.0
    edge_psi = 2.0 * c * u * _psi(t) if b > 0 else 0.0
    # gamma = 0 has no edge states: +0.0 at every x, where tail is -0.0, or nan as u overflows
    edge = np.zeros_like(x) if b == 0.0 else edge_psi if b > a else tail - edge_exp
    # + 0.0, and in the regular part the two products apart: a profile that vanishes
    # (where both terms underflow, or at m = 0) is +0.0 at either sign of c
    profiles = bulk_exp - tail, edge, bulk_exp - edge_exp + 0.0, edge_psi - c * u * _psi(s)
    return tuple(sign * _as_output(v) for v in profiles)


def _psi(t):
    """psi(t) = 1 - (1+t) e^{-t}, without its cancellation at small t; each branch only where used."""
    t = np.minimum(t, 1e3)  # psi is 1.0 from t ~ 40 on; t e^{-t} would be nan at t = inf
    if t.ndim == 0:  # Python floats: the Horner steps as float64 without numpy-scalar overhead
        return _psi_series(float(t)) if t < 0.5 else _psi_expm1(float(t))
    out = np.empty_like(t)
    small = t < 0.5
    out[small] = _psi_series(t[small])
    out[~small] = _psi_expm1(t[~small])
    return out


def _psi_series(t):
    series = 0.0
    for coef in _PSI_SERIES:  # np.polyval's Horner steps, without its array set-up per call
        series = series * t + coef
    return np.exp(-t) * t * t * series


def _psi_expm1(t):
    return -np.expm1(-t) - t * np.exp(-t)


def singular_part(p: ModelParams) -> SingularPart:
    """The three singular coefficients of <j^2>; a function of gamma alone.

    c_log = -(1/2pi)(g^2+1)/(g^2-1), c_dipole = [g/(pi(g^2-1))] ln|(1+g)/(1-g)|,
    c_x2 = -|g|/(4 pi (g^2-1)); (-1/2pi, 0, 0) at gamma = inf.
    """
    _reject_cpt_invariant(p)
    return SingularPart(*_singular_coefficients(*_homogeneous(p.gamma)))


class CurrentDecomposition(NamedTuple):
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
        return _closed_form(self.params, x)[0]

    def edge_smooth(self, x):
        return _closed_form(self.params, x)[1]

    def total_smooth(self, x):
        return _closed_form(self.params, x)[2]

    def regular(self, x):
        return _closed_form(self.params, x)[3]

    def profiles(self, x):
        """The four smooth profiles at x, from one evaluation of the terms they share.

        (bulk_smooth(x), edge_smooth(x), total_smooth(x), regular(x)): each of
        those methods returns its column of this tuple, so a profile has the
        same bits whichever others are used.  The four columns of the CLI's
        profile table.
        """
        return _closed_form(self.params, x)


def total_decomposition(p: ModelParams) -> CurrentDecomposition:
    """Assemble the decomposition of <j^2>; its singular part is singular_part(p) at every m."""
    return CurrentDecomposition(p, singular_part(p))
