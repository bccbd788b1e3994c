"""Independent quadrature verification of the closed-form current profiles.

Every closed form is re-derived numerically: the edge profile by absolutely
convergent 1D quadrature over the occupied momenta, the bulk profile by the
full pipeline (v-substitution, partial fractions, Abel-damped oscillatory
l-integration with polynomial extrapolation of the damping to zero), and the
logarithmic branch-cut integral by comparing the damped real-axis evaluation
against the elementary contour-shift form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .currents import edge_integrand_j2, heaviside, partial_fractions
from .errors import CptInvariantBoundary, NonConvergent
from .params import ModelParams


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use so that importing the package skips scipy."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


@dataclass(frozen=True)
class RegularizationScheme:
    """Cutoffs, damping schedule and quadrature tolerances of the oracle.

    The Abel damping schedule is in units of x: the oracles damp with
    eps = e * x for each e in eps_schedule, since the damping e^{-eps l}
    competes with the e^{-2ilx} oscillation through the ratio eps / (2x).
    """

    Lambda: float = 1.0e4
    l_max: float = 400.0
    eps_schedule: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025, 0.0125)
    quad_rel_tol: float = 1.0e-10
    quad_abs_tol: float = 1.0e-12
    panel_budget: int = 100_000

    def __post_init__(self) -> None:
        if self.Lambda <= 1 or self.l_max <= 0:
            raise ValueError("need Lambda > 1 and l_max > 0")
        if self.quad_rel_tol <= 0 or self.quad_abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        eps = self.eps_schedule
        if len(eps) < 2 or not all(math.inf > a > b > 0.0 for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_schedule must be two or more strictly decreasing finite positive values")


DEFAULT_SCHEME = RegularizationScheme()


def richardson_extrapolate(eps: list[float], vals: list[float]) -> tuple[float, float]:
    """Neville polynomial extrapolation of vals(eps) to eps = 0.

    Returns the extrapolant and the difference between the last two
    extrapolation levels as an error estimate.
    """
    n = len(vals)
    T = [float(v) for v in vals]
    prev = T[-1]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            T[i] = T[i] + (T[i] - T[i - 1]) * eps[i] / (eps[i - j] - eps[i])
        if j == n - 2:
            prev = T[-1]
    return T[-1], abs(T[-1] - prev)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def abel_damped_integral(fn, x: float, eps: float, scheme: RegularizationScheme) -> float:
    """Integrate fn(l) e^{-eps l} over (0, inf) by a 24-node Gauss-Legendre rule per half-period panel.

    Panels of width pi/(2x) resolve the e^{-2ilx} oscillation; they run until
    the damping e^{-eps l} has fallen below e^{-35}.  fn is called once, on
    the (n_panels, 24) array of all nodes, and must broadcast over l.
    Deterministic: a fixed node array and a fixed summation order.
    """
    width = math.pi / (2.0 * x)
    n_panels = math.ceil(35.0 / (eps * width))
    if n_panels > scheme.panel_budget:
        raise NonConvergent(f"{n_panels} panels exceed the panel budget {scheme.panel_budget} at eps={eps}")
    half = 0.5 * width
    l = (np.arange(n_panels)[:, None] + 0.5) * width + half * _GL_NODES
    return half * float(np.sum((fn(l) * np.exp(-eps * l)) @ _GL_WEIGHTS))


def _occupied_edge_interval(p: ModelParams) -> tuple[float, float] | None:
    """k-interval with lam(k) > 0 and E(k) < -m (the occupied edge region)."""
    g = p.gamma.value
    m = p.m
    # E < -m  <=>  g k < -m ; lam > 0  <=>  (g^2-1) k > -2 g m
    if g == 0.0:
        # E = m for all k, lam = -k: occupied only for negative mass
        return (-math.inf, 0.0) if m < 0 else None
    lo, hi = (-math.inf, -m / g) if g > 0 else (-m / g, math.inf)
    if g * g > 1:
        lo = max(lo, -2.0 * g * m / (g * g - 1.0))
    elif g * g < 1:
        hi = min(hi, -2.0 * g * m / (g * g - 1.0))
    if lo >= hi:
        return None
    return lo, hi


def oracle_edge_current(p: ModelParams, x: float, scheme: RegularizationScheme = DEFAULT_SCHEME) -> float:
    """Edge current at x > 0 by adaptive quadrature of the mode integrand (dk/pi)."""
    if p.is_cpt_invariant_bc:
        raise CptInvariantBoundary("oracle rejects gamma = +-1")
    if p.gamma.is_infinite:
        return 0.0  # edge spinor carries no j^2
    interval = _occupied_edge_interval(p)
    if interval is None:
        return 0.0
    lo, hi = interval
    val, err = quad(lambda k: edge_integrand_j2(p, k, x) / math.pi, lo, hi,
                    epsabs=scheme.quad_abs_tol, epsrel=scheme.quad_rel_tol, limit=500)
    if err > max(scheme.quad_abs_tol, scheme.quad_rel_tol * abs(val)) * 100:
        raise NonConvergent(f"edge quadrature error estimate {err} too large")
    return val


@dataclass(frozen=True)
class P3P4Report:
    """Outcome of the symmetric-cancellation and log-antiderivative checks."""

    symmetric_residual: float
    antiderivative_error: float
    branch_limit_error: float
    symmetric_ok: bool = field(default=False)
    antiderivative_ok: bool = field(default=False)


def oracle_p3_p4_cancellations(p: ModelParams, l: float,
                               scheme: RegularizationScheme = DEFAULT_SCHEME,
                               tol: float = 1e-10) -> P3P4Report:
    """Check the two structural facts behind the bulk closed form.

    (i) The P1 + P2 integral over the v-symmetric range (1/Lambda, Lambda)
    vanishes (the k -> -k, v -> 1/v cancellation).
    (ii) The numeric integral of (v - v3)^-1 over the same range equals the
    principal-branch antiderivative Log(Lambda - v3) - Log(1/Lambda - v3),
    whose Lambda -> inf limit is
    ln Lambda - [ i*arctan(l/m) + ln|(gamma-1)/(gamma+1)| - i pi Theta(gamma^2-1) ].
    The reported branch_limit_error is the O(1/Lambda) gap to that limit.
    """
    pf = partial_fractions(p, l)
    L = scheme.Lambda
    # (i): P1 + P2 is real; integrate in t = ln v so the 1/v^2 spike at the
    # lower cutoff is resolved (the integrand becomes the odd (a/2)(e^t - e^-t))
    T = math.log(L)
    sym, _ = quad(lambda t: float(np.real(pf.p1(math.exp(t)) + pf.p2(math.exp(t)))) * math.exp(t),
                  -T, T, epsabs=scheme.quad_abs_tol, epsrel=scheme.quad_rel_tol, limit=500)
    scale = abs(pf.a / 2.0 * (L - 1.0 / L))
    sym_resid = abs(sym) / scale

    re_part, _ = quad(lambda v: float(np.real(1.0 / (v - pf.v3))), 1.0 / L, L,
                      epsabs=scheme.quad_abs_tol, epsrel=scheme.quad_rel_tol, limit=500)
    im_part, _ = quad(lambda v: float(np.imag(1.0 / (v - pf.v3))), 1.0 / L, L,
                      epsabs=scheme.quad_abs_tol, epsrel=scheme.quad_rel_tol, limit=500)
    numeric = re_part + 1j * im_part
    # Im(v - v3) is constant along the path, so principal logs are branch-safe
    exact = cmath.log(L - pf.v3) - cmath.log(1.0 / L - pf.v3)
    g = pf.gamma_finite
    theta = math.atan2(l, p.m)
    if g is None:
        log_const = 1j * theta - 1j * math.pi  # |(gamma-1)/(gamma+1)| -> 1, gamma^2 > 1
    else:
        log_const = (1j * theta + math.log(abs((g - 1.0) / (g + 1.0)))
                     - 1j * math.pi * heaviside(g * g - 1.0))
    asymptotic = math.log(L) - log_const
    return P3P4Report(
        symmetric_residual=sym_resid,
        antiderivative_error=abs(numeric - exact),
        branch_limit_error=abs(exact - asymptotic),
        symmetric_ok=sym_resid < tol,
        antiderivative_ok=abs(numeric - exact) < tol,
    )


@dataclass(frozen=True)
class BranchCutResult:
    """Abel-damped real-axis value vs the contour-shift elementary form."""

    abel_value: float
    contour_value: float
    rel_diff: float
    error_estimate: float


def oracle_branch_cut_integral(m: float, x: float,
                               scheme: RegularizationScheme = DEFAULT_SCHEME) -> BranchCutResult:
    """Two independent evaluations of the logarithmic branch-cut integral.

    Real axis: int_0^inf 2 Re[ i l * i arctan(l/m) * e^{-2ilx} ] e^{-eps l} dl,
    extrapolated eps -> 0 (ln sqrt((m+il)/(m-il)) = i arctan(l/m) exactly).
    Contour shift to the cut at l = i m: pi int_m^inf t e^{-2tx} dt
    = pi e^{-2mx} (m/(2x) + 1/(4x^2)).
    """
    if m <= 0 or x <= 0:
        raise ValueError("need m > 0 and x > 0")

    def integrand(l: np.ndarray) -> np.ndarray:
        return -2.0 * l * np.arctan2(l, m) * np.cos(2.0 * l * x)

    eps_list = [e * x for e in scheme.eps_schedule]
    vals = [abel_damped_integral(integrand, x, e, scheme) for e in eps_list]
    abel, err = richardson_extrapolate(eps_list, vals)
    contour = math.pi * math.exp(-2.0 * m * x) * (m / (2.0 * x) + 1.0 / (4.0 * x * x))
    if err > 10.0 * max(abs(contour) * 1e-3, 1e-12):
        raise NonConvergent(f"Abel extrapolation unstable: error estimate {err}")
    return BranchCutResult(abel_value=abel, contour_value=contour,
                           rel_diff=abs(abel - contour) / abs(contour), error_estimate=err)


def delta_prime_sector_null(x: float, eps: float, scheme: RegularizationScheme = DEFAULT_SCHEME) -> float:
    """Abel-damped int_0^lmax l sin(2lx) e^{-eps l} dl; tends to 0 as eps -> 0 at x > 0."""
    val, _ = quad(lambda l: l * math.sin(2.0 * l * x) * math.exp(-eps * l), 0.0, scheme.l_max,
                  epsabs=scheme.quad_abs_tol, epsrel=scheme.quad_rel_tol, limit=2000)
    return val


def oracle_bulk_current(p: ModelParams, x: float,
                        scheme: RegularizationScheme = DEFAULT_SCHEME) -> float:
    """Smooth bulk current at x > 0 from the full numeric pipeline.

    Steps: drop the odd k/E term; integrate the partial fractions over the
    v-symmetric cutoff range (P1+P2 cancel, P3 and the pure ln Lambda part of
    P4 only feed delta'(x) terms, which vanish pointwise in the Abel limit);
    Abel-damp the l-integral of the remaining P4 finite part (principal log
    plus Theta branch term) and extrapolate the damping to zero.
    """
    if p.is_cpt_invariant_bc:
        raise CptInvariantBoundary("oracle rejects gamma = +-1")
    if p.gamma.is_infinite or p.gamma.value == 0.0:
        raise ValueError("bulk pipeline needs gamma not in {0, inf}")
    if p.m < 0:
        raise ValueError("bulk pipeline is run at m >= 0; use duality for m < 0")
    g = p.gamma.value
    m = p.m
    coeff = 4.0 * g / (g * g - 1.0)
    theta_branch = math.pi * heaviside(g * g - 1.0)
    log_const = math.log(abs((g - 1.0) / (g + 1.0)))

    def integrand(l: np.ndarray) -> np.ndarray:
        # finite part of the P4 v-integral: i l coeff (i theta_l + log_const - i theta_branch)
        theta_l = np.arctan2(l, m)
        z = 1j * l * coeff * (1j * theta_l + log_const - 1j * theta_branch)
        return np.real(z * np.exp(-2j * l * x)) / (2.0 * math.pi ** 2)

    eps_list = [e * x for e in scheme.eps_schedule]
    vals = [abel_damped_integral(integrand, x, e, scheme) for e in eps_list]
    out, err = richardson_extrapolate(eps_list, vals)
    if err > 10.0 * max(abs(out), 1e-8) * 0.01:
        raise NonConvergent(f"Abel extrapolation unstable: error estimate {err}")
    return out
