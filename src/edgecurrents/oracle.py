"""Independent quadrature verification of the closed-form current profiles.

Every oracle runs the same fixed rule, ``quad``: 24-node Gauss-Legendre on
panel edges chosen by the oracle, numpy only.

- Edge: the occupied edge modes integrated in their decay rate u = lam(k),
  where the mode current is u e^{-2ux} with no oscillation, on uniform
  panels of width <= 1/(2x) from the lowest occupied u to 40/x above it.
- Bulk and branch-cut: the Abel limit of int_0^inf Re[F(l)] dl, where
  F(l) = (analytic in Re l > 0) * e^{-2ilx}, taken by Cauchy's theorem along
  the ray l = t e^{-i phi}, on which e^{-2ilx} decays like e^{-2xt sin phi}
  and which never meets the branch points +-im of arctan(l/m).  The closed
  forms use the cut discontinuity at phi = pi/2 instead, so the check stays
  independent.  The difference between the rays at phi = 0.4 pi and 0.3 pi
  is the oracle's own error estimate.  The rays need m >= 0; the bulk
  takes m < 0 at the exact reflection dual of params._nonnegative_mass,
  the same one as the closed forms.
- P3/P4: panels graded in ln v over (1/LAMBDA, LAMBDA) towards the pole v3.
- delta' sector: the damped l-integral on half-period panels in l.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .currents import _reject_cpt_invariant, partial_fractions
from .errors import NonConvergent, OutOfDomain
from .params import ModelParams, _homogeneous, _nonnegative_mass, edge_velocity

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# Rays of the Abel-limit oracles, and the largest relative difference
# between their two values that still counts as converged.
_RAY_ANGLES = (0.4 * math.pi, 0.3 * math.pi)
_RAY_TOL = 1e-6
# The structural checks: P3/P4 cutoff and pass bound, and the l-range of delta'.
LAMBDA = 1.0e4
L_MAX = 400.0
_P3P4_TOL = 1e-10


def quad(fn, edges) -> complex:
    """Integrate fn over the panels [edges[i], edges[i+1]] by 24-node Gauss-Legendre each.

    fn is called once, on the (n_panels, 24) array of all nodes, and must
    broadcast; it may return complex values.  Exact for polynomials of degree
    below 48 on every panel.  Deterministic: a fixed node array and a fixed
    summation order.
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    nodes = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * _GL_NODES
    return (fn(nodes) @ _GL_WEIGHTS) @ half


def _graded_edges(start: float, stop: float, first: float) -> np.ndarray:
    """Panel edges from start to stop (either direction) of widths first, 2 first, 4 first, ...

    The last panel is cut at stop.
    """
    n = max(1, math.ceil(math.log2(abs(stop - start) / first + 1.0)))
    step = math.copysign(first, stop - start)
    return np.append(start + step * (2.0 ** np.arange(n) - 1.0), stop)


def _check_x(x: float) -> None:
    if not 0.0 < x < math.inf:
        raise OutOfDomain(f"oracles need 0 < x < inf, got x={x}")


def _abel_limit(m: float, x: float, a: float, b: float) -> tuple[float, float]:
    """Abel limit of int_0^inf Re[l (a + b arctan(l/m)) e^{-2ilx}] dl at m >= 0.

    Re[e^{-i phi} int_0^inf F(t e^{-i phi}) dt] on geometric panels, from a
    first width that resolves the branch point -im (at distance m cos phi
    from the ray) out to where e^{-2xt sin phi} = e^{-45}; arctan(l/m) is
    continued as pi/2 - arctan(m/l), the constant pi/2 at m = 0.  Returns the
    value at the first ray angle and its difference to the second; raises
    NonConvergent when that difference exceeds _RAY_TOL relative.
    """
    scale = min(m, 1.0 / x) if m > 0 else 1.0 / x
    vals = []
    for phi in _RAY_ANGLES:
        rot = complex(math.cos(phi), -math.sin(phi))
        edges = _graded_edges(0.0, 45.0 / (2.0 * x * math.sin(phi)), math.cos(phi) * scale / 4.0)

        def fn(t: np.ndarray) -> np.ndarray:
            l = t * rot
            return l * (a + b * (np.pi / 2 - np.arctan(m / l))) * np.exp(-2j * l * x)

        vals.append(float((rot * quad(fn, edges)).real))
    err = abs(vals[0] - vals[1])
    if err > _RAY_TOL * abs(vals[0]):
        raise NonConvergent(f"ray values differ by {err:.3g}, value {vals[0]:.3g}")
    return vals[0], err


def oracle_edge_current(p: ModelParams, x: float) -> float:
    """Edge current at x > 0, integrated over the occupied decay rates u = lam.

    Occupied means lam > 0 and E < -m.  Along the edge branch
    E = (2 g lam - m (1+g^2))/(g^2-1), so E < -m reads g lam < m where
    g (g^2-1) > 0 and g lam > m where g (g^2-1) < 0.  Each mode carries
    (dk/pi) v_edge u e^{-2ux}, with the edge velocity v_edge = 2g/(1+g^2) and
    |dk/du| = (1+g^2)/|g^2-1|, all written in the homogeneous coordinates
    (a, b) of params._homogeneous.  At gamma = inf no decay rate is occupied.
    """
    _reject_cpt_invariant(p)
    _check_x(x)
    a, b = _homogeneous(p.gamma)
    if b == 0.0:
        return 0.0  # v_edge = 0: the edge spinor carries no j^2
    u_fermi = p.m * a / b  # the decay rate at E = -m
    lo, hi = (0.0, u_fermi) if (abs(b) > a) == (b > 0.0) else (max(0.0, u_fermi), math.inf)
    if not lo < hi:
        return 0.0
    hi = min(hi, lo + 40.0 / x)
    dk_du = (a * a + b * b) / abs((b - a) * (b + a))
    edges = np.linspace(lo, hi, math.ceil(2.0 * x * (hi - lo)) + 1)
    total = float(quad(lambda u: u * np.exp(-2.0 * u * x), edges))
    return edge_velocity(p.gamma) * dk_du / math.pi * total


@dataclass(frozen=True)
class P3P4Report:
    """Outcome of the symmetric-cancellation and log-antiderivative checks."""

    symmetric_residual: float
    antiderivative_error: float
    branch_limit_error: float
    symmetric_ok: bool
    antiderivative_ok: bool


def oracle_p3_p4_cancellations(p: ModelParams, l: float) -> P3P4Report:
    """Check the two structural facts behind the bulk closed form.

    (i) The P1 + P2 integral over the v-symmetric range (1/LAMBDA, LAMBDA)
    vanishes (the k -> -k, v -> 1/v cancellation).
    (ii) The numeric integral of (v - v3)^-1 over the same range equals the
    principal-branch antiderivative Log(LAMBDA - v3) - Log(1/LAMBDA - v3),
    whose Lambda -> inf limit is
    ln Lambda - [ i*arctan(l/m) + ln|(gamma-1)/(gamma+1)| - i pi Theta(gamma^2-1) ].
    The reported branch_limit_error is the O(1/LAMBDA) gap to that limit.
    Both integrals run in t = ln v, on panels graded towards Re ln v3: the
    pole sits |arg v3| off the real t axis, which is the first panel width.
    """
    pf = partial_fractions(p, l)
    T = math.log(LAMBDA)
    log_v3 = cmath.log(pf.v3)
    centre = min(max(log_v3.real, -T), T)
    first = min(1.0, abs(log_v3.imag))
    edges = np.concatenate((_graded_edges(centre, -T, first)[::-1],
                            _graded_edges(centre, T, first)[1:]))
    # (i): P1 + P2 is real; in t the 1/v^2 spike at the lower cutoff becomes
    # the odd (a/2)(e^t - e^-t)
    sym = float(quad(lambda t: np.real(pf.p1(np.exp(t)) + pf.p2(np.exp(t))) * np.exp(t), edges))
    scale = abs(pf.a / 2.0 * (LAMBDA - 1.0 / LAMBDA))
    sym_resid = abs(sym) / scale

    numeric = complex(quad(lambda t: np.exp(t) / (np.exp(t) - pf.v3), edges))
    # Im(v - v3) is constant along the path, so principal logs are branch-safe
    exact = cmath.log(LAMBDA - pf.v3) - cmath.log(1.0 / LAMBDA - pf.v3)
    a, b = pf.gamma_ab
    log_const = (1j * math.atan2(l, p.m) + math.log(abs((b - a) / (b + a)))
                 - 1j * math.pi * (1.0 if abs(b) > a else 0.0))
    asymptotic = T - log_const
    return P3P4Report(
        symmetric_residual=sym_resid,
        antiderivative_error=abs(numeric - exact),
        branch_limit_error=abs(exact - asymptotic),
        symmetric_ok=sym_resid < _P3P4_TOL,
        antiderivative_ok=abs(numeric - exact) < _P3P4_TOL,
    )


@dataclass(frozen=True)
class BranchCutResult:
    """Ray-rule Abel limit vs the contour-shift elementary form.

    abel_value is the Abel limit, evaluated on the ray at 0.4 pi;
    error_estimate is its difference to the ray at 0.3 pi.
    """

    abel_value: float
    contour_value: float
    rel_diff: float
    error_estimate: float


def oracle_branch_cut_integral(m: float, x: float) -> BranchCutResult:
    """Two independent evaluations of the logarithmic branch-cut integral.

    Ray rule: the Abel limit of int_0^inf 2 Re[ i l * i arctan(l/m) * e^{-2ilx} ] dl
    (ln sqrt((m+il)/(m-il)) = i arctan(l/m) exactly).
    Contour shift to the cut at l = -i m: pi int_m^inf t e^{-2tx} dt
    = pi e^{-2mx} (m/(2x) + 1/(4x^2)), at every m >= 0: pi/(4x^2) at m = 0.
    """
    if not 0.0 <= m < math.inf:
        raise OutOfDomain(f"branch-cut integral needs 0 <= m < inf, got m={m}")
    _check_x(x)
    abel, err = _abel_limit(m, x, 0.0, -2.0)
    contour = math.pi * math.exp(-2.0 * m * x) * (m / (2.0 * x) + 1.0 / (4.0 * x * x))
    return BranchCutResult(abel_value=abel, contour_value=contour,
                           rel_diff=abs(abel - contour) / abs(contour), error_estimate=err)


def delta_prime_sector_null(x: float, eps: float) -> float:
    """Abel-damped int_0^L_MAX l sin(2lx) e^{-eps l} dl; tends to 0 as eps -> 0 at x > 0.

    Integrated on half-period panels of width <= pi/(2x); needs 0 <= eps < inf.
    """
    _check_x(x)
    if not 0.0 <= eps < math.inf:
        raise OutOfDomain(f"the damping needs 0 <= eps < inf, got eps={eps}")
    edges = np.linspace(0.0, L_MAX, math.ceil(2.0 * x * L_MAX / math.pi) + 1)
    return float(quad(lambda l: l * np.sin(2.0 * l * x) * np.exp(-eps * l), edges))


def oracle_bulk_current(p: ModelParams, x: float) -> float:
    """Smooth bulk current at x > 0 and any m from the full numeric pipeline.

    Steps: drop the odd k/E term; integrate the partial fractions over the
    v-symmetric cutoff range (P1+P2 cancel; P3 and the parts of P4 whose
    coefficient is i l times a constant, ln Lambda and ln|(g-1)/(g+1)|,
    only feed delta'(x) terms: Re[i l e^{-2ilx}] = l sin(2lx), whose Abel
    limit vanishes at x > 0, see delta_prime_sector_null); take the Abel
    limit of the l-integral of the remaining P4 finite part, the principal
    arctan(l/m) and the Theta branch term, along the rays.  At m < 0 the
    current is minus the one at the exact reflection dual of
    params._nonnegative_mass, as in the closed forms; at gamma = 0 and inf
    the coefficient, and so the current, is 0.
    """
    _reject_cpt_invariant(p)
    _check_x(x)
    sign, m, a, b = _nonnegative_mass(p)
    # i l coeff (i arctan(l/m) - i theta_branch), theta_branch = pi Theta(g^2-1);
    # g/(g^2-1) = ab/(b^2-a^2) in the homogeneous coordinates of params._homogeneous
    coeff = 4.0 * a * b / ((b - a) * (b + a)) / (2.0 * math.pi ** 2)
    return sign * _abel_limit(m, x, coeff * (math.pi if abs(b) > a else 0.0), -coeff)[0]
