"""Independent quadrature verification of the closed-form current profiles.

Every oracle runs the same fixed rule, ``quad``: 24-node Gauss-Legendre on
panel edges chosen by the oracle, numpy only.  Each has the normal form of
the closed forms, sign * 1/(4x^2) * an integral in m x and gamma alone at
m >= 0: the current oracles take m < 0 at the exact reflection dual of
params._nonnegative_mass with sign = -1, as the closed forms do.  So a check
compares only the integral, and every side fills the edge states below
E_F = -|m|.

- Edge: the occupied edge modes integrated in v = 2 x lam, lam their decay
  rate, where the mode current is v e^{-v} with no oscillation, on the
  graded panels of _graded_edges from the lowest occupied v, the first 1
  wide, the last cut at 80 above it.
- Bulk and branch-cut: the Abel limit of int_0^inf Re[F(l)] dl, where
  F(l) = (analytic in Re l > 0) * e^{-2ilx}, written in s = 2lx as
  1/(4x^2) int_0^inf Re[G(s) e^{-is}] ds, G analytic in Re s > 0 and a
  function of m x, and taken by Cauchy's theorem along the ray
  s = t e^{-i phi}, on which e^{-is} decays like e^{-t sin phi} and which
  never meets the branch points +-2imx of arctan(s/(2mx)).  The closed
  forms use the cut discontinuity at phi = pi/2 instead, so the check stays
  independent.  The difference between the rays at phi = 0.4 pi and 0.3 pi
  is the oracle's own error estimate.  The limit is a cancellation: its
  absolute error stays at the roundoff of an integrand far larger than the
  value, so where the value is O(e^{-2mx}), as for the branch-cut integral
  and for the bulk at |gamma| < 1, its relative error grows like e^{2mx}.
  The branch-cut check at m = 1 deviates by 1.1e-11 at x = 8, 9.7e-10 at
  x = 10 and 4.2e-8 at x = 12; at x = 20 and 50 the rays disagree and it
  raises NonConvergent.  Where m x <= 2^-52 the branch point moves the value
  by less than its rounding, and the rays run on the panels of m = 0, down to
  subnormal m.  No panel depends on x alone, so the oracles run up to the
  largest float x, where 1/(4x^2) underflows to 0.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import NonConvergent, OutOfDomain
from .params import ModelParams, _nonnegative_mass, _reject_cpt_invariant

# np.polynomial.legendre.leggauss(24), written out: the rule is exactly symmetric, so the
# 12 positive nodes and their weights, mirrored, are its arrays bit for bit
_GL_HALF_NODES = (0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
                  0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
                  0.7401241915785544, 0.820001985973903, 0.8864155270044011,
                  0.9382745520027328, 0.9747285559713095, 0.9951872199970213)
_GL_HALF_WEIGHTS = (0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
                    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
                    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
                    0.04427743881741941, 0.02853138862893356, 0.01234122979998869)
_GL_NODES = np.array([-v for v in _GL_HALF_NODES[::-1]] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(_GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS)
# Rays of the Abel-limit oracles, and the largest relative difference
# between their two values that still counts as converged.
_RAY_ANGLES = (0.4 * math.pi, 0.3 * math.pi)
_RAY_TOL = 1e-6


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
    if not x * x * sys.float_info.max >= 1.0:  # 1/x^2, in every closed form, overflows
        raise OutOfDomain(f"oracles need a finite 1/x^2, got x={x}")


def _rel_dev(reference: float, value: float) -> float:
    """|value - reference| / |reference|: the cli's rel_dev and BranchCutResult.rel_diff.

    A deviation below the normal float range is roundoff and reads 0; a zero
    reference admits no other deviation and reads inf.
    """
    dev = abs(value - reference)
    return 0.0 if dev < sys.float_info.min else (dev / abs(reference) if reference else math.inf)


def _abel_limit(m: float, x: float, a: float, b: float) -> tuple[float, float]:
    """Abel limit of int_0^inf Re[l (a + b arctan(l/m)) e^{-2ilx}] dl at m >= 0.

    In s = 2lx, l e^{-2ilx} dl = s e^{-is} ds / (4x^2): 1/(4x^2) times
    Re[e^{-i phi} int_0^inf F(t e^{-i phi}) dt], F(s) = s (a + b arctan(s/(2mx)))
    e^{-is}, which depends on m x alone.  Geometric panels run from a first
    width that resolves the branch point -2imx (at distance 2mx cos phi from
    the ray) out to where e^{-t sin phi} = e^{-45}; arctan(s/(2mx)) is
    continued as pi/2 - arctan(2mx/s).  Where m x <= 2^-52 the branch point
    moves the value by less than its rounding, so the first width is that of
    m = 0.  Returns the value at the first ray angle, times 1/(4x^2), and its
    difference to the second; raises NonConvergent when that difference
    exceeds _RAY_TOL relative.
    """
    scale = m * x if 2.0 ** -52 < m * x < 1.0 else 1.0
    vals = []
    for phi in _RAY_ANGLES:
        rot = complex(math.cos(phi), -math.sin(phi))
        edges = _graded_edges(0.0, 45.0 / math.sin(phi), math.cos(phi) * scale / 2.0)

        def fn(t: np.ndarray) -> np.ndarray:
            s = t * rot
            return s * (a + b * (np.pi / 2 - np.arctan(2.0 * m * x / s))) * np.exp(-1j * s)

        vals.append(float((rot * quad(fn, edges)).real) * 0.25 / x / x)
    err = abs(vals[0] - vals[1])
    if err > _RAY_TOL * abs(vals[0]):
        raise NonConvergent(f"ray values differ by {err:.3g}, value {vals[0]:.3g}")
    return vals[0], err


def oracle_edge_current(p: ModelParams, x: float) -> float:
    """Edge current at x > 0 and any m, integrated over the occupied decay rates lam.

    At m < 0 the current is minus the one at the exact reflection dual of
    params._nonnegative_mass, as in the closed forms, so at either sign of m
    the occupied edge states are those below E_F = -|m|.  At m >= 0, along
    the edge branch E = (2 g lam - m (1+g^2))/(g^2-1), so with lam > 0,
    E < -m reads lam < m/g where g (g^2-1) > 0 and lam > m/g where
    g (g^2-1) < 0; in v = 2 x lam, v < 2mx/g and v > 2mx/g.  Each mode
    carries (dk/pi) v_edge lam e^{-2 lam x}, with the edge velocity
    v_edge = 2g/(1+g^2) and |dk/dlam| = (1+g^2)/|g^2-1|, so the current is
    2g/|g^2-1|/pi times 1/(4x^2) int v e^{-v} dv over the occupied v,
    written in the homogeneous coordinates (a, b) of params._homogeneous.
    At gamma = inf no decay rate is occupied.
    """
    _reject_cpt_invariant(p)
    _check_x(x)
    sign, m, a, b = _nonnegative_mass(p)
    if b == 0.0:
        return 0.0  # v_edge = 0: the edge spinor carries no j^2
    v_fermi = 2.0 * x * (m * a / b)  # v = 2 lam x at E = -m
    lo, hi = (0.0, v_fermi) if (abs(b) > a) == (b > 0.0) else (max(0.0, v_fermi), math.inf)
    hi = min(hi, lo + 80.0)  # lo + 80 rounds to lo where e^{-lo} underflows
    if not lo < hi:
        return 0.0
    total = float(quad(lambda v: v * np.exp(-v), _graded_edges(lo, hi, 1.0))) * 0.25 / x / x
    return sign * 2.0 * a * b / (math.pi * abs((b - a) * (b + a))) * total


class BranchCutResult(NamedTuple):
    """Ray-rule Abel limit vs the contour-shift elementary form.

    abel_value is the Abel limit, evaluated on the ray at 0.4 pi;
    error_estimate is its difference to the ray at 0.3 pi; rel_diff is its
    deviation from contour_value by the cli's rel_dev rule, _rel_dev.
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
    # 0.25 / x / x keeps the subnormal 1/(4x^2) where 4 x x would overflow, from x ~ 6.7e153
    contour = math.pi * math.exp(-2.0 * m * x) * (m / (2.0 * x) + 0.25 / x / x)
    return BranchCutResult(abel_value=abel, contour_value=contour,
                           rel_diff=_rel_dev(contour, abel), error_estimate=err)


def oracle_bulk_current(p: ModelParams, x: float) -> float:
    """Smooth bulk current at x > 0 and any m from the full numeric pipeline.

    Steps: drop the odd k/E term; integrate the partial fractions over the
    v-symmetric cutoff range (P1+P2 cancel; P3 and the parts of P4 whose
    coefficient is i l times a constant, ln Lambda and ln|(g-1)/(g+1)|,
    only feed delta'(x) terms: Re[i l e^{-2ilx}] = l sin(2lx), whose Abel
    limit vanishes at x > 0, as tests/derivation.py checks); take the Abel
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
