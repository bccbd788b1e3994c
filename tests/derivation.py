"""Checks of the steps of the bulk derivation behind the closed-form currents.

The closed forms of edgecurrents.currents rest on these steps, each checked
here on its own:

- j^1 = psi^dagger sigma_1 psi vanishes for every bulk and edge mode, so
  only j^2 carries a current along the boundary;
- the bulk mode sum -(f/g) dk/E, in v = exp(arcsinh(k/a)), a = sqrt(l^2 + m^2),
  splits into the partial fractions P1 = a/2, P2 = -(a/2) v^-2,
  P3 = c3/v and P4 = c4/(v - v3);
- over the v-symmetric cutoff range (1/LAMBDA, LAMBDA), P1 + P2 integrate to
  0, and the (v - v3)^-1 integral is the principal-log antiderivative, which
  tends to ln Lambda - [i arctan(l/m) + ln|(g-1)/(g+1)| - i pi Theta(g^2-1)];
- the delta'(x) sector, the Abel limit of int l sin(2lx) dl, vanishes at x > 0;
- the gamma-form and rapidity-form residual pairs of a multi-fermion system
  vanish together.

No subcommand or library code needs these steps at run time; the library
evaluates only their results.  So they live with the tests, which call the
library's own quadrature and bilinears rather than copies of them.
"""

import cmath
import math

import numpy as np

from edgecurrents import bulk_mode, edge_mode_at_k, eval_bulk, eval_edge, residuals
from edgecurrents.currents import _bilinears
from edgecurrents.multifermion import _negligible
from edgecurrents.oracle import _graded_edges, quad
from edgecurrents.params import _homogeneous

LAMBDA = 1.0e4  # the P3/P4 cutoff
L_MAX = 400.0  # the l-range of the delta' sector
P3P4_TOL = 1e-10


def j1_vanishes(p, samples):
    """|j^1| <= 1e-12 for the bulk mode (l, k) and, where it exists, the edge mode at k.

    Each sample is a tuple (l, k, x, y).
    """
    spinors = []
    for l, k, x, y in samples:
        spinors.append(eval_bulk(bulk_mode(p, l, k), p, x, y))
        if (mode := edge_mode_at_k(p, k)) is not None:
            spinors.append(eval_edge(mode, p, x, y))
    return not any(abs(_bilinears(u)[1]) > 1e-12 for u in spinors)


def partial_fractions(p, l):
    """a, the pole v3 of P4, and the coefficients c3 of P3 and c4 of P4, at momentum l."""
    a, (ga, gb) = math.sqrt(l * l + p.m * p.m), _homogeneous(p.gamma)
    return (a, (1j * l + p.m) / a * (gb - ga) / (gb + ga), 1j * l * (gb + ga) / (gb - ga),
            -1j * l * 4.0 * ga * gb / (gb * gb - ga * ga))


def partial_fraction_sides(p, l, v):
    """P1 + P2 + P3 + P4 at v, and (f/g)/v evaluated from the spinor data independently."""
    a, v3, c3, c4 = partial_fractions(p, l)
    v = np.asarray(v, dtype=float)  # numpy's complex arithmetic, as on an array of v
    k, E = a * (v - 1.0 / v) / 2.0, -a * (v + 1.0 / v) / 2.0
    ga, gb = _homogeneous(p.gamma)
    g = ga * (p.m - E) + gb * (k - 1j * l)
    return a / 2.0 - a / 2.0 / v ** 2 + c3 / v + c4 / (v - v3), (k - 1j * l) * np.conj(g) / g / v


def p3_p4_errors(p, l):
    """The P1 + P2 integral relative to its scale, the (v - v3)^-1 integral's error, and the gap
    of its antiderivative to the Lambda -> inf limit, over (1/LAMBDA, LAMBDA).

    Both integrals run in t = ln v, on panels graded towards Re ln v3: the pole
    sits |arg v3| off the real t axis, which is the first panel width.
    """
    a, v3, _, _ = partial_fractions(p, l)
    T, log_v3 = math.log(LAMBDA), cmath.log(v3)
    centre, first = min(max(log_v3.real, -T), T), min(1.0, abs(log_v3.imag))
    edges = np.concatenate((_graded_edges(centre, -T, first)[::-1],
                            _graded_edges(centre, T, first)[1:]))
    # in t the 1/v^2 spike of P2 at the lower cutoff becomes the odd (a/2)(e^t - e^-t)
    sym = float(quad(lambda t: (a / 2.0 - a / 2.0 / np.exp(t) ** 2) * np.exp(t), edges))
    numeric = complex(quad(lambda t: np.exp(t) / (np.exp(t) - v3), edges))
    # Im(v - v3) is constant along the path, so principal logs are branch-safe
    exact = cmath.log(LAMBDA - v3) - cmath.log(1.0 / LAMBDA - v3)
    ga, gb = _homogeneous(p.gamma)
    log_const = (1j * math.atan2(l, p.m) + math.log(abs((gb - ga) / (gb + ga)))
                 - 1j * math.pi * (1.0 if abs(gb) > ga else 0.0))
    return (abs(sym) / abs(a / 2.0 * (LAMBDA - 1.0 / LAMBDA)), abs(numeric - exact),
            abs(exact - (T - log_const)))


def delta_prime_damped(x, eps):
    """Abel-damped int_0^L_MAX l sin(2lx) e^{-eps l} dl, on half-period panels in l."""
    edges = np.linspace(0.0, L_MAX, math.ceil(2.0 * x * L_MAX / math.pi) + 1)
    return float(quad(lambda l: l * np.sin(2.0 * l * x) * np.exp(-eps * l), edges))


def rapidity_forms_agree(sys):
    """True iff the gamma-form pair and the rapidity-form pair of sys vanish together."""
    rep = residuals(sys)
    return rep.cancels() == _negligible(rep.scale, rep.r_plus, rep.r_minus)
