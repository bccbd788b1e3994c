"""Property-based checks of every oracle against its closed form over the documented domain.

The closed forms are evaluated at 50 digits with mpmath, so each bound below
is the oracle's own accuracy: m in {0} u [0.01, 2] (and its negative for the bulk),
x in [0.05, 5], gamma across the projective line, |gamma| from 1e-300 to 1e300 and
down to 1e-3 from +-1.
The draws stop at m <= 2 and x <= 5 (m x <= 10) because the ray rule of the
bulk and branch-cut oracles is a cancellation: where the value is O(e^{-2mx}),
its relative error grows like e^{2mx} (8.4e-10 for the branch cut at
m x = 10, a non-convergent FAIL at m x = 20; see edgecurrents.oracle).
The singular coefficients, the total and the regular part are checked the
same way, at 60 digits.
"""

import math
import sys

import pytest

pytest.importorskip("hypothesis")
mp = pytest.importorskip("mpmath")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgecurrents import (GAMMA_INFINITY, ModelParams, as_gamma,  # noqa: E402
                          oracle_branch_cut_integral, oracle_bulk_current, oracle_edge_current,
                          total_decomposition)

fixed_examples = settings(derandomize=True, database=None, deadline=None, max_examples=300)

mass = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
distance = st.floats(0.05, 5.0)
# magnitude in [1e-300, 1e300], where gamma^2 under- and overflows, plus gammas between
# 1e-3 and 1e-2 from +-1
finite_gamma = st.one_of(
    st.builds(lambda s, t: s * 10.0 ** t, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
    st.builds(lambda s, d: s * (1.0 + d), st.sampled_from([1.0, -1.0]),
              st.one_of(st.floats(1e-3, 1e-2), st.floats(-1e-2, -1e-3))),
).filter(lambda g: abs(abs(g) - 1.0) >= 1e-3)
projective_gamma = st.one_of(finite_gamma, st.just(GAMMA_INFINITY), st.just(0.0))


def edge_reference(m: float, g, x: float):
    """[g/(pi (g^2-1))] (1/(2x^2)) [ Theta(g^2-1) - (1 + t) e^{-t} Theta(g) ], t = 2mx/g."""
    if g is GAMMA_INFINITY or g == 0.0:
        return mp.mpf(0)
    m, g, x = mp.mpf(m), mp.mpf(g), mp.mpf(x)
    t = 2 * m * x / g
    if g > 1:  # lower incomplete gamma(2, t) = 1 - (1 + t) e^{-t}, which cancels at small t
        bracket = mp.gammainc(2, 0, t)
    else:
        bracket = (1 if g * g > 1 else 0) - ((1 + t) * mp.exp(-t) if g > 0 else 0)
    return g / (mp.pi * (g * g - 1)) / (2 * x * x) * bracket


def bulk_reference(m: float, g: float, x: float):
    """[g/(2 pi (g^2-1))] (1/(2x^2) + m/x) e^{-2mx} - [g/(pi (g^2-1))] Theta(g^2-1)/(2x^2)."""
    m, g, x = mp.mpf(m), mp.mpf(g), mp.mpf(x)
    c = g / (2 * mp.pi * (g * g - 1))
    out = c * (1 / (2 * x * x) + m / x) * mp.exp(-2 * m * x)
    return out - c / (x * x) if g * g > 1 else out


@fixed_examples
@given(mass, projective_gamma, distance)
@example(1.0, 1e30, 1.0)
def test_edge_oracle_matches_closed_form(m, g, x):
    with mp.workdps(50):
        ref = edge_reference(m, g, x)
        # 1e-300: where the current underflows, the oracle returns 0
        assert abs(oracle_edge_current(ModelParams(m, as_gamma(g)), x) - ref) <= 1e-10 * abs(ref) + 1e-300


@fixed_examples
@given(st.sampled_from([1.0, -1.0]), mass, projective_gamma, distance)
@example(1.0, 1.0, 1e154, 0.7)
@example(1.0, 1.0, 1e200, 0.7)
@example(1.0, 0.0, -1e200, 0.7)
@example(-1.0, 1.0, 2.0, 1.0)
@example(-1.0, 1.0, 0.0, 0.7)
@example(1.0, 1.0, GAMMA_INFINITY, 0.7)
def test_bulk_oracle_matches_closed_form(sign, m, g, x):
    # 0 at gamma = 0 and inf; at m < 0 minus the reference at the reflection dual -1/g, exactly
    p = ModelParams(sign * m, as_gamma(g))
    with mp.workdps(50):
        if g is GAMMA_INFINITY or g == 0.0:
            ref = mp.mpf(0)
        else:
            ref = sign * bulk_reference(m, mp.mpf(g) if sign > 0 else -1 / mp.mpf(g), x)
        assert abs(oracle_bulk_current(p, x) - ref) <= 1e-8 * abs(ref)
        assert abs(total_decomposition(p).bulk_smooth(x) - ref) <= 1e-8 * abs(ref)


@fixed_examples
@given(st.floats(0.01, 2.0), distance)
def test_branch_cut_oracle_matches_closed_form(m, x):
    res = oracle_branch_cut_integral(m, x)
    with mp.workdps(50):
        ref = mp.pi * mp.exp(-2 * mp.mpf(m) * x) * (mp.mpf(m) / (2 * x) + 1 / (4 * mp.mpf(x) ** 2))
        assert abs(res.abel_value - ref) <= 1e-8 * ref
        assert abs(res.contour_value - ref) <= 1e-14 * ref
    assert res.error_estimate < 1e-6 * abs(res.abel_value)
    assert math.isfinite(res.rel_diff) and res.rel_diff < 1e-8


@fixed_examples
@given(st.sampled_from([1.0, -1.0]), finite_gamma)
@example(1.0, 1e16)
@example(1.0, -1.3688492131505766e16)
@example(1.0, 1e-12)
@example(-1.0, -0.999)
def test_singular_coefficients_match_mpmath(m, g):
    # each coefficient to 1e-15 wherever its reference is in the normal float range, at
    # either sign of m (the coefficients depend on gamma alone);
    # c_delta_prime = [g/(pi(g^2-1))] theta, theta = 2 atanh(g or 1/g)
    s = total_decomposition(ModelParams(m, as_gamma(g))).singular
    with mp.workdps(60):
        G = mp.mpf(g)
        d = (G - 1) * (G + 1)
        refs = (-(G * G + 1) / (2 * mp.pi * d),
                G / (mp.pi * d) * 2 * mp.atanh(G if abs(G) < 1 else 1 / G),
                -abs(G) / (4 * mp.pi * d))
        for c, ref in zip((s.c_log_delta_prime, s.c_delta_prime, s.c_inv_x2), refs):
            if abs(ref) >= sys.float_info.min:
                assert abs(c - ref) <= 1e-15 * abs(ref)


def smooth_reference(m, g, x):
    """(bulk, edge, total, regular) at m >= 0 and the size of the exponential terms of the last
    two; g is an mpf or inf.

    bulk and edge are the two references above, and total = bulk + edge.  With c = g/(2 pi (g^2-1)),
    u = 1/(2x^2), s = 2mx, t = 2mx/g and phi(t) = (1+t) e^{-t} = 1 - psi(t),
    regular = total - c_x2/x^2 = c u [2 psi(t) Theta(g) - psi(s)], which is checked here
    and is exactly 0 at m = 0.  The scales are |c| u [phi(s) + 2 phi(t) Theta(g)] and
    |c| u [psi(s) + 2 psi(t) Theta(g)].
    """
    if mp.isinf(g):
        return (mp.mpf(0),) * 6
    m, x = mp.mpf(m), mp.mpf(x)
    c, u, s = g / (2 * mp.pi * (g * g - 1)), 1 / (2 * x * x), 2 * m * x
    # psi(t) is the lower incomplete gamma(2, t), without the cancellation of 1 - phi(t)
    psi_s, psi_t = mp.gammainc(2, 0, s), (mp.gammainc(2, 0, s / g) if g > 0 else mp.mpf(0))
    phi_s, phi_t = 1 - psi_s, ((1 - psi_t) if g > 0 else mp.mpf(0))
    bulk, edge = bulk_reference(m, g, x), edge_reference(m, g, x)
    total = bulk + edge
    regular = c * u * (2 * psi_t - psi_s)
    c_x2 = -abs(g) / (4 * mp.pi * (g * g - 1))
    assert abs(total - c_x2 / (x * x) - regular) <= 1e-50 * abs(c) * u
    return (bulk, edge, total, regular,
            abs(c) * u * (phi_s + 2 * phi_t), abs(c) * u * (psi_s + 2 * psi_t))


@fixed_examples
@given(st.sampled_from([1.0, -1.0]), st.floats(0.0, 5.0), projective_gamma, distance)
@example(1.0, 5.0, 1.2, 5.0)
@example(1.0, 1.0, 2.0, 50.0)
@example(-1.0, 1.0, 0.999999, 1.0)
@example(-1.0, 1.0, 1.000001, 0.5)
def test_total_and_regular_match_mpmath(sign, m, g, x):
    # within 1e-14 of the size of the exponential terms: the 1/x^2 tails of bulk and edge
    # cancel in the closed form, not in floats.  bulk and edge to 1e-14 of that size plus their
    # own: e^{-t} carries the rounding of t = 2mx/g, ~t ulp, where it is far below the other terms.
    # At m < 0 each profile is minus the one at the reflection dual (m, -1/g), taken exactly
    p = ModelParams(sign * m, as_gamma(g))
    dec = total_decomposition(p)
    with mp.workdps(60):
        if sign > 0:
            G = mp.inf if g is GAMMA_INFINITY else mp.mpf(g)
        else:
            G = mp.mpf(0) if g is GAMMA_INFINITY else mp.inf if g == 0.0 else -1 / mp.mpf(g)
        bulk, edge, total, regular, total_scale, regular_scale = smooth_reference(m, G, x)
        # 1e-300: where the profiles underflow
        assert abs(dec.total_smooth(x) - sign * total) <= 1e-14 * total_scale + 1e-300
        assert abs(dec.regular(x) - sign * regular) <= 1e-14 * regular_scale + 1e-300
        for got, ref in ((dec.bulk_smooth(x), bulk), (dec.edge_smooth(x), edge)):
            assert abs(got - sign * ref) <= 1e-14 * (total_scale + abs(ref)) + 1e-300
    # profiles(x), the four from their shared terms at once, are the four bit for bit
    four = (dec.bulk_smooth(x), dec.edge_smooth(x), dec.total_smooth(x), dec.regular(x))
    assert [v.hex() for v in dec.profiles(x)] == [v.hex() for v in four]
