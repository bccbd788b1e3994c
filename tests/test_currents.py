import math
import sys

import numpy as np
import pytest

from edgecurrents import (GAMMA_INFINITY, CptInvariantBoundary, ModelParams, OutOfDomain,
                          as_gamma, bulk_mode, edge_mode_at_k, edge_velocity, eval_bulk, eval_edge,
                          reflection_dual, singular_part, total_decomposition)
from edgecurrents.currents import _PSI_SERIES, _bilinears, _psi
from edgecurrents.params import _homogeneous
from conftest import random_gamma
from derivation import j1_vanishes, partial_fraction_sides

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


def spinor_j2(u):
    return float(np.real(np.conj(u) @ SIGMA2 @ u))


def bulk_mode_j2(p, l, k, x):
    # k/E - Re((f/g) e^{-2ilx})/E on the negative branch, f = (k - il) g*, with
    # g = m - E + gamma (k - il) scaled to a (m - E) + b (k - il)
    E = -math.sqrt(k * k + l * l + p.m * p.m)
    a, b = _homogeneous(p.gamma)
    g = a * (p.m - E) + b * (k - 1j * l)
    return k / E - ((k - 1j * l) * np.conj(g) / g * np.exp(-2j * l * x)).real / E


def check_bulk_bilinears(p, l, k, x):
    u = eval_bulk(bulk_mode(p, l, k, "negative"), p, x, 0.0)
    j0, _, j2 = _bilinears(u)
    assert j0 == pytest.approx(float(np.real(np.conj(u) @ u)), abs=1e-13)
    assert j2 == pytest.approx(spinor_j2(u), abs=1e-13)
    assert j2 == pytest.approx(bulk_mode_j2(p, l, k, x), abs=1e-13)


def test_bulk_integrand_matches_spinor_bilinear(rng):
    # the bulk j2 integrand is _bilinears of eval_bulk
    for _ in range(30):
        p = ModelParams(float(rng.uniform(0.0, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        check_bulk_bilinears(p, float(rng.uniform(0.3, 2.0)), float(rng.uniform(-2, 2)),
                             float(rng.uniform(0.05, 2.0)))


def test_bulk_integrand_infinite_gamma():
    check_bulk_bilinears(ModelParams(1.0, GAMMA_INFINITY), 1.2, 0.7, 0.4)


def test_bilinears_of_edge_modes(rng):
    for _ in range(20):
        p = ModelParams(float(rng.uniform(0.1, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        mode = edge_mode_at_k(p, float(rng.uniform(-3, 3)))
        if mode is None:
            continue
        x = float(rng.uniform(0.05, 1.0))
        w = eval_edge(mode, p, x, 0.0)
        j0, _, j2 = _bilinears(w)
        decay = mode.lam * math.exp(-2.0 * mode.lam * x)
        assert j0 == pytest.approx(decay, abs=1e-13)
        assert j2 == pytest.approx(spinor_j2(w), abs=1e-13)
        assert j2 == pytest.approx(edge_velocity(p.gamma) * decay, abs=1e-13)  # v_edge lam e^{-2 lam x}


def test_j1_vanishes(rng):
    p = ModelParams(1.0, as_gamma(2.0))
    samples = [(float(rng.uniform(0.3, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.05, 2)), float(rng.uniform(-1, 1))) for _ in range(20)]
    assert j1_vanishes(p, samples)


def test_cpt_invariant_boundary_rejected():
    p = ModelParams(1.0, as_gamma(1.0))
    with pytest.raises(CptInvariantBoundary):
        singular_part(p)
    with pytest.raises(CptInvariantBoundary):
        total_decomposition(p).bulk_smooth(0.5)
    with pytest.raises(CptInvariantBoundary):
        total_decomposition(p)


def test_partial_fraction_identity(rng):
    for _ in range(50):
        p = ModelParams(float(rng.uniform(0.0, 2.0)), as_gamma(random_gamma(rng, hi=10.0)))
        l = float(rng.uniform(0.2, 3.0))
        v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        lhs, rhs = map(complex, partial_fraction_sides(p, l, v))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_partial_fraction_identity_degenerate_gammas(rng):
    for gamma in (as_gamma(0.0), GAMMA_INFINITY):
        p = ModelParams(1.0, gamma)
        for v in (0.2, 0.9, 1.7, 6.0):
            lhs, rhs = map(complex, partial_fraction_sides(p, 1.3, v))
            assert abs(lhs - rhs) < 1e-13


def test_closed_form_domain_errors():
    dec = total_decomposition(ModelParams(1.0, as_gamma(2.0)))
    with pytest.raises(OutOfDomain):
        dec.bulk_smooth(0.0)
    with pytest.raises(OutOfDomain):
        dec.edge_smooth(-0.5)
    # m < 0 is in the domain: the profiles take the reflection dual themselves
    neg = total_decomposition(ModelParams(-1.0, as_gamma(2.0)))
    for f in (neg.bulk_smooth, neg.edge_smooth, neg.total_smooth, neg.regular):
        assert math.isfinite(f(1.0))


def test_closed_forms_accept_arrays():
    dec = total_decomposition(ModelParams(1.0, as_gamma(2.0)))
    xs = np.array([[0.3, 0.8], [2.0, 4.0]])
    bulk = dec.bulk_smooth(xs)
    edge = dec.edge_smooth(xs)
    assert bulk.shape == edge.shape == (2, 2)
    assert bulk[1, 0] == dec.bulk_smooth(2.0)
    assert edge[0, 1] == dec.edge_smooth(0.8)
    bad = np.array([0.5, 1.0, 0.0])
    with pytest.raises(OutOfDomain):
        dec.bulk_smooth(bad)
    with pytest.raises(OutOfDomain):
        dec.edge_smooth(-bad)


def test_closed_form_edge_zero_cases():
    for g in (as_gamma(-0.5), as_gamma(0.0), GAMMA_INFINITY):
        assert total_decomposition(ModelParams(1.0, g)).edge_smooth(0.7) == 0.0


def test_closed_form_edge_small_t_matches_mpmath():
    # gamma > 1, where 1 - (1+t) e^{-t}, t = 2mx/gamma, cancels to ~t^2/2: from t = 50 down to
    # 1e-150 (gamma up to ~1e152), wherever the current is in the normal float range
    mp = pytest.importorskip("mpmath")
    checked = 0
    for t in np.geomspace(1e-150, 50.0, 151):
        for m, x in ((0.01, 5.0), (1.0, 0.05), (1.0, 0.7), (2.0, 5.0)):
            g = 2.0 * m * x / t
            if g < 1.001:
                continue
            got = total_decomposition(ModelParams(m, as_gamma(g))).edge_smooth(x)
            with mp.workdps(360):
                G, T = mp.mpf(g), 2 * mp.mpf(m) * x / mp.mpf(g)
                ref = G / (mp.pi * (G * G - 1)) / (2 * mp.mpf(x) ** 2) * (1 - (1 + T) * mp.exp(-T))
                if ref >= sys.float_info.min:
                    checked += 1
                    assert abs(got - ref) <= 2e-15 * ref, (m, g, x)
    assert checked > 300


def test_singular_part_values():
    s = singular_part(ModelParams(1.0, as_gamma(2.0)))
    assert s.c_log_delta_prime == pytest.approx(-(5.0 / 3.0) / (2.0 * math.pi))
    assert s.c_delta_prime == pytest.approx(2.0 / (3.0 * math.pi) * math.log(3.0))
    assert s.c_inv_x2 == pytest.approx(-1.0 / (6.0 * math.pi))
    si = singular_part(ModelParams(1.0, GAMMA_INFINITY))
    assert si.c_log_delta_prime == pytest.approx(-1.0 / (2.0 * math.pi))
    assert si.c_delta_prime == 0.0
    assert si.c_inv_x2 == 0.0
    for c in (si.c_delta_prime, singular_part(ModelParams(1.0, as_gamma(0.0))).c_delta_prime):
        assert math.copysign(1.0, c) == 1.0  # +0.0 at gamma = inf and 0


@pytest.mark.parametrize("g", [1e155, -1e200, 1.7e308])
def test_singular_part_huge_gamma(g):
    # written in (a, b) = (1/|gamma|, sgn gamma): the gamma = inf limits, approached without
    # overflow
    s = singular_part(ModelParams(1.0, as_gamma(g)))
    assert s.c_log_delta_prime == -1.0 / (2.0 * math.pi)
    assert s.c_inv_x2 == pytest.approx(-1.0 / (4.0 * math.pi * abs(g)), rel=1e-15)
    assert s.c_delta_prime == pytest.approx(2.0 / (math.pi * g * g), rel=1e-15, abs=1e-300)


def test_singular_part_mass_independent(rng):
    g = as_gamma(random_gamma(rng))
    a = singular_part(ModelParams(0.5, g))
    b = singular_part(ModelParams(2.0, g))
    assert a == b


def test_bulk_closed_form_infinite_gamma():
    p = ModelParams(1.0, GAMMA_INFINITY)
    assert total_decomposition(p).bulk_smooth(0.5) == 0.0
    assert singular_part(p).c_log_delta_prime == pytest.approx(-1.0 / (2.0 * math.pi))
    assert singular_part(p).c_delta_prime == 0.0


@pytest.mark.parametrize("m", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("g", ["inf", 0.0, 0.5, -0.5, 2.0, -3.0])
def test_decomposition_consistency(m, g):
    p = ModelParams(m, as_gamma(g))
    dec = total_decomposition(p)
    x = 0.8
    # at either sign of m (and at m = 0), every profile is minus the one at the reflection dual
    dual = total_decomposition(reflection_dual(p))
    for name in ("bulk_smooth", "edge_smooth", "total_smooth", "regular"):
        expected = -getattr(dual, name)(x)
        assert getattr(dec, name)(x) == pytest.approx(expected, rel=1e-14, abs=1e-300)
    # the total is a closed form of its own, so bulk + edge agrees only to roundoff of the parts
    b, e = dec.bulk_smooth(x), dec.edge_smooth(x)
    assert abs(dec.total_smooth(x) - (b + e)) <= 2e-15 * (abs(b) + abs(e))
    xs = np.geomspace(0.05, 5.0, 9)
    for f in (dec.bulk_smooth, dec.edge_smooth, dec.total_smooth, dec.regular):
        assert type(f(x)) is float
        assert np.array_equal(f(xs), [f(float(x)) for x in xs])


SHARED_TERM_XS = np.concatenate([np.geomspace(1e-300, 1e300, 601), np.linspace(0.05, 5.0, 100)])


@pytest.mark.parametrize("m", [-1.3, -1e-3, 0.0, 1e-3, 2.0])
@pytest.mark.parametrize("g", [0.0, "inf", 0.5, -0.5, 2.0, -2.0, 1e200, -1e200, 1 + 1e-9,
                               1 - 1e-9, -(1 + 1e-9), -(1 - 1e-9)])
def test_profiles_share_terms_bit_for_bit(m, g):
    # profiles(x) evaluates the terms that the four profiles share once, and each single-profile
    # method gives its column, at array and scalar x, under cmd_profile's errstate: 1/x^2
    # overflows and underflows at the ends of the geometric grid
    dec = total_decomposition(ModelParams(m, as_gamma(g)))
    for x in (SHARED_TERM_XS, 0.7, 1e-300):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            together = dec.profiles(x)
            alone = [f(x) for f in (dec.bulk_smooth, dec.edge_smooth, dec.total_smooth,
                                    dec.regular)]
        assert len(together) == 4
        for got, want in zip(together, alone):
            assert type(got) is type(want)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(np.isnan(got), np.isnan(want))


@pytest.mark.parametrize("m", [-1.3, -1e-3, 0.0, 1e-3, 2.0, 700.0])
@pytest.mark.parametrize("g", [0.0, "inf", 2.0, -2.0, 0.5, -0.5, 1e200, -1e200, 1 + 1e-9,
                               1 - 1e-9])
def test_profiles_raise_no_floating_point_fault(m, g):
    # every profile evaluates all the shared terms, so none may overflow, divide by zero or
    # turn invalid on the documented x range, whichever profile is asked for
    dec = total_decomposition(ModelParams(m, as_gamma(g)))
    for x in (np.geomspace(0.05, 5.0, 200), 0.7):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            dec.profiles(x)
            for f in (dec.bulk_smooth, dec.edge_smooth, dec.total_smooth, dec.regular):
                f(x)


def test_negative_mass_via_reflection():
    # j^2 at (-m, gamma) equals -j^2 at (m, -1/gamma); at these gammas -1/gamma is exact, so
    # the profiles agree bit for bit with those at reflection_dual(p)
    for g in (2.0, 0.5, -4.0, 0.0, GAMMA_INFINITY):
        p = ModelParams(-1.3, as_gamma(g))
        dec_neg, dec_pos = total_decomposition(p), total_decomposition(reflection_dual(p))
        assert dec_pos.params.m == 1.3
        for x in (0.3, 1.0, 2.5, np.geomspace(0.05, 5.0, 9)):
            for name in ("bulk_smooth", "edge_smooth", "total_smooth", "regular"):
                assert np.array_equal(getattr(dec_neg, name)(x), -getattr(dec_pos, name)(x))
        for name in ("c_log_delta_prime", "c_delta_prime", "c_inv_x2"):
            assert getattr(dec_neg.singular, name) == -getattr(dec_pos.singular, name)


def test_psi_branches_give_the_bits_of_both_branches_evaluated_everywhere():
    # _psi evaluates the series only below t = 1/2 and expm1 only above; the reference
    # evaluates both on every element and picks one, as the closed forms once did
    t = np.concatenate([[0.0, 5e-324, 1e-17, 0.1, np.nextafter(0.5, 0.0), 0.5,
                         np.nextafter(0.5, 1.0), 1.0, 40.0, 1e3, 1e300, np.inf],
                        np.geomspace(1e-12, 2e3, 4001)])
    s, u = np.minimum(t, 0.5), np.minimum(t, 1e3)
    want = np.where(t < 0.5, np.exp(-s) * s * s * np.polyval(_PSI_SERIES, s),
                    -np.expm1(-u) - u * np.exp(-u))
    assert np.array_equal(_psi(t).view(np.int64), want.view(np.int64))
    scalars = np.array([_psi(np.float64(v)) for v in t])
    assert np.array_equal(scalars.view(np.int64), want.view(np.int64))
