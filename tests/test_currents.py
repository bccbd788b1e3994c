import math

import numpy as np
import pytest

from edgecurrents import (GAMMA_INFINITY, CptInvariantBoundary, ModelParams, NoEdgeState,
                          OutOfDomain, as_gamma, bulk_integrand_j2, bulk_mode,
                          closed_form_bulk_j2, closed_form_edge_j2, edge_integrand_j2,
                          edge_mode_at_k, eval_bulk, eval_edge, heaviside,
                          j1_identically_zero_check, k_of_v, partial_fractions,
                          reflection_dual, singular_part, total_decomposition, v_of_k)
from conftest import random_gamma

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


def spinor_j2(u):
    return float(np.real(np.conj(u) @ SIGMA2 @ u))


def test_heaviside_midpoint():
    assert heaviside(1.0) == 1.0
    assert heaviside(-1.0) == 0.0
    assert heaviside(0.0) == 0.5
    assert type(heaviside(2.0)) is float
    assert np.array_equal(heaviside(np.array([1.0, -1.0, 0.0])), [1.0, 0.0, 0.5])


def test_bulk_integrand_matches_spinor_bilinear(rng):
    for _ in range(30):
        p = ModelParams(float(rng.uniform(0.0, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        l = float(rng.uniform(0.3, 2.0))
        k = float(rng.uniform(-2, 2))
        x = float(rng.uniform(0.05, 2.0))
        u = eval_bulk(bulk_mode(p, l, k, "negative"), p, x, 0.0)
        assert bulk_integrand_j2(p, l, k, x) == pytest.approx(spinor_j2(u), abs=1e-13)


def test_bulk_integrand_infinite_gamma():
    p = ModelParams(1.0, GAMMA_INFINITY)
    u = eval_bulk(bulk_mode(p, 1.2, 0.7, "negative"), p, 0.4, 0.0)
    assert bulk_integrand_j2(p, 1.2, 0.7, 0.4) == pytest.approx(spinor_j2(u), abs=1e-13)


def test_edge_integrand_matches_spinor_bilinear(rng):
    for _ in range(20):
        p = ModelParams(float(rng.uniform(0.1, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        k = float(rng.uniform(-3, 3))
        mode = edge_mode_at_k(p, k)
        if mode is None:
            continue
        x = float(rng.uniform(0.05, 1.0))
        w = eval_edge(mode, p, x, 0.0)
        assert edge_integrand_j2(p, k, x) == pytest.approx(spinor_j2(w), abs=1e-13)


def test_edge_integrand_raises_without_state():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(NoEdgeState):
        edge_integrand_j2(p, -2.0, 0.5)


def test_j1_vanishes(rng):
    p = ModelParams(1.0, as_gamma(2.0))
    samples = [(float(rng.uniform(0.3, 2)), float(rng.uniform(-2, 2)),
                float(rng.uniform(0.05, 2)), float(rng.uniform(-1, 1))) for _ in range(20)]
    assert j1_identically_zero_check(p, samples)


def test_cpt_invariant_boundary_rejected():
    p = ModelParams(1.0, as_gamma(1.0))
    with pytest.raises(CptInvariantBoundary):
        bulk_integrand_j2(p, 1.0, 0.5, 0.3)
    with pytest.raises(CptInvariantBoundary):
        singular_part(p)
    with pytest.raises(CptInvariantBoundary):
        closed_form_bulk_j2(p, 0.5)
    with pytest.raises(CptInvariantBoundary):
        total_decomposition(p)


def test_v_substitution_roundtrip(rng):
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        k = float(rng.uniform(-5, 5))
        v = v_of_k(k, a)
        assert v > 0
        assert k_of_v(v, a) == pytest.approx(k, abs=1e-12)
    with pytest.raises(ValueError):
        v_of_k(1.0, 0.0)


def test_partial_fraction_identity(rng):
    for _ in range(50):
        p = ModelParams(float(rng.uniform(0.0, 2.0)), as_gamma(random_gamma(rng, hi=10.0)))
        l = float(rng.uniform(0.2, 3.0))
        pf = partial_fractions(p, l)
        v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        lhs = complex(pf.total(v))
        rhs = complex(pf.reference(v))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_partial_fraction_identity_degenerate_gammas(rng):
    for gamma in (as_gamma(0.0), GAMMA_INFINITY):
        p = ModelParams(1.0, gamma)
        pf = partial_fractions(p, 1.3)
        for v in (0.2, 0.9, 1.7, 6.0):
            assert abs(complex(pf.total(v)) - complex(pf.reference(v))) < 1e-13


def test_denominator_product_form(rng):
    # (k^2 + l^2) (1/D1 + 1/D2) reproduces (f/g)/v away from degeneracies
    for _ in range(20):
        p = ModelParams(float(rng.uniform(0.1, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        l = float(rng.uniform(0.2, 2.0))
        pf = partial_fractions(p, l)
        v = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        k = k_of_v(v, pf.a)
        lhs = (k * k + l * l) * (1.0 / pf.d1(v) + 1.0 / pf.d2(v))
        rhs = complex(pf.reference(v))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_denominators_exchange_under_halfplane_dual(rng):
    # D2(m, gamma; v) = conj(D1(-m, 1/gamma; v)) on the real v axis
    for _ in range(20):
        m = float(rng.uniform(0.1, 2.0))
        g = random_gamma(rng, hi=5.0)
        l = float(rng.uniform(0.2, 2.0))
        v = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        pf = partial_fractions(ModelParams(m, as_gamma(g)), l)
        pf_dual = partial_fractions(ModelParams(-m, as_gamma(1.0 / g)), l)
        assert complex(pf.d2(v)) == pytest.approx(np.conj(pf_dual.d1(v)), rel=1e-12)


def test_partial_fraction_degenerate_denominators():
    pf0 = partial_fractions(ModelParams(1.0, as_gamma(0.0)), 1.0)
    with pytest.raises(ValueError):
        pf0.d2(1.0)
    pfi = partial_fractions(ModelParams(1.0, GAMMA_INFINITY), 1.0)
    with pytest.raises(ValueError):
        pfi.d1(1.0)


def test_closed_form_domain_errors():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(OutOfDomain):
        closed_form_bulk_j2(p, 0.0)
    with pytest.raises(OutOfDomain):
        closed_form_bulk_j2(ModelParams(-1.0, as_gamma(2.0)), 1.0)
    with pytest.raises(OutOfDomain):
        closed_form_edge_j2(p, -0.5)


def test_closed_forms_accept_arrays():
    p = ModelParams(1.0, as_gamma(2.0))
    xs = np.array([[0.3, 0.8], [2.0, 4.0]])
    bulk = closed_form_bulk_j2(p, xs)
    edge = closed_form_edge_j2(p, xs)
    assert bulk.shape == edge.shape == (2, 2)
    assert bulk[1, 0] == closed_form_bulk_j2(p, 2.0)
    assert edge[0, 1] == closed_form_edge_j2(p, 0.8)
    bad = np.array([0.5, 1.0, 0.0])
    with pytest.raises(OutOfDomain):
        closed_form_bulk_j2(p, bad)
    with pytest.raises(OutOfDomain):
        closed_form_edge_j2(p, -bad)


def test_closed_form_edge_zero_cases():
    assert closed_form_edge_j2(ModelParams(1.0, as_gamma(-0.5)), 0.7) == 0.0
    assert closed_form_edge_j2(ModelParams(1.0, as_gamma(0.0)), 0.7) == 0.0
    assert closed_form_edge_j2(ModelParams(1.0, GAMMA_INFINITY), 0.7) == 0.0


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
    assert closed_form_bulk_j2(p, 0.5) == 0.0
    assert singular_part(p).c_log_delta_prime == pytest.approx(-1.0 / (2.0 * math.pi))
    assert singular_part(p).c_delta_prime == 0.0


@pytest.mark.parametrize("m", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("g", ["inf", 0.0, 0.5, -0.5, 2.0, -3.0])
def test_decomposition_consistency(m, g):
    p = ModelParams(m, as_gamma(g))
    dec = total_decomposition(p)
    x = 0.8
    if m >= 0:
        assert dec.bulk_smooth(x) == closed_form_bulk_j2(p, x)
        assert dec.edge_smooth(x) == closed_form_edge_j2(p, x)
    assert dec.total_smooth(x) == dec.bulk_smooth(x) + dec.edge_smooth(x)
    assert dec.regular(x) == dec.total_smooth(x) - dec.singular.c_inv_x2 / (x * x)
    xs = np.geomspace(0.05, 5.0, 9)
    for f in (dec.bulk_smooth, dec.edge_smooth, dec.total_smooth, dec.regular):
        assert type(f(x)) is float
        assert np.array_equal(f(xs), [f(float(x)) for x in xs])


def test_negative_mass_via_reflection():
    # j^2 at (-m, gamma) equals -j^2 at (m, -1/gamma)
    p = ModelParams(-1.0, as_gamma(0.5))
    dec_neg = total_decomposition(p)
    dec_pos = total_decomposition(ModelParams(1.0, as_gamma(-2.0)))
    for x in (0.3, 1.0, 2.5, np.geomspace(0.05, 5.0, 9)):
        assert np.array_equal(dec_neg.bulk_smooth(x), -closed_form_bulk_j2(reflection_dual(p), x))
        assert np.array_equal(dec_neg.edge_smooth(x), -closed_form_edge_j2(reflection_dual(p), x))
    for name in ("c_log_delta_prime", "c_delta_prime", "c_inv_x2"):
        assert getattr(dec_neg.singular, name) == -getattr(dec_pos.singular, name)
