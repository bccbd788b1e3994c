import math

import numpy as np
import pytest

from edgecurrents import (CptInvariantBoundary, ModelParams, NonConvergent, OutOfDomain,
                          as_gamma, oracle_branch_cut_integral, oracle_bulk_current,
                          oracle_edge_current, reflection_dual, total_decomposition)
from edgecurrents import oracle
from derivation import LAMBDA, P3P4_TOL, delta_prime_damped, p3_p4_errors


def test_quad_exact_for_polynomials():
    # 24 nodes per panel integrate every polynomial of degree < 48 exactly
    coeffs = np.random.default_rng(3).normal(size=48)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.0) - poly.integ()(-1.0)
    assert oracle.quad(poly, [-1.0, 1.0]) == pytest.approx(exact, rel=1e-12)
    assert oracle.quad(poly, [-1.0, -0.3, 0.2, 1.0]) == pytest.approx(exact, rel=1e-12)
    # degree 48 is the first the rule misses
    assert abs(oracle.quad(lambda t: t ** 48, [-1.0, 1.0]) - 2.0 / 49.0) > 1e-16


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert oracle._GL_NODES.tobytes() == nodes.tobytes()
    assert oracle._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_quad_known_value():
    # int_0^inf cos(2 l x) e^{-eps l} dl = eps / (eps^2 + 4 x^2) on half-period panels;
    # fn is called once, on the array of all nodes
    for x, eps in ((0.7, 0.3), (0.05, 0.0125 * 0.05)):
        shapes = []

        def fn(l):
            shapes.append(np.shape(l))
            return np.cos(2.0 * l * x) * np.exp(-eps * l)

        width = math.pi / (2.0 * x)
        edges = width * np.arange(math.ceil(35.0 / (eps * width)) + 1)
        assert oracle.quad(fn, edges) == pytest.approx(eps / (eps * eps + 4.0 * x * x), rel=1e-9)
        assert shapes == [(len(edges) - 1, 24)]
    # complex values along the ray l = t e^{-i phi}: the Abel limit of int_0^inf l e^{-2ilx} dl
    rot = complex(math.cos(0.4 * math.pi), -math.sin(0.4 * math.pi))
    edges = oracle._graded_edges(0.0, 30.0, 0.01)
    val = rot * oracle.quad(lambda t: t * rot * np.exp(-2j * t * rot * 1.5), edges)
    assert val == pytest.approx(-1.0 / (4.0 * 1.5 ** 2), rel=1e-13)


def test_quad_node_budget(monkeypatch):
    # every oracle call runs a bounded number of fixed-rule nodes across the domain
    nodes = []
    quad = oracle.quad

    def counting_quad(fn, edges):
        nodes.append(24 * (len(edges) - 1))
        return quad(fn, edges)

    monkeypatch.setattr(oracle, "quad", counting_quad)
    for m in (0.0, 0.01, 2.0):
        for x in (0.05, 5.0):
            for g in (-1e3, -0.999, 1e-3, 3.0):
                nodes.clear()
                oracle_edge_current(ModelParams(m, as_gamma(g)), x)
                assert len(nodes) <= 1 and sum(nodes) <= 24 * 80
                nodes.clear()
                oracle_bulk_current(ModelParams(m, as_gamma(g)), x)
                assert len(nodes) == 2 and sum(nodes) <= 2 * 24 * 24
            if m > 0:
                nodes.clear()
                oracle_branch_cut_integral(m, x)
                assert len(nodes) == 2 and sum(nodes) <= 2 * 24 * 24


def test_oracle_edge_current_matches_closed_form():
    for m, g, x in [(1.0, 2.0, 0.7), (1.0, -2.0, 0.5), (0.5, 0.5, 1.3)]:
        p = ModelParams(m, as_gamma(g))
        closed = total_decomposition(p).edge_smooth(x)
        numeric = oracle_edge_current(p, x)
        assert numeric == pytest.approx(closed, rel=1e-10)


def test_oracle_edge_current_empty_region_is_zero():
    # gamma in (-1, 0): no occupied edge mode below E_F = -m
    assert oracle_edge_current(ModelParams(1.0, as_gamma(-0.5)), 0.8) == 0.0


def test_oracle_edge_rejects_unit_gamma():
    with pytest.raises(CptInvariantBoundary):
        oracle_edge_current(ModelParams(1.0, as_gamma(-1.0)), 0.5)


def test_p3_p4_cancellations():
    sym, anti, limit = p3_p4_errors(ModelParams(1.0, as_gamma(2.0)), 0.8)
    assert sym < P3P4_TOL
    assert anti < P3P4_TOL
    # the finite-cutoff log differs from its asymptote by O(1/Lambda)
    assert limit < 10.0 / LAMBDA


def test_p3_p4_cancellations_infinite_gamma():
    p = ModelParams(1.0, as_gamma("inf"))
    sym, anti, _ = p3_p4_errors(p, 1.1)
    assert sym < P3P4_TOL
    assert anti < P3P4_TOL


@pytest.mark.parametrize("g, l", [(2.0, 1e-3), (2.0, 1e-6), (1.0001, 0.01), (-3.0, 0.5)])
def test_p3_p4_cancellations_pole_next_to_the_path(g, l):
    # l << m puts v3 within arctan(l/m) of the real v axis; the graded panels resolve it
    sym, anti, _ = p3_p4_errors(ModelParams(1.0, as_gamma(g)), l)
    assert sym < P3P4_TOL and anti < P3P4_TOL


def test_delta_prime_sector_vanishes_with_damping():
    # int_0^inf l sin(2lx) e^{-eps l} dl = 4 x eps / (eps^2 + 4 x^2)^2 -> 0 with eps
    x = 0.9
    vals = [delta_prime_damped(x, eps) for eps in (0.2, 0.1, 0.05)]
    for eps, val in zip((0.2, 0.1, 0.05), vals):
        exact = 4.0 * x * eps / (eps * eps + 4.0 * x * x) ** 2
        assert val == pytest.approx(exact, rel=1e-4)  # finite l_max truncation
    assert abs(vals[2]) < abs(vals[0])


@pytest.mark.parametrize("x", [0.05, 0.2])
def test_bulk_oracle_small_x(x):
    # small x needs the ray's panels to scale with 1/x
    p = ModelParams(1.0, as_gamma(2.0))
    closed = total_decomposition(p).bulk_smooth(x)
    assert oracle_bulk_current(p, x) == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("x", [0.05, 0.2])
def test_branch_cut_integral_small_x(x):
    assert oracle_branch_cut_integral(1.0, x).rel_diff < 1e-4


def test_branch_cut_integral():
    res = oracle_branch_cut_integral(1.0, 1.0)
    assert res.rel_diff < 1e-4
    # m = 0: the branch points meet at l = 0 and the contour form is pi/(4x^2)
    for x in (0.05, 0.3, 1.0, 5.0):
        res = oracle_branch_cut_integral(0.0, x)
        exact = math.pi / (4.0 * x * x)
        assert res.contour_value == pytest.approx(exact, rel=1e-15)
        assert res.abel_value == pytest.approx(exact, rel=1e-14)
    with pytest.raises(ValueError):
        oracle_branch_cut_integral(-1.0, 1.0)
    with pytest.raises(ValueError):
        oracle_branch_cut_integral(1.0, 0.0)


def test_oracle_bulk_rejects_degenerate_parameters():
    with pytest.raises(CptInvariantBoundary):
        oracle_bulk_current(ModelParams(1.0, as_gamma(1.0)), 0.5)
    # gamma = 0 and inf: the coefficient vanishes, and with it the current, at either sign of m
    for m in (1.0, -1.0):
        for g in (0.0, "inf"):
            assert oracle_bulk_current(ModelParams(m, as_gamma(g)), 0.5) == 0.0
    # m < 0 runs at the reflection dual, exactly here: -1/2 is a float
    p = ModelParams(-1.0, as_gamma(2.0))
    assert oracle_bulk_current(p, 0.5) == -oracle_bulk_current(reflection_dual(p), 0.5)


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
def test_oracles_reject_x_outside_domain(x):
    p = ModelParams(1.0, as_gamma(2.0))
    dec = total_decomposition(p)
    for call in (lambda: oracle_edge_current(p, x), lambda: oracle_bulk_current(p, x),
                 lambda: oracle_branch_cut_integral(1.0, x),
                 lambda: dec.edge_smooth(x), lambda: dec.bulk_smooth(x)):
        with pytest.raises(OutOfDomain):
            call()


@pytest.mark.parametrize("x", [1e-160, 1e-200, 5e-324])
def test_oracles_reject_x_where_the_inverse_square_overflows(x):
    # 1/x^2 is inf below x ~ 7.5e-155 (or x^2 is 0): inf and nan instead of a check
    p = ModelParams(1.0, as_gamma(2.0))
    for call in (lambda: oracle_edge_current(p, x), lambda: oracle_bulk_current(p, x),
                 lambda: oracle_branch_cut_integral(1.0, x)):
        with pytest.raises(OutOfDomain, match="finite 1/x"):
            call()


def test_branch_cut_rays_disagree_where_the_value_is_below_roundoff():
    # at m = 5, x = 5 the integral is 3e-22 against O(1e-2) of cancelling integrand:
    # the two rays differ, and the oracle says so instead of returning noise
    with pytest.raises(NonConvergent):
        oracle_branch_cut_integral(5.0, 5.0)


@pytest.mark.parametrize("m, x", [(1.0, 1e154), (1.0, 1e300), (0.0, 1e300)])
def test_branch_cut_compares_underflowed_values_as_zero(m, x):
    # the contour form underflows to 0 and both rays give 0: a deviation below the normal
    # range reads 0, the rule of the cli's rel_dev
    assert oracle_branch_cut_integral(m, x).rel_diff == 0.0


def test_branch_cut_contour_form_keeps_its_subnormal_value():
    # 4 x^2 overflows at x = 1e154, but pi/(4x^2) = 7.85e-309 is a float: it is not read as 0
    res = oracle_branch_cut_integral(0.0, 1e154)
    assert res.contour_value == pytest.approx(math.pi / 4.0 * 1e-308, rel=1e-12, abs=0.0)
    assert res.contour_value == pytest.approx(res.abel_value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("g", [1e200, -1e200])
def test_edge_oracle_at_huge_gamma_is_finite(g):
    # v_edge and |dk/du| are written in (a, b) = (1/|gamma|, sgn gamma): the current tends
    # to its gamma = inf value 0
    val = oracle_edge_current(ModelParams(1.0, as_gamma(g)), 1.0)
    assert math.isfinite(val) and abs(val) < 1e-199
