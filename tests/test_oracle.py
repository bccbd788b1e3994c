import numpy as np
import pytest

from edgecurrents import (DEFAULT_SCHEME, CptInvariantBoundary, ModelParams, NonConvergent,
                          RegularizationScheme, abel_damped_integral, as_gamma,
                          closed_form_bulk_j2, closed_form_edge_j2, delta_prime_sector_null,
                          oracle_branch_cut_integral, oracle_bulk_current, oracle_edge_current,
                          oracle_p3_p4_cancellations, richardson_extrapolate)


def test_scheme_validation():
    with pytest.raises(ValueError):
        RegularizationScheme(Lambda=0.5)
    with pytest.raises(ValueError):
        RegularizationScheme(eps_schedule=(0.1,))
    with pytest.raises(ValueError):
        RegularizationScheme(eps_schedule=(0.1, 0.2))
    with pytest.raises(ValueError):
        RegularizationScheme(quad_rel_tol=0.0)
    RegularizationScheme(eps_schedule=(0.2, 0.1, 0.05))  # valid


def test_richardson_extrapolate_polynomial():
    # exact for a polynomial in eps of degree < number of nodes
    eps = [0.4, 0.2, 0.1, 0.05]
    vals = [3.0 - 2.0 * e + 5.0 * e * e for e in eps]
    out, err = richardson_extrapolate(eps, vals)
    assert out == pytest.approx(3.0, abs=1e-12)
    assert err < 1e-10


def test_abel_damped_integral_known_value():
    # int_0^inf cos(2 l x) e^{-eps l} dl = eps / (eps^2 + 4 x^2); fn is called
    # once, on the array of all nodes; x = 0.05 runs at the schedule's smallest eps
    for x, eps in ((0.7, 0.3), (0.05, 0.0125 * 0.05)):
        shapes = []

        def fn(l):
            shapes.append(np.shape(l))
            return np.cos(2.0 * l * x)

        val = abel_damped_integral(fn, x, eps, DEFAULT_SCHEME)
        assert val == pytest.approx(eps / (eps * eps + 4.0 * x * x), rel=1e-9)
        assert len(shapes) == 1 and len(shapes[0]) == 2


def test_abel_damped_integral_panel_budget():
    with pytest.raises(NonConvergent):
        abel_damped_integral(np.cos, 1.0, 1e-6, RegularizationScheme(panel_budget=1000))


def test_oracle_edge_current_matches_closed_form():
    for m, g, x in [(1.0, 2.0, 0.7), (1.0, -2.0, 0.5), (0.5, 0.5, 1.3)]:
        p = ModelParams(m, as_gamma(g))
        closed = closed_form_edge_j2(p, x)
        numeric = oracle_edge_current(p, x)
        assert numeric == pytest.approx(closed, rel=1e-10)


def test_oracle_edge_current_empty_region_is_zero():
    # gamma in (-1, 0): no occupied edge mode below E_F = -m
    assert oracle_edge_current(ModelParams(1.0, as_gamma(-0.5)), 0.8) == 0.0


def test_oracle_edge_rejects_unit_gamma():
    with pytest.raises(CptInvariantBoundary):
        oracle_edge_current(ModelParams(1.0, as_gamma(-1.0)), 0.5)


def test_p3_p4_cancellations():
    rep = oracle_p3_p4_cancellations(ModelParams(1.0, as_gamma(2.0)), 0.8)
    assert rep.symmetric_ok
    assert rep.antiderivative_ok
    # the finite-cutoff log differs from its asymptote by O(1/Lambda)
    assert rep.branch_limit_error < 10.0 / DEFAULT_SCHEME.Lambda


def test_p3_p4_cancellations_infinite_gamma():
    p = ModelParams(1.0, as_gamma("inf"))
    rep = oracle_p3_p4_cancellations(p, 1.1)
    assert rep.symmetric_ok
    assert rep.antiderivative_ok


def test_delta_prime_sector_vanishes_with_damping():
    # int_0^inf l sin(2lx) e^{-eps l} dl = 4 x eps / (eps^2 + 4 x^2)^2 -> 0 with eps
    x = 0.9
    vals = [delta_prime_sector_null(x, eps) for eps in (0.2, 0.1, 0.05)]
    for eps, val in zip((0.2, 0.1, 0.05), vals):
        exact = 4.0 * x * eps / (eps * eps + 4.0 * x * x) ** 2
        assert val == pytest.approx(exact, rel=1e-4)  # finite l_max truncation
    assert abs(vals[2]) < abs(vals[0])


@pytest.mark.parametrize("x", [0.05, 0.2])
def test_bulk_oracle_small_x(x):
    # small x needs the damping to scale with x (eps = e*x)
    p = ModelParams(1.0, as_gamma(2.0))
    closed = closed_form_bulk_j2(p, x).smooth
    assert oracle_bulk_current(p, x) == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("x", [0.05, 0.2])
def test_branch_cut_integral_small_x(x):
    assert oracle_branch_cut_integral(1.0, x).rel_diff < 1e-4


def test_branch_cut_integral():
    res = oracle_branch_cut_integral(1.0, 1.0)
    assert res.rel_diff < 1e-4
    with pytest.raises(ValueError):
        oracle_branch_cut_integral(-1.0, 1.0)
    with pytest.raises(ValueError):
        oracle_branch_cut_integral(1.0, 0.0)


def test_oracle_bulk_rejects_degenerate_parameters():
    with pytest.raises(CptInvariantBoundary):
        oracle_bulk_current(ModelParams(1.0, as_gamma(1.0)), 0.5)
    with pytest.raises(ValueError):
        oracle_bulk_current(ModelParams(1.0, as_gamma(0.0)), 0.5)
    with pytest.raises(ValueError):
        oracle_bulk_current(ModelParams(1.0, as_gamma("inf")), 0.5)
    with pytest.raises(ValueError):
        oracle_bulk_current(ModelParams(-1.0, as_gamma(2.0)), 0.5)
