import math

import pytest

from edgecurrents import (GAMMA_INFINITY, BoostUndefined, ModelParams, OutOfDomain,
                          ProjectiveReal, as_gamma, boost, boundary_character, cpt_dual,
                          edge_velocity, halfplane_dual, reflection_dual)
from conftest import random_gamma


def test_projective_infinity():
    g = ProjectiveReal()
    assert g.is_infinite
    assert g.inv().value == 0.0
    assert g.neg().is_infinite
    with pytest.raises(OutOfDomain):
        float(g)


def test_projective_rejects_non_finite_floats():
    with pytest.raises(OutOfDomain):
        ProjectiveReal(float("nan"))
    with pytest.raises(OutOfDomain):
        ProjectiveReal(float("inf"))


def test_projective_inv_neg():
    g = ProjectiveReal(2.0)
    assert g.inv().value == 0.5
    assert g.neg().value == -2.0
    assert ProjectiveReal(0.0).inv().is_infinite
    assert float(g) == 2.0


def test_as_gamma_coercion():
    assert as_gamma("inf").is_infinite
    assert as_gamma("Infinity").is_infinite
    assert as_gamma("2.5").value == 2.5
    assert as_gamma(3).value == 3.0
    assert as_gamma(GAMMA_INFINITY) is GAMMA_INFINITY


def test_model_params():
    p = ModelParams(1.0, as_gamma(-1.0))
    assert p.is_cpt_invariant_bc
    assert not ModelParams(1.0, as_gamma(2.0)).is_cpt_invariant_bc
    assert not ModelParams(1.0, GAMMA_INFINITY).is_cpt_invariant_bc


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
def test_model_params_rejects_non_finite_mass(m):
    with pytest.raises(OutOfDomain):
        ModelParams(m, as_gamma(0.5))


def test_edge_velocity_values():
    assert edge_velocity(2.0) == pytest.approx(0.8)
    assert edge_velocity(1.0) == 1.0
    assert edge_velocity(-1.0) == -1.0
    assert edge_velocity(0.0) == 0.0
    assert edge_velocity("inf") == 0.0


def test_boundary_character_generic():
    ch = boundary_character(2.0)
    assert ch.v_edge == pytest.approx(0.8)
    assert ch.eta == -1
    assert ch.theta == pytest.approx(math.log(3.0))
    assert ch.epsilon == 1
    # eta * e^theta = (1+gamma)/(1-gamma)
    assert ch.eta * math.exp(ch.theta) == pytest.approx(-3.0)


def test_boundary_character_negative_gamma():
    ch = boundary_character(-3.0)
    assert ch.v_edge == pytest.approx(-0.6)
    assert ch.eta == -1
    assert ch.theta == pytest.approx(-math.log(2.0))
    assert ch.epsilon == -1


def test_boundary_character_special_points():
    ch = boundary_character("inf")
    assert (ch.v_edge, ch.eta, ch.theta, ch.epsilon) == (0.0, -1, 0.0, None)
    ch0 = boundary_character(0.0)
    assert (ch0.v_edge, ch0.eta, ch0.theta, ch0.epsilon) == (0.0, 1, 0.0, None)
    assert math.copysign(1.0, ch.theta) == math.copysign(1.0, ch0.theta) == 1.0  # +0.0
    for g, eps in ((1.0, 1), (-1.0, -1)):
        ch1 = boundary_character(g)
        assert ch1.eta is None and ch1.theta is None
        assert ch1.epsilon == eps


def test_boundary_character_near_unit_gamma():
    # theta = ln|(1+gamma)/(1-gamma)| stays finite next to gamma = +-1
    for g, eta in ((1.0 + 1e-9, -1), (0.9999999999999999, 1), (-1.0 - 1e-9, -1)):
        ch = boundary_character(g)
        assert ch.eta == eta
        assert ch.theta == pytest.approx(math.copysign(math.log(abs((1 + g) / (1 - g))), g),
                                         rel=1e-15)
    assert boundary_character(1e-10).theta == 2e-10  # no log rounding near gamma = 0


@pytest.mark.parametrize("g", [1e200, -1e300, 1.7e308])
def test_boundary_character_huge_gamma(g):
    # v_edge = 2h/(1+h^2) with h = 1/gamma: no overflow of gamma^2, so epsilon stays defined
    ch = boundary_character(g)
    assert ch.v_edge == pytest.approx(2.0 / g, rel=1e-15) and ch.v_edge != 0.0
    assert ch.epsilon == (1 if g > 0 else -1)
    assert ch.theta == pytest.approx(2.0 / g, rel=1e-15)


def test_tanh_theta_is_velocity(rng):
    for _ in range(30):
        g = random_gamma(rng)
        ch = boundary_character(g)
        assert math.tanh(ch.theta) == pytest.approx(ch.v_edge, abs=1e-14)


def test_boost_roundtrip(rng):
    for _ in range(30):
        g = as_gamma(random_gamma(rng))
        chi = float(rng.uniform(-2, 2))
        back = boost(boost(g, chi), -chi)
        assert back.value == pytest.approx(g.value, rel=1e-12)


def test_boost_additive_on_rapidity():
    g = as_gamma(2.0)
    chi = 0.7
    ch0 = boundary_character(g)
    ch1 = boundary_character(boost(g, chi))
    assert ch1.theta == pytest.approx(ch0.theta + chi)
    assert ch1.eta == ch0.eta


def test_boost_through_infinity():
    # gamma = inf has (eta, theta) = (-1, 0); any boost leaves eta = -1
    g = boost(GAMMA_INFINITY, 0.0)
    assert g.is_infinite
    g2 = boost(GAMMA_INFINITY, 1.0)
    assert boundary_character(g2).eta == -1
    back = boost(g2, -1.0)
    # the return trip may land a rounding error away from the point at infinity
    assert back.is_infinite or abs(back.value) > 1e12


def test_boost_undefined_at_unit_gamma():
    with pytest.raises(BoostUndefined):
        boost(1.0, 0.5)
    with pytest.raises(BoostUndefined):
        boost(-1.0, 0.5)


def test_boost_onto_unit_gamma_or_overflow_raises():
    with pytest.raises(BoostUndefined):
        boost(2.0, 40.0)  # tanh(theta/2) rounds to 1
    with pytest.raises(BoostUndefined):
        boost(2.0, 800.0)
    with pytest.raises(BoostUndefined):
        boost(GAMMA_INFINITY, 1e-310)  # coth(theta/2) overflows
    assert boost(2.0, 30.0).value > 1.0


@pytest.mark.parametrize("dual", [reflection_dual, cpt_dual, halfplane_dual])
def test_duality_involutions(dual, rng):
    for _ in range(20):
        p = ModelParams(float(rng.normal()), as_gamma(random_gamma(rng)))
        q = dual(dual(p))
        assert q.m == pytest.approx(p.m)
        assert q.gamma.value == pytest.approx(p.gamma.value, rel=1e-14)


def test_duality_maps():
    p = ModelParams(1.0, as_gamma(2.0))
    assert reflection_dual(p).m == -1.0
    assert reflection_dual(p).gamma.value == -0.5
    assert cpt_dual(p).m == 1.0
    assert cpt_dual(p).gamma.value == 0.5
    assert halfplane_dual(p).m == -1.0
    assert halfplane_dual(p).gamma.value == 0.5
    # gamma = 0 reflects to infinity
    assert reflection_dual(ModelParams(1.0, as_gamma(0.0))).gamma.is_infinite
