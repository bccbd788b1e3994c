import math
from fractions import Fraction

import numpy as np
import pytest

from edgecurrents import (CptInvariantBoundary, FermionSystem, OutOfDomain,
                          as_gamma, boost_invariance_scan, conjugate_pair, make_system,
                          rapidity_equivalence_check, residuals, solve_system)
from conftest import random_gamma


def test_single_species_limits():
    assert residuals(make_system(["inf"])).r_log == 1.0
    assert residuals(make_system([0.0])).r_log == -1.0
    rep = residuals(make_system([0.0, "inf"]))
    assert rep.cancels()
    # zero edge velocity: eta e^{+-|theta|} is eta, +1 at gamma = 0 and -1 at inf
    assert (rep.r_plus, rep.r_minus) == (0.0, 0.0)


@pytest.mark.parametrize("g", [0.999, -0.999, 1.001, -1.001, 0.3, -0.3, 7.0, -7.0, 1e-10, -1e-10,
                               0.5, 2.0, 0.9999999999999999, 1.0000000000000002, 0.99, 1.01,
                               10.0, 1e10, 1e200, 0.0])
def test_light_cone_pair_within_one_ulp(g):
    # one species' (r_plus, r_minus) is the Cayley pair (1 +- |g|)/(1 -+ |g|) of the exact float g
    rep = residuals(make_system([g]))
    a = abs(Fraction(g))
    for got, exact in ((rep.r_plus, (1 + a) / (1 - a)), (rep.r_minus, (1 - a) / (1 + a))):
        assert abs(Fraction(got) - exact) <= Fraction(math.ulp(float(exact)))


def test_unit_gamma_rejected():
    with pytest.raises(CptInvariantBoundary):
        make_system([2.0, 1.0])


def test_conjugate_pair_cancels(rng):
    for _ in range(30):
        g = random_gamma(rng)
        rep = residuals(conjugate_pair(g))
        assert abs(rep.r_log) < 1e-12
        assert abs(rep.r_x2) < 1e-12
        assert abs(rep.r_dipole) < 1e-12


def test_conjugate_pair_membership():
    sys = conjugate_pair(2.0)
    vals = sorted(g.value for g in sys.gammas)
    assert vals == pytest.approx([-0.5, 2.0])


def test_conjugate_pair_degenerate():
    for g in (0.0, 1.0, -1.0, "inf"):
        with pytest.raises(OutOfDomain):
            conjugate_pair(g)


def test_cpt_pair_cancels(rng):
    # {gamma, 1/gamma} also zeroes all three residual sums
    for _ in range(20):
        g = random_gamma(rng)
        rep = residuals(make_system([g, 1.0 / g]))
        assert abs(rep.r_log) < 1e-12
        assert abs(rep.r_x2) < 1e-12
        assert abs(rep.r_dipole) < 1e-12


def test_residual_values():
    rep = residuals(make_system([2.0]))
    assert rep.r_log == pytest.approx(5.0 / 3.0)
    assert rep.r_x2 == pytest.approx(2.0 / 3.0)
    assert rep.r_dipole == pytest.approx(2.0 / (3.0 * math.pi) * math.log(3.0))
    # eta = -1, theta = ln 3, epsilon = +1 for gamma = 2
    assert rep.r_plus == pytest.approx(-3.0)
    assert rep.r_minus == pytest.approx(-1.0 / 3.0)


def test_rapidity_and_gamma_forms_are_recombinations(rng):
    # r_log = -(r_plus + r_minus)/2 and r_x2 = -(r_plus - r_minus)/4
    for _ in range(30):
        sys = make_system([random_gamma(rng) for _ in range(3)])
        rep = residuals(sys)
        assert rep.r_log == pytest.approx(-(rep.r_plus + rep.r_minus) / 2.0, rel=1e-10)
        assert rep.r_x2 == pytest.approx(-(rep.r_plus - rep.r_minus) / 4.0, rel=1e-10)


def test_rapidity_equivalence(rng):
    for _ in range(30):
        sys = make_system([random_gamma(rng) for _ in range(2 + int(rng.integers(3)))])
        assert rapidity_equivalence_check(sys)
    # species with zero edge velocity have rapidity-form summands too
    for gammas in ([0.0, 2.0], [0.0, "inf"], ["inf", 0.5, -2.0], [0.0, 0.0, "inf", "inf"],
                   [0.0, 3.0, -1.0 / 3.0]):
        assert rapidity_equivalence_check(make_system(gammas))


def test_boost_scan_same_sign_velocities():
    # {2, 1/2}: both edge velocities +0.8, rapidity sums (-3 + 3) and (-1/3 + 1/3)
    # scale uniformly by e^{+-chi}, so cancellation survives every sign-preserving boost
    sys = make_system([2.0, 0.5])
    assert residuals(sys).cancels()
    entries = boost_invariance_scan(sys, [-0.5, 0.0, 0.5, 2.0])
    for e in entries:
        assert e.velocity_signs_preserved
        assert e.cancels


def test_boost_scan_with_zero_velocity_species():
    # {0, inf} boosts to the CPT pair {tanh(chi/2), 1/tanh(chi/2)}: it cancels at every chi,
    # while both velocities leave zero, so signs are preserved only at chi = 0
    entries = boost_invariance_scan(make_system([0.0, "inf"]), [0.0, 0.5, -1.0])
    for e in entries:
        assert e.cancels
        assert isinstance(e.r_plus, float) and isinstance(e.r_minus, float)
        assert abs(e.r_plus) < 1e-12 and abs(e.r_minus) < 1e-12
    assert [e.velocity_signs_preserved for e in entries] == [True, False, False]
    entries = boost_invariance_scan(make_system([0.0, 2.0]), [0.0, 0.5])
    assert [e.cancels for e in entries] == [False, False]
    assert (entries[0].r_plus, entries[0].r_minus) == pytest.approx((1.0 - 3.0, 1.0 - 1.0 / 3.0))


def test_boost_scan_mixed_sign_pair_loses_cancellation():
    sys = conjugate_pair(2.0)  # velocities +0.8 and -0.8
    entries = boost_invariance_scan(sys, [0.0, 0.2, -0.2, 1.0])
    assert entries[0].cancels
    for e in entries[1:]:
        assert not e.cancels


def test_solve_system_pair():
    sols = solve_system(2, [2.0])
    found = [s for s in sols
             if any(not g.is_infinite and abs(g.value + 0.5) < 1e-10 for g in s.gammas)]
    assert found, "expected the charge-conjugate partner -1/2"
    for s in sols:
        rep = residuals(s)
        assert abs(rep.r_log) < 1e-10 and abs(rep.r_x2) < 1e-10


def test_solve_system_exact_partners():
    # gamma and -gamma are both exact partners of 2: the residuals are even in gamma
    sols = solve_system(2, [2.0])
    assert [[g.value for g in s.gammas] for s in sols] == [[-0.5, 2.0], [0.5, 2.0]]
    sols = solve_system(4, [2.0, -0.5, 3.0])
    assert [[g.value for g in s.gammas] for s in sols] == [[-0.5, -1.0 / 3.0, 2.0, 3.0],
                                                          [-0.5, 1.0 / 3.0, 2.0, 3.0]]


def test_solve_system_zero_has_infinite_partner():
    for pinned in ([0.0], ["inf"]):
        sols = solve_system(2, pinned)
        assert len(sols) == 1
        assert sols[0].gammas[0].value == 0.0 and sols[0].gammas[1].is_infinite


def test_solve_system_two_free_species():
    # two equal pins: the two free species form the double root, -1/2 twice or +-1/2
    sols = solve_system(4, [2.0, 2.0])
    assert [[g.value for g in s.gammas] for s in sols] == [
        [-0.5, -0.5, 2.0, 2.0], [-0.5, 0.5, 2.0, 2.0], [0.5, 0.5, 2.0, 2.0]]
    assert solve_system(3, [2.0]) == []  # a unit vector is never the sum of two


def test_solve_system_family_on_lattice():
    # nothing pinned: {g, -1/g} and {g, 1/g} with |theta| on the lattice 0, 0.5, .., 3
    sols = solve_system(2)
    assert len(sols) == 25
    assert [[g.value if not g.is_infinite else "inf" for g in s.gammas] for s in sols].count(
        [0.0, "inf"]) == 1
    for s in sols:
        assert residuals(s).cancels()


def test_solve_system_validation():
    with pytest.raises(OutOfDomain):
        solve_system(1)
    with pytest.raises(OutOfDomain):
        solve_system(2, [2.0, 3.0])
    with pytest.raises(CptInvariantBoundary):
        solve_system(2, [1.0])


def test_solve_system_needs_an_integral_n():
    for n in (2.5, math.nan, math.inf):
        with pytest.raises(OutOfDomain):
            solve_system(n, [2.0])
    assert solve_system(2.0, [2.0]) == solve_system(np.int64(2), [2.0]) == solve_system(2, [2.0])


def test_boosted_system():
    sys = make_system([2.0, -0.5])
    boosted = sys.boosted(0.0)
    assert [g.value for g in boosted.gammas] == pytest.approx([2.0, -0.5])
