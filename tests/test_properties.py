"""Property-based checks over the projective line: solver, boosts, dualities."""

import itertools
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from edgecurrents import (GAMMA_INFINITY, EdgeCurrentsError, ModelParams, OutOfDomain,  # noqa: E402
                          as_gamma, boost, boost_invariance_scan, boundary_character,
                          conjugate_pair, cpt_dual, halfplane_dual, make_system, reflection_dual,
                          residuals, singular_part, solve_system)
from edgecurrents.params import _homogeneous, _projective  # noqa: E402

# the same examples on every run, and no example database written next to the tests
fixed_examples = settings(derandomize=True, database=None, deadline=None, max_examples=150)

signs = st.sampled_from([1.0, -1.0])
# gamma at least 1e-3 away from +-1 (|theta| below ~15), magnitude in [1e-3, 1e3]
finite_gamma = st.builds(lambda s, t: s * 10.0 ** t, signs,
                         st.floats(-3.0, 3.0)).filter(lambda g: abs(abs(g) - 1.0) > 1e-3)
# as finite_gamma, with half the draws 1e-3 to 1e-1 from +-1, where the residual
# summands (~1/(gamma^2 - 1)) and their rounding peak
banded_gamma = st.one_of(finite_gamma, st.builds(
    lambda s, d, t: s * (1.0 + d * 10.0 ** t), signs, signs, st.floats(-3.0, -1.0)
).filter(lambda g: abs(abs(g) - 1.0) > 1e-3))
projective_gamma = st.one_of(finite_gamma, st.just(GAMMA_INFINITY), st.sampled_from([0.0, -0.0]))
# gammas within 1e-3 of +-1, down to the neighbouring floats of +-1
near_unit = st.builds(lambda s, d: s * (1.0 + d), st.sampled_from([1.0, -1.0]),
                      st.one_of(st.floats(-1e-3, 1e-3), st.sampled_from([2.0 ** -52, -2.0 ** -53])))
# the whole projective line: the domain of finite_gamma, 0, inf, next to +-1 and down to the
# subnormals next to 0 and up to 1e300 next to inf
any_gamma = st.one_of(
    projective_gamma, near_unit.filter(lambda g: abs(g) != 1.0), st.sampled_from([5e-324, -5e-324]),
    st.builds(lambda s, t: s * 10.0 ** t, signs, st.floats(-300.0, -3.0) | st.floats(3.0, 300.0)))
# every gamma of the solver's lattice eta * linspace(-3, 3, 13)
lattice_gamma = st.builds(lambda eta, t: math.tanh(t / 2) ** eta, st.sampled_from([1, -1]),
                          st.sampled_from([0.5 * k for k in range(-6, 7) if k]))


def _partner(g: float, kind: str) -> float:
    return -1.0 / g if kind == "conjugate" else 1.0 / g


def _contains(solutions, gammas, tol=1e-8) -> bool:
    want = sorted(gammas)
    return any(all(not h.is_infinite and abs(h.value - w) <= tol * (1.0 + abs(w))
                   for h, w in zip(s.gammas, want)) for s in solutions)


def _value(g):
    return math.inf if g.is_infinite else g.value


@fixed_examples
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(projective_gamma, min_size=1, max_size=n - 1))))
def test_solutions_cancel_and_keep_pins(case):
    n, pinned = case
    for s in solve_system(n, pinned):
        assert len(s.gammas) == n
        assert residuals(s).cancels()
        values = [_value(g) for g in s.gammas]
        for p in pinned:
            assert _value(as_gamma(p)) in values


@fixed_examples
@given(st.lists(finite_gamma, min_size=1, max_size=2), st.sampled_from(["conjugate", "cpt"]))
def test_one_unpinned_species_is_recovered(gs, kind):
    # a cancelling system of pairs {g, -1/g} or {g, 1/g}; the last species is left free
    system = [x for g in gs for x in (g, _partner(g, kind))]
    sols = solve_system(len(system), system[:-1])
    assert _contains(sols, system)


@fixed_examples
@given(banded_gamma)
def test_partners_of_one_pin_are_solutions(g):
    # the partners -+1/g to rounding; next to +-1 the pair's residuals round to
    # ~1e-16/(g^2 - 1)^2, up to ~1e-10: inside 1e-10 scale, not always inside 1e-10
    sols = solve_system(2, [g])
    assert len(sols) == 2
    assert _contains(sols, [g, -1.0 / g], tol=1e-12) and _contains(sols, [g, 1.0 / g], tol=1e-12)


@fixed_examples
@given(finite_gamma, finite_gamma, st.sampled_from(["conjugate", "cpt"]))
def test_two_unpinned_species_of_different_pairs_are_recovered(g, h, kind):
    a, b = (g, _partner(g, kind)), (h, _partner(h, kind))
    pinned = [a[0], b[0]]
    rep = residuals(make_system(pinned))
    # the pinned pair must not nearly cancel: there the two free species are a
    # one-parameter family and its isolated solutions are ill-conditioned
    assume(abs(rep.r_log) + abs(rep.r_x2) > 1e-3)
    assert _contains(solve_system(4, pinned), [*pinned, a[1], b[1]], tol=1e-7)


@fixed_examples
@given(lattice_gamma, finite_gamma, st.sampled_from(["conjugate", "cpt"]))
def test_unpinned_lattice_pair_is_recovered(g, h, kind):
    # the pinned pair cancels, so the free pair is a family sampled on the lattice
    system = [h, _partner(h, kind), g, _partner(g, kind)]
    assert _contains(solve_system(4, system[:2]), system)


def _ratio(g) -> float:
    """The Cayley ratio (1 + gamma)/(1 - gamma) = eta e^theta; -1 at gamma = inf."""
    return -1.0 if g.is_infinite else (1.0 + g.value) / (1.0 - g.value)


@fixed_examples
@given(st.lists(banded_gamma, min_size=1, max_size=3), st.sampled_from(["conjugate", "cpt"]),
       st.booleans(), st.floats(1e-8, 1e-2), signs)
def test_perturbed_solutions_never_cancel(gs, kind, zero_and_inf, delta, sign):
    # a cancelling system of pairs, then the light-cone vector eta (e^theta, e^-theta)
    # of its largest species stretched by 1 + delta: r_x2 moves by delta |r_log,n| / 2,
    # at least delta scale / (2 n), six times the 1e-10 scale of cancels at n = 8
    system = [x for g in gs for x in (g, _partner(g, kind))] + [0.0, "inf"] * zero_and_inf
    assert residuals(make_system(system)).cancels()
    gammas = list(make_system(system).gammas)
    i = max(range(len(gammas)), key=lambda k: abs(residuals(make_system([gammas[k]])).r_log))
    r = _ratio(gammas[i]) * (1.0 + sign * delta)
    gammas[i] = as_gamma((r - 1.0) / (r + 1.0))
    assert not residuals(make_system(gammas)).cancels()


@fixed_examples
@given(banded_gamma, st.floats(1e-4, 3.0), signs)
def test_boost_scan_verdicts(g, chi, sign):
    # the CPT pair {g, 1/g} has one rapidity, which a boost shifts for both species,
    # so it keeps cancelling; the charge-conjugate pair {g, -1/g} has opposite
    # rapidities, and a boost leaves their |theta| unequal
    chis = [0.0, sign * chi]
    cpt = boost_invariance_scan(make_system([g, 1.0 / g]), chis)
    assert [e.cancels for e in cpt] == [True, True]
    assert [e.cancels for e in boost_invariance_scan(conjugate_pair(g), chis)] == [True, False]


@fixed_examples
@given(st.lists(finite_gamma, min_size=1, max_size=2))
def test_three_species_never_cancel(pinned):
    assert solve_system(3, pinned) == []


@fixed_examples
@given(st.lists(projective_gamma, min_size=2, max_size=3), st.integers(1, 2))
def test_pin_order_changes_only_rounding(pinned, n_free):
    # the pinned sums are added in pin order, so another order may round the free gammas
    # differently, but by less than _dedupe's 1e-8 on the domain the solve_system docstring
    # states: the same systems.  A large free gamma moves by ~gamma^2/2 times the rounding, and
    # a third free species can cross the cancellation test, so pins near +-1 or beyond 1e-3 to
    # 1e3, which give large free gammas, and three free species are not drawn here
    n = len(pinned) + n_free
    want = [[_value(g) for g in s.gammas] for s in solve_system(n, pinned)]
    for order in itertools.permutations(pinned):
        got = [[_value(g) for g in s.gammas] for s in solve_system(n, list(order))]
        assert len(got) == len(want)
        assert all(a == b or abs(a - b) < 1e-8 for s, t in zip(got, want) for a, b in zip(s, t))


def _bits(solutions) -> list[list[str]]:
    return [[float.hex(_value(g)) for g in s.gammas] for s in solutions]


@fixed_examples
@example([GAMMA_INFINITY, 0.0, 10.0], 3)
@example([-149.93183857943131, 0.00403280053706707, -0.0029016292303879814], 3)
@example([-0.010002658209184188, -1.0129030059727624, -0.9760500881027894], 2)
@given(st.lists(any_gamma, min_size=2, max_size=3), st.integers(1, 3))
def test_pin_order_does_not_change_a_bit(pinned, n_free):
    # the residual sums are exactly rounded, so every order of the pins solves the same problem
    n = len(pinned) + n_free
    want = _bits(solve_system(n, pinned))
    for order in itertools.permutations(pinned):
        assert _bits(solve_system(n, list(order))) == want


@fixed_examples
@given(st.lists(any_gamma, max_size=3), st.integers(1, 3))
def test_sign_copies_are_exact_negations(pinned, n_free):
    # the residuals are even in gamma: with the pins removed once, the negated rest is listed,
    # bit for bit (the two zeros are one point and compare equal)
    assume(len(pinned) + n_free >= 2)
    pins = [as_gamma(p) for p in pinned]
    sols = solve_system(len(pinned) + n_free, pinned)
    listed = {tuple(_value(g) for g in s.gammas) for s in sols}
    for s in sols:
        rest = list(s.gammas)
        for p in pins:
            rest.remove(p)
        assert tuple(sorted(_value(g) for g in pins + [g.neg() for g in rest])) in listed


@fixed_examples
@given(near_unit, st.floats(allow_nan=True, allow_infinity=True))
def test_near_unit_gamma_is_finite_or_typed_error(g, chi):
    ch = boundary_character(g)
    if abs(g) != 1.0:
        assert math.isfinite(ch.theta) and ch.eta in (1, -1)
    try:
        out = boost(g, chi)
    except EdgeCurrentsError:
        return
    assert out.is_infinite or (math.isfinite(out.value) and abs(out.value) != 1.0)


# rapidities whose sums with theta stay clear of the 1/tanh overflow at |theta| < 1e-308
chi = st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) > 1e-100)


@fixed_examples
@given(projective_gamma, chi, chi)
def test_boost_group_law(g, a, b):
    two_step = boundary_character(boost(boost(g, a), b))
    one_step = boundary_character(boost(g, a + b))
    assert two_step.eta == one_step.eta == boundary_character(g).eta
    assert two_step.theta == pytest.approx(one_step.theta, rel=1e-9, abs=1e-12)


@fixed_examples
@given(st.floats(-5.0, 5.0), projective_gamma,
       st.sampled_from([reflection_dual, cpt_dual, halfplane_dual]))
def test_dualities_are_involutions(m, g, dual):
    p = ModelParams(m, as_gamma(g))
    q = dual(dual(p))
    assert q.m == p.m
    assert q.gamma.is_infinite == p.gamma.is_infinite
    if not p.gamma.is_infinite:
        assert q.gamma.value == pytest.approx(p.gamma.value, rel=1e-15, abs=0.0)


@fixed_examples
@given(st.floats(-5.0, 5.0), finite_gamma)
def test_singular_part_is_odd_under_reflection(m, g):
    # gamma -> -1/gamma flips the sign of all three singular coefficients
    p = ModelParams(m, as_gamma(g))
    s, d = singular_part(p), singular_part(reflection_dual(p))
    for c, cd in ((s.c_log_delta_prime, d.c_log_delta_prime), (s.c_delta_prime, d.c_delta_prime),
                  (s.c_inv_x2, d.c_inv_x2)):
        assert cd == pytest.approx(-c, rel=1e-9, abs=1e-12)



# every float gamma and inf: both zeros, subnormals, the 1e150 switch of _homogeneous from
# (1, gamma) to (1/|gamma|, sgn gamma), 2^1022 above which 1/|gamma| is subnormal, the largest
_SWITCH, _NORMAL_INVERSE = 1e150, 2.0 ** 1022
any_gamma = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda s, t: s * 10.0 ** t, signs, st.floats(149.0, 151.0)),
    st.builds(lambda s, g: s * g, signs, st.sampled_from([
        0.0, 5e-324, 1e-310, 2.0 ** -1022, math.nextafter(_SWITCH, 0.0), _SWITCH,
        math.nextafter(_SWITCH, math.inf), _NORMAL_INVERSE, math.nextafter(_NORMAL_INVERSE, 0.0),
        math.nextafter(math.inf, 0.0)])),
    st.just(GAMMA_INFINITY))


@fixed_examples
@given(any_gamma)
def test_inv_is_the_rounded_reciprocal(g):
    p = as_gamma(g)
    if p.is_infinite:
        assert p.inv().value.hex() == "0x0.0p+0"
    elif p.value == 0.0:
        assert p.inv().is_infinite
    elif math.isinf(1.0 / p.value):  # a subnormal gamma
        with pytest.raises(OutOfDomain, match="1/gamma overflows"):
            p.inv()
    else:  # bit for bit, the sign included
        assert p.inv().value.hex() == (1.0 / p.value).hex()


@fixed_examples
@given(any_gamma)
def test_projective_inverts_homogeneous(g):
    p = as_gamma(g)
    a, b = _homogeneous(p)
    if p.is_infinite or abs(p.value) <= _SWITCH:  # exact: b/1, and inf at a = 0
        back = _projective(a, b)
        assert back.is_infinite if p.is_infinite else back.value.hex() == p.value.hex()
    elif abs(p.value) <= _NORMAL_INVERSE:  # 1/(1/|gamma|): two roundings
        assert abs(_projective(a, b).value - p.value) <= math.ulp(p.value)
    else:  # a = 1/|gamma| is subnormal: fewer bits, and b/a overflows at the 3 largest floats
        try:
            assert abs(_projective(a, b).value - p.value) <= 4.0 * math.ulp(p.value)
        except OutOfDomain:
            assert abs(p.value) >= math.nextafter(math.inf, 0.0) - 2.0 * math.ulp(p.value)
