import math
import struct

import numpy as np
import pytest

from edgecurrents import (GAMMA_INFINITY, ModelParams, OutOfDomain, apply_dirac_fd, as_gamma,
                          bulk_mode, defect_mode, edge_conductivity, edge_dispersion,
                          edge_mode_at_k, edge_velocity, eigen_residual, eval_bulk, eval_defect,
                          eval_edge, gap_crossing, richardson_residual, sample_on_grid)
from edgecurrents.currents import _bilinears
from edgecurrents.oracle import quad
from conftest import random_gamma

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


def bc_residual(p, spinor):
    if p.gamma.is_infinite:
        return abs(spinor[0])
    return abs(spinor[1] - 1j * p.gamma.value * spinor[0])


def test_bulk_mode_energy_branches():
    p = ModelParams(1.0, as_gamma(2.0))
    neg = bulk_mode(p, 1.0, 0.5, "negative")
    pos = bulk_mode(p, 1.0, 0.5, "positive")
    assert neg.E == pytest.approx(-math.sqrt(2.25))
    assert pos.E == pytest.approx(math.sqrt(2.25))
    assert abs(neg.phase) == pytest.approx(1.0)


def test_bulk_mode_invalid_input():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(OutOfDomain):
        bulk_mode(p, 0.0, 0.5)
    with pytest.raises(OutOfDomain):
        bulk_mode(p, -1.0, 0.5)
    with pytest.raises(OutOfDomain):
        bulk_mode(p, 1.0, 0.5, branch="up")


def test_bulk_mode_boundary_condition(rng):
    for _ in range(30):
        p = ModelParams(float(rng.uniform(0.0, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        mode = bulk_mode(p, float(rng.uniform(0.3, 2.0)), float(rng.uniform(-2, 2)))
        s = eval_bulk(mode, p, 0.0, float(rng.uniform(-1, 1)))
        assert bc_residual(p, s) < 1e-12 * (1.0 + abs(p.gamma.value))


def test_bulk_mode_boundary_condition_infinite_gamma():
    p = ModelParams(1.0, GAMMA_INFINITY)
    mode = bulk_mode(p, 1.2, 0.4)
    s = eval_bulk(mode, p, 0.0, 0.3)
    assert abs(s[0]) < 1e-14


def test_bulk_grid_matches_pointwise(rng):
    p = ModelParams(0.8, as_gamma(-2.5))
    mode = bulk_mode(p, 1.1, -0.6)
    xs = np.linspace(0.0, 1.0, 5)
    ys = np.linspace(-0.5, 0.5, 4)
    grid = eval_bulk(mode, p, xs[:, None], ys[None, :])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_bulk(mode, p, float(x), float(y))
            assert s.shape == (2,)
            assert grid[i, j, 0] == s[0]
            assert grid[i, j, 1] == s[1]


def test_edge_mode_generic_values():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = edge_mode_at_k(p, 0.0)
    assert mode.E == pytest.approx(-0.6)
    assert mode.lam == pytest.approx(0.8)
    # dispersion slope is the common edge velocity 2g/(1+g^2)
    m2 = edge_mode_at_k(p, 0.5)
    assert (m2.E - mode.E) / 0.5 == pytest.approx(0.8)


def test_edge_mode_disappears():
    p = ModelParams(1.0, as_gamma(2.0))
    # lam = (3k + 4)/5 <= 0 for k <= -4/3
    assert edge_mode_at_k(p, -4.0 / 3.0) is None
    assert edge_mode_at_k(p, -2.0) is None
    assert edge_mode_at_k(p, -1.0) is not None


def test_edge_mode_nan_decay_rate_is_no_mode():
    assert edge_mode_at_k(ModelParams(1.0, as_gamma(2.0)), math.nan) is None
    with pytest.raises(OutOfDomain):  # a nan mass is rejected where it is made
        ModelParams(math.nan, as_gamma(2.0))


P_GENERIC = ModelParams(1.0, as_gamma(2.0))
# an edge mode sampled at x0 = 2000, where e^{-lam x} has underflowed to 0 on the whole grid
UNDERFLOWED_EDGE = (lambda x, y: eval_edge(edge_mode_at_k(P_GENERIC, 0.5), P_GENERIC, x, y),
                    edge_mode_at_k(P_GENERIC, 0.5).E, P_GENERIC, 2000.0, 0.0, 9, 9, 0.05)


@pytest.mark.parametrize("call", [
    lambda: bulk_mode(P_GENERIC, math.nan, 0.5),
    lambda: bulk_mode(P_GENERIC, math.inf, 0.5),
    lambda: bulk_mode(P_GENERIC, 1.0, math.nan),
    lambda: bulk_mode(P_GENERIC, 1.0, math.inf),
    lambda: defect_mode(P_GENERIC, math.nan, 0.5, 1),
    lambda: defect_mode(P_GENERIC, 1.0, math.inf, 1),
    lambda: apply_dirac_fd(np.zeros((5, 5, 2)), P_GENERIC, math.nan),
    # m - E rounds to 0 (a bare ZeroDivisionError), or E overflows to -inf with rho = 0
    lambda: bulk_mode(ModelParams(-1.0, as_gamma(2.0)), 1e-9, 0.0),
    lambda: bulk_mode(ModelParams(-1e10, as_gamma(2.0)), 1.0, 0.0),
    lambda: bulk_mode(P_GENERIC, 1e-9, 0.0, "positive"),
    lambda: bulk_mode(P_GENERIC, 1e200, 0.0),
    lambda: defect_mode(P_GENERIC, 1e200, 0.0, 1),  # lambda_def = inf, s = nan
    # the residuals' divisor, the field's norm or max, is 0: 0/0 = nan instead of a check
    lambda: eigen_residual(*UNDERFLOWED_EDGE),
    lambda: richardson_residual(*UNDERFLOWED_EDGE),
])
def test_nan_and_out_of_range_arguments_are_out_of_domain(call):
    # written as "not 0 < v < inf": a "v <= 0" check lets nan through to nan arrays
    with pytest.raises(OutOfDomain):
        call()


def float_bits(v: float) -> bytes:
    return struct.pack("<d", v)


@pytest.mark.parametrize("g", [2.0, 0.5, -0.5, -3.0, 0.0, 1.0, -1.0, "inf", 1e16, 1e155, -1e200])
def test_edge_dispersion_array_is_the_float_formula_bit_for_bit(g):
    # the CLI table evaluates one array; each element must be what edge_mode_at_k gives
    ks = np.concatenate([np.linspace(-3.0, 3.0, 61), [-0.0, 5e-324, -1e300, 1e300, math.nan]])
    for m in (1.0, 0.0, -1.0, 0.2, 1e300):  # ModelParams rejects a nan mass
        p = ModelParams(m, as_gamma(g))
        with np.errstate(over="ignore", invalid="ignore"):
            E, lam = edge_dispersion(p, ks)
        assert E.shape == lam.shape == ks.shape
        for k, e, lk in zip(ks.tolist(), E.tolist(), lam.tolist()):
            mode = edge_mode_at_k(p, k)
            if mode is None:
                assert not lk > 0.0
                e_ref, lam_ref = edge_dispersion(p, k)
            else:
                assert mode.k == k and lk > 0.0
                e_ref, lam_ref = mode.E, mode.lam
            assert float_bits(e) + float_bits(lk) == float_bits(e_ref) + float_bits(lam_ref)


def test_edge_mode_unit_gamma_rule():
    mode = edge_mode_at_k(ModelParams(1.0, as_gamma(1.0)), 0.7)
    assert mode.E == pytest.approx(0.7)
    assert mode.lam == pytest.approx(1.0)
    assert edge_mode_at_k(ModelParams(-1.0, as_gamma(1.0)), 0.7) is None
    mode = edge_mode_at_k(ModelParams(-1.0, as_gamma(-1.0)), 0.7)
    assert mode.E == pytest.approx(-0.7)
    assert mode.lam == pytest.approx(1.0)


def test_edge_mode_infinite_gamma():
    p = ModelParams(1.5, GAMMA_INFINITY)
    mode = edge_mode_at_k(p, 2.0)
    assert mode.E == pytest.approx(-1.5)
    assert mode.lam == pytest.approx(2.0)
    assert edge_mode_at_k(p, -0.5) is None
    s = eval_edge(mode, p, 0.1, 0.0)
    assert s[0] == 0.0


def test_edge_mode_boundary_condition(rng):
    for _ in range(20):
        p = ModelParams(float(rng.uniform(0.1, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        mode = edge_mode_at_k(p, float(rng.uniform(-3, 3)))
        if mode is None:
            continue
        s = eval_edge(mode, p, 0.0, 0.2)
        assert bc_residual(p, s) < 1e-12 * (1.0 + abs(p.gamma.value))


def transverse_integrals(which):
    # int_0^inf j^which(x) dx of an edge mode, on 40 panels of width 1/lam (tail ~e^-80)
    for m, g, k in [(1.0, 2.0, 0.3), (0.5, -3.0, 2.0), (1.0, 0.5, -0.2),
                    (1.0, 1e200, 0.3), (1.0, -1e200, 0.3), (1.0, "inf", 0.3)]:
        p = ModelParams(m, as_gamma(g))
        mode = edge_mode_at_k(p, k)
        assert mode is not None
        edges = np.linspace(0.0, 40.0 / mode.lam, 41)
        yield p, quad(lambda x: _bilinears(eval_edge(mode, p, x, 0.0))[which], edges)


def test_edge_mode_transverse_norm_is_half():
    # int_0^inf j^0 dx = int_0^inf |U_k(x, y)|^2 dx = 1/2 regardless of (m, gamma, k)
    for _, val in transverse_integrals(0):
        assert val == pytest.approx(0.5, rel=1e-9)


def test_edge_mode_transverse_current_is_half_velocity():
    # int_0^inf j^2 dx = gamma/(1+gamma^2) = v_edge/2 per edge mode, exactly 0 at gamma = inf
    for p, val in transverse_integrals(2):
        assert val == pytest.approx(edge_velocity(p.gamma) / 2.0, rel=1e-9, abs=0.0)


def test_edge_grid_matches_pointwise():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = edge_mode_at_k(p, 0.4)
    xs = np.linspace(0.0, 2.0, 4)
    ys = np.linspace(0.0, 1.0, 3)
    grid = eval_edge(mode, p, xs[:, None], ys[None, :])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_edge(mode, p, float(x), float(y))
            assert s.shape == (2,)
            assert grid[i, j, 0] == s[0]
            assert grid[i, j, 1] == s[1]


def test_defect_mode_values():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = defect_mode(p, 2.0, 0.5, +1)
    assert mode.lambda_def == pytest.approx(math.sqrt(4.0 + 0.25 + 1.0))
    assert mode.s == pytest.approx(1j * (0.5 + mode.lambda_def) / (1.0 + 2.0j))
    with pytest.raises(OutOfDomain):
        defect_mode(p, 0.0, 0.5, +1)
    with pytest.raises(OutOfDomain):
        defect_mode(p, 1.0, 0.5, 2)


def test_defect_mode_is_adjoint_eigenfunction():
    # FD residual of (H - i mu) psi after one Richardson step is tiny
    p = ModelParams(1.0, as_gamma(2.0))
    for sign in (+1, -1):
        mode = defect_mode(p, 1.0, 0.5, sign)
        fn = lambda x, y: eval_defect(mode, x, y)
        r = richardson_residual(fn, sign * 1j * mode.mu, p, 0.0, 0.0, 129, 9,
                                3.0 / mode.lambda_def / 128)
        assert r < 1e-7


def test_defect_grid_matches_pointwise():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = defect_mode(p, 3.0, -0.2, -1)
    xs = np.linspace(0.0, 1.0, 4)
    ys = np.linspace(-0.3, 0.3, 3)
    grid = eval_defect(mode, xs[:, None], ys[None, :])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_defect(mode, float(x), float(y))
            assert s.shape == (2,)
            assert grid[i, j, 0] == s[0]
            assert grid[i, j, 1] == s[1]


@pytest.mark.parametrize("g, k", [(2.0, 1.5), (-0.5, -2.0), ("inf", 1.5)])
def test_broadcast_mesh_equals_grid(g, k):
    # the tensor grid xs[:, None], ys[None, :] equals its rows, columns and points bit for bit
    p = ModelParams(0.8, as_gamma(g))
    xs = np.linspace(0.0, 2.0, 7)
    ys = np.linspace(-1.0, 1.0, 5)
    bulk = bulk_mode(p, 1.1, -0.6)
    edge = edge_mode_at_k(p, k)
    defect = defect_mode(p, 3.0, -0.2, -1)
    for fn in (lambda x, y: eval_bulk(bulk, p, x, y), lambda x, y: eval_edge(edge, p, x, y),
               lambda x, y: eval_defect(defect, x, y)):
        grid = fn(xs[:, None], ys[None, :])
        assert grid.shape == (7, 5, 2) and grid.dtype == complex
        assert np.array_equal(grid, np.array([[fn(x, y) for y in ys] for x in xs]))
        assert np.array_equal(grid[3], fn(xs[3], ys))
        assert np.array_equal(grid[:, 2], fn(xs, ys[2]))
    assert eval_edge(edge, p, 0.3, 0.1).shape == (2,)


def test_sample_on_grid_calls_fn_once():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = bulk_mode(p, 1.0, 0.5)
    calls = []

    def fn(x, y):
        calls.append((np.shape(x), np.shape(y)))
        return eval_bulk(mode, p, x, y)

    grid = sample_on_grid(fn, 0.1, -0.2, 6, 4, 0.05)
    assert calls == [((6, 1), (1, 4))]
    xs, ys = 0.1 + 0.05 * np.arange(6), -0.2 + 0.05 * np.arange(4)
    assert np.array_equal(grid, eval_bulk(mode, p, xs[:, None], ys[None, :]))
    # Richardson takes its coarse grid from the one fine sample
    calls.clear()
    richardson_residual(fn, mode.E, p, 0.1, -0.2, 6, 4, 0.05)
    assert calls == [((11, 1), (1, 7))]


def test_fd_rejects_small_grids():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(OutOfDomain):
        apply_dirac_fd(np.zeros((2, 5, 2)), p, 0.1)
    with pytest.raises(OutOfDomain):
        apply_dirac_fd(np.zeros((5, 5, 3)), p, 0.1)
    with pytest.raises(OutOfDomain):
        apply_dirac_fd(np.zeros((5, 5, 2)), p, -0.1)


def test_fd_exact_on_quadratics_including_the_boundary_rows():
    # the centred and the one-sided second-order stencils are exact on quadratics
    p, h = ModelParams(0.7, as_gamma(2.0)), 0.1
    x, y = 0.3 + h * np.arange(7)[:, None], -0.4 + h * np.arange(6)[None, :]
    psi1 = (1 + 2j) * x * x - 0.5 * x * y + 3j * y * y + x - 2.0
    psi2 = -0.7 * x * x + (1 - 1j) * x * y + 0.25 * y * y - 1j * y + 0.5
    d1x, d1y = (2 + 4j) * x - 0.5 * y + 1.0, -0.5 * x + 6j * y
    d2x, d2y = -1.4 * x + (1 - 1j) * y, (1 - 1j) * x + 0.5 * y - 1j
    exact = np.stack(np.broadcast_arrays(-1j * d2x - d2y + p.m * psi1,
                                         -1j * d1x + d1y - p.m * psi2), axis=-1)
    field = np.stack(np.broadcast_arrays(psi1, psi2), axis=-1)
    assert np.max(np.abs(apply_dirac_fd(field, p, h) - exact)) < 1e-13 * np.max(np.abs(exact))


def test_fd_eigen_residual_second_order():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = bulk_mode(p, 1.0, 0.5)
    fn = lambda x, y: eval_bulk(mode, p, x, y)
    r1 = eigen_residual(fn, mode.E, p, 0.0, 0.0, 17, 17, 0.02)
    r2 = eigen_residual(fn, mode.E, p, 0.0, 0.0, 33, 33, 0.01)
    assert 1.8 < math.log2(r1 / r2) < 2.2


@pytest.mark.parametrize("m", [1.0, -1.0])
@pytest.mark.parametrize("g", [-10.0, -2.0, -0.5, 0.5, 2.0, 10.0])
def test_edge_conductivity_table(m, g):
    p = ModelParams(m, as_gamma(g))
    expected = (1 if m > 0 else -1) if m * g > 0 else 0
    assert edge_conductivity(p) == expected
    assert gap_crossing(p) == (m * g > 0)


def test_edge_conductivity_degenerate_points():
    assert edge_conductivity(ModelParams(0.0, as_gamma(2.0))) == 0
    assert edge_conductivity(ModelParams(1.0, as_gamma(0.0))) == 0
    assert edge_conductivity(ModelParams(1.0, GAMMA_INFINITY)) == 0
