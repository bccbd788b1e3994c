import math

import numpy as np
import pytest
from scipy.integrate import quad

from edgecurrents import (GAMMA_INFINITY, GridTooSmall, InvalidDeficiency, InvalidMomentum,
                          ModelParams, apply_dirac_fd, as_gamma, bulk_mode, defect_mode,
                          edge_conductivity, edge_mode_at_k, eigen_residual, eval_bulk,
                          eval_bulk_grid, eval_defect, eval_defect_grid, eval_edge,
                          eval_edge_grid, gap_crossing, richardson_residual, sample_on_grid)
from conftest import random_gamma

SIGMA2 = np.array([[0.0, -1j], [1j, 0.0]])


def bc_residual(p, spinor):
    if p.gamma.is_infinite:
        return abs(spinor.c1)
    return abs(spinor.c2 - 1j * p.gamma.value * spinor.c1)


def test_bulk_mode_energy_branches():
    p = ModelParams(1.0, as_gamma(2.0))
    neg = bulk_mode(p, 1.0, 0.5, "negative")
    pos = bulk_mode(p, 1.0, 0.5, "positive")
    assert neg.E == pytest.approx(-math.sqrt(2.25))
    assert pos.E == pytest.approx(math.sqrt(2.25))
    assert abs(neg.phase) == pytest.approx(1.0)


def test_bulk_mode_invalid_input():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(InvalidMomentum):
        bulk_mode(p, 0.0, 0.5)
    with pytest.raises(InvalidMomentum):
        bulk_mode(p, -1.0, 0.5)
    with pytest.raises(ValueError):
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
    assert abs(s.c1) < 1e-14


def test_bulk_grid_matches_pointwise(rng):
    p = ModelParams(0.8, as_gamma(-2.5))
    mode = bulk_mode(p, 1.1, -0.6)
    xs = np.linspace(0.0, 1.0, 5)
    ys = np.linspace(-0.5, 0.5, 4)
    grid = eval_bulk_grid(mode, p, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_bulk(mode, p, float(x), float(y))
            assert grid[i, j, 0] == s.c1
            assert grid[i, j, 1] == s.c2


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
    assert s.c1 == 0.0


def test_edge_mode_boundary_condition(rng):
    for _ in range(20):
        p = ModelParams(float(rng.uniform(0.1, 2.0)), as_gamma(random_gamma(rng, hi=5.0)))
        mode = edge_mode_at_k(p, float(rng.uniform(-3, 3)))
        if mode is None:
            continue
        s = eval_edge(mode, p, 0.0, 0.2)
        assert bc_residual(p, s) < 1e-12 * (1.0 + abs(p.gamma.value))


def test_edge_mode_transverse_norm_is_half():
    # int_0^inf |U_k(x, y)|^2 dx = 1/2 regardless of (m, gamma, k)
    for m, g, k in [(1.0, 2.0, 0.3), (0.5, -3.0, 2.0), (1.0, 0.5, -0.2)]:
        p = ModelParams(m, as_gamma(g))
        mode = edge_mode_at_k(p, k)
        assert mode is not None
        val, _ = quad(lambda x: abs(eval_edge(mode, p, x, 0.0).c1) ** 2
                      + abs(eval_edge(mode, p, x, 0.0).c2) ** 2, 0.0, np.inf)
        assert val == pytest.approx(0.5, rel=1e-9)


def test_edge_grid_matches_pointwise():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = edge_mode_at_k(p, 0.4)
    xs = np.linspace(0.0, 2.0, 4)
    ys = np.linspace(0.0, 1.0, 3)
    grid = eval_edge_grid(mode, p, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_edge(mode, p, float(x), float(y))
            assert grid[i, j, 0] == s.c1
            assert grid[i, j, 1] == s.c2


def test_defect_mode_values():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = defect_mode(p, 2.0, 0.5, +1)
    assert mode.lambda_def == pytest.approx(math.sqrt(4.0 + 0.25 + 1.0))
    assert mode.s == pytest.approx(1j * (0.5 + mode.lambda_def) / (1.0 + 2.0j))
    with pytest.raises(InvalidDeficiency):
        defect_mode(p, 0.0, 0.5, +1)
    with pytest.raises(ValueError):
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
    grid = eval_defect_grid(mode, xs, ys)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            s = eval_defect(mode, float(x), float(y))
            assert grid[i, j, 0] == s.c1
            assert grid[i, j, 1] == s.c2


@pytest.mark.parametrize("g, k", [(2.0, 1.5), (-0.5, -2.0), ("inf", 1.5)])
def test_broadcast_mesh_equals_grid(g, k):
    p = ModelParams(0.8, as_gamma(g))
    xs = np.linspace(0.0, 2.0, 7)
    ys = np.linspace(-1.0, 1.0, 5)
    X, Y = xs[:, None], ys[None, :]
    bulk = bulk_mode(p, 1.1, -0.6)
    edge = edge_mode_at_k(p, k)
    defect = defect_mode(p, 3.0, -0.2, -1)
    pairs = [(eval_bulk(bulk, p, X, Y), eval_bulk_grid(bulk, p, xs, ys)),
             (eval_edge(edge, p, X, Y), eval_edge_grid(edge, p, xs, ys)),
             (eval_defect(defect, X, Y), eval_defect_grid(defect, xs, ys))]
    for mesh, grid in pairs:
        assert grid.shape == (7, 5, 2)
        assert np.array_equal(mesh.c1, grid[..., 0])
        assert np.array_equal(mesh.c2, grid[..., 1])
    assert type(eval_edge(edge, p, 0.3, 0.1).c1) is complex


def test_sample_on_grid_calls_fn_once():
    p = ModelParams(1.0, as_gamma(2.0))
    mode = bulk_mode(p, 1.0, 0.5)
    calls = []

    def fn(x, y):
        calls.append((np.shape(x), np.shape(y)))
        return eval_bulk(mode, p, x, y)

    grid = sample_on_grid(fn, 0.1, -0.2, 6, 4, 0.05)
    assert calls == [((6, 1), (1, 4))]
    assert np.array_equal(grid, eval_bulk_grid(mode, p, 0.1 + 0.05 * np.arange(6),
                                               -0.2 + 0.05 * np.arange(4)))


def test_fd_rejects_small_grids():
    p = ModelParams(1.0, as_gamma(2.0))
    with pytest.raises(GridTooSmall):
        apply_dirac_fd(np.zeros((2, 5, 2)), p, 0.1)
    with pytest.raises(ValueError):
        apply_dirac_fd(np.zeros((5, 5, 3)), p, 0.1)
    with pytest.raises(ValueError):
        apply_dirac_fd(np.zeros((5, 5, 2)), p, -0.1)


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
