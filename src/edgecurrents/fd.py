"""Second-order finite-difference application of the Dirac operator.

Used as an independent oracle for the eigen-equations: central differences at
interior grid points, second-order one-sided stencils on the boundary rows so
the whole grid keeps O(h^2) accuracy without ghost points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfDomain
from .params import ModelParams


def _diff(field: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along one axis of a (nx, ny, 2) grid."""
    f = np.moveaxis(field, axis, 0)
    d = np.empty_like(f)
    d[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    d[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    d[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(d, 0, axis)


def apply_dirac_fd(field: np.ndarray, p: ModelParams, h: float) -> np.ndarray:
    """Apply H = -i sigma_1 d/dx - i sigma_2 d/dy + m sigma_3 on a uniform grid.

    ``field`` has shape (nx, ny, 2) with axis 0 along x (row 0 at the
    boundary x = 0), axis 1 along y, and the spinor components last.
    """
    field = np.asarray(field, dtype=complex)
    if field.ndim != 3 or field.shape[2] != 2:
        raise OutOfDomain(f"expected a grid of shape (nx, ny, 2), got {field.shape}")
    if field.shape[0] < 3 or field.shape[1] < 3:
        raise OutOfDomain(f"need at least 3 points per axis, got {field.shape[:2]}")
    if not 0.0 < h < math.inf:
        raise OutOfDomain(f"grid spacing must be positive and finite, got h={h}")
    dx = _diff(field, h, axis=0)
    dy = _diff(field, h, axis=1)
    out = np.empty_like(field)
    # -i sigma_1 dx psi = (-i dx psi_2, -i dx psi_1)
    # -i sigma_2 dy psi = (-dy psi_2, +dy psi_1)
    out[..., 0] = -1j * dx[..., 1] - dy[..., 1] + p.m * field[..., 0]
    out[..., 1] = -1j * dx[..., 0] + dy[..., 0] - p.m * field[..., 1]
    return out


def sample_on_grid(fn, x0: float, y0: float, nx: int, ny: int, h: float) -> np.ndarray:
    """Tabulate a spinor-valued function on a uniform (nx, ny) grid.

    ``fn(x, y)`` is called once, on the broadcast mesh x of shape (nx, 1) and
    y of shape (1, ny), and returns the spinor array of shape (nx, ny, 2).
    """
    xs = x0 + h * np.arange(nx)
    ys = y0 + h * np.arange(ny)
    grid = np.empty((nx, ny, 2), dtype=complex)
    grid[...] = fn(xs[:, None], ys[None, :])
    return grid


def eigen_residual(fn, E: complex, p: ModelParams, x0: float, y0: float,
                   nx: int, ny: int, h: float) -> float:
    """Relative residual ||(H_h - E) psi|| / ||psi|| of a sampled eigenfunction.

    Both norms run over the interior points, where the stencils are centred.
    """
    grid = sample_on_grid(fn, x0, y0, nx, ny, h)
    res = (apply_dirac_fd(grid, p, h) - E * grid)[1:-1, 1:-1]
    return float(np.linalg.norm(res) / np.linalg.norm(grid[1:-1, 1:-1]))


def richardson_residual(fn, E: complex, p: ModelParams, x0: float, y0: float,
                        nx: int, ny: int, h: float) -> float:
    """Residual after one Richardson step over spacings h and h/2.

    The O(h^2) error of the centred stencils cancels between the two grids,
    leaving the O(h^4) remainder; used for tight defect-mode checks.
    """
    coarse = sample_on_grid(fn, x0, y0, nx, ny, h)
    fine = sample_on_grid(fn, x0, y0, 2 * nx - 1, 2 * ny - 1, h / 2.0)
    r_c = apply_dirac_fd(coarse, p, h) - E * coarse
    r_f = (apply_dirac_fd(fine, p, h / 2.0) - E * fine)[::2, ::2]
    extrap = (4.0 * r_f - r_c) / 3.0
    extrap = extrap[1:-1, 1:-1]
    return float(np.max(np.abs(extrap)) / np.max(np.abs(coarse)))
