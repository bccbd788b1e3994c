"""Eigenfunction families of the half-plane Dirac operator.

Three families: oscillatory bulk modes (transverse momentum l > 0), boundary
edge modes (decay rate lambda > 0, linear dispersion) and the defect modes of
the adjoint operator (imaginary eigenvalues +-i*mu) that classify the
self-adjoint boundary conditions.  All evaluations use the fixed phase and
normalization conventions that the current-density module relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .params import ModelParams, _homogeneous


def _points(x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """x and y as float arrays of at least one axis, plus their broadcast shape.

    A single point is evaluated as a 1-element array, because numpy's scalar
    complex arithmetic differs from its array arithmetic in the last bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.atleast_1d(x), np.atleast_1d(y), np.broadcast_shapes(x.shape, y.shape)


def _spinor(shape: tuple[int, ...], c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Evaluated components (psi_1, psi_2) stacked on a last axis: shape (*shape, 2)."""
    return np.stack(np.broadcast_arrays(c1, c2), axis=-1).reshape(*shape, 2)


@dataclass(frozen=True)
class BulkMode:
    """Scattering mode: momenta (l, k), energy branch E, amplitude rho, phase e^{i phi}."""

    l: float
    k: float
    E: float
    rho: complex
    phase: complex


@dataclass(frozen=True)
class EdgeMode:
    """Edge mode at longitudinal momentum k with energy E and decay rate lam > 0."""

    k: float
    E: float
    lam: float


@dataclass(frozen=True)
class DefectMode:
    """Adjoint eigenfunction e^{-lambda x + i k y} (1, s) with eigenvalue sign*i*mu."""

    mu: float
    k: float
    sign: int
    lambda_def: float
    s: complex


def bulk_mode(p: ModelParams, l: float, k: float, branch: str = "negative") -> BulkMode:
    """Construct the bulk mode (l, k) on the requested energy branch.

    E = -+sqrt(k^2 + l^2 + m^2), rho = (k + i l)/(m - E) and the boundary
    phase e^{i phi} = (1 + gamma rho*)/(1 + gamma rho), written as
    (a + b rho*)/(a + b rho) in the homogeneous coordinates of params._homogeneous.
    """
    if not (0.0 < l < math.inf and math.isfinite(k)):
        raise OutOfDomain(f"bulk modes need 0 < l < inf and a finite k, got l={l}, k={k}")
    if branch not in ("positive", "negative"):
        raise OutOfDomain(f"branch must be 'positive' or 'negative', got {branch!r}")
    E = math.sqrt(k * k + l * l + p.m * p.m)
    if branch == "negative":
        E = -E
    rho = (k + 1j * l) / (p.m - E)
    a, b = _homogeneous(p.gamma)
    phase = (a + b * np.conj(rho)) / (a + b * rho)
    return BulkMode(l=float(l), k=float(k), E=E, rho=complex(rho), phase=complex(phase))


def eval_bulk(mode: BulkMode, p: ModelParams, x: float | np.ndarray,
              y: float | np.ndarray) -> np.ndarray:
    """Evaluate u_lk(x, y), including the sqrt((E-m)/4E) normalization factor.

    x and y broadcast against each other; the spinor is the last axis of the
    result, so a single point gives shape (2,) and xs[:, None], ys[None, :]
    the tensor grid of shape (len(xs), len(ys), 2).
    """
    x, y, shape = _points(x, y)
    norm = math.sqrt((mode.E - p.m) / (4.0 * mode.E))
    plane = np.exp(1j * mode.k * y)
    ex_p = np.exp(1j * mode.l * x)
    ex_m = np.exp(-1j * mode.l * x)
    c1 = (mode.phase * 1j * mode.rho * ex_p - 1j * np.conj(mode.rho) * ex_m) * plane * norm
    c2 = (mode.phase * ex_p - ex_m) * plane * norm
    return _spinor(shape, c1, c2)


def edge_dispersion(p: ModelParams, k: float | np.ndarray
                    ) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Energy E and decay rate lam of the edge branch at momentum k (float or array).

    Generic gamma:  E = [2g/(1+g^2)] k + [(1-g^2)/(1+g^2)] m and
    lam = [(g^2-1)/(g^2+1)] k + [2g/(g^2+1)] m; at gamma = +-1 this is
    E = gamma*k, lam = gamma*m, and at gamma = inf E = -m, lam = k.  Written
    in the homogeneous coordinates (a, b) of params._homogeneous.  An array k
    gives arrays rounded exactly as the float formula is at each element; an
    edge mode exists where lam > 0.
    """
    a, b = _homogeneous(p.gamma)
    d, n = b * b - a * a, a * a + b * b
    return (2.0 * a * b * k - d * p.m) / n, (d * k + 2.0 * a * b * p.m) / n


def edge_mode_at_k(p: ModelParams, k: float) -> EdgeMode | None:
    """Edge mode at momentum k, or None when lam of edge_dispersion is not positive."""
    k = float(k)
    E, lam = edge_dispersion(p, k)
    if not lam > 0.0:
        return None
    return EdgeMode(k=k, E=E, lam=lam)


def eval_edge(mode: EdgeMode, p: ModelParams, x: float | np.ndarray,
              y: float | np.ndarray) -> np.ndarray:
    """Evaluate U_k(x, y) = sqrt(lam/(1+gamma^2)) (i, -gamma) e^{-lam x + i k y}; broadcasts.

    The direction (i, -gamma)/sqrt(1+gamma^2) is (i a, -b)/sqrt(a^2+b^2) in the
    homogeneous coordinates of params._homogeneous; a >= 0 keeps its phase,
    and gamma = inf gives (0, -1).
    """
    x, y, shape = _points(x, y)
    plane = np.exp(-mode.lam * x + 1j * mode.k * y)
    a, b = _homogeneous(p.gamma)
    amp = math.sqrt(mode.lam / (a * a + b * b))
    return _spinor(shape, 1j * a * amp * plane, -b * amp * plane)


def defect_mode(p: ModelParams, mu: float, k: float, sign: int) -> DefectMode:
    """Defect-space mode with H* psi = sign * i * mu * psi.

    lambda_def = sqrt(mu^2 + k^2 + m^2) and s = i (k + lambda_def)/(m + sign*i*mu).
    """
    if not (0.0 < mu < math.inf and math.isfinite(k)):
        raise OutOfDomain(f"defect modes need 0 < mu < inf and a finite k, got mu={mu}, k={k}")
    if sign not in (1, -1):
        raise OutOfDomain(f"sign must be +1 or -1, got {sign}")
    lam = math.sqrt(mu * mu + k * k + p.m * p.m)
    s = 1j * (k + lam) / (p.m + sign * 1j * mu)
    return DefectMode(mu=float(mu), k=float(k), sign=sign, lambda_def=lam, s=complex(s))


def eval_defect(mode: DefectMode, x: float | np.ndarray, y: float | np.ndarray) -> np.ndarray:
    """Evaluate the defect wave function e^{-lambda x + i k y} (1, s); broadcasts."""
    x, y, shape = _points(x, y)
    plane = np.exp(-mode.lambda_def * x + 1j * mode.k * y)
    return _spinor(shape, plane, mode.s * plane)


def edge_conductivity(p: ModelParams) -> int:
    """Quantized in-gap edge conductivity in units of e^2/h: sgn(m) if gap_crossing, else 0."""
    if gap_crossing(p):
        return 1 if p.m > 0 else -1
    return 0


def gap_crossing(p: ModelParams) -> bool:
    """True iff part of the edge dispersion lies inside the bulk spectral gap: m*gamma > 0.

    In the homogeneous coordinates of params._homogeneous that is a > 0 and m b > 0;
    gamma = inf (a = 0) has the flat band E = -m on the gap edge.
    """
    a, b = _homogeneous(p.gamma)
    return a > 0.0 and p.m * b > 0
