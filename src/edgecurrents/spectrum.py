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

from .errors import InvalidDeficiency, InvalidMomentum
from .params import GammaLike, ModelParams, as_gamma


@dataclass(frozen=True)
class SpinorValue:
    """Two-component spinor value (psi_1, psi_2) at a point, or arrays over a mesh."""

    c1: complex | np.ndarray
    c2: complex | np.ndarray

    def as_array(self) -> np.ndarray:
        """Components stacked along a new last axis: shape (..., 2)."""
        return np.stack(np.broadcast_arrays(self.c1, self.c2), axis=-1).astype(complex, copy=False)


def _points(x, y) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """x and y as float arrays of at least one axis, plus their broadcast shape.

    A single point is evaluated as a 1-element array, because numpy's scalar
    complex arithmetic differs from its array arithmetic in the last bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.atleast_1d(x), np.atleast_1d(y), np.broadcast_shapes(x.shape, y.shape)


def _spinor(shape: tuple[int, ...], c1: np.ndarray, c2: np.ndarray) -> SpinorValue:
    """Wrap evaluated components; a single point gives Python complex values."""
    if shape:
        return SpinorValue(c1, c2)
    return SpinorValue(complex(c1[0]), complex(c2[0]))


def _mesh(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast 1-d xs and ys to the (len(xs), len(ys)) tensor grid."""
    return np.asarray(xs, dtype=float)[:, None], np.asarray(ys, dtype=float)[None, :]


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
    phase e^{i phi} = (1 + gamma rho*)/(1 + gamma rho); the gamma = inf limit
    is rho*/rho.
    """
    if l <= 0:
        raise InvalidMomentum(f"bulk modes need l > 0, got l={l}")
    if branch not in ("positive", "negative"):
        raise ValueError(f"branch must be 'positive' or 'negative', got {branch!r}")
    E = math.sqrt(k * k + l * l + p.m * p.m)
    if branch == "negative":
        E = -E
    rho = (k + 1j * l) / (p.m - E)
    if p.gamma.is_infinite:
        phase = np.conj(rho) / rho
    else:
        g = p.gamma.value
        phase = (1.0 + g * np.conj(rho)) / (1.0 + g * rho)
    return BulkMode(l=float(l), k=float(k), E=E, rho=complex(rho), phase=complex(phase))


def eval_bulk(mode: BulkMode, p: ModelParams, x: float | np.ndarray,
              y: float | np.ndarray) -> SpinorValue:
    """Evaluate u_lk(x, y), including the sqrt((E-m)/4E) normalization factor.

    x and y broadcast against each other.
    """
    x, y, shape = _points(x, y)
    norm = math.sqrt((mode.E - p.m) / (4.0 * mode.E))
    plane = np.exp(1j * mode.k * y)
    ex_p = np.exp(1j * mode.l * x)
    ex_m = np.exp(-1j * mode.l * x)
    c1 = (mode.phase * 1j * mode.rho * ex_p - 1j * np.conj(mode.rho) * ex_m) * plane * norm
    c2 = (mode.phase * ex_p - ex_m) * plane * norm
    return _spinor(shape, c1, c2)


def edge_mode_at_k(p: ModelParams, k: float) -> EdgeMode | None:
    """Edge mode at momentum k, or None when the decay rate is not positive.

    Generic gamma:  E = [2g/(1+g^2)] k + [(1-g^2)/(1+g^2)] m and
    lam = [(g^2-1)/(g^2+1)] k + [2g/(g^2+1)] m.  The limits gamma = +-1
    (E = gamma*k, lam = gamma*m) and gamma = inf (E = -m, lam = k) are
    dedicated branches.
    """
    k = float(k)
    if p.gamma.is_infinite:
        E, lam = -p.m, k
    elif abs(p.gamma.value) == 1.0:
        g = p.gamma.value
        E, lam = g * k, g * p.m
    else:
        g = p.gamma.value
        d = 1.0 + g * g
        E = (2.0 * g * k + (1.0 - g * g) * p.m) / d
        lam = ((g * g - 1.0) * k + 2.0 * g * p.m) / d
    if lam <= 0.0:
        return None
    return EdgeMode(k=k, E=E, lam=lam)


def eval_edge(mode: EdgeMode, p: ModelParams, x: float | np.ndarray,
              y: float | np.ndarray) -> SpinorValue:
    """Evaluate U_k(x, y) = sqrt(lam/(1+gamma^2)) (i, -gamma) e^{-lam x + i k y}; broadcasts."""
    x, y, shape = _points(x, y)
    plane = np.exp(-mode.lam * x + 1j * mode.k * y)
    if p.gamma.is_infinite:
        # direction limit (0, -1) of (i, -gamma)/sqrt(1+gamma^2)
        return _spinor(shape, np.zeros_like(plane), -math.sqrt(mode.lam) * plane)
    g = p.gamma.value
    amp = math.sqrt(mode.lam / (1.0 + g * g))
    return _spinor(shape, 1j * amp * plane, -g * amp * plane)


def defect_mode(p: ModelParams, mu: float, k: float, sign: int) -> DefectMode:
    """Defect-space mode with H* psi = sign * i * mu * psi.

    lambda_def = sqrt(mu^2 + k^2 + m^2) and s = i (k + lambda_def)/(m + sign*i*mu).
    """
    if mu <= 0:
        raise InvalidDeficiency(f"deficiency parameter must be positive, got mu={mu}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    lam = math.sqrt(mu * mu + k * k + p.m * p.m)
    s = 1j * (k + lam) / (p.m + sign * 1j * mu)
    return DefectMode(mu=float(mu), k=float(k), sign=sign, lambda_def=lam, s=complex(s))


def eval_defect(mode: DefectMode, x: float | np.ndarray, y: float | np.ndarray) -> SpinorValue:
    """Evaluate the defect wave function e^{-lambda x + i k y} (1, s); broadcasts."""
    x, y, shape = _points(x, y)
    plane = np.exp(-mode.lambda_def * x + 1j * mode.k * y)
    return _spinor(shape, plane, mode.s * plane)


def eval_bulk_grid(mode: BulkMode, p: ModelParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Tabulate u_lk on the tensor grid xs x ys; shape (len(xs), len(ys), 2)."""
    return eval_bulk(mode, p, *_mesh(xs, ys)).as_array()


def eval_edge_grid(mode: EdgeMode, p: ModelParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Tabulate U_k on the tensor grid xs x ys; shape (len(xs), len(ys), 2)."""
    return eval_edge(mode, p, *_mesh(xs, ys)).as_array()


def eval_defect_grid(mode: DefectMode, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Tabulate the defect wave function on the tensor grid xs x ys."""
    return eval_defect(mode, *_mesh(xs, ys)).as_array()


def edge_conductivity(p: ModelParams) -> int:
    """Quantized in-gap edge conductivity in units of e^2/h: sgn(m) if m*gamma > 0, else 0."""
    if p.m == 0.0 or p.gamma.is_infinite or p.gamma.value == 0.0:
        return 0
    if p.m * p.gamma.value > 0:
        return 1 if p.m > 0 else -1
    return 0


def gap_crossing(p: ModelParams) -> bool:
    """True iff part of the edge dispersion lies inside the bulk spectral gap."""
    if p.m == 0.0 or p.gamma.is_infinite:
        return False
    return p.m * p.gamma.value > 0
