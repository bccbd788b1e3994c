"""Divergence bookkeeping for systems of several fermion species.

For boundary parameters gamma_1 .. gamma_N the cutoff-dependent edge current,
the 1/x^2 particle transport and the dipolar boundary current each come with
an additive residual sum; realistic systems must cancel the first two.  The
same conditions can be restated through the boost-invariant signature eta_n
and rapidity theta_n, which is what makes their behaviour under Lorentz
boosts transparent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .currents import _singular_coefficients
from .errors import CptInvariantBoundary, DegeneratePair, UndefinedEpsilon
from .params import (BoundaryCharacter, GammaLike, ProjectiveReal, _gamma_from_eta_theta,
                     as_gamma, boost, boundary_character)


@dataclass(frozen=True)
class FermionSystem:
    """N fermion species, one boundary parameter each."""

    gammas: tuple[ProjectiveReal, ...]

    def __post_init__(self) -> None:
        coerced = tuple(as_gamma(g) for g in self.gammas)
        for g in coerced:
            if not g.is_infinite and abs(g.value) == 1.0:
                raise CptInvariantBoundary("residuals are undefined at gamma = +-1")
        object.__setattr__(self, "gammas", coerced)

    @property
    def characters(self) -> tuple[BoundaryCharacter, ...]:
        return tuple(boundary_character(g) for g in self.gammas)

    def boosted(self, chi: float) -> "FermionSystem":
        return FermionSystem(tuple(boost(g, chi) for g in self.gammas))


def make_system(gammas: Iterable[GammaLike]) -> FermionSystem:
    return FermionSystem(tuple(as_gamma(g) for g in gammas))


def _summands(g: ProjectiveReal) -> tuple[float, float, float]:
    """(r_log, r_x2, r_dipole) of one species: the singular_part coefficients rescaled."""
    c_log, c_dip, c_x2 = _singular_coefficients(None if g.is_infinite else g.value)
    return -2.0 * math.pi * c_log, -4.0 * math.pi * c_x2, c_dip


@dataclass(frozen=True)
class ResidualReport:
    """The three gamma-form residual sums and the two rapidity-form sums.

    r_plus/r_minus are None when some species has vanishing edge velocity
    (epsilon_n = sgn v_n undefined).
    """

    r_log: float
    r_x2: float
    r_dipole: float
    r_plus: float | None
    r_minus: float | None

    def cancels(self, tol: float = 1e-10) -> bool:
        return abs(self.r_log) < tol and abs(self.r_x2) < tol


def residuals(sys: FermionSystem) -> ResidualReport:
    """Evaluate the five residual sums of the system."""
    r_log = r_x2 = r_dip = 0.0
    for g in sys.gammas:
        a, b, c = _summands(g)
        r_log += a
        r_x2 += b
        r_dip += c
    r_plus = r_minus = 0.0
    defined = True
    for ch in sys.characters:
        if ch.epsilon is None:
            defined = False
            break
        r_plus += ch.eta * math.exp(ch.epsilon * ch.theta)
        r_minus += ch.eta * math.exp(-ch.epsilon * ch.theta)
    if not defined:
        r_plus = r_minus = None
    return ResidualReport(r_log=r_log, r_x2=r_x2, r_dipole=r_dip,
                          r_plus=r_plus, r_minus=r_minus)


def rapidity_equivalence_check(sys: FermionSystem, tol: float = 1e-10) -> bool:
    """True iff the gamma-form pair and the rapidity-form pair vanish together.

    The two pairs are linear recombinations of each other
    (r_log = -(r_plus + r_minus)/2, r_x2 = -(r_plus - r_minus)/4), so their
    zero sets coincide whenever all epsilon_n are defined.
    """
    rep = residuals(sys)
    if rep.r_plus is None:
        raise UndefinedEpsilon("some species has v_edge = 0; use the gamma-form residuals")
    scale = max(1.0, sum(abs(_summands(g)[0]) for g in sys.gammas))
    gamma_zero = abs(rep.r_log) < tol * scale and abs(rep.r_x2) < tol * scale
    rap_zero = abs(rep.r_plus) < tol * scale and abs(rep.r_minus) < tol * scale
    return gamma_zero == rap_zero


def conjugate_pair(gamma: GammaLike) -> FermionSystem:
    """The charge-conjugate pair {gamma, -1/gamma}; all three residuals vanish."""
    g = as_gamma(gamma)
    if g.is_infinite or g.value == 0.0 or abs(g.value) == 1.0:
        raise DegeneratePair(f"gamma={g} does not give a nondegenerate pair")
    return FermionSystem((g, g.inv().neg()))


@dataclass(frozen=True)
class BoostScanEntry:
    chi: float
    cancels: bool
    velocity_signs_preserved: bool
    r_plus: float | None
    r_minus: float | None


def boost_invariance_scan(sys: FermionSystem, chi_values: Sequence[float],
                          tol: float = 1e-9) -> list[BoostScanEntry]:
    """Boost every species by each chi and record whether cancellation survives.

    For systems whose edge velocities all share one sign, the rapidity-form
    sums scale uniformly by e^{+-chi} under sign-preserving boosts, so exact
    cancellation persists; once a velocity changes sign the scaling of that
    term flips and cancellation is generically lost.
    """
    base_eps = [ch.epsilon for ch in sys.characters]
    out = []
    for chi in chi_values:
        boosted = sys.boosted(chi)
        rep = residuals(boosted)
        eps = [ch.epsilon for ch in boosted.characters]
        preserved = all(a == b for a, b in zip(base_eps, eps))
        if rep.r_plus is None:
            cancels = abs(rep.r_log) < tol and abs(rep.r_x2) < tol
        else:
            cancels = abs(rep.r_plus) < tol and abs(rep.r_minus) < tol
        out.append(BoostScanEntry(chi=float(chi), cancels=cancels,
                                  velocity_signs_preserved=preserved,
                                  r_plus=rep.r_plus, r_minus=rep.r_minus))
    return out


# ---------------------------------------------------------------------------
# numerical constraint solver


_THETA_LATTICE = tuple(np.linspace(-3.0, 3.0, 13))


def _target_vector(gammas: list[ProjectiveReal], targets: tuple[str, ...]) -> np.ndarray:
    rep = residuals(FermionSystem(tuple(gammas)))
    vals = {"r_log": rep.r_log, "r_x2": rep.r_x2, "r_dipole": rep.r_dipole}
    return np.array([vals[t] for t in targets])


def solve_system(n: int, fixed: dict[int, GammaLike] | Sequence[GammaLike] | None = None,
                 targets: tuple[str, ...] = ("r_log", "r_x2"),
                 tol: float = 1e-12, max_iter: int = 200) -> list[FermionSystem]:
    """Search for systems of n species whose chosen residual sums vanish.

    ``fixed`` pins a subset of the gammas (by index when a dict, else the
    first entries).  Free species are parametrized by (eta, theta); a damped
    Gauss-Newton iteration (damping 0.5) runs from a deterministic multistart
    lattice over theta-space and every eta sign pattern.  Distinct solutions
    are canonicalized by sorting the gammas and deduplicated at 1e-8.
    Returns the (possibly empty) list of solutions found.
    """
    if n < 2:
        raise ValueError("need at least two species")
    if fixed is None:
        fixed = {}
    if not isinstance(fixed, dict):
        fixed = {i: g for i, g in enumerate(fixed)}
    fixed = {i: as_gamma(g) for i, g in fixed.items()}
    if len(fixed) >= n:
        raise ValueError("fixed assignment must leave at least one free gamma")
    free_idx = [i for i in range(n) if i not in fixed]
    nf = len(free_idx)

    def assemble(thetas: np.ndarray, etas: tuple[int, ...]) -> list[ProjectiveReal]:
        gammas: list[ProjectiveReal] = [None] * n  # type: ignore[list-item]
        for i, g in fixed.items():
            gammas[i] = g
        for j, i in enumerate(free_idx):
            gammas[i] = _gamma_from_eta_theta(etas[j], float(thetas[j]))
        return gammas

    def objective(thetas: np.ndarray, etas: tuple[int, ...]) -> np.ndarray:
        return _target_vector(assemble(thetas, etas), targets)

    solutions: list[tuple[float, ...]] = []
    for etas in product((1, -1), repeat=nf):
        for start in product(_THETA_LATTICE, repeat=nf):
            th = np.array(start, dtype=float)
            converged = False
            for _ in range(max_iter):
                F = objective(th, etas)
                if np.max(np.abs(F)) < tol:
                    converged = True
                    break
                # forward-difference Jacobian
                J = np.empty((len(targets), nf))
                dh = 1e-7
                for j in range(nf):
                    th2 = th.copy()
                    th2[j] += dh
                    J[:, j] = (objective(th2, etas) - F) / dh
                step, *_ = np.linalg.lstsq(J, -F, rcond=None)
                if not np.all(np.isfinite(step)):
                    break
                th = th + 0.5 * step
                if np.max(np.abs(th)) > 30.0:
                    break
            if not converged:
                continue
            gammas = assemble(th, etas)
            if any(g.is_infinite or abs(g.value) == 1.0 for g in gammas):
                continue
            key = tuple(sorted(g.value for g in gammas))
            if any(len(key) == len(s) and max(abs(a - b) for a, b in zip(key, s)) < 1e-8
                   for s in solutions):
                continue
            solutions.append(key)
    return [make_system(s) for s in sorted(solutions)]
