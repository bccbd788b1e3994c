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
from itertools import product, takewhile
from typing import Iterable, NamedTuple, Sequence

from .errors import CptInvariantBoundary, OutOfDomain
from .params import (BoundaryCharacter, GammaLike, ProjectiveReal, _checked_make,
                     _gamma_from_ratio, _homogeneous, _is_unit, _singular_coefficients, as_gamma,
                     boost, boundary_character)


class FermionSystem(NamedTuple("_FermionSystem", [("gammas", tuple[ProjectiveReal, ...])])):
    """N fermion species, one boundary parameter each."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, gammas: Iterable[GammaLike]) -> "FermionSystem":
        coerced = tuple(as_gamma(g) for g in gammas)
        if any(map(_is_unit, coerced)):
            raise CptInvariantBoundary("residuals are undefined at gamma = +-1")
        return super().__new__(cls, coerced)

    @property
    def characters(self) -> tuple[BoundaryCharacter, ...]:
        return tuple(boundary_character(g) for g in self.gammas)

    def boosted(self, chi: float) -> "FermionSystem":
        return FermionSystem(tuple(boost(g, chi) for g in self.gammas))


def make_system(gammas: Iterable[GammaLike]) -> FermionSystem:
    return FermionSystem(tuple(gammas))


def _summands(g: ProjectiveReal) -> tuple[float, float, float, float, float]:
    """(r_log, r_x2, r_dipole, r_plus, r_minus) of one species.

    The first three are the singular_part coefficients rescaled; the last two
    are the light-cone components eta e^{+-|theta|}, the Cayley ratios
    (1 +- |gamma|)/(1 -+ |gamma|), -1 at gamma = inf: (a +- |b|)/(a -+ |b|) in the
    homogeneous coordinates of params._homogeneous.
    """
    a, b = _homogeneous(g)
    c_log, c_dip, c_x2 = _singular_coefficients(a, b)
    # 1 + 2|b|/(a - |b|) rounds less than (a + |b|)/(a - |b|); a - 2|b|/(a + |b|) would
    # cancel at |b| ~ a
    plus, minus = 1.0 + 2.0 * abs(b) / (a - abs(b)), (a - abs(b)) / (a + abs(b))
    return -2.0 * math.pi * c_log, -4.0 * math.pi * c_x2, c_dip, plus, minus


def _negligible(scale: float, a: float, b: float) -> bool:
    """True iff the sums a and b are zero to the rounding of summands of size scale."""
    bound = 1e-10 * scale
    return abs(a) < bound and abs(b) < bound


class ResidualReport(NamedTuple):
    """The three gamma-form residual sums, the two rapidity-form sums and their scale.

    r_plus = sum eta_n e^{|theta_n|} and r_minus = sum eta_n e^{-|theta_n|}
    sum the light-cone components of the species; they are defined for every
    system and recombine to r_log = -(r_plus + r_minus)/2,
    r_x2 = -(r_plus - r_minus)/4.  scale = max(1, sum_n |r_log,n|) bounds
    every summand of every sum: |r_x2,n| <= |r_log,n|/2, |r_+-,n| <= 2|r_log,n|.
    """

    r_log: float
    r_x2: float
    r_dipole: float
    r_plus: float
    r_minus: float
    scale: float

    def cancels(self) -> bool:
        """The one cancellation test: r_log and r_x2 both _negligible at this scale."""
        return _negligible(self.scale, self.r_log, self.r_x2)


def residuals(sys: FermionSystem) -> ResidualReport:
    """Evaluate the five residual sums of the system and their scale."""
    sums, size = [0.0] * 5, 0.0
    for g in sys.gammas:
        terms = _summands(g)
        sums = [s + t for s, t in zip(sums, terms)]
        size += abs(terms[0])
    return ResidualReport(*sums, scale=max(1.0, size))


def conjugate_pair(gamma: GammaLike) -> FermionSystem:
    """The charge-conjugate pair {gamma, -1/gamma}; all three residuals vanish."""
    g = as_gamma(gamma)
    if g.is_infinite or g.value == 0.0 or _is_unit(g):
        raise OutOfDomain(f"gamma={g} does not give a nondegenerate pair")
    return FermionSystem((g, g.inv().neg()))


class BoostScanEntry(NamedTuple):
    chi: float
    cancels: bool
    velocity_signs_preserved: bool
    r_plus: float
    r_minus: float


def boost_invariance_scan(sys: FermionSystem, chi_values: Sequence[float]) -> list[BoostScanEntry]:
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
        out.append(BoostScanEntry(chi=float(chi), cancels=rep.cancels(),
                                  velocity_signs_preserved=preserved,
                                  r_plus=rep.r_plus, r_minus=rep.r_minus))
    return out


# ---------------------------------------------------------------------------
# exact constraint solver
#
# A species is the unit timelike vector eta (cosh theta, sinh|theta|), in light-cone form
# (eta z, eta/z), z = e^|theta| >= 1; the residuals cancel iff the vectors sum to zero.

# |theta| of the lattice eta * linspace(-3, 3, 13); the sign of theta is the sign of gamma
_THETA_LATTICE = tuple(0.5 * k for k in range(7))


def _split_first(vp: float, vm: float) -> list[tuple[int, float]]:
    """The (eta, z) of the vectors u with (vp, vm) - u a unit vector.

    (V - u)^2 = 1 gives vm w^2 - q w + vp = 0 for w = eta z, q = V^2 = vp vm.
    q = 4 within rounding is the double root of two equal vectors, and a root
    z < 1 is raised to 1; the cancellation test rejects what is no solution.
    """
    q = vp * vm
    d = 0.0 if abs(q - 4.0) < 4e-12 else q * (q - 4.0)
    half = 0.5 * (q + math.copysign(math.sqrt(d), q)) if d >= 0.0 else 0.0
    if half == 0.0:
        return []  # no real root, or V light-like or zero: no finite root
    return [(1 if w > 0 else -1, max(abs(w), 1.0)) for w in (half / vm, vp / half)]


def _unit_sums(vp: float, vm: float, k: int, scale: float) -> list[list[tuple[int, float]]]:
    """Candidate lists of k unit vectors (eta, z) that sum to (vp, vm).

    scale: ResidualReport.scale of the species placed, each adding (z + 1/z)/2.
    """
    if k == 1:
        eta = 1 if vp + vm > 0 else -1
        return [[(eta, max(eta * vp, 1.0))]]
    # (vp, vm) cancelling by itself (its r_log, r_x2 pass cancels) leaves two species a family
    if k == 2 and not _negligible(scale, (vp + vm) / 2.0, (vp - vm) / 4.0):
        firsts = _split_first(vp, vm)
    else:  # the lattice fixes the leading species
        firsts = [(eta, math.exp(t)) for eta in (1, -1) for t in _THETA_LATTICE]
    return [[(eta, z), *rest] for eta, z in firsts
            for rest in _unit_sums(vp - eta * z, vm - eta / z, k - 1, scale + (z + 1.0 / z) / 2.0)]


def _dedupe(keys: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Sorted keys, each dropped if within 1e-8 of a kept one (kept is sorted: scan its tail).

    A set drops the exact duplicates first, keeping the first of equal keys (0.0 and -0.0 are
    equal) as the stable sort and scan would.
    """
    kept: list[tuple[float, ...]] = []
    for key in sorted(set(keys)):
        near = takewhile(lambda k: not key[0] - k[0] >= 1e-8, reversed(kept))
        if not any(all(a == b or abs(a - b) < 1e-8 for a, b in zip(key, k)) for k in near):
            kept.append(key)
    return kept


def solve_system(n: int, fixed: Sequence[GammaLike] = ()) -> list[FermionSystem]:
    """Systems of n species that contain the pinned gammas and cancel r_log, r_x2.

    ``fixed`` pins fewer than n of the gammas, which leaves V = -(r_plus, r_minus)
    of the pinned species to the free ones.  One free species is V when V is a
    unit vector, two follow from a quadratic; further leading free species,
    and two free species when V vanishes (a one-parameter family), take
    |theta| = 0, 0.5, .., 3.  So the result is every solution with one free
    species, and with two free species whose pinned partners do not cancel;
    with three or more free species, or two whose pinned partners already
    cancel, it is the sample of the solutions on that lattice.  Each further
    free species multiplies the cost by ~15: (4, []) takes ~0.09 s, (5, [])
    ~1.6 s and (6, [2]) ~2.7 s on a 2-core Intel Xeon.  A candidate is kept when
    it cancels (``ResidualReport.cancels``), with both signs of every free
    gamma (the residuals are even in gamma) and without free gammas that
    round to +-1.
    Systems list their gammas sorted, inf last, and come deduplicated at 1e-8
    and sorted, so the order of ``fixed`` does not matter.  [] means
    infeasible, as for every n = 3: one unit vector is never the sum of two.
    n must be an integral number (2.0 and numpy integers count) of at least 2.
    """
    if not float(n).is_integer() or n < 2:
        raise OutOfDomain(f"need an integral number n >= 2 of species, got n={n}")
    if len(fixed) >= n:
        raise OutOfDomain("fixed gammas must leave one free")
    pinned = FermionSystem(tuple(fixed))
    rep = residuals(pinned)
    keys = []
    for units in _unit_sums(-rep.r_plus, -rep.r_minus, n - len(fixed), rep.scale):
        free = [_gamma_from_ratio(eta * z) for eta, z in units]
        if any(map(_is_unit, free)):
            continue
        if not residuals(FermionSystem(pinned.gammas + tuple(free))).cancels():
            continue
        for signs in product((1, -1), repeat=len(free)):
            gammas = pinned.gammas + tuple(g if s == 1 else g.neg() for g, s in zip(free, signs))
            keys.append(tuple(sorted(math.inf if g.is_infinite else g.value for g in gammas)))
    return [make_system("inf" if v == math.inf else v for v in key) for key in _dedupe(keys)]
