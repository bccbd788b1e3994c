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
from itertools import accumulate, product, takewhile
from typing import Iterable, NamedTuple, Sequence

from .errors import CptInvariantBoundary, OutOfDomain
from .params import (BoundaryCharacter, GammaLike, ProjectiveReal, _checked_make,
                     _homogeneous, _is_unit, _projective, _singular_coefficients, as_gamma,
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
    """Evaluate the five residual sums of the system and their scale.

    Each sum is exactly rounded (math.fsum), so it does not depend on the order of the species.
    """
    terms = [_summands(g) for g in sys.gammas]
    sums = [math.fsum(t[i] for t in terms) for i in range(5)]
    return ResidualReport(*sums, scale=max(1.0, math.fsum(abs(t[0]) for t in terms)))


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
# (w, 1/w) with w = eta e^|theta|, |w| >= 1: its (r_plus, r_minus) of _summands, so
# w = (1 + |gamma|)/(1 - |gamma|).  The residuals cancel iff the vectors sum to zero.

# w of the lattice eta * linspace(-3, 3, 13) of theta; the sign of theta is the sign of gamma
_LATTICE = tuple(eta * math.exp(0.5 * k) for eta in (1.0, -1.0) for k in range(7))


def _unit_sums(vp: float, vm: float, k: int, scale: float) -> list[list[float]]:
    """Candidate lists of the w of k unit vectors (w, 1/w) that sum to (vp, vm).

    scale: ResidualReport.scale of the species placed, each adding |w + 1/w|/2.
    The last two vectors u follow from (V - u)^2 = 1, which is
    vm w^2 - q w + vp = 0 with q = V^2 = vp vm.  q = 4 within rounding is the
    double root of two equal vectors, and a root |w| < 1 is raised to 1 with
    its sign kept; the cancellation test rejects what is no solution.
    """
    if k == 1:
        eta = 1.0 if vp + vm > 0 else -1.0
        return [[eta * max(eta * vp, 1.0)]]
    # (vp, vm) cancelling by itself (its r_log, r_x2 pass cancels) leaves two species a family,
    # and the lattice fixes every leading species
    if k > 2 or _negligible(scale, (vp + vm) / 2.0, (vp - vm) / 4.0):
        firsts = _LATTICE
    else:
        q = vp * vm
        d = 0.0 if abs(q - 4.0) < 4e-12 else q * (q - 4.0)
        half = 0.5 * (q + math.copysign(math.sqrt(d), q)) if d >= 0.0 else 0.0
        # half = 0: no real root, or V light-like or zero: no finite root
        firsts = [math.copysign(max(abs(w), 1.0), w) for w in (half / vm, vp / half)] if half else []
    return [[w, *rest] for w in firsts
            for rest in _unit_sums(vp - w, vm - 1.0 / w, k - 1, scale + abs(w + 1.0 / w) / 2.0)]


def _dedupe(keys: Iterable[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """Distinct keys sorted, each dropped if within 1e-8 of a kept one.

    kept is sorted, so only its tail can be that near: scan it back to 1e-8 in the first entry.
    """
    kept: list[tuple[float, ...]] = []
    for key in sorted(keys):
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
    free species multiplies the cost by ~10 or more: in process, (4, [])
    takes 0.012-0.013 s for 319 systems and (5, []) 0.13-0.15 s for 6712 (the
    least of 7 and of 3 runs, four times over, on a shared 2-core Intel
    Xeon), and (6, []) took 144-152 s for 38031 with an earlier form of this
    solver, so at most 5 gammas may be free: more raise OutOfDomain before
    anything is enumerated.  A candidate is kept when it cancels
    (``ResidualReport.cancels``) and no free gamma rounds to +-1.
    One identity rule lists the systems.  A candidate is the w of its free
    species: a w within 1e-12 of +-1 is +-1, gamma = 0 or inf (so inf is
    written as inf, not as |gamma| ~ 1e15), and w that agree to 1e-12 of |w|
    are one species.  Candidates whose sorted 1/w agree to 1e-8 (0.5e-8 to
    1e-8 on the projective line) are one system, the first in that order;
    only then is each listed with both signs of every free gamma (the
    residuals are even in gamma), so a system's sign copies are its exact
    negations.  The residual sums are exactly rounded, so no order of
    ``fixed`` changes a bit of the result.  Systems list their gammas sorted,
    inf last, -0.0 as 0.0, and come sorted.
    [] means infeasible, as for every n = 3: one unit vector is never the
    sum of two.
    n must be an integral number (2.0 and numpy integers count) of at least 2.
    """
    if not float(n).is_integer() or n < 2:
        raise OutOfDomain(f"need an integral number n >= 2 of species, got n={n}")
    if not 1 <= (n_free := int(n) - len(fixed)) <= 5:
        raise OutOfDomain(f"need 1 to 5 free gammas, got {n_free} (n={n}, {len(fixed)} fixed)")
    pinned = FermionSystem(tuple(fixed))
    rep = residuals(pinned)
    free_of: dict[tuple[float, ...], tuple[ProjectiveReal, ...]] = {}
    for units in _unit_sums(-rep.r_plus, -rep.r_minus, n_free, rep.scale):
        # to 1e-12, the rounding of _unit_sums, a w next to +-1 is +-1 (gamma = 0 or inf), and w
        # that agree are one species
        units = sorted(w if abs(w) - 1.0 >= 1e-12 else math.copysign(1.0, w) for w in units)
        units = list(accumulate(units, lambda v, w: v if w - v < 1e-12 * abs(w) else w))
        # gamma = (w - 1)/(w + 1), inf at w = -1; from |w| = 2^53 on w + 1 rounds, and
        # 1 - 2/(w + 1) keeps the partner 1 - 2^-52 of the pin 1 + 2^-52, where w = 2^53
        free = tuple(_projective(w + 1.0, w - 1.0) if abs(w) < 2.0 ** 53
                     else _projective(1.0, 1.0 - 2.0 / (w + 1.0)) for w in units)
        if not any(map(_is_unit, free)) and residuals(make_system(pinned.gammas + free)).cancels():
            # the key is r_minus = 1/w of each species: |1/w| <= 1, where 1e-8 apart is 0.5e-8
            # to 1e-8 apart on the projective line
            free_of.setdefault(tuple(sorted(1.0 / w for w in units)), free)
    # r_+- depend on |gamma| alone: a kept key stands for its 2^k sign copies, exact negations;
    # + 0.0 writes -0.0 as 0.0, the same point of the projective line, so no pin order shows
    copies = (pinned.gammas + signed for key in _dedupe(free_of)
              for signed in product(*[(g, g.neg()) for g in free_of[key]]))
    found = {tuple(sorted(math.inf if g.is_infinite else g.value + 0.0 for g in c)) for c in copies}
    return [make_system("inf" if v == math.inf else v for v in s) for s in sorted(found)]
