"""Exact bound-state spectrum from the parity matching conditions.

Even states satisfy dpsi/dx(0+) = 0, odd states psi(0) = 0.  Roots are
located by a uniform energy scan plus a lockstep bisection of every bracket;
labels are verified twice (parity alternation and node counting) so a
silently missed root cannot shift the whole ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import wavefunction
from .core import EVEN, ODD, WellParams, to_dimensionless
from .errors import BracketCollisionError, DomainError, LabelingError
from .roots import bisect_brackets
from .semiclassical import g_closed_form

# States this close to E = 0 (relative to v0) get the near-threshold flag;
# finite tolerance cannot distinguish them from the E = 0 half bound state.
NEAR_THRESHOLD_REL = 2e-6


@dataclass(frozen=True)
class EigenState:
    index: int
    energy: float
    parity: str
    nodes: int
    near_threshold: bool = False


@dataclass(frozen=True)
class SpectrumReport:
    params: WellParams
    states: tuple[EigenState, ...]
    g_value: float
    count: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "count", len(self.states))


def matching_function(p: WellParams, energy: float, parity: str) -> float:
    """dpsi/dx(0+) for even parity, psi(0) for odd parity."""
    if parity not in (EVEN, ODD):
        raise DomainError(f"parity must be '{EVEN}' or '{ODD}'")
    sample = wavefunction.psi(p, energy, 0.0)
    return sample.dpsi_dx if parity == EVEN else sample.psi


def _matching(p: WellParams, energies: np.ndarray, odd, refine: bool) -> np.ndarray:
    """Matching values at each energy: psi(0) where ``odd``, dpsi/dx(0+) elsewhere.

    One batched bracket call; refinement points also get the imaginary
    residual ceiling of :func:`wavefunction.psi`, scan points do not.
    """
    y0 = float(expit(p.a / p.b))
    y10 = float(expit(-p.a / p.b))
    nu = p.b * np.sqrt(-p.kappa2 * energies)
    mu_im = p.b * np.sqrt(p.kappa2 * (energies + p.u0))
    psi0, dpsi_dy = wavefunction.bracket_batch(nu, mu_im, y0, y10, want_deriv=not np.all(odd), check_residual=refine)
    return np.where(odd, psi0, dpsi_dy * (-(y0 * y10) / p.b))


def _matching_profile(p: WellParams, energies: np.ndarray, parity: str) -> np.ndarray:
    return _matching(p, energies, parity == ODD, refine=False)


def _bisect(p: WellParams, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol_e: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's parity."""
    return bisect_brackets(lambda e, k: _matching(p, e, odd[k], refine=True), lo, hi, flo, tol_e)


def solve_spectrum(
    p: WellParams, grid_points: int = 2000, tol_e: float = 1e-8, verify_nodes: bool = True
) -> SpectrumReport:
    """All bound states of the well, ordered, labeled and verified."""
    if grid_points < 200:
        raise DomainError("grid_points must be at least 200")
    if not tol_e > 0.0:
        raise DomainError("tol_e must be positive")
    eps = 1e-6 * p.v0
    energies = np.linspace(-p.v0 + eps, -eps, grid_points)
    lo, hi, flo, odd = [], [], [], []
    for parity in (EVEN, ODD):
        vals = _matching_profile(p, energies, parity)
        signs = np.sign(vals)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        lo.append(energies[flips])
        hi.append(energies[flips + 1])
        flo.append(vals[flips])
        odd.append(np.full(flips.size, parity == ODD))
    odd = np.concatenate(odd)
    energies_found = _bisect(p, odd, np.concatenate(lo), np.concatenate(hi), np.concatenate(flo), tol_e)
    found = sorted(((e, ODD if o else EVEN) for e, o in zip(energies_found, odd)), key=lambda t: t[0])
    states = []
    for idx, (energy, parity) in enumerate(found):
        expected = EVEN if idx % 2 == 0 else ODD
        if parity != expected:
            raise BracketCollisionError(
                f"state {idx} has parity {parity}, expected {expected}; a root was likely "
                f"missed -- raise grid_points (currently {grid_points})"
            )
        nodes = idx
        if verify_nodes:
            _, vals_full = wavefunction.sample_bound_state(p, energy, parity == ODD)
            nodes = wavefunction.count_nodes(vals_full)
            if nodes != idx:
                raise LabelingError(
                    f"state {idx} ({parity}, E={energy:.6f}) has {nodes} nodes; labeling is inconsistent"
                )
        states.append(
            EigenState(
                index=idx,
                energy=float(energy),
                parity=parity,
                nodes=nodes,
                near_threshold=bool(abs(energy) <= NEAR_THRESHOLD_REL * p.v0),
            )
        )
    g = g_closed_form(to_dimensionless(p))
    return SpectrumReport(params=p, states=tuple(states), g_value=g)


def count_states(p: WellParams, grid_points: int = 2000) -> int:
    return solve_spectrum(p, grid_points=grid_points).count
