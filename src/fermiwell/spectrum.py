"""Exact bound-state spectrum from the parity matching conditions.

Even states satisfy dpsi/dx(0+) = 0, odd states psi(0) = 0.  One energy scan
evaluates both conditions in a single bracket call; every sign-change bracket
is then bisected in lockstep, and the nodes of all states are sampled in one
more call.  Labels are verified twice (parity alternation and node counting)
so a silently missed root cannot shift the whole ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import wavefunction
from .core import BOTH_PARITIES, EVEN, ODD, WellParams, to_dimensionless
from .errors import BracketCollisionError, DomainError, LabelingError
from .roots import bisect_brackets, sign_change_brackets
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


def _matching_profile(p: WellParams, energies: np.ndarray) -> np.ndarray:
    """Matching values over an energy scan: (2, n), even row first, one bracket call."""
    return wavefunction.matching_at_origin(
        *wavefunction.bound_exponents(p, energies), p.a / p.b, BOTH_PARITIES, check_residual=False
    )


def _bisect(p: WellParams, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol_e: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's parity."""
    return bisect_brackets(
        lambda e, k: wavefunction.matching_at_origin(
            *wavefunction.bound_exponents(p, e), p.a / p.b, odd[k], check_residual=True),
        lo, hi, flo, tol_e,
    )


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
    lo, hi, flo, odd = sign_change_brackets(energies, _matching_profile(p, energies))
    found = _bisect(p, odd, lo, hi, flo, tol_e)
    order = np.argsort(found, kind="stable")
    found, odd = found[order], odd[order]
    index = np.arange(found.size)
    misplaced = np.flatnonzero(odd != (index % 2 == 1))
    if misplaced.size:
        idx = misplaced[0]
        raise BracketCollisionError(
            f"state {idx} has parity {ODD if odd[idx] else EVEN}, expected {ODD if idx % 2 else EVEN}; "
            f"a root was likely missed -- raise grid_points (currently {grid_points})"
        )
    if verify_nodes:
        nodes = wavefunction.count_nodes(wavefunction.sample_bound_state(p, found, odd)[1])
        mislabeled = np.flatnonzero(nodes != index)
        if mislabeled.size:
            idx = mislabeled[0]
            raise LabelingError(
                f"state {idx} ({ODD if odd[idx] else EVEN}, E={found[idx]:.6f}) has {nodes[idx]} nodes; "
                "labeling is inconsistent"
            )
    states = tuple(
        EigenState(index=idx, energy=float(energy), parity=ODD if o else EVEN, nodes=idx,
                   near_threshold=bool(abs(energy) <= NEAR_THRESHOLD_REL * p.v0))
        for idx, (energy, o) in enumerate(zip(found, odd))
    )
    g = g_closed_form(to_dimensionless(p))
    return SpectrumReport(params=p, states=states, g_value=g)


def count_states(p: WellParams, grid_points: int = 2000) -> int:
    return solve_spectrum(p, grid_points=grid_points).count
