"""Exact bound-state spectrum from the parity matching conditions.

Even states satisfy dpsi/dx(0+) = 0, odd states psi(0) = 0.  One energy scan
evaluates both conditions in a single bracket call; every sign-change bracket
is then refined by the lockstep Illinois solver, and the nodes of all states
are sampled in one more call, on a grid that the Sturm zero-spacing bound
makes fine enough for an exact count (:func:`wavefunction.sample_bound_state`).
Labels are verified twice (parity, then nodes, by :func:`core.check_ladder`)
so a silently missed root cannot shift the whole ladder.

The scan energies are spaced by the paper's semiclassical action: ACTION_STEP
apart in F(E), about 4G + 2 of them, placed by inverting the closed-form F.
The scan must bracket floor(G) or floor(G) + 1 roots, the paper's counting
rule, before any of them is refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wavefunction
from .core import BOTH_PARITIES, PARITY, WellParams, check_ladder, is_odd, to_dimensionless
from .errors import BracketCollisionError, DomainError
from .roots import refine_brackets, sign_change_brackets
from .semiclassical import CLOSED, _f_values, f_action, g_closed_form

# States this close to E = 0 (relative to v0) get the near-threshold flag;
# finite tolerance cannot distinguish them from the E = 0 half bound state.
NEAR_THRESHOLD_REL = 2e-6

# Consecutive scan energies lie this far apart in the action F(E), which
# rises from 0 at E = -v0 to G at E = 0.  Over 1688 states of 401 wells
# (v0 up to 200 MeV, a up to 20 fm, b from 0.03 to 4 fm) F(E_n) - n lies in
# [0.063, 0.951].  A state at threshold has F(E_n) - n = delta_n, measured in
# [0.014, 0.497] (:func:`hbs.hbs_scan`), so over both F(E_n) - n lies in
# [0.014, 0.951].  Levels n and n + 2, the nearest of one parity, then lie
# more than 2 - 0.937 > 1.06 units of F apart: no scan cell holds two roots
# of one matching condition, with a factor of four to spare.
ACTION_STEP = 0.25

# Largest action F(E) at the top of the scan window (about G, the state
# count) that solve_spectrum scans; above it DomainError is raised before the
# scan's about 4 F energies are allocated.  The node check samples all states
# on one grid, and its peak memory was measured at about 340 G^2 bytes
# (140 MB at G = 641, 197 MB at G = 767, 309 MB at G = 959), so a well past
# this bound would need about 136 GB there: none solves.
MAX_ACTION = 20_000.0

# The action grid is inverted to this energy tolerance, relative to v0:
# coarse next to tol_e, yet it puts F within about 1e-7 of its targets on
# sharp, deep wells, and the Illinois solver reaches it in about ten steps.
_ACTION_TOL_REL = 1e-10


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

    @property
    def count(self) -> int:
        return len(self.states)


def matching_function(p: WellParams, energy: float, parity: str) -> float:
    """dpsi/dx(0+) for even parity, psi(0) for odd parity."""
    odd = is_odd(parity)
    sample = wavefunction.psi(p, energy, 0.0)
    return sample.psi if odd else sample.dpsi_dx


def _matching_profile(p: WellParams, energies: np.ndarray) -> np.ndarray:
    """Matching values over an energy scan: (2, n), even row first, one bracket call."""
    return wavefunction.matching_at_origin(
        *wavefunction.bound_exponents(p, energies), p.a / p.b, BOTH_PARITIES, check_residual=False
    )


def _bisect(p: WellParams, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            fhi: np.ndarray, tol_e: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's parity."""
    return refine_brackets(
        lambda e, k: wavefunction.matching_at_origin(
            *wavefunction.bound_exponents(p, e), p.a / p.b, odd[k], check_residual=True),
        lo, hi, flo, fhi, tol_e,
    )


def _action_grid(p: WellParams) -> np.ndarray:
    """Scan energies from 1e-6 v0 above -v0 to 1e-6 v0 below 0, ACTION_STEP apart in F.

    Raises DomainError where F at the top of the window exceeds MAX_ACTION."""
    eps = 1e-6 * p.v0
    e_lo, e_hi = -p.v0 + eps, -eps
    f_lo, f_hi = f_action(p, e_lo), f_action(p, e_hi)
    if f_hi > MAX_ACTION:
        raise DomainError(f"F(E={e_hi:g}) = {f_hi:.6g} exceeds {MAX_ACTION:g}: the node check of that many states would not fit in memory")
    targets = ACTION_STEP * np.arange(math.floor(f_lo / ACTION_STEP) + 1, math.ceil(f_hi / ACTION_STEP))
    inner = refine_brackets(
        lambda e, k: _f_values(p, e, CLOSED) - targets[k],
        np.full(targets.size, e_lo), np.full(targets.size, e_hi), f_lo - targets, f_hi - targets,
        _ACTION_TOL_REL * p.v0,
    )
    return np.concatenate(([e_lo], inner, [e_hi]))


def solve_spectrum(p: WellParams, tol_e: float = 1e-8) -> SpectrumReport:
    """All bound states of the well, ordered, labeled and verified."""
    g = g_closed_form(to_dimensionless(p))
    energies = _action_grid(p)
    lo, hi, flo, fhi, odd = sign_change_brackets(energies, _matching_profile(p, energies))
    if odd.size not in (math.floor(g), math.floor(g) + 1):
        raise BracketCollisionError(
            f"the scan brackets {odd.size} roots where G = {g:.6f} allows {math.floor(g)} or "
            f"{math.floor(g) + 1}; a root was likely missed or doubled"
        )
    found, odd = check_ladder(
        _bisect(p, odd, lo, hi, flo, fhi, tol_e), odd,
        lambda e, o: wavefunction.count_nodes(wavefunction.sample_bound_state(p, e, o)[1]),
    )
    states = tuple(
        EigenState(index=idx, energy=energy, parity=PARITY[o], nodes=idx,
                   near_threshold=abs(energy) <= NEAR_THRESHOLD_REL * p.v0)
        for idx, (energy, o) in enumerate(zip(found.tolist(), odd.tolist()))
    )
    return SpectrumReport(params=p, states=states, g_value=g)


def count_states(p: WellParams) -> int:
    return solve_spectrum(p).count
