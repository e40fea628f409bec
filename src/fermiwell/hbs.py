"""Critical beta_n values: n-node half bound states at E = 0.

At fixed alpha, the k-th zero (over an ascending beta sweep interleaving the
odd and even matching conditions psi*(0) = 0 and psi*'(0+) = 0) is beta_k;
the well then holds exactly k bound states.  As in :mod:`spectrum` (these are
its conditions at nu = 0), one bracket call scans both conditions, all
brackets are refined by the lockstep Illinois solver and all roots are
node-checked in one call, on a grid sized from the Sturm zero-spacing bound
pi / beta (:func:`wavefunction.sample_hbs`).  The HBS candidate psi* is the
nu = 0 case of the bound-state bracket, evaluated by the same code as the
bound states of :mod:`wavefunction`.  The beta sweep is spaced like
the spectrum's energy scan: ACTION_STEP apart in G(alpha, beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import wavefunction
from .core import BOTH_PARITIES, DEFAULT_KAPPA2, PARITY, DimensionlessWell, from_dimensionless, is_odd
from .errors import DomainError, NodeMismatchError, RootNotFoundError
from .roots import refine_brackets, sign_change_brackets
from .semiclassical import g_closed_form
from .spectrum import ACTION_STEP, solve_spectrum


@dataclass(frozen=True)
class HbsSolution:
    alpha: float
    n: int
    beta_n: float
    g_value: float


@dataclass(frozen=True)
class CriticalityReport:
    alpha: float
    n: int
    beta_n: float
    count_below: int
    count_at: int
    count_above: int
    at_near_threshold: bool


def hbs_matching(alpha: float, beta: float, parity: str) -> float:
    """psi*(0) for odd node counts, d psi*/d(x/b) at 0+ for even ones."""
    odd = is_odd(parity)
    sample = wavefunction.psi_hbs(DimensionlessWell(alpha, beta), 0.0)
    return sample.psi if odd else sample.dpsi_dx


def _matching_profile(alpha: float, betas: np.ndarray) -> np.ndarray:
    """HBS matching values over a beta scan: (2, n), even row first, one bracket call."""
    return wavefunction.matching_at_origin(0.0, betas, alpha, BOTH_PARITIES, check_residual=False)


def _bisect(alpha: float, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            fhi: np.ndarray, tol_beta: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's condition."""
    return refine_brackets(lambda b, k: wavefunction.matching_at_origin(0.0, b, alpha, odd[k], check_residual=True),
                           lo, hi, flo, fhi, tol_beta)


def hbs_scan(alpha: float, n_max: int, tol_beta: float = 1e-6) -> list[HbsSolution]:
    """First n_max critical betas at fixed alpha, with their G values.

    Sweeps beta upward in steps of ACTION_STEP / G(alpha, 1), four points per
    unit of G, up to G(alpha, beta) = n_max + 1, in one bracket call.  G is
    linear in beta and each beta_n has G(alpha, beta_n) - n in [0, 1) (the
    paper's counting rule), so the first n_max roots lie below that ceiling.
    Measured, delta_n = G(alpha, beta_n) - n lies in [0.014, 0.497] for alpha
    from 0.05 to 100, so roots of one condition (n and n + 2) lie at least
    1.5 units of G apart and no cell holds two.

    Each root is refined to tol_beta * min(1, 10 / G(alpha, 1)): ``tol_beta``
    itself up to G(alpha, 1) = 10 (alpha up to about 14), and proportionally
    less beyond, where every beta_n shrinks as 1/G.  The relative precision
    of beta_n then holds at large alpha.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    g_unit = g_closed_form(DimensionlessWell(alpha, 1.0))
    step = ACTION_STEP / g_unit
    ceiling = (n_max + 1) / g_unit
    betas = step + step * np.arange(math.ceil(ceiling / step))
    brackets = sign_change_brackets(betas, _matching_profile(alpha, betas))
    lo, hi, flo, fhi, odd_n = (v[:n_max] for v in brackets)
    if lo.size < n_max:
        raise RootNotFoundError(
            f"only {lo.size} HBS roots below the scan ceiling G = {n_max + 1} (beta={ceiling:g})"
        )
    beta_n = _bisect(alpha, odd_n, lo, hi, flo, fhi, tol_beta * min(1.0, 10.0 / g_unit))
    n = np.arange(1, n_max + 1)
    misplaced = np.flatnonzero(odd_n != (n % 2 == 1))
    if misplaced.size:
        k = misplaced[0]
        raise NodeMismatchError(
            f"root {n[k]} at beta={beta_n[k]:.6f} came from the {PARITY[int(odd_n[k])]} condition; "
            "the odd/even interleaving is broken"
        )
    nodes = wavefunction.count_nodes(wavefunction.sample_hbs(alpha, beta_n, odd_n)[1])
    mislabeled = np.flatnonzero(nodes != n)
    if mislabeled.size:
        k = mislabeled[0]
        raise NodeMismatchError(f"HBS at (alpha={alpha}, beta={beta_n[k]:.6f}) has {nodes[k]} nodes, expected {n[k]}")
    return [HbsSolution(alpha=alpha, n=k, beta_n=beta, g_value=g_closed_form(DimensionlessWell(alpha, beta)))
            for k, beta in enumerate(beta_n.tolist(), start=1)]


def solve_beta_n(alpha: float, n: int, tol_beta: float = 1e-6) -> HbsSolution:
    return hbs_scan(alpha, n, tol_beta=tol_beta)[n - 1]


def verify_criticality(alpha: float, beta_n: float, n: int, delta: float = 1e-2) -> CriticalityReport:
    """Bound-state counts at beta_n scaled by (1-delta), 1, (1+delta).

    Exactly at beta_n the E=0 state is a half bound state, not a bound
    state; count_at is reported as-is (with the near-threshold flag) rather
    than asserted.
    """
    counts = []
    near = False
    for factor in (1.0 - delta, 1.0, 1.0 + delta):
        p = from_dimensionless(DimensionlessWell(alpha, beta_n * factor), b=1.0, kappa2=DEFAULT_KAPPA2)
        report = solve_spectrum(p)
        counts.append(report.count)
        if factor == 1.0:
            near = any(s.near_threshold for s in report.states)
    return CriticalityReport(
        alpha=alpha,
        n=n,
        beta_n=beta_n,
        count_below=counts[0],
        count_at=counts[1],
        count_above=counts[2],
        at_near_threshold=near,
    )
