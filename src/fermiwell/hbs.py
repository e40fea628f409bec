"""Critical beta_n values: n-node half bound states at E = 0.

At fixed alpha, the k-th zero (over an ascending beta sweep interleaving the
odd and even matching conditions psi*(0) = 0 and psi*'(0+) = 0) is beta_k;
the well then holds exactly k bound states.  As in :mod:`spectrum` (these are
its conditions at nu = 0), one bracket call scans both conditions, all
brackets are bisected in lockstep and all roots are node-checked in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wavefunction
from .core import BOTH_PARITIES, EVEN, ODD, DimensionlessWell, from_dimensionless, DEFAULT_KAPPA2
from .errors import DomainError, NodeMismatchError, RootNotFoundError
from .roots import bisect_brackets, sign_change_brackets
from .semiclassical import g_closed_form
from .spectrum import solve_spectrum

SCAN_STEP = 0.01


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
    if parity not in (ODD, EVEN):
        raise DomainError(f"parity must be '{ODD}' or '{EVEN}'")
    if not (alpha > 0.0 and beta > 0.0):
        raise DomainError("alpha and beta must be positive")
    sample = wavefunction.psi_hbs(DimensionlessWell(alpha, beta), 0.0)
    return sample.psi if parity == ODD else sample.dpsi_dx


def _matching_profile(alpha: float, betas: np.ndarray) -> np.ndarray:
    """HBS matching values over a beta scan: (2, n), even row first, one bracket call."""
    return wavefunction.matching_at_origin(0.0, betas, alpha, BOTH_PARITIES, check_residual=False)


def _bisect(alpha: float, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol_beta: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's condition."""
    return bisect_brackets(lambda b, k: wavefunction.matching_at_origin(0.0, b, alpha, odd[k], check_residual=True),
                           lo, hi, flo, tol_beta)


def hbs_scan(alpha: float, n_max: int, tol_beta: float = 1e-6) -> list[HbsSolution]:
    """First n_max critical betas at fixed alpha, with their G values.

    Sweeps beta upward in steps of min(SCAN_STEP, 0.1 / G(alpha, 1)), about
    ten points per unit of G.  G is linear in beta and consecutive roots lie
    about one unit of G apart (0.0079 in beta at alpha = 200), so no cell
    holds two.  Stops once n_max roots are found or beta passes 3 n_max.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    step = min(SCAN_STEP, 0.1 / g_closed_form(DimensionlessWell(alpha, 1.0)))
    ceiling = 3.0 * n_max
    beta_n, odd_n = np.empty(0), np.empty(0, dtype=bool)
    chunk = 200
    lo_edge = step
    while beta_n.size < n_max and lo_edge < ceiling:
        betas = lo_edge + step * np.arange(chunk + 1)
        betas = betas[betas <= ceiling + step]
        if betas.size < 2:
            break
        brackets = sign_change_brackets(betas, _matching_profile(alpha, betas))
        lo, hi, flo, odd = (v[: n_max - beta_n.size] for v in brackets)
        beta_n = np.concatenate((beta_n, _bisect(alpha, odd, lo, hi, flo, tol_beta)))
        odd_n = np.concatenate((odd_n, odd))
        lo_edge = betas[-1]
    if beta_n.size < n_max:
        raise RootNotFoundError(f"only {beta_n.size} HBS roots below the scan ceiling beta={ceiling}")
    n = np.arange(1, n_max + 1)
    misplaced = np.flatnonzero(odd_n != (n % 2 == 1))
    if misplaced.size:
        k = misplaced[0]
        raise NodeMismatchError(
            f"root {n[k]} at beta={beta_n[k]:.6f} came from the {ODD if odd_n[k] else EVEN} condition; "
            "the odd/even interleaving is broken"
        )
    wells = [DimensionlessWell(alpha, beta) for beta in beta_n.tolist()]
    nodes = wavefunction.count_nodes(wavefunction.sample_hbs(wells, odd_n)[1])
    mislabeled = np.flatnonzero(nodes != n)
    if mislabeled.size:
        k = mislabeled[0]
        raise NodeMismatchError(f"HBS at (alpha={alpha}, beta={beta_n[k]:.6f}) has {nodes[k]} nodes, expected {n[k]}")
    return [HbsSolution(alpha=alpha, n=k, beta_n=d.beta, g_value=g_closed_form(d))
            for k, d in enumerate(wells, start=1)]


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
