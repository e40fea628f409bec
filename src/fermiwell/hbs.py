"""Critical beta_n values: n-node half bound states at E = 0.

At fixed alpha, the k-th zero (over an ascending beta sweep interleaving the
odd and even matching conditions psi*(0) = 0 and psi*'(0+) = 0) is beta_k;
the well then holds exactly k bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import wavefunction
from .core import EVEN, ODD, DimensionlessWell, from_dimensionless, DEFAULT_KAPPA2
from .errors import DomainError, NodeMismatchError, RootNotFoundError
from .roots import bisect_brackets
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


def _matching(alpha: float, betas: np.ndarray, odd, refine: bool) -> np.ndarray:
    """HBS matching values at each beta: psi*(0) where ``odd``, d psi*/d(x/b) at 0+ elsewhere.

    One batched bracket call at nu = 0; refinement points also get the
    imaginary residual ceiling of :func:`wavefunction.psi_hbs`.
    """
    y0 = float(expit(alpha))
    y10 = float(expit(-alpha))
    psi0, dpsi_dy = wavefunction.bracket_batch(0.0, betas, y0, y10, want_deriv=not np.all(odd), check_residual=refine)
    return np.where(odd, psi0, dpsi_dy * (-(y0 * y10)))


def _matching_profile(alpha: float, betas: np.ndarray, odd: bool) -> np.ndarray:
    return _matching(alpha, betas, odd, refine=False)


def _bisect(alpha: float, odd: np.ndarray, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
            tol_beta: float) -> np.ndarray:
    """Roots of every bracket at once; ``odd`` selects each bracket's condition."""
    return bisect_brackets(lambda b, k: _matching(alpha, b, odd[k], refine=True), lo, hi, flo, tol_beta)


def _verify_nodes(alpha: float, beta: float, n: int) -> None:
    _, vals = wavefunction.sample_hbs(DimensionlessWell(alpha, beta), odd=n % 2 == 1)
    nodes = wavefunction.count_nodes(vals)
    if nodes != n:
        raise NodeMismatchError(f"HBS at (alpha={alpha}, beta={beta:.6f}) has {nodes} nodes, expected {n}")


def hbs_scan(alpha: float, n_max: int, tol_beta: float = 1e-6) -> list[HbsSolution]:
    """First n_max critical betas at fixed alpha, with their G values.

    Sweeps beta upward in steps of 0.01 (consecutive roots are at least
    ~0.29 apart, so no cell can hold two) until n_max roots are collected or
    the ceiling beta <= 3 n_max is exhausted.
    """
    if not alpha > 0.0:
        raise DomainError("alpha must be positive")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    ceiling = 3.0 * n_max
    roots: list[tuple[float, bool]] = []
    chunk = 200
    lo_edge = SCAN_STEP
    while len(roots) < n_max and lo_edge < ceiling:
        betas = lo_edge + SCAN_STEP * np.arange(chunk + 1)
        betas = betas[betas <= ceiling + SCAN_STEP]
        if betas.size < 2:
            break
        profiles = {odd: _matching_profile(alpha, betas, odd) for odd in (True, False)}
        brackets = []
        for odd, vals in profiles.items():
            signs = np.sign(vals)
            for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
                brackets.append((betas[i], betas[i + 1], vals[i], odd))
        brackets.sort(key=lambda t: t[0])
        brackets = brackets[: n_max - len(roots)]
        if brackets:
            b_lo, b_hi, f_lo, odd = (np.array(v) for v in zip(*brackets))
            roots += zip(_bisect(alpha, odd, b_lo, b_hi, f_lo, tol_beta).tolist(), odd.tolist())
        lo_edge = betas[-1]
    if len(roots) < n_max:
        raise RootNotFoundError(f"only {len(roots)} HBS roots below the scan ceiling beta={ceiling}")
    solutions = []
    for k, (beta, odd) in enumerate(roots, start=1):
        if odd != (k % 2 == 1):
            raise NodeMismatchError(
                f"root {k} at beta={beta:.6f} came from the {ODD if odd else EVEN} condition; "
                "the odd/even interleaving is broken"
            )
        _verify_nodes(alpha, beta, k)
        solutions.append(HbsSolution(alpha=alpha, n=k, beta_n=beta, g_value=g_closed_form(DimensionlessWell(alpha, beta))))
    return solutions


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
