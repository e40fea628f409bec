"""Sign-change brackets and their refinement, shared by the spectrum, HBS, WKB and oracle solvers.

A scan yields every bracket with f at both ends; one lockstep Illinois
solver then refines all of them with one batched call of f per step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError

# A bracket that has not halved over this many steps takes the midpoint next.
STALL_STEPS = 4


def sign_change_brackets(x: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, f(lo), f(hi), odd) of every cell [x[i], x[i+1]] where
    sign(vals[r, i]) * sign(vals[r, i+1]) < 0, in grid order, even row (r = 0)
    before odd (r = 1) within a cell; an exact zero on the grid brackets nothing.
    """
    signs = np.sign(vals)
    i, row = np.nonzero((signs[:, :-1] * signs[:, 1:] < 0.0).T)
    return x[i], x[i + 1], vals[row, i], vals[row, i + 1], row == 1


def refine_brackets(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    tol: float,
) -> np.ndarray:
    """One root per sign-change bracket [lo[k], hi[k]], all refined in lockstep.

    ``f(x, k)`` evaluates the function of brackets ``k`` (an index array) at
    the points ``x`` in one batched call; ``flo`` and ``fhi`` hold f at each
    ``lo`` and ``hi``.  Every bracket follows the scalar Illinois rule
    (Dowell & Jarratt, BIT 11 (1971) 168) while hi - lo > tol:

    * the trial point is the regula-falsi point of the stored end values,
      clipped into [lo + tol/2, hi - tol/2] so the bracket closes to within
      tol instead of creeping in from one side; it is the midpoint instead
      when the STALL_STEPS steps before it did not halve the bracket;
    * the trial point replaces the end whose value has its sign, and when
      the same end is kept twice in a row its stored value is halved;
    * an exact zero at a trial point is returned as the root.

    Otherwise the root is the midpoint of the final bracket, within tol/2 of
    a sign change of f.  ``tol`` must be positive; each bracket's is raised
    to 4 ulps of its larger end, below which no trial point lies inside.
    """
    if not tol > 0.0:
        raise DomainError(f"root tolerance must be positive, got {tol!r}")
    lo, hi, flo, fhi = (np.array(v, dtype=float) for v in (lo, hi, flo, fhi))
    tol = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
    root = np.empty(lo.size)
    exact = np.zeros(lo.size, dtype=bool)
    kept = np.zeros(lo.size)  # +1 after a step that kept hi, -1 after one that kept lo
    widths = []  # hi - lo before each step; active brackets all take the same steps
    while True:
        width = hi - lo
        k = np.flatnonzero(~exact & (width > tol))
        if k.size == 0:
            break
        a, b, fa, fb = lo[k], hi[k], flo[k], fhi[k]
        half = 0.5 * tol[k]
        falsi = np.fmin(np.fmax(a + width[k] * (fa / (fa - fb)), a + half), b - half)
        stalled = width[k] > 0.5 * widths[-STALL_STEPS][k] if len(widths) >= STALL_STEPS else False
        widths.append(width)
        x = np.where(stalled, 0.5 * (a + b), falsi)
        fx = f(x, k)
        hit = fx == 0.0
        root[k[hit]] = x[hit]
        exact[k[hit]] = True
        keep_hi = (fx > 0.0) == (fa > 0.0)
        keep_lo = ~hit & ~keep_hi
        lo[k] = np.where(keep_hi, x, a)
        hi[k] = np.where(keep_lo, x, b)
        flo[k] = np.where(keep_hi, fx, np.where(kept[k] < 0.0, 0.5 * fa, fa))
        fhi[k] = np.where(keep_lo, fx, np.where(kept[k] > 0.0, 0.5 * fb, fb))
        kept[k] = np.where(keep_hi, 1.0, -1.0)
    root[~exact] = 0.5 * (lo[~exact] + hi[~exact])
    return root
