"""Sign-change brackets and their refinement, shared by the spectrum, HBS, WKB and oracle solvers.

A scan yields every bracket with f at both ends; one lockstep Illinois
solver then refines all of them with one batched call of f per step.  The
solver keeps the state of the unfinished brackets only, so a step costs
the same few array operations however many brackets have finished.
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
    # The state of the active brackets only, compacted as brackets finish:
    # index, ends, end values, tolerance and its half, the end kept last
    # (+1 hi, -1 lo, 0 before the first step) and the widths before each of
    # the last STALL_STEPS steps (inf before there were that many).
    k = np.arange(lo.size)
    half = 0.5 * tol
    kept = np.zeros(lo.size)
    widths = np.full((STALL_STEPS, lo.size), np.inf)
    step = 0
    while k.size:
        width = hi - lo
        live = width > tol
        if not live.all():
            done = ~live
            root[k[done]] = 0.5 * (lo[done] + hi[done])
            k, lo, hi, flo, fhi, tol, half, kept, width = (
                v[live] for v in (k, lo, hi, flo, fhi, tol, half, kept, width))
            widths = widths[:, live]
            if not k.size:
                break
        falsi = np.fmin(np.fmax(lo + width * (flo / (flo - fhi)), lo + half), hi - half)
        stalled = width > 0.5 * widths[step % STALL_STEPS]
        widths[step % STALL_STEPS] = width
        step += 1
        x = np.where(stalled, 0.5 * (lo + hi), falsi)
        fx = f(x, k)
        keep_hi = (fx > 0.0) == (flo > 0.0)
        lo, hi = np.where(keep_hi, x, lo), np.where(keep_hi, hi, x)
        flo = np.where(keep_hi, fx, np.where(kept < 0.0, 0.5 * flo, flo))
        fhi = np.where(keep_hi, np.where(kept > 0.0, 0.5 * fhi, fhi), fx)
        kept = np.where(keep_hi, 1.0, -1.0)
        hit = fx == 0.0
        if hit.any():
            root[k[hit]] = x[hit]
            live = ~hit
            k, lo, hi, flo, fhi, tol, half, kept = (v[live] for v in (k, lo, hi, flo, fhi, tol, half, kept))
            widths = widths[:, live]
    return root
