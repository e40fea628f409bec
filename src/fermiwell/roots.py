"""Bracketed root refinement shared by the spectrum, HBS, WKB and oracle solvers."""

from __future__ import annotations

from typing import Callable

import numpy as np


def bisect_brackets(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    tol: float,
) -> np.ndarray:
    """One root per sign-change bracket [lo[k], hi[k]], all refined in lockstep.

    ``f(x, k)`` evaluates the function of brackets ``k`` (an index array) at
    the points ``x`` in one batched call; ``flo`` holds f at each ``lo``.
    Every bracket follows the scalar rule: halve at the midpoint while
    hi - lo > tol, keep the half whose ends differ in sign, stop early on an
    exact zero, and return the midpoint of the final bracket.
    """
    lo, hi, flo = (np.array(v, dtype=float) for v in (lo, hi, flo))
    root = np.empty(lo.size)
    exact = np.zeros(lo.size, dtype=bool)
    while True:
        k = np.flatnonzero(~exact & (hi - lo > tol))
        if k.size == 0:
            break
        mid = 0.5 * (lo[k] + hi[k])
        fm = f(mid, k)
        hit = fm == 0.0
        root[k[hit]] = mid[hit]
        exact[k[hit]] = True
        same = ~hit & ((fm > 0.0) == (flo[k] > 0.0))
        lo[k[same]] = mid[same]
        flo[k[same]] = fm[same]
        other = ~hit & ~same
        hi[k[other]] = mid[other]
    root[~exact] = 0.5 * (lo[~exact] + hi[~exact])
    return root
