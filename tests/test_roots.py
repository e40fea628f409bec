import math

import numpy as np

from fermiwell.roots import bisect_brackets


def _bisect_one(f, lo, hi, flo, tol):
    """Scalar bisection rule that the lockstep version must reproduce."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_lockstep_bisection_equals_scalar_rule():
    # Brackets of unequal width finish after different step counts; one has
    # an exact zero at its first midpoint.
    lo = np.array([0.5, 4.6, 7.5, -1.0])
    hi = np.array([2.0, 4.9, 8.5, 1.0])

    def f(x, k):
        return np.where(k == 3, x, np.cos(x))

    flo = f(lo, np.arange(4))
    got = bisect_brackets(f, lo, hi, flo, 1e-10)
    for k in range(4):
        want = _bisect_one(lambda x: float(f(np.array([x]), np.array([k]))[0]), lo[k], hi[k], flo[k], 1e-10)
        assert got[k] == want
    assert got[3] == 0.0
    assert np.abs(got[:3] - np.array([0.5, 1.5, 2.5]) * math.pi).max() <= 1e-10


def test_no_brackets():
    assert bisect_brackets(lambda x, k: x, np.array([]), np.array([]), np.array([]), 1e-8).size == 0
