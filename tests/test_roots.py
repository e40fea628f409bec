import math

import numpy as np

from fermiwell.roots import bisect_brackets, sign_change_brackets


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


def test_sign_change_brackets_in_grid_order():
    # Row 0 (even) changes sign in cells 1 and 3, row 1 (odd) in cells 0
    # and 3; cell 3 brackets both rows and lists the even one first.
    x = np.arange(6.0)
    vals = np.array([[1.0, 1.0, -1.0, -1.0, 1.0, 1.0],
                     [-1.0, 2.0, 2.0, 2.0, -3.0, -1.0]])
    lo, hi, flo, odd = sign_change_brackets(x, vals)
    assert lo.tolist() == [0.0, 1.0, 3.0, 3.0]
    assert hi.tolist() == [1.0, 2.0, 4.0, 4.0]
    assert flo.tolist() == [-1.0, 1.0, -1.0, 2.0]
    assert odd.tolist() == [True, False, False, True]


def test_sign_change_brackets_skip_exact_zeros():
    # A zero on the grid has sign 0, so neither cell next to it is a bracket.
    x = np.arange(4.0)
    vals = np.array([[1.0, 0.0, -1.0, -1.0],
                     [1.0, 1.0, 0.0, 0.0]])
    lo, hi, flo, odd = sign_change_brackets(x, vals)
    assert lo.size == hi.size == flo.size == odd.size == 0


def test_sign_change_brackets_of_empty_scan():
    for n in (0, 1):
        brackets = sign_change_brackets(np.zeros(n), np.zeros((2, n)))
        assert all(v.size == 0 for v in brackets)
