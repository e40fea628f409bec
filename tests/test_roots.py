import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import brentq

from fermiwell import hbs_scan, kernels, oracle_spectrum, solve_spectrum, wavefunction
from fermiwell.errors import DomainError
from fermiwell.roots import STALL_STEPS, refine_brackets, sign_change_brackets
from fermiwell.semiclassical import wkb_spectrum

TOL = 1e-10

# (f, lo, hi): a smooth root, a linear one, a flat and a steep power, an
# exponential and an infinite-slope cube root.
STRESS = [
    (np.cos, 0.5, 2.0),
    (lambda x: x, -1.0, 3.0),
    (lambda x: x**10 - 1e-3, 0.0, 4.0),
    (lambda x: np.exp(x) - 1e6, 0.0, 20.0),
    (lambda x: np.cbrt(x - 0.7), -2.0, 3.0),
]


def _illinois_one(f, lo, hi, flo, fhi, tol):
    """Scalar Illinois rule that the lockstep version must reproduce."""
    kept, widths = 0, []
    while hi - lo > tol:
        width = hi - lo
        if len(widths) >= STALL_STEPS and width > 0.5 * widths[-STALL_STEPS]:
            x = 0.5 * (lo + hi)
        else:
            x = min(max(lo + width * (flo / (flo - fhi)), lo + 0.5 * tol), hi - 0.5 * tol)
        widths.append(width)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
            if kept > 0:
                fhi *= 0.5
            kept = 1
        else:
            hi, fhi = x, fx
            if kept < 0:
                flo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def _bisection_calls(f, lo, hi, tol):
    """Calls plain bisection makes from [lo, hi]."""
    flo, calls = f(lo), 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        calls += 1
        if fm == 0.0:
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return calls


def _stress_batch():
    """The stress functions as one batched f(x, k), its brackets and its calls per bracket."""
    calls = Counter()

    def f(x, k):
        calls.update(k.tolist())
        return np.array([STRESS[j][0](v) for v, j in zip(x.tolist(), k.tolist())])

    lo = np.array([s[1] for s in STRESS])
    hi = np.array([s[2] for s in STRESS])
    k = np.arange(len(STRESS))
    return f, lo, hi, f(lo, k), f(hi, k), calls


def test_lockstep_illinois_equals_scalar_rule():
    # Brackets of unequal width finish after different step counts; the power
    # and the exponential stall into the midpoint fallback, the line hits an
    # exact zero.
    f, lo, hi, flo, fhi, _ = _stress_batch()
    got = refine_brackets(f, lo, hi, flo, fhi, TOL)
    for k, (g, a, b) in enumerate(STRESS):
        assert got[k] == _illinois_one(lambda x: float(g(x)), a, b, flo[k], fhi[k], TOL)


def test_roots_match_brentq():
    f, lo, hi, flo, fhi, _ = _stress_batch()
    got = refine_brackets(f, lo, hi, flo, fhi, TOL)
    for root, (g, a, b) in zip(got, STRESS):
        assert a <= root <= b
        assert abs(root - brentq(g, a, b, xtol=1e-15)) <= 0.5 * TOL
    assert abs(got[0] - 0.5 * math.pi) <= 0.5 * TOL


def test_no_more_calls_than_bisection():
    f, lo, hi, flo, fhi, calls = _stress_batch()
    calls.clear()
    refine_brackets(f, lo, hi, flo, fhi, TOL)
    for k, (g, a, b) in enumerate(STRESS):
        assert calls[k] <= _bisection_calls(g, a, b, TOL), k


def test_exact_zero_ends_its_bracket():
    # The regula-falsi point of x on [-1, 1] is 0: one call, and the wider
    # cosine bracket keeps going without it.
    calls = Counter()

    def f(x, k):
        calls.update(k.tolist())
        return np.where(k == 0, x, np.cos(x))

    lo, hi = np.array([-1.0, 0.5]), np.array([1.0, 2.0])
    k = np.arange(2)
    flo, fhi = f(lo, k), f(hi, k)
    calls.clear()
    got = refine_brackets(f, lo, hi, flo, fhi, TOL)
    assert got[0] == 0.0
    assert calls[0] == 1
    assert calls[1] > 1


def test_no_brackets():
    empty = np.array([])
    assert refine_brackets(lambda x, k: x, empty, empty, empty, empty, 1e-8).size == 0


def test_sub_ulp_tolerance_ends_at_adjacent_doubles():
    # Once lo and hi are a few ulps apart no trial point lies strictly inside
    # the bracket, so a tolerance below that spacing must still end the loop.
    calls = Counter()

    def f(x, k):
        calls["f"] += 1
        if calls["f"] > 200:
            raise RuntimeError("refinement did not end")
        return x * x - 2.0

    root = refine_brackets(f, np.array([1.0]), np.array([2.0]), np.array([-1.0]), np.array([2.0]), 1e-300)
    assert abs(root[0] - math.sqrt(2.0)) <= np.spacing(math.sqrt(2.0))


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(DomainError):
        refine_brackets(lambda x, k: x, np.array([-1.0]), np.array([1.0]), np.array([-1.0]), np.array([1.0]), tol)


# The four solvers as f(demo well, tolerance); each finds three roots.
SOLVERS = [
    lambda p, tol: solve_spectrum(p, tol_e=tol).states,
    lambda p, tol: oracle_spectrum(p, grid_points=300, tol_e=tol),
    lambda p, tol: hbs_scan(2.0, 3, tol_beta=tol),
    lambda p, tol: wkb_spectrum(p, tol_e=tol),
]


@pytest.mark.parametrize("solve", SOLVERS)
def test_solvers_at_sub_ulp_and_zero_tolerance(demo_well, solve):
    assert len(solve(demo_well, 1e-20)) == 3
    with pytest.raises(DomainError):
        solve(demo_well, 0.0)


def test_refinement_call_counts(demo_well, monkeypatch):
    # Scan included, bisection took 23 matching calls for the exact spectrum
    # and 29 mismatch calls for the oracle on this well.
    calls = Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "shooting_mismatch_kernel",
                        counting("mismatch", kernels.shooting_mismatch_kernel))
    monkeypatch.setattr(wavefunction, "matching_at_origin", counting("matching", wavefunction.matching_at_origin))
    assert len(oracle_spectrum(demo_well, grid_points=300)) == 3
    assert solve_spectrum(demo_well).count == 3
    assert calls["mismatch"] <= 12
    assert calls["matching"] <= 12


def test_sign_change_brackets_in_grid_order():
    # Row 0 (even) changes sign in cells 1 and 3, row 1 (odd) in cells 0
    # and 3; cell 3 brackets both rows and lists the even one first.
    x = np.arange(6.0)
    vals = np.array([[1.0, 1.0, -1.0, -1.0, 1.0, 1.0],
                     [-1.0, 2.0, 2.0, 2.0, -3.0, -1.0]])
    lo, hi, flo, fhi, odd = sign_change_brackets(x, vals)
    assert lo.tolist() == [0.0, 1.0, 3.0, 3.0]
    assert hi.tolist() == [1.0, 2.0, 4.0, 4.0]
    assert flo.tolist() == [-1.0, 1.0, -1.0, 2.0]
    assert fhi.tolist() == [2.0, -1.0, 1.0, -3.0]
    assert odd.tolist() == [True, False, False, True]


def test_sign_change_brackets_skip_exact_zeros():
    # A zero on the grid has sign 0, so neither cell next to it is a bracket.
    x = np.arange(4.0)
    vals = np.array([[1.0, 0.0, -1.0, -1.0],
                     [1.0, 1.0, 0.0, 0.0]])
    lo, hi, flo, fhi, odd = sign_change_brackets(x, vals)
    assert lo.size == hi.size == flo.size == fhi.size == odd.size == 0


def test_sign_change_brackets_of_empty_scan():
    for n in (0, 1):
        brackets = sign_change_brackets(np.zeros(n), np.zeros((2, n)))
        assert all(v.size == 0 for v in brackets)
