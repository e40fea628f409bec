"""Semiclassical machinery: effective parameter G, action F(E), WKB levels.

G = (1/pi) * integral of sqrt(-2mV/hbar^2) over the line; in dimensionless
form G = (4/pi) beta asinh(e^(alpha/2)).  F(E) is the quantization action,
available both in closed form and by turning-point quadrature; the two
routes are kept independent and cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionlessWell, WellParams, potential, to_dimensionless
from .errors import DomainError, QuadratureError
from .roots import refine_brackets

CLOSED = "closed"
QUADRATURE = "quadrature"

# Relative clipping of the energy window to dodge the degenerate endpoints.
_E_CLIP_LO = 1e-9
_E_CLIP_HI = 1e-9


@dataclass(frozen=True)
class WkbLevel:
    index: int
    energy: float
    f_value: float


@dataclass(frozen=True)
class SquareWellReference:
    """Square-well analogs: g_prime = (2/pi) W, HBS criticality at W = n pi/2."""

    g_prime: float
    w: float


def g_closed_form(d: DimensionlessWell) -> float:
    return (4.0 / math.pi) * d.beta * math.asinh(math.exp(0.5 * d.alpha))


def _quad(func, lo, hi, points=None):
    # Imported here: scipy.integrate is a large share of the package's
    # import time and only the quadrature routes use it.
    from scipy.integrate import quad

    val, err, info, *rest = quad(
        func, lo, hi, epsabs=0.0, epsrel=1e-11, limit=300, points=points, full_output=1
    )
    if rest:
        raise QuadratureError(f"adaptive quadrature failed: {rest[0]}")
    return val


def g_quadrature(p: WellParams) -> float:
    """G by adaptive quadrature of sqrt(kappa2 * (-V)) over the line.

    The integrand decays like e^(-(x-a)/2b); it is truncated where it falls
    below 1e-12 of its peak, i.e. y < 1e-24 * y0.
    """
    y0 = 1.0 / (1.0 + math.exp(-p.a / p.b))
    x_cut = p.a + p.b * math.log(1.0 / (1e-24 * y0) - 1.0)

    def integrand(x):
        return math.sqrt(p.kappa2 * (-potential(p, x)))

    val = _quad(integrand, 0.0, x_cut, points=[p.a])
    return 2.0 * val / math.pi


def square_well_reference(v0: float, a: float, kappa2: float) -> SquareWellReference:
    if not (v0 > 0.0 and a > 0.0 and kappa2 > 0.0):
        raise DomainError("square_well_reference requires positive inputs")
    w = a * math.sqrt(kappa2 * v0)
    return SquareWellReference(g_prime=2.0 * w / math.pi, w=w)


def _f_closed(alpha: float, beta: float, energy, v0: float):
    # With omega = 1 + 2E/U0 the action is
    #   sqrt(1+omega) atanh(sqrt(s/(1+omega))) - sqrt(1-omega) atan(sqrt(s/(1-omega))),
    # s = omega + tanh(alpha/2).  Every factor is formed from E + v0, -E and
    # v0 e^-alpha without a difference of nearly equal numbers: near the
    # bottom of a deep well (large alpha) 1 + omega and s are both
    # ~ e^-alpha, and 1 - sqrt(s/(1+omega)) is smaller still.  ``energy`` may
    # be a float or an array of energies.
    ea = math.exp(-alpha)
    u0 = v0 * (1.0 + ea)
    depth = energy + v0
    op = 2.0 * (depth + v0 * ea) / u0  # 1 + omega
    om = -2.0 * energy / u0  # 1 - omega
    q = np.sqrt(depth / (depth + v0 * ea))  # sqrt(s / (1 + omega))
    one_minus_q = v0 * ea / (depth + v0 * ea) / (1.0 + q)
    term1 = np.sqrt(op) * 0.5 * np.log((1.0 + q) / one_minus_q)
    term2 = np.sqrt(om) * np.arctan(np.sqrt(depth / -energy))
    return (2.0 * math.sqrt(2.0) * beta / math.pi) * (term1 - term2)


def _f_quadrature(p: WellParams, energy: float) -> float:
    u0 = p.u0
    x2 = p.a + p.b * math.log(-u0 / energy - 1.0)
    # Substitution x = x2 - t^2 removes the sqrt turning-point singularity.
    t_max = math.sqrt(x2)

    def integrand(t):
        x = x2 - t * t
        arg = p.kappa2 * (energy - potential(p, x))
        return 2.0 * t * math.sqrt(max(arg, 0.0))

    pts = [math.sqrt(x2 - p.a)] if x2 > p.a else None
    val = _quad(integrand, 0.0, t_max, points=pts)
    return 2.0 * val / math.pi


def _f_values(p: WellParams, energies: np.ndarray, method: str) -> np.ndarray:
    """F at every energy: one array call of the closed form, or one quadrature each."""
    if method == CLOSED:
        d = to_dimensionless(p)
        return _f_closed(d.alpha, d.beta, energies, p.v0)
    if method == QUADRATURE:
        return np.array([_f_quadrature(p, e) for e in energies.tolist()])
    raise DomainError(f"unknown method {method!r}")


def f_action(p: WellParams, energy: float, method: str = CLOSED) -> float:
    """Quantization action F(E) between the turning points; F(E_n) = n + 1/2."""
    if not (-p.v0 < energy < 0.0):
        raise DomainError(f"E={energy} outside the classical window (-v0, 0)")
    with np.errstate(divide="ignore", over="ignore"):
        f = float(_f_values(p, np.array([energy]), method)[0])
    # Beyond a/b of about 708, e^-alpha is no longer a normal double and the
    # closed form's log term overflows.  F rises with E, so a finite F at the
    # top of a window keeps every F below it finite.
    if not math.isfinite(f):
        raise DomainError(f"F(E={energy}) is not finite: e^-alpha underflows at alpha = a/b = {p.a / p.b:g}")
    return f


def wkb_spectrum(p: WellParams, tol_e: float = 1e-8, method: str = CLOSED) -> list[WkbLevel]:
    """Levels solving F(E) = n + 1/2 for every n with n + 1/2 < F(0-).

    Every level is a root of F(E) - (n + 1/2) on the whole window, and all of
    them are refined by the lockstep Illinois solver, with F of every bracket
    in one call per step.
    """
    e_lo = -p.v0 * (1.0 - _E_CLIP_LO)
    e_hi = -p.v0 * _E_CLIP_HI
    f_top = f_action(p, e_hi, method)
    count = max(0, math.ceil(f_top - 0.5))  # levels n with n + 1/2 < f_top
    targets = np.arange(count) + 0.5
    energies = refine_brackets(
        lambda e, k: _f_values(p, e, method) - targets[k],
        np.full(count, e_lo), np.full(count, e_hi),
        -targets,  # F(E) -> 0 at the bottom of the well
        f_top - targets,
        tol_e,
    )
    return [WkbLevel(index=n, energy=e, f_value=f)
            for n, (e, f) in enumerate(zip(energies.tolist(), _f_values(p, energies, method).tolist()))]
