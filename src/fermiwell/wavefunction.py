"""Exact wavefunctions of the Fermi well and zero-energy HBS candidates.

The decaying solution is psi = Re[ y^nu (1-y)^mu 2F1(nu+mu, nu+mu+1; 2nu+1; y) ]
with y the logistic variable, nu = k b real and mu = i k' b purely imaginary.
The bracket is real analytically (Euler-transform conjugacy); its imaginary
part is tracked as a numerical diagnostic.  Normalization C = 1 throughout;
an L2 normalization is applied only when emitting plot data.

The half bound state (HBS) candidate is the nu = 0, mu = i beta case of the
same bracket, with positions in units of b.  Bound states and HBS candidates
share one point evaluator and one row sampler; only their exponents, their
logistic argument t = (|x| - a)/b and their length unit differ.  The point
evaluator and the matching conditions take the point-by-point bracket of
``kernels.bound_bracket_batch``; the sampler of the node check takes
``kernels.bound_bracket_rows``, which forms each state's series coefficients
once and evaluates them on the whole grid with one power table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import kernels, special
from .core import DimensionlessWell, WellParams
from .errors import DomainError, FermiwellError

# Hard ceiling on the diagnostic |Im|/|bracket| ratio before evaluation is
# considered broken (the spec-level expectation is 1e-9).
_IM_RESID_CEILING = 1e-6

# Sign changes below this fraction of the peak |psi| are not nodes.
NODE_FLOOR = 1e-12

# Default node-check grids take this many cells per shortest half wave.  psi
# solves psi'' + q psi = 0 with q = kappa2 (E - V) <= kappa2 (E + U0) =
# (mu_im / b)^2, so by Sturm comparison with sin(mu_im x / b) consecutive
# zeros lie at least pi b / mu_im apart.  With spacing at most
# pi b / (8 max mu_im) no cell, nor two cells merged across a sub-NODE_FLOOR
# point, holds two zeros, so the sign-change count of the exact psi is its
# node count.
NODE_CELLS_PER_HALF_WAVE = 8


@dataclass(frozen=True)
class ShapeParams:
    """Hypergeometric exponents at energy E: nu = k b, mu = i k' b."""

    nu: float
    mu: complex
    y0: float


@dataclass(frozen=True)
class WaveSample:
    x: float
    psi: float
    dpsi_dx: float


def map_y(p: WellParams, x: float) -> float:
    """Logistic variable y = 1/(1 + e^((|x|-a)/b)) in (0, 1)."""
    return float(expit(-(abs(x) - p.a) / p.b))


def bound_exponents(p: WellParams, energy) -> tuple[np.ndarray, np.ndarray]:
    """(nu, mu_im) = (k b, k' b) at each energy of the bound-state window (-v0, 0)."""
    e = np.asarray(energy, dtype=float)
    if not np.all((-p.v0 < e) & (e < 0.0)):
        raise DomainError(f"E={energy} outside the bound-state window (-v0, 0)")
    return p.b * np.sqrt(-p.kappa2 * e), p.b * np.sqrt(p.kappa2 * (e + p.u0))


def shape_params(p: WellParams, energy: float) -> ShapeParams:
    nu, mu_im = bound_exponents(p, energy)
    return ShapeParams(nu=float(nu), mu=1j * float(mu_im), y0=float(expit(p.a / p.b)))


def _check_residual(resid) -> None:
    worst = float(np.max(resid, initial=0.0))
    if worst > _IM_RESID_CEILING:
        raise FermiwellError(f"imaginary residual {worst:.3e} of the wavefunction bracket is too large")


def bracket_batch(nu, mu_im, y, y1, want_deriv: bool, check_residual: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bound bracket and its d/dy over broadcast arrays, in one batched call.

    A failed element raises its typed error.  With ``check_residual`` the
    imaginary-residual ceiling of :func:`psi` applies to every element too.
    """
    psi, dpsi_dy, resid = kernels.bound_bracket_batch(
        nu, mu_im, y, y1, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH, want_deriv
    )
    if check_residual:
        _check_residual(resid)
    return psi, dpsi_dy


def matching_at_origin(nu, mu_im, alpha: float, odd, check_residual: bool) -> np.ndarray:
    """psi(0) where ``odd``, d psi/d(x/b) = -y0 (1-y0) dpsi/dy at 0+ elsewhere, y0 = expit(alpha).

    Broadcast in one bracket call: ``odd`` = BOTH_PARITIES gives a (2, n) scan,
    even row first.  Refinement passes ``check_residual``; scans do not.
    Raises DomainError where 1 - y0 = expit(-alpha) flushes to zero (alpha
    above about 709.78): neither condition can be formed there.
    """
    y0 = float(expit(alpha))
    y10 = float(expit(-alpha))
    if y10 == 0.0:
        raise DomainError(f"1 - y0 = expit(-alpha) underflows at alpha = a/b = {alpha:g}")
    psi0, dpsi_dy = bracket_batch(nu, mu_im, y0, y10, want_deriv=not np.all(odd), check_residual=check_residual)
    return np.where(odd, psi0, dpsi_dy * (-(y0 * y10)))


def _point(nu, mu_im, t: float, unit: float, x: float) -> WaveSample:
    """Bracket and its d/dx at x, where t = (|x| - a)/b and dt/d|x| = 1/``unit``."""
    y = float(expit(-t))
    y1 = float(expit(t))
    val, dval_dy = map(float, bracket_batch(nu, mu_im, y, y1, want_deriv=True, check_residual=True))
    sign = -1.0 if x < 0 else 1.0
    return WaveSample(x=x, psi=val, dpsi_dx=dval_dy * (-sign * y * y1 / unit))


def psi(p: WellParams, energy: float, x: float) -> WaveSample:
    """Decaying solution at (E, x); x = 0 gives the one-sided x->0+ derivative."""
    return _point(*bound_exponents(p, energy), (abs(x) - p.a) / p.b, p.b, x)


def psi_hbs(d: DimensionlessWell, x_over_b: float) -> WaveSample:
    """Zero-energy HBS candidate; position and derivative in units of b.

    Evaluated as Re[(1-y)^(i beta) 2F1(i beta, i beta+1; 1; y)], i.e. the
    nu = 0, mu = i beta case of the bound bracket; tends to 1 as |x| -> inf.
    """
    return _point(0.0, d.beta, abs(x_over_b) - d.alpha, 1.0, x_over_b)


def count_nodes(vals: np.ndarray) -> int | np.ndarray:
    """Strict sign changes of psi along an ordered sample array.

    Values below 1e-12 of the peak magnitude are excluded from sign
    determination, so an exact zero at a node is not double counted.  An
    (S, n) array gives one count per row, against each row's own peak.
    """
    return kernels.count_sign_changes_kernel(np.asarray(vals, dtype=float), NODE_FLOOR)


def _node_grid_points(mu_im, span_over_b: float) -> int:
    """Half-line points at spacing <= pi b / (NODE_CELLS_PER_HALF_WAVE max mu_im) over the span."""
    return math.ceil(NODE_CELLS_PER_HALF_WAVE * float(np.max(mu_im, initial=0.0)) * span_over_b / math.pi) + 1


def _sample_rows(nu, mu_im, xs: np.ndarray, ts: np.ndarray, odd) -> tuple[np.ndarray, np.ndarray]:
    """Full-line positions and parity-reflected rows from half-line samples at xs >= 0.

    ``ts`` = (xs - a)/b is the logistic argument at xs.  nu, mu_im and
    ``odd`` may be arrays, one row per element, all from one row-kernel call.
    """
    vals = kernels.bound_bracket_rows(nu, mu_im, expit(-ts), expit(ts),
                                      special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH)
    left = vals[..., :0:-1]
    rows = np.concatenate((np.where(np.expand_dims(odd, -1), -left, left), vals), axis=-1)
    return np.concatenate((-xs[:0:-1], xs)), rows


def sample_bound_state(
    p: WellParams, energy, odd, half_points: int | None = None, x_span: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full-line (x, psi) samples of a bound solution, parity-assembled.

    ``energy`` and ``odd`` may be arrays of the states of one well; psi then
    has one row per state, all from one row-kernel call.  The half line
    [0, ``x_span``] (default a + 12b) takes ``half_points`` points.  By
    default they are sized by the Sturm comparison theorem: zeros are at
    least pi b / mu_im apart, mu_im = k' b, so ceil(8 max(mu_im) x_span / (pi b)) + 1
    points put at most one zero in each cell and the node count is exact
    (see ``NODE_CELLS_PER_HALF_WAVE``).
    """
    if x_span is None:
        x_span = p.a + 12.0 * p.b
    nu, mu_im = bound_exponents(p, energy)
    if half_points is None:
        half_points = _node_grid_points(mu_im, x_span / p.b)
    xs = np.linspace(0.0, x_span, half_points)
    return _sample_rows(nu, mu_im, xs, (xs - p.a) / p.b, odd)


def sample_hbs(
    alpha: float, beta, odd, half_points: int | None = None, x_span_over_b: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full-line (x/b, psi*) samples of the HBS candidate, parity-assembled.

    ``beta`` and ``odd`` may be arrays of wells of the one ``alpha``; psi*
    then has one row per well, all from one row-kernel call.  The half line
    [0, ``x_span_over_b``] (default alpha + 12) takes ``half_points`` points,
    by default sized by Sturm comparison as in :func:`sample_bound_state`
    with mu_im = beta: ceil(8 max(beta) x_span_over_b / pi) + 1.
    """
    if x_span_over_b is None:
        x_span_over_b = alpha + 12.0
    if half_points is None:
        half_points = _node_grid_points(beta, x_span_over_b)
    xs = np.linspace(0.0, x_span_over_b, half_points)
    return _sample_rows(0.0, beta, xs, xs - alpha, odd)
