"""Exact wavefunctions of the Fermi well and zero-energy HBS candidates.

The decaying solution is psi = Re[ y^nu (1-y)^mu 2F1(nu+mu, nu+mu+1; 2nu+1; y) ]
with y the logistic variable, nu = k b real and mu = i k' b purely imaginary.
The bracket is real analytically (Euler-transform conjugacy); its imaginary
part is tracked as a numerical diagnostic.  Normalization C = 1 throughout;
an L2 normalization is applied only when emitting plot data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit

from . import kernels, special
from .core import WellParams, DimensionlessWell
from .errors import DomainError, FermiwellError

# Hard ceiling on the diagnostic |Im|/|bracket| ratio before evaluation is
# considered broken (the spec-level expectation is 1e-9).
_IM_RESID_CEILING = 1e-6

# Sign changes below this fraction of the peak |psi| are not nodes.
NODE_FLOOR = 1e-12


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
    psi, dpsi_dy, resid, status = kernels.bound_bracket_batch(
        nu, mu_im, y, y1, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH, want_deriv
    )
    special._raise_for_status(status)
    if check_residual:
        _check_residual(resid)
    return psi, dpsi_dy


def matching_at_origin(nu, mu_im, alpha: float, odd, check_residual: bool) -> np.ndarray:
    """psi(0) where ``odd``, d psi/d(x/b) = -y0 (1-y0) dpsi/dy at 0+ elsewhere, y0 = expit(alpha).

    Broadcast in one bracket call: ``odd`` = BOTH_PARITIES gives a (2, n) scan,
    even row first.  Refinement passes ``check_residual``; scans do not.
    """
    y0 = float(expit(alpha))
    y10 = float(expit(-alpha))
    psi0, dpsi_dy = bracket_batch(nu, mu_im, y0, y10, want_deriv=not np.all(odd), check_residual=check_residual)
    return np.where(odd, psi0, dpsi_dy * (-(y0 * y10)))


def psi(p: WellParams, energy: float, x: float) -> WaveSample:
    """Decaying solution at (E, x); x = 0 gives the one-sided x->0+ derivative."""
    sp = shape_params(p, energy)
    t = (abs(x) - p.a) / p.b
    y = float(expit(-t))
    y1 = float(expit(t))
    val, dval_dy = map(float, bracket_batch(sp.nu, sp.mu.imag, y, y1, want_deriv=True, check_residual=True))
    sign = -1.0 if x < 0 else 1.0
    dy_dx = -sign * y * y1 / p.b
    return WaveSample(x=x, psi=val, dpsi_dx=dval_dy * dy_dx)


def psi_hbs(d: DimensionlessWell, x_over_b: float) -> WaveSample:
    """Zero-energy HBS candidate; position and derivative in units of b.

    Evaluated as Re[(1-y)^(i beta) 2F1(i beta, i beta+1; 1; y)], i.e. the
    nu = 0, mu = i beta limit of the bound bracket; tends to 1 as |x| -> inf.
    """
    y = float(expit(d.alpha - abs(x_over_b)))
    y1 = float(expit(abs(x_over_b) - d.alpha))
    val, dval_dy = map(float, bracket_batch(0.0, d.beta, y, y1, want_deriv=True, check_residual=True))
    sign = -1.0 if x_over_b < 0 else 1.0
    dy_dxb = -sign * y * y1
    return WaveSample(x=x_over_b, psi=val, dpsi_dx=dval_dy * dy_dxb)


def count_nodes(samples: Sequence[WaveSample] | np.ndarray) -> int | np.ndarray:
    """Strict sign changes of psi along an ordered sample sequence.

    Values below 1e-12 of the peak magnitude are excluded from sign
    determination, so an exact zero at a node is not double counted.  An
    (S, n) array gives one count per row, against each row's own peak.
    """
    if isinstance(samples, np.ndarray):
        vals = np.asarray(samples, dtype=float)
    else:
        vals = np.array([s.psi for s in samples], dtype=float)
    return kernels.count_sign_changes_kernel(vals, NODE_FLOOR)


def _reflect(vals_half: np.ndarray, odd) -> np.ndarray:
    """Full-line profiles from x >= 0 samples (last axis) by parity reflection."""
    left = vals_half[..., :0:-1]
    return np.concatenate((np.where(np.expand_dims(odd, -1), -left, left), vals_half), axis=-1)


def sample_bound_state(
    p: WellParams, energy, odd, half_points: int = 2001, x_span: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full-line (x, psi) samples of a bound solution, parity-assembled.

    ``energy`` and ``odd`` may be arrays of the states of one well; psi then
    has one row per state, all from one bracket call.
    """
    if x_span is None:
        x_span = p.a + 12.0 * p.b
    nu, mu_im = bound_exponents(p, energy)
    xs = np.linspace(0.0, x_span, half_points)
    ts = (xs - p.a) / p.b
    vals, _ = bracket_batch(np.expand_dims(nu, -1), np.expand_dims(mu_im, -1), expit(-ts), expit(ts),
                            want_deriv=False, check_residual=False)
    full_x = np.concatenate((-xs[:0:-1], xs))
    return full_x, _reflect(vals, odd)


def sample_hbs(
    d: DimensionlessWell | Sequence[DimensionlessWell], odd, half_points: int = 2001,
    x_span_over_b: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-line (x/b, psi*) samples of the HBS candidate, parity-assembled.

    ``d`` may be a sequence of wells of one alpha, with ``odd`` an array;
    psi* then has one row per well, all from one bracket call.
    """
    if isinstance(d, DimensionlessWell):
        alpha, beta = d.alpha, d.beta
    else:
        alphas = {w.alpha for w in d}
        if len(alphas) != 1:
            raise DomainError("sample_hbs samples wells of one alpha")
        (alpha,) = alphas
        beta = np.array([w.beta for w in d])
    if x_span_over_b is None:
        x_span_over_b = alpha + 12.0
    xs = np.linspace(0.0, x_span_over_b, half_points)
    vals, _ = bracket_batch(0.0, np.expand_dims(beta, -1), expit(alpha - xs), expit(xs - alpha),
                            want_deriv=False, check_residual=False)
    full_x = np.concatenate((-xs[:0:-1], xs))
    return full_x, _reflect(vals, odd)
