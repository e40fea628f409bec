"""Complex log-gamma and a Gauss 2F1 engine for complex parameters.

Real argument z < 1 only (z in [0,1) directly, z < 0 via an internal Pfaff
transformation).  Strategy: direct series up to Z_SWITCH, connection formula
in powers of 1-z beyond it.  This covers every call site in the package: the
hypergeometric argument is the logistic variable y in (0,1).  The engine is
the numpy-batched layer in :mod:`fermiwell.kernels`, so ``hyp2f1`` and
``hyp2f1_dz`` take broadcast arrays as well as scalars, and one failed
element raises the engine's ``ConvergenceError`` or
``DegenerateParameterError`` for the whole call.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import DomainError, PoleError

Z_SWITCH = 0.7
DEFAULT_TOL = 1e-13
DEFAULT_MAX_TERMS = 100_000


def _check_finite(name: str, z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if not (np.all(np.isfinite(z.real)) and np.all(np.isfinite(z.imag))):
        raise DomainError(f"{name} must have finite components")
    return z


def lgamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z); poles at non-positive integers rejected."""
    z = complex(_check_finite("z", z))
    if z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real):
        raise PoleError(f"log Gamma pole at z = {z.real:g}")
    return kernels.lgamma_complex_kernel(z)


def _validate_request(a, b, c, z):
    a = _check_finite("a", a)
    b = _check_finite("b", b)
    c = _check_finite("c", c)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z) & (z < 1.0)):
        raise DomainError("argument z must be a finite real < 1")
    if np.any((c.imag == 0.0) & (c.real <= 0.0) & (c.real == np.round(c.real))):
        raise DomainError("c must not be zero or a negative integer")
    # Canonical (a, b) ordering keeps evaluation exactly symmetric in a, b.
    swap = (b.real < a.real) | ((b.real == a.real) & (b.imag < a.imag))
    return np.where(swap, b, a), np.where(swap, a, b), c, z


def _result(val):
    return complex(val) if np.ndim(val) == 0 else val


def hyp2f1(a, b, c, z, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """2F1(a,b;c;z) for complex parameters and real z < 1.

    Arguments broadcast: scalars give a complex, arrays an array.  One
    failed element raises for the whole call.
    """
    a, b, c, z = _validate_request(a, b, c, z)
    return _result(kernels.hyp2f1_batch(a, b, c, z, tol, max_terms, Z_SWITCH))


def hyp2f1_dz(a, b, c, z, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """d/dz 2F1(a,b;c;z) via the contiguous relation (ab/c) 2F1(a+1,b+1;c+1;z)."""
    a, b, c, z = _validate_request(a, b, c, z)
    return _result((a * b / c) * kernels.hyp2f1_batch(a + 1.0, b + 1.0, c + 1.0, z, tol, max_terms, Z_SWITCH))
