"""Physical and dimensionless parametrization of the symmetric Fermi well.

Units: positions in fm, energies in MeV.  ``kappa2`` is the constant
2m/hbar^2 in MeV^-1 fm^-2; the default 0.048 corresponds to a neutron.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import BracketCollisionError, DomainError, LabelingError

DEFAULT_KAPPA2 = 0.048

# Parity labels of bound states and half bound states, indexed by oddness:
# PARITY[False] is EVEN, PARITY[True] is ODD.  Plain strings, so that JSON
# and CSV output print them as they are.
EVEN = "even"
ODD = "odd"
PARITY = (EVEN, ODD)
# Broadcasts a row of scan points to its even (first) and odd (second) parity.
BOTH_PARITIES = np.array([[False], [True]])


def is_odd(parity: str) -> bool:
    """Whether ``parity`` is ODD; any label other than EVEN or ODD raises DomainError."""
    if parity not in PARITY:
        raise DomainError(f"parity must be '{EVEN}' or '{ODD}', not {parity!r}")
    return parity == ODD


def check_ladder(values, odd, nodes_of, first: int = 0, name: str = "E") -> tuple[np.ndarray, np.ndarray]:
    """Roots ``values`` and their oddness, ordered, where root k must be state
    n = first + k: parity n mod 2, else BracketCollisionError (a root was
    likely missed), and then n nodes by ``nodes_of(values, odd)``, else
    LabelingError, whose message names the root variable ``name``."""
    order = np.argsort(values, kind="stable")
    values, odd = values[order], odd[order]
    n = first + np.arange(values.size)
    misplaced = np.flatnonzero(odd != (n % 2 == 1))
    if misplaced.size:
        k = misplaced[0]
        raise BracketCollisionError(f"state {n[k]} has parity {PARITY[int(odd[k])]}, expected "
                                    f"{PARITY[int(n[k] % 2)]}; a root was likely missed")
    nodes = np.asarray(nodes_of(values, odd))
    mislabeled = np.flatnonzero(nodes != n)
    if mislabeled.size:
        k = mislabeled[0]
        raise LabelingError(f"state {n[k]} ({PARITY[int(odd[k])]}, {name}={values[k]:.6f}) has {nodes[k]} nodes; "
                            "labeling is inconsistent")
    return values, odd


@dataclass(frozen=True)
class WellParams:
    """Symmetric Fermi well: V(x) = -v0 (1+e^(-a/b)) / (1+e^((|x|-a)/b))."""

    v0: float
    a: float
    b: float
    kappa2: float = DEFAULT_KAPPA2

    def __post_init__(self):
        for name in ("v0", "a", "b", "kappa2"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"WellParams.{name} must be positive")
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"WellParams.{name} must be finite")

    @property
    def u0(self) -> float:
        """Effective depth U0 = v0 (1 + e^(-a/b)); always exceeds v0."""
        return self.v0 * (1.0 + math.exp(-self.a / self.b))


@dataclass(frozen=True)
class DimensionlessWell:
    """(alpha, beta) = (a/b, b*sqrt(kappa2*U0))."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError("DimensionlessWell requires alpha > 0 and beta > 0")
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"DimensionlessWell.{name} must be finite")


def potential(p: WellParams, x):
    """Well value at x (scalar or array), in MeV.

    Evaluated through a logistic form so the exponential never overflows for
    large |x|; even in x, confined to (-v0, 0) for finite x.
    """
    t = (np.abs(x) - p.a) / p.b
    return -p.u0 * expit(-t)


def to_dimensionless(p: WellParams) -> DimensionlessWell:
    alpha = p.a / p.b
    beta = p.b * math.sqrt(p.kappa2 * p.u0)
    return DimensionlessWell(alpha=alpha, beta=beta)


def from_dimensionless(d: DimensionlessWell, b: float, kappa2: float = DEFAULT_KAPPA2) -> WellParams:
    if not (b > 0.0 and kappa2 > 0.0):
        raise DomainError("b and kappa2 must be positive")
    a = d.alpha * b
    u0 = d.beta**2 / (kappa2 * b**2)
    v0 = u0 / (1.0 + math.exp(-d.alpha))
    return WellParams(v0=v0, a=a, b=b, kappa2=kappa2)
