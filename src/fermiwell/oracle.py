"""Independent direct-integration ground truth: Numerov shooting solver.

Everything here works directly on the Schrodinger equation, with no
hypergeometric machinery, so it can arbitrate the analytic modules.  The
eigenvalue condition is the vanishing of the (scaled) Wronskian between the
outward parity-seeded solution and the inward decaying solution at the
match point.  The same sweeps, kept whole, check each state's nodes, and
the outward ones at E = 0 count the bound states by Sturm oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import BOTH_PARITIES, EVEN, PARITY, WellParams, is_odd, potential
from .errors import BracketCollisionError, DomainError
from .roots import refine_brackets, sign_change_brackets
from .wavefunction import NODE_FLOOR


@dataclass(frozen=True)
class IntegratorConfig:
    x_max: float
    step: float
    match_point: float


@dataclass(frozen=True)
class OracleState:
    energy: float
    parity: str
    nodes: int


def default_config(p: WellParams) -> IntegratorConfig:
    """Grid resolving the edge (b/20) and the shortest wavelength; the outer
    boundary a + 40b keeps the tail potential negligible against even
    near-threshold binding energies."""
    k_max = math.sqrt(p.kappa2 * p.u0)
    step = min(p.b / 20.0, 0.02 / k_max)
    return IntegratorConfig(x_max=p.a + 40.0 * p.b, step=step, match_point=p.a)


def _grid(p: WellParams, cfg: IntegratorConfig) -> tuple[np.ndarray, float, np.ndarray, int]:
    if cfg.x_max < p.a + 15.0 * p.b:
        raise DomainError("x_max must be at least a + 15b")
    n = int(math.ceil(cfg.x_max / cfg.step)) + 1
    xs, h = np.linspace(0.0, cfg.x_max, n, retstep=True)
    w = p.kappa2 * potential(p, xs)
    m = int(round(cfg.match_point / h))
    m = min(max(m, 2), n - 3)
    return xs, float(h), w, m


def mismatch(p: WellParams, energy: float, cfg: IntegratorConfig | None = None, parity: str = EVEN) -> float:
    """Scaled Wronskian of the two shooting branches at the match point."""
    odd = is_odd(parity)
    if cfg is None:
        cfg = default_config(p)
    _, h, w, m = _grid(p, cfg)
    return float(kernels.shooting_mismatch_kernel(w, h, p.kappa2, energy, m, odd))


def _nodes_at(w: np.ndarray, h: float, kappa2: float, energies: np.ndarray, m: int,
              odd: np.ndarray) -> list[int]:
    """Full-line node count of the eigenfunction at each (energy, odd), matched at m."""
    out, inw = kernels.shoot_kernel(w, h, kappa2, energies, m, odd, whole=True)
    at_m = inw[:, 2]
    scale = np.where(at_m != 0.0, out[:, m] / np.where(at_m != 0.0, at_m, 1.0), 1.0)
    psi = np.concatenate((out[:, 1:m + 1], inw[:, 3:] * scale[:, None]), axis=1)
    return (2 * kernels.count_sign_changes_kernel(psi, NODE_FLOOR) + odd).tolist()


def oracle_spectrum(
    p: WellParams, cfg: IntegratorConfig | None = None, grid_points: int = 1000, tol_e: float = 1e-9
) -> list[OracleState]:
    """Bound states from one mismatch scan in E of both parities, every
    sign-change bracket then refined by the lockstep Illinois solver."""
    if grid_points < 200:
        raise DomainError("grid_points must be at least 200")
    if cfg is None:
        cfg = default_config(p)
    _, h, w, m = _grid(p, cfg)
    eps = 1e-6 * p.v0
    energies = np.linspace(-p.v0 + eps, -eps, grid_points)
    vals = kernels.shooting_mismatch_kernel(w, h, p.kappa2, energies, m, BOTH_PARITIES)
    lo, hi, flo, fhi, odd = sign_change_brackets(energies, vals)
    found = refine_brackets(
        lambda e, k: kernels.shooting_mismatch_kernel(w, h, p.kappa2, e, m, odd[k]), lo, hi, flo, fhi, tol_e
    )
    nodes = _nodes_at(w, h, p.kappa2, found, m, odd)
    states = [OracleState(energy=e, parity=PARITY[o], nodes=n) for e, o, n in zip(found, odd.tolist(), nodes)]
    states.sort(key=lambda s: s.energy)
    for idx, s in enumerate(states):
        if s.nodes != idx:
            raise BracketCollisionError(
                f"oracle state {idx} has {s.nodes} nodes; an eigenvalue was likely missed -- raise grid_points"
            )
    return states


def count_via_zero_energy_nodes(p: WellParams, cfg: IntegratorConfig | None = None) -> int:
    """Bound-state count from the nodes of the E = 0 parity solutions.

    The bound states are the even ones plus the odd ones, and by Sturm
    oscillation on the half line each parity has as many as its E = 0
    solution, integrated outward on the oracle's grid, has nodes on x > 0.
    Past x_max a solution follows its linear E = 0 asymptote, whose zero
    counts as one more node when it lies beyond the grid end.
    """
    if cfg is None:
        cfg = default_config(p)
    _, h, w, _ = _grid(p, cfg)
    psi = kernels.numerov_propagate_kernel(-w, h, *kernels.outward_seed(-w[:4], h, BOTH_PARITIES[:, 0]))
    nodes = kernels.count_sign_changes_kernel(psi[:, 1:], NODE_FLOOR)
    outer_node = psi[:, -1] * (psi[:, -1] - psi[:, -2]) < 0.0
    return int(np.sum(nodes + outer_node))
