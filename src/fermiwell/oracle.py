"""Independent direct-integration ground truth: Numerov shooting solver.

Everything here works directly on the Schrodinger equation, with no
hypergeometric machinery, so it can arbitrate the analytic modules.  The
eigenvalue condition is the vanishing of the (scaled) Wronskian between the
outward parity-seeded solution and the inward decaying solution at the
match point.  The same two sweeps count their nodes as they go, which
gives the Sturm count of each parity's levels below E: the solver brackets
every level by bisecting that count on an energy lattice, and checks each
state's nodes.  The Sturm count at E = 0 is the number of bound states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import BOTH_PARITIES, EVEN, PARITY, WellParams, check_ladder, is_odd, potential
from .errors import BracketCollisionError, DomainError, LabelingError
from .roots import refine_brackets


# Largest grid _grid builds: one of its arrays holds 800 MB at this size.
# count_via_zero_energy_nodes peaks at about 32 bytes a grid point (measured
# 161 MB at 5.25e6 points and 612 MB at 2e7, taking 0.4 and 1.2 s on one
# core), so at this bound it needs about 3.2 GB and 6 s.  The default grid
# of a = b = 1 fm reaches it near v0 = 3.6e10 MeV; at v0 = 1e12 MeV it would
# hold 5.3e8 points, about 17 GB.
MAX_GRID_POINTS = 100_000_000


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
    if not math.isfinite(cfg.x_max):
        raise DomainError(f"x_max must be finite, got {cfg.x_max!r}")
    if cfg.x_max < p.a + 15.0 * p.b:
        raise DomainError("x_max must be at least a + 15b")
    if not 0.0 < cfg.step <= cfg.x_max / 4.0:
        raise DomainError(f"step must lie in (0, x_max / 4], got {cfg.step!r}")
    if not 0.0 <= cfg.match_point <= cfg.x_max:
        raise DomainError(f"match_point must lie in [0, x_max], got {cfg.match_point!r}")
    if cfg.x_max / cfg.step > MAX_GRID_POINTS - 1:
        raise DomainError(f"the grid x_max / step = {cfg.x_max / cfg.step:.3g} exceeds {MAX_GRID_POINTS} points")
    n = int(math.ceil(cfg.x_max / cfg.step)) + 1
    xs, h = np.linspace(0.0, cfg.x_max, n, retstep=True)
    w = p.kappa2 * potential(p, xs)
    # the five-point stencil around m must lie on the grid
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
    return (2 * kernels.shoot_kernel(w, h, kappa2, energies, m, odd)[2] + odd).tolist()


# The first count call samples the lattice at the ends of this many equal
# cells.  A batched call of 17 energies costs about as much as two calls of
# one, and saves the four bisection rounds that would reach cells that size.
_FIRST_CELLS = 16
_NOT_MONOTONE = "the oracle's Sturm count decreases with energy"


def _sturm_brackets(count, lattice: np.ndarray) -> tuple[np.ndarray, ...]:
    """(lo, hi, f(lo), f(hi), odd) of every level in [lattice[0], lattice[-1]].

    ``count(e)`` returns the mismatch and the Sturm count N_p of both
    parities p (rows) at the energies ``e`` (columns).  Level k of parity p
    is bracketed where N_p steps from k to k + 1.  After the first call on
    the ends of _FIRST_CELLS cells, all brackets are bisected in lockstep,
    one ``count`` call a round on their distinct midpoints: on lattice
    indices until each is one lattice cell, then in E where a cell's count
    still steps by 2 or more, until every bracket steps by 1.  A lattice
    cell where N_p steps by 1 is found whatever the search order, so the
    brackets are the cells where a uniform scan of the mismatch changes sign.
    """
    first = np.unique(np.linspace(0, lattice.size - 1, _FIRST_CELLS + 1).round().astype(int))
    f, n = count(lattice[first])
    if np.any(n[:, 1:] < n[:, :-1]):
        raise LabelingError(_NOT_MONOTONE)
    odd = np.repeat([False, True], n[:, -1] - n[:, 0])
    k = np.concatenate([np.arange(n[p, 0], n[p, -1]) for p in (0, 1)])
    row = odd.astype(int)
    # both ends of every bracket: lattice index (fractional inside a cell), energy, mismatch, count
    ends = np.sum(n[row] <= k[:, None], axis=1) - 1 + np.array([[0], [1]])
    pos, e, fe, ne = first[ends].astype(float), lattice[first[ends]], f[row, ends], n[row, ends]
    while True:
        wide = pos[1] - pos[0] > 1.0
        todo = np.flatnonzero(wide | (ne[1] - ne[0] > 1))
        if todo.size == 0:
            return e[0], e[1], fe[0], fe[1], odd
        mid = 0.5 * (pos[0, todo] + pos[1, todo])
        mid = np.where(wide[todo], np.floor(mid), mid)
        mid_e = np.where(wide[todo], lattice[mid.astype(int)], 0.5 * (e[0, todo] + e[1, todo]))
        if np.any((mid_e <= e[0, todo]) | (mid_e >= e[1, todo])):
            raise BracketCollisionError("two oracle levels of one parity lie too close to be bracketed apart")
        uniq, inv = np.unique(mid_e, return_inverse=True)
        f_mid, n_mid = count(uniq)
        f_mid, n_mid = f_mid[row[todo], inv], n_mid[row[todo], inv]
        if np.any((n_mid < ne[0, todo]) | (n_mid > ne[1, todo])):
            raise LabelingError(_NOT_MONOTONE)
        end = (n_mid > k[todo]).astype(int)  # the end the midpoint replaces: 0 = lo, 1 = hi
        pos[end, todo], e[end, todo], fe[end, todo], ne[end, todo] = mid, mid_e, f_mid, n_mid


def oracle_spectrum(
    p: WellParams, cfg: IntegratorConfig | None = None, grid_points: int = 1000, tol_e: float = 1e-9
) -> list[OracleState]:
    """Bound states between -v0 and 0, 1e-6 v0 inside both ends, each
    bracketed by its Sturm count on a lattice of ``grid_points`` energies
    and refined by the lockstep Illinois solver.

    ``grid_points`` is the lattice resolution: the brackets are its cells
    (halved further where one cell holds two levels of one parity), so the
    levels do not depend on it beyond the refinement tolerance, and the
    bracketing cost grows with its logarithm.
    """
    if grid_points < 200:
        raise DomainError("grid_points must be at least 200")
    if cfg is None:
        cfg = default_config(p)
    _, h, w, m = _grid(p, cfg)
    eps = 1e-6 * p.v0
    lattice = np.linspace(-p.v0 + eps, -eps, grid_points)
    lo, hi, flo, fhi, odd = _sturm_brackets(
        lambda e: kernels.sturm_count_kernel(w, h, p.kappa2, e, m, BOTH_PARITIES), lattice
    )
    found = refine_brackets(
        lambda e, k: kernels.shooting_mismatch_kernel(w, h, p.kappa2, e, m, odd[k]), lo, hi, flo, fhi, tol_e
    )
    found, odd = check_ladder(found, odd, lambda e, o: _nodes_at(w, h, p.kappa2, e, m, o))
    return [OracleState(energy=e, parity=PARITY[o], nodes=n) for n, (e, o) in enumerate(zip(found, odd.tolist()))]


def count_via_zero_energy_nodes(p: WellParams, cfg: IntegratorConfig | None = None) -> int:
    """Bound-state count: the Sturm count of both parities at E = 0.

    The bound states are the levels below E = 0, and
    :func:`kernels.sturm_count_kernel` counts each parity's levels below an
    energy from the two shooting sweeps on the oracle's grid.  At E = 0 the
    inward sweep starts from the flat solution (1, 1).
    """
    if cfg is None:
        cfg = default_config(p)
    _, h, w, m = _grid(p, cfg)
    return int(np.sum(kernels.sturm_count_kernel(w, h, p.kappa2, 0.0, m, BOTH_PARITIES[:, 0])[1]))
