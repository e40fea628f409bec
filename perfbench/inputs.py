"""Seeded inputs of the three workloads.

Each workload is a list of operation inputs, run in order as one round.  A
part of every round is fixed (the paper's published wells and betas) and a
part is drawn from the seed.  Seeded wells are a stratified sample: the
domain is cut into as many equal-probability strata of a cost key as there
are draws, and one well is drawn uniformly from each stratum.  So every seed
gives other wells but about the same work, and the run-to-run spread of the
timings is mostly the machine's.  The key is G for the spectrum (its node
checks and bisections scale with the number of states) and the oracle's
work estimate (grid points times matching evaluations) for the oracle.

Seeded wells are redrawn when
  * a/b > WKB_ALPHA_MAX, for the workload that calls ``wkb_spectrum``: the
    closed-form action F(E) loses digits as e^(a/b) * 1e-16 (relative error
    5e-9 at a/b = 20, 8e-6 at 28) and raises ValueError above a/b ~ 37 (a
    FOUND fault);
  * the zero-energy solution has a node beyond a + FAR_ZERO_MARGIN b: such a
    well is just past a critical beta_n, its last state is barely bound, and
    ``count_via_zero_energy_nodes``, which integrates only to a + 40b,
    returns one state too few (a FOUND fault).
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from reference import (
    DEMO_WELL, G_COUNT_ROWS, HBS_BETAS, HBS_G, KAPPA2, NUCLEAR_ROWS,
    dimensionless, g_value, u0, well_from_dimensionless, zero_energy_counts,
)

WORKLOADS = ("spectrum", "critical-beta", "oracle")

SPECTRUM_DOMAIN = ((5.0, 80.0), (1.0, 7.0), (0.1, 1.5))  # v0 (MeV), a (fm), b (fm)
SPECTRUM_DRAWS = 12
# Cost of the oracle grows with the grid length a + 40b; b <= 0.5 fm keeps an
# operation near 1-3 s so that a round holds enough of them.
ORACLE_DOMAIN = ((5.0, 80.0), (1.0, 7.0), (0.1, 0.5))
ORACLE_DRAWS = 16
ORACLE_GRID_POINTS = 300
HBS_ALPHA = (1.0, 10.0)
HBS_N_MAX = 16  # one seeded pair for each n_max in 1..16
HBS_PUBLISHED_N = 8
# Near-threshold wells: beta_n * (1 -+ 1%) for one published n per alpha.
THRESHOLD_N = {1.0: 2, 2.0: 4, 3.0: 6, 4.0: 8}
THRESHOLD_FACTORS = (0.99, 1.01)

WKB_ALPHA_MAX = 20.0
FAR_ZERO_MARGIN = 20.0
_KEY_SAMPLE = 4000  # wells drawn, the same for every seed, to place the strata

WARMUP = {
    "spectrum": list(DEMO_WELL),
    "critical-beta": [2.0, 2],
    "oracle": [20.0, 3.0, 0.3, ORACLE_GRID_POINTS],
}


def _far_zero_ok(well) -> bool:
    alpha, beta = dimensionless(*well)
    _, _, zero_even, zero_odd = zero_energy_counts([alpha], [beta])
    # Outermost node, on the far side, of the E = 0 solution flat at +inf.
    return 0.5 * (zero_even[0] + zero_odd[0]) <= alpha + FAR_ZERO_MARGIN


def _draw(rng, domain):
    return tuple(float(lo + rng.random() * (hi - lo)) for lo, hi in domain)


def spectrum_key(well) -> float:
    return g_value(*dimensionless(*well))


def oracle_key(well) -> float:
    """Grid points of the oracle's default grid (step min(b/20, 0.02/k_max)
    over a + 40b) times its matching evaluations: two scans of
    ORACLE_GRID_POINTS and about 30 bisection steps per state."""
    v0, a, b = well
    k_max = math.sqrt(KAPPA2 * u0(v0, a, b))
    grid = (a + 40.0 * b) / min(b / 20.0, 0.02 / k_max)
    return grid * (2 * ORACLE_GRID_POINTS + 30.0 * spectrum_key(well))


def sample_wells(rng: np.random.Generator, k: int, domain, key,
                 alpha_max: float = math.inf) -> list[tuple[float, float, float]]:
    """k wells (v0, a, b), one from each of k equal-probability strata of
    ``key`` over the domain, redrawn as described above."""
    ref_rng = np.random.default_rng(0)
    ref_keys = [key(w) for w in (_draw(ref_rng, domain) for _ in range(_KEY_SAMPLE))
                if w[1] / w[2] <= alpha_max]
    edges = list(np.quantile(ref_keys, np.arange(1, k) / k))
    wells = [None] * k
    while None in wells:
        w = _draw(rng, domain)
        if w[1] / w[2] > alpha_max:
            continue
        j = bisect.bisect(edges, key(w))
        if wells[j] is None and _far_zero_ok(w):
            wells[j] = w
    return wells


def make(workload: str, seed: int) -> tuple[list[list], list[dict]]:
    """(inputs, expectations) of one round: the program gets only the inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "spectrum":
        return _spectrum(rng)
    if workload == "critical-beta":
        return _critical_beta(rng)
    if workload == "oracle":
        wells = sample_wells(rng, ORACLE_DRAWS, ORACLE_DOMAIN, oracle_key)
        return [[*w, ORACLE_GRID_POINTS] for w in wells], [{"label": "seeded"} for _ in wells]
    raise ValueError(f"unknown workload {workload!r}")


def _spectrum(rng):
    inputs, expects = [], []
    for g, a, b, v0, count in G_COUNT_ROWS:
        inputs.append([v0, a, b])
        expects.append({"label": f"G={g} a={a} b={b}", "count": count, "g": g, "g_tol": 2e-3})
    for element, mass, g, s_wave in NUCLEAR_ROWS:
        inputs.append([50.0, 1.3 * mass ** (1.0 / 3.0), 0.65])
        expects.append({"label": f"{element}-{mass}", "s_wave": s_wave, "g": g, "g_tol": 0.02})
    inputs.append(list(DEMO_WELL))
    expects.append({"label": "demo", "demo": True})
    for alpha, n in THRESHOLD_N.items():
        beta_n = HBS_BETAS[alpha][n - 1]
        for factor, count in zip(THRESHOLD_FACTORS, (n, n + 1)):
            inputs.append(list(well_from_dimensionless(alpha, beta_n * factor, 1.0, KAPPA2)))
            expects.append({"label": f"alpha={alpha} beta_{n}*{factor}", "count": count})
    for w in sample_wells(rng, SPECTRUM_DRAWS, SPECTRUM_DOMAIN, spectrum_key, WKB_ALPHA_MAX):
        inputs.append(list(w))
        expects.append({"label": "seeded"})
    return inputs, expects


def _critical_beta(rng):
    inputs, expects = [], []
    for alpha in HBS_BETAS:
        inputs.append([alpha, HBS_PUBLISHED_N])
        expects.append({"label": f"published alpha={alpha}", "betas": HBS_BETAS[alpha], "gs": HBS_G[alpha]})
    lo, hi = HBS_ALPHA
    cells = rng.permutation(HBS_N_MAX)
    for n_max, cell in zip(range(1, HBS_N_MAX + 1), cells):
        alpha = lo + (cell + rng.random()) / HBS_N_MAX * (hi - lo)
        inputs.append([float(alpha), n_max])
        expects.append({"label": "seeded"})
    return inputs, expects
