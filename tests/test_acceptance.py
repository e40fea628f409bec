"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured worst-case deviation.

Runtimes are measured after kernel warm-up (see conftest).
"""

import math
import time

import numpy as np
import pytest

from fermiwell import (
    WellParams,
    count_via_zero_energy_nodes,
    f_action,
    g_closed_form,
    g_quadrature,
    hbs_scan,
    hyp2f1,
    hyp2f1_dz,
    oracle_spectrum,
    solve_spectrum,
    to_dimensionless,
    wkb_spectrum,
)
from fermiwell import kernels, special
from fermiwell.tables import (
    DEMO_EXACT_LEVELS,
    DEMO_WKB_LEVELS,
    G_COUNT_ROWS,
    HBS_ROWS,
    NUCLEAR_B,
    NUCLEAR_R0,
    NUCLEAR_ROWS,
    NUCLEAR_V0,
    TOL_BETA,
    TOL_G,
    TOL_G_NUCLEAR,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_exact_demo_spectrum(demo_well):
    t0 = time.perf_counter()
    rep = solve_spectrum(demo_well)
    elapsed = time.perf_counter() - t0
    worst = max(abs(s.energy - e) for s, e in zip(rep.states, DEMO_EXACT_LEVELS))
    ok = rep.count == 3 and worst <= 1e-3 and elapsed < 1.0
    _report(1, ok, f"3 exact levels, worst |dE|={worst:.2e} MeV (<=1e-3), {elapsed:.2f}s (<1s)")


def test_criterion_02_wkb_demo_spectrum(demo_well):
    t0 = time.perf_counter()
    levels = wkb_spectrum(demo_well)
    elapsed = time.perf_counter() - t0
    worst = max(abs(lv.energy - e) for lv, e in zip(levels, DEMO_WKB_LEVELS))
    ok = len(levels) == 3 and worst <= 1e-2 and elapsed < 1.0
    _report(2, ok, f"3 WKB levels, worst |dE|={worst:.2e} MeV (<=1e-2), {elapsed:.2f}s (<1s)")


def test_criterion_03_fixed_g_table():
    t0 = time.perf_counter()
    worst_g, counts_ok = 0.0, True
    for g_ref, a, b, v0, count_ref in G_COUNT_ROWS:
        rep = solve_spectrum(WellParams(v0, a, b))
        worst_g = max(worst_g, abs(rep.g_value - g_ref))
        counts_ok = counts_ok and rep.count == count_ref
    elapsed = time.perf_counter() - t0
    ok = worst_g <= TOL_G and counts_ok and elapsed < 10.0
    _report(3, ok, f"9 rows, worst |dG|={worst_g:.2e} (<=2e-3), counts exact={counts_ok}, "
                   f"{elapsed:.1f}s (<10s)")


def test_criterion_04_critical_beta_table():
    t0 = time.perf_counter()
    worst_beta, worst_g = 0.0, 0.0
    for alpha, entries in sorted(HBS_ROWS.items()):
        sols = hbs_scan(alpha, len(entries))
        for (n, beta_ref, g_ref), sol in zip(entries, sols):
            worst_beta = max(worst_beta, abs(sol.beta_n - beta_ref))
            worst_g = max(worst_g, abs(sol.g_value - g_ref))
    elapsed = time.perf_counter() - t0
    ok = worst_beta <= TOL_BETA and worst_g <= TOL_G and elapsed < 30.0
    _report(4, ok, f"32 entries, worst |dbeta|={worst_beta:.2e} (<=5e-4), "
                   f"worst |dG|={worst_g:.2e} (<=2e-3), {elapsed:.1f}s (<30s)")


def test_criterion_05_nuclear_table():
    t0 = time.perf_counter()
    worst_g, counts_ok = 0.0, True
    for _, mass, g_ref, count_ref in NUCLEAR_ROWS:
        p = WellParams(NUCLEAR_V0, NUCLEAR_R0 * mass ** (1.0 / 3.0), NUCLEAR_B)
        rep = solve_spectrum(p)
        count = sum(1 for s in rep.states if s.parity == "odd")
        worst_g = max(worst_g, abs(rep.g_value - g_ref))
        counts_ok = counts_ok and count == count_ref
    elapsed = time.perf_counter() - t0
    ok = worst_g <= TOL_G_NUCLEAR and counts_ok and elapsed < 3.0
    _report(5, ok, f"3 nuclei, worst |dG|={worst_g:.2e} (<=0.02), s-wave counts exact={counts_ok}, "
                   f"{elapsed:.1f}s (<3s)")


def test_criterion_06_oracle_equivalence(random_wells):
    worst_rel = 0.0
    for p in random_wells:
        tol = max(1e-6 * p.v0, 1e-5)
        rep = solve_spectrum(p)
        orc = oracle_spectrum(p, grid_points=800)
        assert rep.count == len(orc), f"count mismatch at {p}"
        for s, o in zip(rep.states, orc):
            worst_rel = max(worst_rel, abs(s.energy - o.energy) / tol)
        assert count_via_zero_energy_nodes(p) == rep.count, f"node count mismatch at {p}"
    ok = worst_rel <= 1.0
    _report(6, ok, f"50 wells: counts, zero-energy node counts exact; "
                   f"worst |dE|/tol={worst_rel:.3f} (<=1)")


def test_criterion_07_counting_rule(random_wells):
    violations = []
    for p in random_wells:
        rep = solve_spectrum(p)
        lo = int(math.floor(rep.g_value))
        if rep.count not in (lo, lo + 1):
            violations.append((p, rep.g_value, rep.count))
    ok = not violations
    _report(7, ok, f"50 wells: count always in {{floor(G), floor(G)+1}}; violations={violations}")


def test_criterion_08_special_function_battery():
    rng = np.random.default_rng(101)
    worst = {"euler": 0.0, "pfaff": 0.0, "contiguous": 0.0, "overlap": 0.0, "deriv": 0.0}
    for _ in range(40):
        nu, mu = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        a = complex(nu, mu)
        b, c = a + 1.0, complex(2.0 * nu + 1.0)
        z = rng.uniform(0.0, 0.95)
        base = hyp2f1(a, b, c, z)
        scale = max(1.0, abs(base))
        euler = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        worst["euler"] = max(worst["euler"], abs(base - euler) / scale)
        pfaff = (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1.0))
        worst["pfaff"] = max(worst["pfaff"], abs(base - pfaff) / scale)
        contig = c * base - c * hyp2f1(a + 1.0, b, c, z) + b * z * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        worst["contiguous"] = max(worst["contiguous"], abs(contig) / scale)
        zo = rng.uniform(0.6, 0.8)
        direct = kernels.hyp2f1_series_kernel(a, b, c, zo, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS)
        conn = complex(kernels.hyp2f1_zu_batch(a, b, c, zo, 1.0 - zo, special.DEFAULT_TOL,
                                               special.DEFAULT_MAX_TERMS, 0.0))
        worst["overlap"] = max(worst["overlap"], abs(direct - conn) / max(1.0, abs(direct)))
        zd = rng.uniform(0.05, 0.9)
        step = 1e-6
        fd = (hyp2f1(a, b, c, zd + step) - hyp2f1(a, b, c, zd - step)) / (2.0 * step)
        dv = hyp2f1_dz(a, b, c, zd)
        worst["deriv"] = max(worst["deriv"], abs(dv - fd) / max(1.0, abs(dv)))
    ok = (worst["euler"] <= 1e-10 and worst["pfaff"] <= 1e-10
          and worst["contiguous"] <= 1e-9 and worst["overlap"] <= 1e-9
          and worst["deriv"] <= 1e-6)
    _report(8, ok, "identity battery worst rel errs: "
                   + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_09_quadrature_vs_closed_forms():
    rng = np.random.default_rng(202)
    worst_g, worst_f = 0.0, 0.0
    for _ in range(100):
        p = WellParams(rng.uniform(3.0, 80.0), rng.uniform(0.5, 7.0), rng.uniform(0.1, 1.5))
        gq = g_quadrature(p)
        gc = g_closed_form(to_dimensionless(p))
        worst_g = max(worst_g, abs(gq - gc) / gc)
    for _ in range(25):
        p = WellParams(rng.uniform(5.0, 70.0), rng.uniform(0.8, 6.0), rng.uniform(0.15, 1.4))
        e = rng.uniform(-0.95 * p.v0, -0.02 * p.v0)
        fc = f_action(p, e, method="closed")
        fq = f_action(p, e, method="quadrature")
        worst_f = max(worst_f, abs(fc - fq) / max(abs(fc), 1e-12))
    ok = worst_g <= 1e-8 and worst_f <= 1e-6
    _report(9, ok, f"G quadrature vs closed worst rel={worst_g:.1e} (<=1e-8); "
                   f"action worst rel={worst_f:.1e} (<=1e-6)")


@pytest.mark.slow
def test_criterion_10_hbs_criticality():
    bad = []
    for alpha, entries in sorted(HBS_ROWS.items()):
        sols = hbs_scan(alpha, len(entries))
        for sol in sols:
            from fermiwell import verify_criticality

            report = verify_criticality(alpha, sol.beta_n, sol.n)
            if report.count_below != sol.n or report.count_above != sol.n + 1:
                bad.append((alpha, sol.n, report.count_below, report.count_above))
    ok = not bad
    _report(10, ok, f"32 critical points: count(beta_n*0.99)=n and count(beta_n*1.01)=n+1; "
                    f"violations={bad}")
