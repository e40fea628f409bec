import itertools
import math

import numpy as np
import pytest

from fermiwell import (
    DimensionlessWell,
    WellParams,
    from_dimensionless,
    kernels,
    oracle,
    oracle_spectrum,
    solve_spectrum,
)
from fermiwell.core import BOTH_PARITIES, ODD, PARITY, potential
from fermiwell.errors import BracketCollisionError, DomainError, LabelingError
from fermiwell.oracle import (
    IntegratorConfig,
    OracleState,
    _grid,
    _nodes_at,
    count_via_zero_energy_nodes,
    default_config,
    mismatch,
)
from fermiwell.roots import refine_brackets, sign_change_brackets
from fermiwell.tables import DEMO_EXACT_LEVELS
from fermiwell.wavefunction import NODE_FLOOR


def test_free_inward_solution_is_exponential():
    # V == 0: the inward branch must reproduce e^(-k x) exactly.
    p = WellParams(45.3642, 2.0, 1.0)
    e = -10.0
    k = math.sqrt(-p.kappa2 * e)
    h = 0.01
    n = 1500
    f = np.full(n, p.kappa2 * e)
    psi = kernels.numerov_propagate_kernel(f[::-1].copy(), h, 1.0, math.exp(k * h))[::-1]
    xs = np.arange(n) * h
    ref = np.exp(-k * (xs - xs[-1]))
    assert np.max(np.abs(psi / psi[-1] - ref)) < 1e-10 * np.max(ref)


def test_harmonic_oscillator_harness():
    # psi'' + kappa2 (E - V) psi = 0 with V = x^2/2 - 50 and kappa2 = 2 has
    # levels E_n = n + 1/2 - 50; the shooting pipeline must hit the lowest
    # even and odd ones to 1e-8 relative.
    x_max, h = 12.0, 0.005
    n = int(round(x_max / h)) + 1
    xs = np.linspace(0.0, x_max, n)
    hh = x_max / (n - 1)
    w = 2.0 * (0.5 * xs**2 - 50.0)
    m = int(round(4.0 / hh))
    for odd, exact in ((False, -49.5), (True, -48.5)):
        lo, hi = exact - 0.1, exact + 0.1
        flo = kernels.shooting_mismatch_kernel(w, hh, 2.0, lo, m, odd)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            fm = kernels.shooting_mismatch_kernel(w, hh, 2.0, mid, m, odd)
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(exact, rel=1e-8)


def test_ground_state_mismatch_small(demo_well):
    scale = abs(mismatch(demo_well, -20.0))
    assert abs(mismatch(demo_well, DEMO_EXACT_LEVELS[0], parity="even")) < 1e-5 * max(scale, 1.0)


def test_mismatch_rejects_bad_parity(demo_well):
    for parity in ("sideways", "ODD", "Even", ""):
        with pytest.raises(DomainError):
            mismatch(demo_well, -20.0, parity=parity)


def test_demo_well_oracle_levels(demo_well):
    states = oracle_spectrum(demo_well)
    assert len(states) == 3
    for st, e_ref in zip(states, DEMO_EXACT_LEVELS):
        assert st.energy == pytest.approx(e_ref, abs=1e-3)
    assert [st.nodes for st in states] == [0, 1, 2]


def test_step_halving_contract(demo_well):
    cfg = default_config(demo_well)
    half = IntegratorConfig(cfg.x_max, cfg.step / 2.0, cfg.match_point)
    e1 = [s.energy for s in oracle_spectrum(demo_well, cfg=cfg, grid_points=600)]
    e2 = [s.energy for s in oracle_spectrum(demo_well, cfg=half, grid_points=600)]
    assert max(abs(a - b) for a, b in zip(e1, e2)) <= 1e-7


def test_match_point_invariance(demo_well):
    cfg = default_config(demo_well)
    base = [s.energy for s in oracle_spectrum(demo_well, cfg=cfg, grid_points=600)]
    for mp in (demo_well.a - demo_well.b, demo_well.a + demo_well.b):
        alt_cfg = IntegratorConfig(cfg.x_max, cfg.step, mp)
        alt = [s.energy for s in oracle_spectrum(demo_well, cfg=alt_cfg, grid_points=600)]
        assert max(abs(a - b) for a, b in zip(base, alt)) <= 1e-8


def test_x_max_invariance(demo_well):
    cfg = default_config(demo_well)
    wide = IntegratorConfig(cfg.x_max + 10.0, cfg.step, cfg.match_point)
    base = [s.energy for s in oracle_spectrum(demo_well, cfg=cfg, grid_points=600)]
    alt = [s.energy for s in oracle_spectrum(demo_well, cfg=wide, grid_points=600)]
    assert max(abs(a - b) for a, b in zip(base, alt)) <= 1e-7


def test_outward_integration_parity_seeds(demo_well):
    # The oracle's own seed: psi(0) = 1 for even parity and 0 for odd, and
    # psi(h) close to cos(kh) and sin(kh)/k.
    _, h, w, _ = _grid(demo_well, default_config(demo_well))
    f = demo_well.kappa2 * -20.0 - w[:4]
    psi0, psi1 = kernels.outward_seed(f, h, np.array([False, True]))
    assert psi0.tolist() == [1.0, 0.0]
    assert psi1[0] == pytest.approx(1.0, abs=f[0] * h * h)
    assert psi1[1] == pytest.approx(h, rel=f[0] * h * h)


def _numerov_loop(f, h, psi0, psi1, dtype=float):
    # Scalar reference: one row, every column kept, rescaled above 1e100;
    # with dtype np.longdouble it is the accuracy reference of the kernel.
    f = [dtype(v) for v in f]
    psi = [dtype(psi0), dtype(psi1)]
    h12 = dtype(h) * dtype(h) / 12.0
    for i in range(2, len(f)):
        val = (2.0 * (1.0 - 5.0 * h12 * f[i - 1]) * psi[i - 1] - (1.0 + h12 * f[i - 2]) * psi[i - 2]) / (1.0 + h12 * f[i])
        psi.append(val)
        if abs(val) > 1e100:
            inv = 1.0 / abs(val)
            psi = [v * inv for v in psi]
    return np.array(psi)


def _unscaled_error(row, ref):
    # Largest deviation of a row from the reference once each is divided by
    # its value at the reference's peak, which removes the row's own scale.
    k = np.argmax(np.abs(ref))
    return float(np.max(np.abs(row / row[k] - ref / ref[k])))


def _random_rows(shift, keep=slice(None), n=400):
    rng = np.random.default_rng(7)
    g = -rng.uniform(0.0, 2.0, n)
    return g, kernels.numerov_propagate_kernel(g, 0.05, 1.0, 1.02, shift=shift, keep=keep)


def test_propagate_rows_match_scalar_loop():
    # Against an np.longdouble loop, each row (its scale removed) is within
    # 2x the error of the float64 loop or within 1e-12 of its peak.  The
    # shift -200 row grows past 1e100 and is rescaled.  The inward rows lie
    # just below threshold: E = -1e-6 v0 on the demo well and E = -8e-5 MeV
    # on (80, 2, 3.5), a 17k-step grid.
    shift = np.array([0.5, 1.0, -3.0, -200.0])
    g, rows = _random_rows(shift)
    cases = [(row, q + g, 0.05, 1.02) for q, row in zip(shift, rows)]
    for params, e in (((45.3642, 2.0, 1.0), -1e-6 * 45.3642), ((80.0, 2.0, 3.5), -8e-5)):
        p = WellParams(*params)
        _, h, w, m = _grid(p, default_config(p))
        q = p.kappa2 * e
        f = -w[m - 2:][::-1]
        psi1 = math.exp(math.sqrt(-q) * h)
        cases.append((kernels.numerov_propagate_kernel(f, h, 1.0, psi1, shift=q), q + f, h, psi1))
    for row, fb, h, psi1 in cases:
        ref = _numerov_loop(fb, h, 1.0, psi1, np.longdouble)
        loop_error = _unscaled_error(_numerov_loop(fb, h, 1.0, psi1), ref)
        assert _unscaled_error(row, ref) <= max(2.0 * loop_error, 1e-12)
    assert _numerov_loop(shift[-1] + g, 0.05, 1.0, 1.02)[0] < 1e-100
    assert np.array_equal(_random_rows(shift, keep=slice(100, 105))[1], rows[:, 100:105])


def _power_of_two_normalized(rows):
    # Each row times the power of two that puts its peak in [0.5, 1): exact.
    return np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=-1, keepdims=True))[1])


def _chunk_end(shift, f, h, rows):
    # First chunk end of a sweep from seeds at most 1e100, as the kernel cuts it.
    x = h * h / 12.0 * np.abs(np.add.outer(np.atleast_1d(shift), f)).max()
    return 2 + kernels._chunk_width(x, kernels._RESCALE_ABOVE, rows)


_BATCH_SHIFT = np.concatenate((np.linspace(-3.0, 1.0, 127), [-200.0]))
_BATCH_END = _chunk_end(_BATCH_SHIFT, _random_rows(0.0, n=600)[0], 0.05, 128)
_SINGLE_END = _chunk_end(-200.0, _random_rows(0.0, n=600)[0], 0.05, 1)


@pytest.mark.parametrize("keep", [slice(None), slice(_BATCH_END - 8, _BATCH_END + 12),
                                  slice(_SINGLE_END - 4, _SINGLE_END + 8)])
def test_batch_rows_equal_one_row_calls(keep):
    # 128 rows run in chunks of 126 columns (ends at 128, 254, ...), the one
    # row of shift -200 in chunks of 556 (end at 558), the others in one
    # chunk; each row rescales at its own chunk ends, so rows agree bit for
    # bit up to a power of two.  The shift -200 row is rescaled.
    assert (_BATCH_END, _SINGLE_END) == (128, 558)
    shift = _BATCH_SHIFT
    _, batch = _random_rows(shift, keep, n=600)
    single = np.array([_random_rows(q, keep, n=600)[1] for q in shift])
    assert np.array_equal(_power_of_two_normalized(batch), _power_of_two_normalized(single))


def _longdouble_rows(t, seeds):
    # The recursion in np.longdouble, which cannot overflow here, on rows of
    # t_i = h^2 (shift + f_i) / 12 from seeds (psi_0, psi_1); (n, rows).
    t = t.T.astype(np.longdouble)
    c, a = 1.0 + t, 2.0 * (1.0 - 5.0 * t)
    psi = np.empty(t.shape, dtype=np.longdouble)
    psi[:2] = seeds.T
    for i in range(2, t.shape[0]):
        psi[i] = (a[i - 1] * psi[i - 1] - c[i - 2] * psi[i - 2]) / c[i]
    return psi


@pytest.mark.parametrize("x", [0.1, 1e-2, 1e-3, 3.4e-5])
def test_growth_bound_holds_against_longdouble_loop(x):
    # Profiles with max|t_i| = x: random, constant -x (the fastest growth),
    # alternating and blocky, each from four seed pairs of magnitude at most
    # the peak.  Each step multiplies N = max(|psi|, |psi_i - psi_(i-1)| / s)
    # by at most 1 + g, and a chunk of _chunk_width columns stays at or
    # below _OVERFLOW_AT.
    rng = np.random.default_rng(11)
    s, g = kernels._growth(x)
    for peak in (1.0, kernels._RESCALE_ABOVE, 1e250):
        n = kernels._chunk_width(x, peak, 1) + 2
        blocks = np.repeat(rng.uniform(-x, x, n), rng.integers(1, 50, n))[:n]
        profiles = [rng.uniform(-x, x, n), np.full(n, -x), x * (-1.0) ** np.arange(n), blocks]
        seeds = peak * np.array([[1.0, 1.0], [1.0, -1.0], [-0.5, 1.0], rng.uniform(-1.0, 1.0, 2)])
        psi = _longdouble_rows(np.repeat(profiles, len(seeds), axis=0), np.tile(seeds, (len(profiles), 1)))
        assert np.abs(psi).max() <= kernels._OVERFLOW_AT
        norm = np.maximum(np.abs(psi[1:]), np.abs(np.diff(psi, axis=0)) / s)
        steps = np.arange(n - 1)[:, None]
        assert np.all(np.log(norm / norm[0]) <= steps * math.log1p(g) + 1e-12)


def test_large_seeds_do_not_overflow():
    # Seeds near 1e250, 2^830 times those of _random_rows: the rows equal
    # the unit-seed rows up to a power of two, though the shift -200 row
    # grows about 2x a step.  Seeds past the bound raise.
    shift = np.array([0.5, -3.0, -200.0])
    g, small = _random_rows(shift)
    big = kernels.numerov_propagate_kernel(g, 0.05, 2.0**830, 1.02 * 2.0**830, shift=shift)
    assert np.all(np.isfinite(big))
    assert np.array_equal(_power_of_two_normalized(big), _power_of_two_normalized(small))
    with pytest.raises(DomainError, match="too large"):
        kernels.numerov_propagate_kernel(g, 0.05, 1e305, 1.0, shift=shift)


def test_small_sweeps_are_one_dtbtrs_call(monkeypatch, demo_well):
    # At the oracle's step ratio only the 16k-value cap limits a chunk, so
    # every sweep of up to 8 rows over the demo well's grid is one call.
    from scipy.linalg import lapack

    solves, sweeps = [], []
    dtbtrs, propagate = lapack.dtbtrs, kernels.numerov_propagate_kernel

    def counted_dtbtrs(*args, **kwargs):
        solves.append(1)
        return dtbtrs(*args, **kwargs)

    def counted_propagate(*args, **kwargs):
        before = len(solves)
        result = propagate(*args, **kwargs)
        rows = (result[0] if isinstance(result, tuple) else result).shape[:-1]
        sweeps.append((math.prod(rows), len(solves) - before))
        return result

    monkeypatch.setattr(lapack, "dtbtrs", counted_dtbtrs)
    monkeypatch.setattr(kernels, "numerov_propagate_kernel", counted_propagate)
    assert len(oracle_spectrum(demo_well)) == 3
    small = [calls for rows, calls in sweeps if rows <= 8]
    assert len(small) >= 10 and set(small) == {1}


def test_extreme_growth_row_raises_domain_error():
    # h^2 f / 12 near -2 is far past the 0.1 step bound, so the kernel
    # refuses the row at grid step 0, before any chunk width is computed.
    with pytest.raises(DomainError, match="grid step 0"):
        _random_rows(-1e4)


def _step_ratio(p, cfg):
    # h^2 max|q + f| / 12 over the grid and every scan energy q/kappa2 in [-v0, 0].
    _, h, w, _ = _grid(p, cfg)
    return h * h / 12.0 * max(np.abs(w).max(), np.abs(p.kappa2 * p.v0 + w).max())


def test_step_bound_refuses_coarse_grids_only(demo_well):
    # A step of 2 / k_max puts h^2 max|q + f| / 12 near 1/3, past the bound;
    # the default step stays 1000x inside it over the corners of the domain.
    cfg = default_config(demo_well)
    coarse = IntegratorConfig(cfg.x_max, 2.0 / math.sqrt(demo_well.kappa2 * demo_well.u0), cfg.match_point)
    assert _step_ratio(demo_well, coarse) > kernels._STEP_BOUND
    for run in (oracle_spectrum, count_via_zero_energy_nodes, lambda p, cfg: mismatch(p, -20.0, cfg)):
        with pytest.raises(DomainError, match="grid step"):
            run(demo_well, cfg=coarse)
    for v0, a, b in itertools.product((1.0, 200.0), (0.2, 20.0), (0.03, 4.0)):
        p = WellParams(v0, a, b)
        assert _step_ratio(p, default_config(p)) <= 1e-3 * kernels._STEP_BOUND, p


def test_empty_batch_returns_empty_rows():
    assert _random_rows(np.empty(0))[1].shape == (0, 400)
    assert _random_rows(np.empty(0), keep=slice(-5, None))[1].shape == (0, 5)


def test_vanishing_coefficient_raises_domain_error():
    h = 0.1
    f = np.zeros(40)
    f[7] = -1.0 / (h * h / 12.0)
    assert 1.0 + h * h / 12.0 * f[7] == 0.0
    with pytest.raises(DomainError, match="grid step 7"):
        kernels.numerov_propagate_kernel(f, h, 1.0, 1.0, shift=np.array([0.5, 0.0]))


@pytest.mark.parametrize("params", [(45.3642, 2.0, 1.0), (80.0, 2.0, 3.5)])
def test_batched_mismatch_equals_one_energy_calls(params):
    # (80, 2, 3.5) has a grid long enough for the 1e100 rescale to fire.
    p = WellParams(*params)
    _, h, w, m = _grid(p, default_config(p))
    energies = np.linspace(-0.999 * p.v0, -0.001 * p.v0, 12)
    batched = kernels.shooting_mismatch_kernel(w, h, p.kappa2, energies, m, np.array([[False], [True]]))
    single = [[kernels.shooting_mismatch_kernel(w, h, p.kappa2, e, m, odd) for e in energies] for odd in (False, True)]
    assert np.array_equal(batched, np.array(single))


def test_zero_energy_node_count(demo_well):
    assert count_via_zero_energy_nodes(demo_well) == 3


def test_config_validation(demo_well):
    shallow = IntegratorConfig(x_max=demo_well.a + 5.0 * demo_well.b, step=0.01, match_point=demo_well.a)
    with pytest.raises(DomainError):
        oracle_spectrum(demo_well, cfg=shallow)
    with pytest.raises(DomainError):
        count_via_zero_energy_nodes(demo_well, cfg=shallow)
    for grid_points in (0, 1, 199):
        with pytest.raises(DomainError):
            oracle_spectrum(demo_well, grid_points=grid_points)


def test_scan_without_bracket_returns_no_states():
    # The only state of this well lies above the scan top at -1e-6 v0, so
    # the scan brackets nothing; the exact spectrum agrees.
    p = WellParams(1e-4, 0.1, 0.1)
    assert oracle_spectrum(p) == []
    assert solve_spectrum(p).count == 0


@pytest.mark.parametrize("params, count", [
    ((5.0, 0.5, 0.05), 1), ((1.0, 0.3, 0.1), 1), ((62.9159, 1.2, 0.6), 3),
])
def test_zero_energy_count_includes_node_past_grid_end(params, count):
    # The outermost node of the E = 0 solution lies beyond x_max = a + 40b here.
    p = WellParams(*params)
    assert count_via_zero_energy_nodes(p) == solve_spectrum(p).count == count


def _assembled_nodes(w, h, kappa2, energies, m, odd):
    # Reference node check: outward and inward over the whole grid, each
    # inward row scaled to its outward value at m and spliced in beyond it.
    q = kappa2 * energies
    psi = kernels.numerov_propagate_kernel(-w, h, *kernels.outward_seed(q[:, None] - w[:4], h, odd), shift=q)
    inw = kernels.numerov_propagate_kernel(-w[::-1], h, 1.0, np.exp(np.sqrt(-q) * h), shift=q)[:, ::-1]
    for row, inrow in zip(psi, inw):
        if inrow[m] != 0.0:
            row[m + 1:] = inrow[m + 1:] * (row[m] / inrow[m])
    return (2 * kernels.count_sign_changes_kernel(psi[:, 1:], NODE_FLOOR) + odd).tolist()


# beta_n of (alpha, n) as recorded from hbs_scan(alpha, n).
_BETA_N = {(0.5, 1): 1.0653254486620105, (1.0, 2): 1.497563616384744, (2.0, 3): 1.572333229979088,
           (4.0, 3): 0.9946997359459331, (10.0, 2): 0.30846671587082597}


def _near_threshold_well(alpha, n, factor):
    return from_dimensionless(DimensionlessWell(alpha, factor * _BETA_N[alpha, n]), b=1.0)


@pytest.mark.parametrize("p", [
    WellParams(45.3642, 2.0, 1.0), WellParams(80.0, 2.0, 3.5), _near_threshold_well(2.0, 3, 1.0 + 1e-3),
], ids=["demo", "rescaled", "near-threshold"])
def test_node_check_equals_full_grid_assembly(p):
    # (80, 2, 3.5) is long enough for the 1e100 rescale to fire.  Besides
    # the levels, energies between them splice a kinked but well-defined row.
    _, h, w, m = _grid(p, default_config(p))
    states = solve_spectrum(p).states
    levels = np.array([s.energy for s in states])
    mids = 0.5 * (levels[1:] + levels[:-1])
    energies = np.concatenate((levels, mids, mids))
    odd = np.concatenate(([s.parity == ODD for s in states], np.zeros(mids.size, bool), np.ones(mids.size, bool)))
    nodes = _nodes_at(w, h, p.kappa2, energies, m, odd)
    assert nodes == _assembled_nodes(w, h, p.kappa2, energies, m, odd)
    assert nodes[:len(states)] == [s.nodes for s in states]


def _full_line_count(p):
    # Reference Sturm count: one E = 0 row over the whole line, integrated in
    # from +x_max with psi = 1, psi' = 0, plus the zero of its linear
    # asymptote when that lies past -x_max.
    cfg = default_config(p)
    n = int(math.ceil(cfg.x_max / cfg.step)) + 1
    xs, h = np.linspace(-cfg.x_max, cfg.x_max, 2 * n - 1, retstep=True)
    psi = kernels.numerov_propagate_kernel(-(p.kappa2 * potential(p, xs))[::-1], float(h), 1.0, 1.0)
    return kernels.count_sign_changes_kernel(psi, NODE_FLOOR) + int(psi[-1] * (psi[-1] - psi[-2]) < 0.0)


# The regression wells above, the rescaled well, and wells 1e-5 below and
# above beta_n, which hold n and n + 1 states.
_STURM_SAMPLE = [(WellParams(*w), c) for w, c in (
    ((5.0, 0.5, 0.05), 1), ((1.0, 0.3, 0.1), 1), ((62.9159, 1.2, 0.6), 3), ((80.0, 2.0, 3.5), 12),
)] + [(_near_threshold_well(alpha, n, 1.0 + s * 1e-5), n + (s > 0))
      for alpha, n in ((0.5, 1), (1.0, 2), (4.0, 3), (10.0, 2)) for s in (-1, 1)]


@pytest.mark.parametrize("p, count", _STURM_SAMPLE)
def test_zero_energy_count_equals_full_line_count(p, count):
    assert count_via_zero_energy_nodes(p) == _full_line_count(p) == count


def _bent_rows(shifts, n=600):
    # Each row oscillates on the first half of the grid (f = +50, 34 nodes
    # or more) and then grows by more than 1e100 on the second (f = -300),
    # where the rescale fires: its early nodes end far below its peak.
    f = np.where(np.arange(n) < n // 2, 50.0, -300.0)
    return f, kernels.numerov_propagate_kernel(f, 0.05, 1.0, 1.0, shift=shifts)


_BENT_END = _chunk_end(0.0, _bent_rows(0.0)[0], 0.05, 1)
_BENT_BATCH_END = _chunk_end(np.linspace(0.0, 20.0, 128), _bent_rows(0.0)[0], 0.05, 128)


@pytest.mark.parametrize("count", [slice(None), slice(1, None), slice(0, _BENT_END),
                                   slice(_BENT_BATCH_END - 1, _BENT_BATCH_END + 1),
                                   slice(_BENT_BATCH_END, 2 * _BENT_BATCH_END - 2),
                                   slice(_BENT_END - 1, _BENT_END + 1), slice(100, -2)])
@pytest.mark.parametrize("rows", [1, 128])
def test_in_sweep_count_equals_whole_row_count(rows, count):
    # One bent row runs in chunks of 454 columns (end at 456), one random row
    # in one chunk, 128 rows of either in chunks of 126 (ends at 128, 254,
    # ...); the slices start and end on and beside those ends.  Random rows
    # and bent rows, whose nodes lie far below their peak, are counted
    # without a floor.
    assert (_BENT_END, _BENT_BATCH_END) == (456, 128)
    shift, bend = np.linspace(40.0, -3.0, rows), np.linspace(0.0, 20.0, rows)
    g, random_rows = _random_rows(shift, n=600)
    f, bent = _bent_rows(bend)
    for profile, shifts, psi1, whole in ((g, shift, 1.02, random_rows), (f, bend, 1.0, bent)):
        _, counts = kernels.numerov_propagate_kernel(profile, 0.05, 1.0, psi1, shift=shifts, count=count)
        assert counts.tolist() == kernels.count_sign_changes_kernel(whole[:, count], 0.0).tolist()
    # a floor relative to the row's peak would lose the early nodes
    assert np.all(kernels.count_sign_changes_kernel(bent, NODE_FLOOR) < kernels.count_sign_changes_kernel(bent, 0.0))


@pytest.mark.parametrize("params", [(45.3642, 2.0, 1.0), (80.0, 2.0, 3.5)])
def test_shooting_nodes_equal_whole_row_counts(params):
    # (80, 2, 3.5) has an inward sweep long enough for the 1e100 rescale to fire.
    p = WellParams(*params)
    _, h, w, m = _grid(p, default_config(p))
    energies = np.linspace(-0.999 * p.v0, -0.001 * p.v0, 12)
    q = p.kappa2 * energies
    seed = kernels.outward_seed(q[:, None] - w[:4], h, BOTH_PARITIES)
    out = kernels.numerov_propagate_kernel(-w[:m + 3], h, *seed, shift=q)
    inw = kernels.numerov_propagate_kernel(-w[m - 2:][::-1], h, 1.0, np.exp(np.sqrt(-q) * h), shift=q)
    out_nodes = kernels.count_sign_changes_kernel(out[..., 1:m + 1].reshape(-1, m), 0.0).reshape(2, -1)
    expected = out_nodes + kernels.count_sign_changes_kernel(inw[:, :-2], 0.0)
    assert np.array_equal(kernels.shoot_kernel(w, h, p.kappa2, energies, m, BOTH_PARITIES)[2], expected)


_LATTICE_WELLS = [
    WellParams(45.3642, 2.0, 1.0), WellParams(80.0, 7.0, 0.3), WellParams(80.0, 2.0, 3.5),
    WellParams(150.0, 15.0, 0.5), WellParams(200.0, 20.0, 0.03), WellParams(20.0, 3.0, 0.3),
    WellParams(60.0, 5.0, 0.5), _near_threshold_well(1.0, 2, 1.0 + 1e-3), _near_threshold_well(2.0, 3, 1.0 + 1e-3),
]


def _lattice(p, grid_points):
    eps = 1e-6 * p.v0
    return np.linspace(-p.v0 + eps, -eps, grid_points)


@pytest.mark.parametrize("grid_points", [300, 1000])
@pytest.mark.parametrize("p, match_b", [(p, None) for p in _LATTICE_WELLS] + [(WellParams(45.3642, 2.0, 1.0), 30.0)])
def test_sturm_count_equals_uniform_scan_count(p, match_b, grid_points):
    # At every lattice energy, N_p is the number of sign changes of the
    # parity-p mismatch on the uniform scan below it: no level lies below
    # the lattice, and each cell of these wells holds at most one level of
    # a parity.  Matched at a + 30b, the demo well's outward branch grows by
    # about 1e16 past its nodes, so a floor relative to a row's peak would
    # lose them.
    cfg = default_config(p)
    if match_b is not None:
        cfg = IntegratorConfig(cfg.x_max, cfg.step, p.a + match_b * p.b)
    _, h, w, m = _grid(p, cfg)
    vals, counts = kernels.sturm_count_kernel(w, h, p.kappa2, _lattice(p, grid_points), m, BOTH_PARITIES)
    flips = np.sign(vals[:, 1:]) * np.sign(vals[:, :-1]) < 0.0
    assert np.array_equal(counts, np.concatenate((np.zeros((2, 1), int), np.cumsum(flips, axis=1)), axis=1))


def _uniform_scan_spectrum(p, grid_points, tol_e=1e-9):
    # Reference oracle: the uniform mismatch scan of both parities, its
    # sign-change brackets refined by the lockstep Illinois solver, and the
    # whole-grid node check.
    _, h, w, m = _grid(p, default_config(p))
    energies = _lattice(p, grid_points)
    vals = kernels.shooting_mismatch_kernel(w, h, p.kappa2, energies, m, BOTH_PARITIES)
    lo, hi, flo, fhi, odd = sign_change_brackets(energies, vals)
    found = refine_brackets(
        lambda e, k: kernels.shooting_mismatch_kernel(w, h, p.kappa2, e, m, odd[k]), lo, hi, flo, fhi, tol_e
    )
    nodes = _assembled_nodes(w, h, p.kappa2, found, m, odd)
    states = [OracleState(e, PARITY[o], n) for e, o, n in zip(found, odd.tolist(), nodes)]
    return sorted(states, key=lambda s: s.energy)


@pytest.mark.parametrize("p", [WellParams(45.3642, 2.0, 1.0), WellParams(80.0, 7.0, 0.3), WellParams(80.0, 2.0, 3.5),
                               _near_threshold_well(2.0, 3, 1.0 + 1e-3)])
def test_oracle_spectrum_equals_uniform_scan(p):
    # Sturm brackets are the lattice cells the uniform scan brackets, with
    # the same end values, so the refined states are the same bit for bit.
    assert oracle_spectrum(p, grid_points=300) == _uniform_scan_spectrum(p, 300)


@pytest.mark.parametrize("grid_points", [200, 300])
def test_two_levels_in_one_lattice_cell(grid_points):
    # At 200 and 300 points a lattice cell of this well holds two levels of
    # one parity; that cell is bisected in E until each level has its own.
    p = WellParams(200.0, 30.0, 0.2)
    states = oracle_spectrum(p, grid_points=grid_points)
    ref = oracle_spectrum(p, grid_points=1000)
    assert len(ref) == 60
    assert [(s.parity, s.nodes) for s in states] == [(s.parity, s.nodes) for s in ref]
    assert max(abs(s.energy - r.energy) for s, r in zip(states, ref)) <= 1e-9


@pytest.mark.parametrize("field, value", [
    ("step", 0.0), ("step", -0.01), ("step", math.nan), ("x_max", math.inf),
    ("match_point", -5.0), ("match_point", 80.0),
], ids=["step-zero", "step-negative", "step-nan", "x_max-inf", "match_point-below", "match_point-beyond"])
def test_unusable_config_raises_domain_error(demo_well, field, value):
    fields = {"x_max": 50.0, "step": 0.01, "match_point": demo_well.a, field: value}
    cfg = IntegratorConfig(**fields)
    for run in (oracle_spectrum, count_via_zero_energy_nodes, lambda p, cfg: mismatch(p, -20.0, cfg)):
        with pytest.raises(DomainError, match=field):
            run(demo_well, cfg=cfg)


def test_oversized_grid_raises_before_allocating(monkeypatch, demo_well):
    # The default grid at v0 = 1e12 MeV would hold 5.3e8 points; a grid of
    # MAX_GRID_POINTS points is built and one point more is refused.
    def fail(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    n = _grid(demo_well, default_config(demo_well))[0].size
    with monkeypatch.context() as m:
        m.setattr(oracle.np, "linspace", fail)
        for run in (oracle_spectrum, count_via_zero_energy_nodes, lambda p: mismatch(p, -1.0)):
            with pytest.raises(DomainError, match="exceeds 100000000 points"):
                run(WellParams(1e12, 1.0, 1.0))
        m.setattr(oracle, "MAX_GRID_POINTS", n - 1)
        with pytest.raises(DomainError, match=f"exceeds {n - 1} points"):
            count_via_zero_energy_nodes(demo_well)
    monkeypatch.setattr(oracle, "MAX_GRID_POINTS", n)
    assert count_via_zero_energy_nodes(demo_well) == 3


def _outward_asymptote_count(p, cfg):
    # Reference count of the E = 0 parity solutions: their nodes on (0, x_max]
    # from one outward sweep, plus the zero of their linear asymptote where
    # it lies past x_max.
    _, h, w, _ = _grid(p, cfg)
    ends, nodes = kernels.numerov_propagate_kernel(-w, h, *kernels.outward_seed(-w[:4], h, BOTH_PARITIES[:, 0]),
                                                   keep=slice(-2, None), count=slice(1, None))
    return int(np.sum(nodes + (ends[:, 1] * (ends[:, 1] - ends[:, 0]) < 0.0)))


# beta_n of (alpha, n) from hbs_scan(alpha, 4).
_THRESHOLD_BETA_N = {
    (1.0, 1): 0.8773641331027051, (1.0, 2): 1.497563621524164, (1.0, 3): 2.140241563055853,
    (1.0, 4): 2.7494640210424226, (4.0, 1): 0.3697507619809365, (4.0, 2): 0.6905025618158611,
    (4.0, 3): 0.9946997124056991, (4.0, 4): 1.2913208794580406,
}


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("alpha, n", list(_THRESHOLD_BETA_N))
def test_zero_energy_sturm_count_at_threshold(alpha, n, sign):
    # 1e-4 below beta_n the well holds n states, 1e-4 above it n + 1, the
    # last barely bound.  The count does not depend on the match point:
    # a - 2b (the origin where alpha < 2), a and a + 5b.
    p = from_dimensionless(DimensionlessWell(alpha, (1.0 + sign * 1e-4) * _THRESHOLD_BETA_N[alpha, n]), b=1.0)
    cfg = default_config(p)
    for match_point in (max(p.a - 2.0 * p.b, 0.0), p.a, p.a + 5.0 * p.b):
        shifted = IntegratorConfig(cfg.x_max, cfg.step, match_point)
        assert count_via_zero_energy_nodes(p, shifted) == _outward_asymptote_count(p, shifted) == n + (sign > 0)


def test_misplaced_parity_is_a_bracket_collision(monkeypatch, demo_well):
    # The Sturm brackets list the even levels E0, E2 first, then the odd E1.
    # E0 and E1 swapped: once ordered, the ground state is odd.
    refine = oracle.refine_brackets

    def swapped(*args):
        return refine(*args)[[2, 1, 0]]

    monkeypatch.setattr(oracle, "refine_brackets", swapped)
    with pytest.raises(BracketCollisionError,
                       match=r"^state 0 has parity odd, expected even; a root was likely missed$"):
        oracle_spectrum(demo_well, grid_points=300)


def test_node_miscount_is_a_labeling_error(monkeypatch, demo_well):
    monkeypatch.setattr(oracle, "_nodes_at", lambda *args: [n + 1 for n in _nodes_at(*args)])
    with pytest.raises(LabelingError, match=r"^state 0 \(even, E=-33\.75\d+\) has 1 nodes; labeling is inconsistent$"):
        oracle_spectrum(demo_well, grid_points=300)
