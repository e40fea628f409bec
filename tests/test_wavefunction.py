import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import expit

from fermiwell import (DEFAULT_KAPPA2, DimensionlessWell, WellParams, count_nodes, from_dimensionless, hbs_scan,
                       map_y, psi, psi_hbs, shape_params, solve_spectrum)
from fermiwell import kernels, special, wavefunction
from fermiwell.core import ODD
from fermiwell.errors import ConvergenceError, DegenerateParameterError, DomainError
from fermiwell.wavefunction import NODE_CELLS_PER_HALF_WAVE, NODE_FLOOR
from fermiwell.tables import DEMO_EXACT_LEVELS, DEMO_WELL, HBS_ROWS


@pytest.fixture(scope="module")
def well():
    return WellParams(45.3642, 2.0, 1.0)


def test_map_y_range_and_midpoint(well):
    assert map_y(well, well.a) == pytest.approx(0.5, abs=1e-15)
    assert 0.0 < map_y(well, 30.0) < map_y(well, 0.0) < 1.0
    assert map_y(well, -1.3) == map_y(well, 1.3)


def test_shape_params_exponents(well):
    e = -16.2221
    sp = shape_params(well, e)
    assert sp.nu == pytest.approx(well.b * math.sqrt(-well.kappa2 * e), rel=1e-14)
    assert sp.mu.real == 0.0
    assert sp.mu.imag == pytest.approx(well.b * math.sqrt(well.kappa2 * (e + well.u0)), rel=1e-14)


def test_shape_params_rejects_out_of_window(well):
    with pytest.raises(DomainError):
        shape_params(well, 0.0)
    with pytest.raises(DomainError):
        shape_params(well, -well.v0)


def test_decay_at_large_x(well):
    e = DEMO_EXACT_LEVELS[0]
    near = abs(psi(well, e, 8.0).psi)
    far = abs(psi(well, e, 14.0).psi)
    k = math.sqrt(-well.kappa2 * e)
    assert far < near
    assert far / near == pytest.approx(math.exp(-6.0 * k), rel=1e-2)


def test_odd_level_vanishes_at_origin(well):
    # The middle level has one node, hence odd parity: psi(0) = 0.
    sample = psi(well, DEMO_EXACT_LEVELS[1], 0.0)
    scale = abs(psi(well, DEMO_EXACT_LEVELS[1], well.a).psi)
    assert abs(sample.psi) <= 1e-4 * scale


def test_even_level_has_flat_origin(well):
    sample = psi(well, DEMO_EXACT_LEVELS[0], 0.0)
    assert abs(sample.dpsi_dx) <= 1e-4 * abs(sample.psi)


def test_derivative_matches_finite_difference(well):
    step = 1e-5 * well.b
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = rng.uniform(-well.v0 * 0.95, -well.v0 * 0.02)
        x = rng.uniform(0.2, well.a + 4.0)
        fd = (psi(well, e, x + step).psi - psi(well, e, x - step).psi) / (2.0 * step)
        got = psi(well, e, x).dpsi_dx
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-5 * abs(fd) + 1e-12)


def test_psi_even_in_x(well):
    e = DEMO_EXACT_LEVELS[2]
    for x in (0.5, 1.9, 3.3):
        left, right = psi(well, e, -x), psi(well, e, x)
        assert left.psi == pytest.approx(right.psi, rel=1e-14)
        assert left.dpsi_dx == pytest.approx(-right.dpsi_dx, rel=1e-14)


def test_hbs_tends_to_unit_plateau():
    d = DimensionlessWell(alpha=4.0, beta=0.9947)
    assert psi_hbs(d, 25.0).psi == pytest.approx(1.0, abs=1e-8)


def test_hbs_critical_root_and_single_node():
    d = DimensionlessWell(alpha=4.0, beta=0.3697)
    assert abs(psi_hbs(d, 0.0).psi) <= 1e-3
    _, vals = wavefunction.sample_hbs(d.alpha, d.beta, odd=True)
    assert count_nodes(vals) == 1


def test_hbs_two_evaluation_forms_agree():
    # Pfaff image: (1-y)^(i beta) 2F1(i beta, i beta+1; 1; y) equals
    # 2F1(i beta, -i beta; 1; y/(y-1)), manifestly real.  The right side is
    # evaluated by the raw series on the (negative) mapped argument, an
    # independent code path from the wrapper's own transformations.
    from fermiwell import kernels, special

    beta = 1.1000
    alpha = 2.0
    for x in (1.2, 2.0, 2.8, 4.0):
        y = float(1.0 / (1.0 + math.exp(x - alpha)))
        u = y / (y - 1.0)
        if abs(u) > 0.95:
            continue
        direct = psi_hbs(DimensionlessWell(alpha, beta), x).psi
        mu = complex(0.0, beta)
        alt = kernels.hyp2f1_series_kernel(
            mu, -mu, complex(1.0, 0.0), u, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS
        )
        assert direct == pytest.approx(alt.real, rel=1e-9, abs=1e-9)


def test_node_counts_label_demo_levels(well):
    for idx, e in enumerate(DEMO_EXACT_LEVELS):
        _, vals = wavefunction.sample_bound_state(well, e, odd=idx % 2 == 1)
        assert count_nodes(vals) == idx


def test_batched_bound_samples_match_one_state_calls(well):
    energies = np.array(DEMO_EXACT_LEVELS)
    odd = np.arange(energies.size) % 2 == 1
    xs, rows = wavefunction.sample_bound_state(well, energies, odd, half_points=501)
    assert rows.shape == (energies.size, xs.size)
    for e, o, row in zip(energies.tolist(), odd.tolist(), rows):
        x1, vals = wavefunction.sample_bound_state(well, e, o, half_points=501)
        assert np.array_equal(xs, x1)
        assert np.array_equal(row, vals)
    with pytest.raises(DomainError):
        wavefunction.sample_bound_state(well, np.array([-1.0, 0.0]), np.array([False, True]))


def test_batched_hbs_samples_match_one_well_calls():
    betas = np.array([0.3697, 0.9947, 1.6])
    odd = np.array([True, False, True])
    xs, rows = wavefunction.sample_hbs(4.0, betas, odd, half_points=501)
    assert rows.shape == (betas.size, xs.size)
    for beta, o, row in zip(betas.tolist(), odd.tolist(), rows):
        x1, vals = wavefunction.sample_hbs(4.0, beta, o, half_points=501)
        assert np.array_equal(xs, x1)
        assert np.array_equal(row, vals)


def test_explicit_half_points_are_kept(well):
    xs, rows = wavefunction.sample_bound_state(well, np.array(DEMO_EXACT_LEVELS), np.array([False, True, False]),
                                               half_points=501)
    assert xs.size == rows.shape[1] == 2 * 501 - 1
    xs, rows = wavefunction.sample_hbs(4.0, 0.3697, True, half_points=501)
    assert xs.size == rows.size == 2 * 501 - 1


DENSE_HALF_POINTS = 20001


@pytest.fixture(scope="module")
def node_sample():
    """Recorded states of the node-grid sizing checks, as (name, sample, k_max, span, labels).

    ``sample(half_points=...)`` samples every state of one well (or every
    HBS root of one alpha) at once, None giving the default grid; k_max is
    the largest mu_im / b and span the default half-line length, both in the
    sampler's length unit (fm, or b for HBS).
    """
    wells = [("demo", WellParams(*DEMO_WELL)), ("150,15,0.5", WellParams(150.0, 15.0, 0.5)),
             ("80,7,0.3", WellParams(80.0, 7.0, 0.3))]
    for alpha, n in ((1.0, 2), (4.0, 8)):
        beta_n = HBS_ROWS[alpha][n - 1][1]
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            d = DimensionlessWell(alpha, beta_n * factor)
            wells.append((f"beta_{n}({alpha:g})x{factor:g}", from_dimensionless(d, b=1.0, kappa2=DEFAULT_KAPPA2)))
    cases = []
    for name, p in wells:
        states = solve_spectrum(p).states
        energies = np.array([s.energy for s in states])
        odd = np.array([s.parity == ODD for s in states])
        k_max = float(np.max(wavefunction.bound_exponents(p, energies)[1])) / p.b
        cases.append((name, functools.partial(wavefunction.sample_bound_state, p, energies, odd), k_max,
                      p.a + 12.0 * p.b, np.arange(len(states))))
    for alpha, n in ((0.05, 12), (2.0, 16), (200.0, 3)):
        roots = np.array([s.beta_n for s in hbs_scan(alpha, n)])
        labels = np.arange(1, n + 1)
        cases.append((f"hbs({alpha:g},{n})", functools.partial(wavefunction.sample_hbs, alpha, roots, labels % 2 == 1),
                      float(roots.max()), alpha + 12.0, labels))
    return cases


def test_sized_node_grid_counts_match_dense_grid(node_sample):
    # The default grid is sized from the Sturm zero-spacing bound; its counts
    # must be the state labels and equal those of a 20001-point grid.
    for name, sample, _, _, labels in node_sample:
        counts = count_nodes(sample(half_points=None)[1])
        assert counts.tolist() == labels.tolist(), name
        assert count_nodes(sample(half_points=DENSE_HALF_POINTS)[1]).tolist() == counts.tolist(), name


def test_sized_node_grid_spacing_meets_sturm_bound(node_sample):
    for name, sample, k_max, span, _ in node_sample:
        xs = sample(half_points=None)[0]
        assert xs[-1] == pytest.approx(span, rel=1e-15), name
        # At most pi b / (8 max mu_im) apart, and one cell fewer would not be.
        half_cells = xs.size // 2
        assert np.max(np.diff(xs)) * k_max <= math.pi / NODE_CELLS_PER_HALF_WAVE * (1.0 + 1e-12), name
        assert span / (half_cells - 1) * k_max > math.pi / NODE_CELLS_PER_HALF_WAVE, name


def test_sparse_node_grid_miscounts(node_sample):
    # At 1/16 of the default density (half a point per shortest half wave)
    # the sign-change count is no longer exact: the comparison above can fail.
    deep = [case for case in node_sample if case[0] in ("150,15,0.5", "80,7,0.3")]
    assert len(deep) == 2
    assert any(
        count_nodes(sample(half_points=math.ceil(NODE_CELLS_PER_HALF_WAVE / 16 * k_max * span / math.pi) + 1)[1])
        .tolist() != labels.tolist()
        for _, sample, k_max, span, labels in deep
    )


def test_count_nodes_ignores_subfloor_wiggle():
    # The +-1e-15 wiggle sits below the relative floor; a naive sign count
    # would report 3 crossings, the floored count reports the single real one.
    vals = np.array([1.0, 1e-15, -1e-15, 1.0, -1.0])
    assert count_nodes(vals) == 1


def _sign_changes_loop(vals, rel_floor):
    """Element-by-element reference for the vectorized sign-change count."""
    floor = rel_floor * max((abs(v) for v in vals), default=0.0)
    count, prev = 0, 0.0
    for v in vals:
        if abs(v) <= floor:
            continue
        if prev != 0.0 and (v > 0.0) != (prev > 0.0):
            count += 1
        prev = v
    return count


@pytest.mark.parametrize("vals, expected", [
    ([1.0, 0.0, -1.0, 0.0, 0.0, 2.0], 2),           # exact zeros at the nodes
    ([1.0, 1e-13, -1e-13, 0.5, -1e-13, 0.5], 0),    # entries below the floor
    ([0.3, 1.0, 2.0, 1e-20, 5.0], 0),               # all positive
    ([0.0, 0.0, 0.0], 0),
    ([], 0),
])
def test_count_sign_changes_cases(vals, expected):
    from fermiwell import kernels

    assert kernels.count_sign_changes_kernel(np.array(vals, dtype=float), NODE_FLOOR) == expected
    assert _sign_changes_loop(vals, NODE_FLOOR) == expected


def test_count_sign_changes_matches_loop():
    from fermiwell import kernels

    rng = np.random.default_rng(41)
    for _ in range(50):
        vals = rng.normal(size=200) * np.exp(rng.uniform(-40.0, 0.0, 200))
        vals[rng.integers(0, 200, 10)] = 0.0
        assert kernels.count_sign_changes_kernel(vals, NODE_FLOOR) == _sign_changes_loop(vals, NODE_FLOOR)


def test_count_sign_changes_per_row():
    # Each row is counted against its own peak: the small-scale row keeps
    # its sign changes although it lies below the floor of the large one,
    # and no change is counted across the boundary between rows.
    from fermiwell import kernels

    rng = np.random.default_rng(43)
    rows = rng.normal(size=(6, 200)) * np.exp(rng.uniform(-40.0, 0.0, (6, 200)))
    rows[1] *= 1e-30
    rows[2] = 0.0
    rows[3, -1], rows[4, 0] = 1.0, -1.0
    counts = kernels.count_sign_changes_kernel(rows, NODE_FLOOR)
    assert counts.tolist() == [_sign_changes_loop(row, NODE_FLOOR) for row in rows]
    assert count_nodes(rows).tolist() == counts.tolist()
    assert kernels.count_sign_changes_kernel(np.zeros((0, 5)), NODE_FLOOR).size == 0


def _bracket_args(sample, xs):
    """(nu, mu_im, t) of a node_sample sampler's states at half-line positions xs."""
    if sample.func is wavefunction.sample_bound_state:
        p, energies, _ = sample.args
        return (*wavefunction.bound_exponents(p, energies), (xs - p.a) / p.b)
    alpha, roots, _ = sample.args
    return np.zeros_like(roots), roots, xs - alpha


def _row_args(t, max_terms=special.DEFAULT_MAX_TERMS):
    return expit(-t), expit(t), special.DEFAULT_TOL, max_terms, special.Z_SWITCH


def _rows_and_points(nu, mu_im, t):
    """Row kernel and point-by-point bracket over the grid t, one row per state."""
    rows = kernels.bound_bracket_rows(nu, mu_im, *_row_args(t))
    points = kernels.bound_bracket_batch(np.expand_dims(nu, -1), np.expand_dims(mu_im, -1), *_row_args(t), False)[0]
    return rows, points


def _peak_error(rows, ref):
    return np.abs(rows - ref).max(axis=-1) / np.abs(ref).max(axis=-1)


def test_row_kernel_matches_point_bracket_on_node_samples(node_sample):
    # Up to mu_im = 6 the rows agree with the point-by-point bracket to 1e-12
    # of each row's peak; the HBS rows at beta 7.5 to 10.9 lose digits in
    # both (see the mpmath check below), but count the same nodes.
    for name, sample, _, _, _ in node_sample:
        xs, rows = sample(half_points=None)
        half = xs >= 0.0
        nu, mu_im, t = _bracket_args(sample, xs[half])
        kernel_rows, points = _rows_and_points(nu, mu_im, t)
        assert np.array_equal(kernel_rows, rows[:, half]), name
        err = _peak_error(kernel_rows, points)
        assert np.all(err[mu_im <= 6.0] <= 1e-12), name
        assert count_nodes(kernel_rows).tolist() == count_nodes(points).tolist(), name


@pytest.mark.parametrize("t_lo, t_hi, direct", [(0.0, 12.0, True), (-12.0, -1.0, False), (-8.0, 8.0, None)])
def test_row_kernel_matches_point_bracket_per_branch(t_lo, t_hi, direct):
    # y = expit(-t) <= Z_SWITCH = 0.7 exactly where t >= -0.847: all direct,
    # all connection, or both branches on one grid.
    rng = np.random.default_rng(53)
    t = np.linspace(t_lo, t_hi, 301)
    if direct is not None:
        assert np.all((expit(-t) <= special.Z_SWITCH) == direct)
    nu, mu_im = rng.uniform(0.0, 3.0, 12), rng.uniform(0.05, 5.0, 12)
    rows, points = _rows_and_points(nu, mu_im, t)
    assert rows.shape == (12, t.size)
    assert np.all(_peak_error(rows, points) <= 1e-12)
    one, _ = _rows_and_points(nu[3], mu_im[3], t)
    assert one.shape == t.shape and np.array_equal(one, rows[3])


def test_row_kernel_takes_zero_states():
    t = np.linspace(-5.0, 5.0, 11)
    assert kernels.bound_bracket_rows(np.zeros(0), np.zeros(0), *_row_args(t)).shape == (0, t.size)


@pytest.mark.parametrize("t", [np.linspace(0.0, 3.0, 7), np.linspace(-3.0, -1.0, 7)])
def test_row_kernel_raises_at_the_term_cap(t):
    with pytest.raises(ConvergenceError):
        kernels.bound_bracket_rows(np.array([0.5, 1.0]), np.array([2.0, 3.0]), *_row_args(t, max_terms=3))
    assert kernels.bound_bracket_rows(np.array([0.5, 1.0]), np.array([2.0, 3.0]), *_row_args(t)).shape == (2, 7)


def test_row_kernel_raises_where_the_connection_formula_degenerates():
    # beta -> 0: c - a - b = -2i beta is within 1e-8 of 0 on the connection
    # branch (|x| < alpha - 0.85 b).
    with pytest.raises(DegenerateParameterError):
        wavefunction.sample_hbs(4.0, 1e-10, True)
    with pytest.raises(DegenerateParameterError):
        wavefunction.sample_hbs(4.0, np.array([0.3697, 1e-10]), np.array([True, False]))


# Worst error of the point-by-point rows against 40-digit mpmath, relative
# to each row's peak, at three frontier wells (alpha, beta), b = 1 fm.
POINT_ROW_ERRORS = {(0.5, 12.0): 5.6e-9, (1.0, 12.0): 5.6e-8, (10.0, 14.0): 3.4e-6}


@pytest.mark.parametrize("alpha, beta", list(POINT_ROW_ERRORS))
def test_rows_at_large_beta_match_mpmath(alpha, beta):
    # Digits are lost to cancellation in the series at large beta; the rows
    # stay within 10x of the point-by-point rows' recorded error.
    p = from_dimensionless(DimensionlessWell(alpha, beta), b=1.0)
    states = solve_spectrum(p).states
    energies = np.array([s.energy for s in states])
    xs, rows = wavefunction.sample_bound_state(p, energies, np.array([s.parity == ODD for s in states]))
    half = np.flatnonzero(xs >= 0.0)
    cols = half[::max(1, half.size // 24)]
    with mpmath.workdps(40):
        kappa2, a, b = mpmath.mpf(p.kappa2), mpmath.mpf(p.a), mpmath.mpf(p.b)
        u0 = mpmath.mpf(p.v0) * (1 + mpmath.exp(-a / b))
        for k in range(0, len(states), max(1, len(states) // 4)):
            e = mpmath.mpf(energies[k])
            nu, mu = b * mpmath.sqrt(-kappa2 * e), 1j * b * mpmath.sqrt(kappa2 * (e + u0))
            ref = []
            for x in xs[cols].tolist():
                y = 1 / (1 + mpmath.exp((x - a) / b))
                ref.append(float(mpmath.re(y**nu * (1 - y)**mu * mpmath.hyp2f1(nu + mu, nu + mu + 1, 2 * nu + 1, y))))
            err = np.abs(rows[k, cols] - ref).max() / np.abs(rows[k]).max()
            assert err <= 10.0 * POINT_ROW_ERRORS[alpha, beta], k
