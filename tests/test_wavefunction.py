import math

import numpy as np
import pytest

from fermiwell import DimensionlessWell, WellParams, count_nodes, map_y, psi, psi_hbs, shape_params
from fermiwell import wavefunction
from fermiwell.errors import DomainError
from fermiwell.wavefunction import NODE_FLOOR
from fermiwell.tables import DEMO_EXACT_LEVELS


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
    _, vals = wavefunction.sample_hbs(d, odd=True)
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
        alt, status = kernels.hyp2f1_series_kernel(
            mu, -mu, complex(1.0, 0.0), u, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS
        )
        assert status == 0
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
    wells = [DimensionlessWell(4.0, beta) for beta in (0.3697, 0.9947, 1.6)]
    odd = np.array([True, False, True])
    xs, rows = wavefunction.sample_hbs(wells, odd, half_points=501)
    assert rows.shape == (len(wells), xs.size)
    for d, o, row in zip(wells, odd.tolist(), rows):
        x1, vals = wavefunction.sample_hbs(d, o, half_points=501)
        assert np.array_equal(xs, x1)
        assert np.array_equal(row, vals)
    with pytest.raises(DomainError):
        wavefunction.sample_hbs([DimensionlessWell(4.0, 1.0), DimensionlessWell(2.0, 1.0)], odd[:2])


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
