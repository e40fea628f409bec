import math

import numpy as np
import pytest

from fermiwell import (DimensionlessWell, WellParams, count_states, f_action, matching_function,
                       solve_spectrum, spectrum)
from fermiwell.core import from_dimensionless
from fermiwell.oracle import count_via_zero_energy_nodes
from fermiwell.errors import BracketCollisionError, DomainError, FermiwellError, LabelingError
from fermiwell.tables import (DEMO_EXACT_LEVELS, DEMO_WELL, G_COUNT_ROWS, HBS_ROWS, NUCLEAR_B, NUCLEAR_R0,
                              NUCLEAR_ROWS, NUCLEAR_V0)

# Sharp, deep, wide and very diffuse wells; on the sharp ones F(E) is far
# from linear in E.
ACTION_GRID_WELLS = [DEMO_WELL, (150.0, 15.0, 0.5), (200.0, 20.0, 0.03), (200.0, 7.9, 0.03), (10.0, 1.0, 5.0)]


def test_demo_well_levels_parities_nodes(demo_report):
    assert demo_report.count == 3
    for state, e_ref in zip(demo_report.states, DEMO_EXACT_LEVELS):
        assert state.energy == pytest.approx(e_ref, abs=1e-3)
    assert [s.parity for s in demo_report.states] == ["even", "odd", "even"]
    assert [s.nodes for s in demo_report.states] == [0, 1, 2]
    assert not any(s.near_threshold for s in demo_report.states)


def test_matching_function_vanishes_at_eigenvalues(demo_well):
    # Index 1 is odd, so the odd condition psi(0)=0 holds there; the even
    # condition holds at indices 0 and 2.
    scale = abs(matching_function(demo_well, -20.0, "odd"))
    assert abs(matching_function(demo_well, DEMO_EXACT_LEVELS[1], "odd")) < 1e-4 * scale
    scale = abs(matching_function(demo_well, -20.0, "even"))
    assert abs(matching_function(demo_well, DEMO_EXACT_LEVELS[0], "even")) < 1e-4 * scale


def test_matching_function_rejects_bad_parity(demo_well):
    for parity in ("mixed", "ODD", "Even", ""):
        with pytest.raises(DomainError):
            matching_function(demo_well, -10.0, parity)


def test_report_count_is_the_number_of_states(demo_report):
    assert demo_report.count == len(demo_report.states)
    with pytest.raises(TypeError):
        spectrum.SpectrumReport(demo_report.params, demo_report.states, demo_report.g_value, count=99)


def test_energies_strictly_ordered(demo_report):
    energies = [s.energy for s in demo_report.states]
    assert energies == sorted(energies)
    assert all(-demo_report.params.v0 < e < 0.0 for e in energies)


def test_g_value_brackets_count(random_wells):
    for p in random_wells[:12]:
        rep = solve_spectrum(p)
        lo = int(np.floor(rep.g_value))
        assert rep.count in (lo, lo + 1)


def test_nuclear_s_wave_count_brackets_half_g():
    # The odd-parity (s-wave) levels of every nucleus from A = 16 to 240
    # number floor(G/2) or floor(G/2) + 1.
    for mass in range(16, 241):
        rep = solve_spectrum(WellParams(NUCLEAR_V0, NUCLEAR_R0 * mass ** (1.0 / 3.0), NUCLEAR_B))
        lo = math.floor(rep.g_value / 2.0)
        assert sum(s.parity == "odd" for s in rep.states) in (lo, lo + 1), mass


def test_count_states_shortcut(demo_well):
    assert count_states(demo_well) == 3


def _uniform_scan(monkeypatch, p, points):
    # The same solver on ``points`` energies spread evenly over the action
    # grid's window, as the spectrum was scanned before the action grid.
    grid = spectrum._action_grid(p)
    with monkeypatch.context() as m:
        m.setattr(spectrum, "_action_grid", lambda _: np.linspace(grid[0], grid[-1], points))
        return solve_spectrum(p)


def _assert_same_states(r1, r2, tol_e):
    assert [(s.parity, s.nodes, s.near_threshold) for s in r1.states] == \
        [(s.parity, s.nodes, s.near_threshold) for s in r2.states]
    for s1, s2 in zip(r1.states, r2.states):
        assert s1.energy == pytest.approx(s2.energy, abs=tol_e)


def test_grid_refinement_stable(monkeypatch, demo_well):
    action = solve_spectrum(demo_well)
    for points in (500, 4000):
        _assert_same_states(_uniform_scan(monkeypatch, demo_well, points), action, 1e-8)


def test_tol_refinement(demo_well):
    loose = solve_spectrum(demo_well, tol_e=1e-4)
    tight = solve_spectrum(demo_well, tol_e=1e-10)
    for s1, s2 in zip(loose.states, tight.states):
        assert s1.energy == pytest.approx(s2.energy, abs=2e-4)


def test_invalid_arguments(demo_well):
    with pytest.raises(DomainError):
        solve_spectrum(demo_well, tol_e=0.0)


def test_shallow_well_single_state():
    p = WellParams(0.35, 1.0, 0.5)
    rep = solve_spectrum(p)
    assert rep.count == 1
    assert rep.states[0].parity == "even"


def test_deep_edge_well_is_stable():
    # alpha = a/b ~ 47: 1 - y0 underflows in naive arithmetic; the solver
    # must still deliver a verified spectrum.
    p = WellParams(30.6, 4.9, 0.105)
    rep = solve_spectrum(p)
    lo = int(np.floor(rep.g_value))
    assert rep.count in (lo, lo + 1)
    assert [s.nodes for s in rep.states] == list(range(rep.count))


@pytest.mark.parametrize("well", ACTION_GRID_WELLS)
def test_action_grid_steps_by_action_step(well):
    p = WellParams(*well)
    grid = spectrum._action_grid(p)
    assert (grid[0], grid[-1]) == (-p.v0 + 1e-6 * p.v0, -1e-6 * p.v0)
    assert np.all(np.diff(grid) > 0.0)
    f = np.array([f_action(p, e) for e in grid])
    assert np.diff(f).max() <= spectrum.ACTION_STEP + 1e-6
    assert grid.size == math.ceil(f[-1] / spectrum.ACTION_STEP) - math.floor(f[0] / spectrum.ACTION_STEP) + 1


@pytest.mark.parametrize("well, bad_grid", [
    # Two points bracket at most one root per condition.
    (DEMO_WELL, lambda grid, top: grid[[0, -1]]),
    ((150.0, 15.0, 0.5), lambda grid, top: grid[[0, -1]]),
    # The top level is lost and the rest verify: only the count check sees it.
    (DEMO_WELL, lambda grid, top: grid[grid < top]),
])
def test_scan_missing_a_root_raises(monkeypatch, well, bad_grid):
    p = WellParams(*well)
    grid = bad_grid(spectrum._action_grid(p), solve_spectrum(p).states[-1].energy)
    monkeypatch.setattr(spectrum, "_action_grid", lambda _: grid)
    with pytest.raises(BracketCollisionError):
        solve_spectrum(p)


def test_action_grid_matches_uniform_scan(monkeypatch):
    # The G table, the three nuclei and the wells at 0.99, 1 and 1.01 of the
    # published critical betas, where a level sits near or at threshold.
    wells = [WellParams(v0, a, b) for _, a, b, v0, _ in G_COUNT_ROWS]
    wells += [WellParams(NUCLEAR_V0, NUCLEAR_R0 * mass ** (1.0 / 3.0), NUCLEAR_B)
              for _, mass, _, _ in NUCLEAR_ROWS]
    wells += [from_dimensionless(DimensionlessWell(alpha, beta * f), b=1.0)
              for alpha, entries in HBS_ROWS.items() for _, beta, _ in entries for f in (0.99, 1.0, 1.01)]
    for p in wells:
        _assert_same_states(solve_spectrum(p), _uniform_scan(monkeypatch, p, 2000), 1e-8)


@pytest.mark.parametrize("alpha, beta", [(4.0, 20.0), (2.0, 25.0)])
def test_digit_loss_is_a_labeling_error(alpha, beta):
    # The 2F1 series loses digits at large beta; node sampling then miscounts.
    with pytest.raises(LabelingError):
        solve_spectrum(from_dimensionless(DimensionlessWell(alpha, beta), b=1.0))


def test_frontier_well_labels_every_state():
    # At (1, 20), G = 32.5, the node check counts every one of the levels the
    # zero-energy Sturm count finds.
    p = from_dimensionless(DimensionlessWell(1.0, 20.0), b=1.0)
    report = solve_spectrum(p)
    assert report.count == count_via_zero_energy_nodes(p) == 32
    assert [s.nodes for s in report.states] == list(range(32))


def test_digit_loss_residual_error_is_numerical():
    with pytest.raises(FermiwellError, match="imaginary residual") as info:
        solve_spectrum(from_dimensionless(DimensionlessWell(0.5, 16.0), b=1.0))
    assert info.value.exit_code == 3


def test_underflowing_well_raises_domain_error():
    # a/b = 800: v0 e^-alpha underflows, so neither F nor the matching
    # conditions can be formed.
    with pytest.raises(DomainError, match="underflows"):
        solve_spectrum(WellParams(50.0, 8.0, 0.01))


def test_misplaced_parity_is_a_bracket_collision(monkeypatch, demo_well):
    # The refined roots come in grid order, E0 (even) then E1 (odd); swapped,
    # the ground state is odd once they are ordered again.
    bisect = spectrum._bisect

    def swapped(*args):
        return bisect(*args)[[1, 0, 2]]

    monkeypatch.setattr(spectrum, "_bisect", swapped)
    with pytest.raises(BracketCollisionError,
                       match=r"^state 0 has parity odd, expected even; a root was likely missed$"):
        solve_spectrum(demo_well)


def test_node_miscount_is_a_labeling_error(monkeypatch, demo_well):
    count_nodes = spectrum.wavefunction.count_nodes
    monkeypatch.setattr(spectrum.wavefunction, "count_nodes", lambda vals: count_nodes(vals) + 1)
    with pytest.raises(LabelingError, match=r"^state 0 \(even, E=-33\.755\d+\) has 1 nodes; labeling is inconsistent$"):
        solve_spectrum(demo_well)
