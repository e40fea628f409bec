import math

import pytest

from fermiwell import DimensionlessWell, hbs, hbs_matching, hbs_scan, psi_hbs, solve_beta_n, verify_criticality
from fermiwell.core import from_dimensionless
from fermiwell.errors import BracketCollisionError, DomainError, LabelingError, RootNotFoundError
from fermiwell.oracle import count_via_zero_energy_nodes
from fermiwell.tables import HBS_ROWS, TOL_BETA


def test_published_single_rows():
    sol = solve_beta_n(1.0, 1)
    assert sol.beta_n == pytest.approx(0.8774, abs=TOL_BETA)
    assert sol.g_value == pytest.approx(1.4238, abs=1e-3)

    sol = solve_beta_n(3.0, 5)
    assert sol.beta_n == pytest.approx(1.9446, abs=TOL_BETA)
    assert sol.g_value == pytest.approx(5.4604, abs=1e-3)


def test_matching_function_roots():
    # n = 1 root at alpha = 4 is odd, n = 2 root at alpha = 2 is even.
    assert abs(hbs_matching(4.0, 0.3697, "odd")) < 1e-3
    assert abs(hbs_matching(2.0, 1.1000, "even")) < 1e-3


def test_matching_function_validation():
    for parity in ("sideways", "ODD", "Even", ""):
        with pytest.raises(DomainError):
            hbs_matching(2.0, 1.0, parity)
    with pytest.raises(DomainError):
        hbs_matching(-1.0, 1.0, "odd")


def test_scan_is_interleaved_and_increasing():
    sols = hbs_scan(2.0, 6)
    betas = [s.beta_n for s in sols]
    assert betas == sorted(betas)
    assert [s.n for s in sols] == [1, 2, 3, 4, 5, 6]
    # consecutive critical betas are well separated
    assert min(b2 - b1 for b1, b2 in zip(betas, betas[1:])) > 0.2


def test_scan_prefix_consistency():
    # Solving for n directly equals the n-th entry of a longer scan.
    long = hbs_scan(3.0, 4)
    assert solve_beta_n(3.0, 2).beta_n == pytest.approx(long[1].beta_n, abs=1e-9)


def test_plateau_normalization():
    sol = solve_beta_n(1.0, 2)
    d = DimensionlessWell(1.0, sol.beta_n)
    assert abs(psi_hbs(d, 30.0).psi) == pytest.approx(1.0, abs=1e-8)


def test_criticality_counts():
    # Just below beta_n the well holds n states, just above n+1.
    report = verify_criticality(2.0, 1.5723, 3)
    assert report.count_below == 3
    assert report.count_above == 4


def _assert_sturm_counts_step(sols, delta):
    # The Numerov zero-energy node count finds n states at (1 - delta) beta_n
    # and n + 1 at (1 + delta) beta_n.
    for s in sols:
        counts = [
            count_via_zero_energy_nodes(from_dimensionless(DimensionlessWell(s.alpha, s.beta_n * f), b=1.0))
            for f in (1.0 - delta, 1.0 + delta)
        ]
        assert counts == [s.n, s.n + 1], s


@pytest.mark.parametrize("alpha", [200.0, 400.0])
def test_scan_at_large_alpha(alpha):
    # beta_1 ~ pi / (2 alpha) lies below 0.01 here; the scan step, a quarter
    # unit of G, shrinks with 1/G so the first root is still bracketed.  Each
    # beta_n is checked independently by the Numerov zero-energy node count.
    sols = hbs_scan(alpha, 3)
    assert [s.n for s in sols] == [1, 2, 3]
    assert sols[0].beta_n < 0.01
    _assert_sturm_counts_step(sols, 1e-2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0, 10.0])
def test_sturm_count_steps_at_beta_n(alpha):
    # The Sturm count, which shares no code with the 2F1 path, steps from n
    # to n + 1 across each beta_n within 0.1%.
    _assert_sturm_counts_step(hbs_scan(alpha, 6), 1e-3)


@pytest.mark.parametrize("alpha", [200.0, 400.0])
def test_scan_relative_precision_at_large_alpha(alpha):
    # beta_n shrinks as 1/alpha here; the refinement tolerance shrinks with
    # the scan step, so beta_n keeps its relative precision.
    ref = hbs_scan(alpha, 3, tol_beta=1e-12)
    for s, r in zip(hbs_scan(alpha, 3), ref):
        assert abs(s.beta_n - r.beta_n) <= 5e-6 * r.beta_n


@pytest.mark.parametrize("alpha", [0.05, 0.3])
def test_scan_ceiling_holds_every_root(alpha):
    # The scan stops at G = n_max + 1; the paper's rule 0 <= G(beta_n) - n < 1
    # puts every beta_n below it.
    sols = hbs_scan(alpha, 16)
    assert [s.n for s in sols] == list(range(1, 17))
    assert all(0.0 <= s.g_value - s.n < 1.0 for s in sols)


def test_scan_validation():
    with pytest.raises(DomainError):
        hbs_scan(0.0, 3)
    with pytest.raises(DomainError):
        hbs_scan(2.0, 0)


def test_scan_rejects_n_max_above_the_limit(monkeypatch):
    # The sweep and the node check grow with n_max; past the limit the scan
    # raises before sweeping anything.
    def no_sweep(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(hbs, "_matching_profile", no_sweep)
    for n_max in (hbs.MAX_N + 1, 10**8):
        with pytest.raises(DomainError, match=f"n_max = {n_max} exceeds {hbs.MAX_N}"):
            hbs_scan(2.0, n_max)


def test_scan_rejects_infinite_alpha():
    with pytest.raises(DomainError, match="alpha must be finite"):
        hbs_scan(math.inf, 3)


def test_scan_where_one_minus_y0_underflows():
    # 1 - y0 = expit(-alpha) is subnormal but nonzero up to alpha of about
    # 709.78, and 0 beyond, where neither matching condition can be formed.
    assert [s.n for s in hbs_scan(709.7, 3)] == [1, 2, 3]
    for alpha in (709.8, 1500.0, 1e6):
        with pytest.raises(DomainError, match="underflows"):
            hbs_scan(alpha, 3)


def test_misplaced_parity_is_a_bracket_collision(monkeypatch):
    # beta_1 (odd) and beta_2 (even) swapped: once ordered, beta_1 is even.
    bisect = hbs._bisect

    def swapped(*args):
        return bisect(*args)[[1, 0, 2]]

    monkeypatch.setattr(hbs, "_bisect", swapped)
    with pytest.raises(BracketCollisionError,
                       match=r"^state 1 has parity even, expected odd; a root was likely missed$"):
        hbs_scan(2.0, 3)


def test_node_miscount_is_a_labeling_error(monkeypatch):
    count_nodes = hbs.wavefunction.count_nodes
    monkeypatch.setattr(hbs.wavefunction, "count_nodes", lambda vals: count_nodes(vals) + 1)
    with pytest.raises(LabelingError,
                       match=r"^state 1 \(odd, beta=0\.6226\d+\) has 2 nodes; labeling is inconsistent$"):
        hbs_scan(2.0, 3)


def test_table_row_sample():
    for alpha in (1.0, 4.0):
        sols = hbs_scan(alpha, 3)
        for (n, beta_ref, g_ref), sol in zip(HBS_ROWS[alpha][:3], sols):
            assert sol.n == n
            assert sol.beta_n == pytest.approx(beta_ref, abs=TOL_BETA)
            assert sol.g_value == pytest.approx(g_ref, abs=2e-3)
