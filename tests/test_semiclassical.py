import math

import numpy as np
import pytest

from fermiwell import (
    DimensionlessWell,
    WellParams,
    f_action,
    g_closed_form,
    g_quadrature,
    square_well_reference,
    to_dimensionless,
    wkb_spectrum,
)
from fermiwell import semiclassical
from fermiwell.errors import DomainError
from fermiwell.tables import DEMO_WKB_LEVELS


def test_g_published_values():
    assert g_closed_form(to_dimensionless(WellParams(48.6845, 1.5, 0.9))) == pytest.approx(3.000, abs=1e-3)
    from fermiwell import DimensionlessWell
    assert g_closed_form(DimensionlessWell(2.0, 1.5723)) == pytest.approx(3.4541, abs=1e-3)


@pytest.mark.parametrize("alpha", [1400.0, 1419.5, 1419.6, 1500.0, 1e6, 1e300])
def test_g_finite_at_large_alpha(alpha):
    # e^(alpha/2) exceeds the largest double past alpha of about 1419.56;
    # asinh(e^(alpha/2)) is alpha/2 + ln 2 to double precision on both sides.
    g = g_closed_form(DimensionlessWell(alpha, 1.0))
    assert g == pytest.approx(4.0 / math.pi * (0.5 * alpha + math.log(2.0)), rel=1e-15)


def test_g_quadrature_matches_closed_form():
    rng = np.random.default_rng(20240815)
    for _ in range(100):
        p = WellParams(rng.uniform(3.0, 80.0), rng.uniform(0.5, 7.0), rng.uniform(0.1, 1.5))
        q = g_quadrature(p)
        c = g_closed_form(to_dimensionless(p))
        assert q == pytest.approx(c, rel=1e-8)


def test_square_well_reference():
    ref = square_well_reference(45.3642, 2.0, 0.048)
    w = 2.0 * (0.048 * 45.3642) ** 0.5
    assert ref.w == pytest.approx(w, rel=1e-14)
    assert ref.g_prime == pytest.approx(2.0 * w / np.pi, rel=1e-14)
    with pytest.raises(DomainError):
        square_well_reference(-1.0, 2.0, 0.048)


def test_action_at_ground_wkb_level(demo_well):
    assert f_action(demo_well, -32.9723) == pytest.approx(0.5, abs=2e-3)


def test_action_closed_vs_quadrature(demo_well):
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = WellParams(rng.uniform(5.0, 70.0), rng.uniform(0.8, 6.0), rng.uniform(0.15, 1.4))
        e = rng.uniform(-0.95 * p.v0, -0.02 * p.v0)
        closed = f_action(p, e, method="closed")
        quad = f_action(p, e, method="quadrature")
        assert closed == pytest.approx(quad, rel=1e-6)


def test_action_limit_at_threshold_equals_g(demo_well):
    # F approaches G like sqrt(|E|): the deviation is ~8.5e-4 at 1e-6 v0 and
    # shrinks tenfold per 100x step toward threshold.
    e = -1e-8 * demo_well.v0
    assert f_action(demo_well, e) == pytest.approx(g_quadrature(demo_well), rel=1e-4)
    e = -1e-6 * demo_well.v0
    assert f_action(demo_well, e) == pytest.approx(g_quadrature(demo_well), rel=1e-3)


def test_action_monotone_in_energy(demo_well):
    es = np.linspace(-0.98 * demo_well.v0, -0.02 * demo_well.v0, 40)
    fs = [f_action(demo_well, e) for e in es]
    assert all(f2 > f1 for f1, f2 in zip(fs, fs[1:]))


def test_action_domain_errors(demo_well):
    with pytest.raises(DomainError):
        f_action(demo_well, 0.5)
    with pytest.raises(DomainError):
        f_action(demo_well, -10.0, method="stochastic")


@pytest.mark.parametrize("a", [7.2, 8.0])
def test_action_raises_where_e_minus_alpha_underflows(a):
    # a/b = 720: e^-alpha is subnormal and the closed form's log term
    # overflows; a/b = 800: e^-alpha is 0.
    p = WellParams(50.0, a, 0.01)
    with pytest.raises(DomainError, match="underflows"):
        f_action(p, -10.0)
    with pytest.raises(DomainError, match="underflows"):
        wkb_spectrum(p)


def test_action_names_overflow_of_a_huge_depth():
    # a/b = 1: e^-alpha is a normal double, but v0 near the largest double
    # overflows the closed form.
    p = WellParams(1e308, 1.0, 1.0)
    with pytest.raises(DomainError, match=r"overflows at U0 = v0 \(1 \+ e\^-alpha\) = 1.36788e\+308$"):
        f_action(p, -p.v0 * (1.0 - 1e-9))


def test_wkb_demo_levels(demo_well):
    levels = wkb_spectrum(demo_well)
    assert len(levels) == 3
    for lv, e_ref in zip(levels, DEMO_WKB_LEVELS):
        assert lv.energy == pytest.approx(e_ref, abs=1e-2)
        assert lv.f_value == pytest.approx(lv.index + 0.5, abs=1e-6)


def test_wkb_quadrature_route_agrees(demo_well):
    closed = wkb_spectrum(demo_well, method="closed")
    quad = wkb_spectrum(demo_well, method="quadrature")
    for l1, l2 in zip(closed, quad):
        assert l1.energy == pytest.approx(l2.energy, abs=1e-5)


@pytest.mark.parametrize("alpha", [5.0, 20.0, 28.0, 36.0, 70.0])
def test_closed_action_matches_quadrature_in_deep_wells(alpha):
    # Large a/b puts 1 + omega and omega + tanh(alpha/2) near e^-alpha at the
    # bottom of the well, where a form that subtracts them loses every digit.
    p = WellParams(60.0, 0.2 * alpha, 0.2)
    for frac in (-0.999, -0.9, -0.5, -0.1, -0.001):
        e = frac * p.v0
        closed = f_action(p, e, method="closed")
        assert closed == pytest.approx(f_action(p, e, method="quadrature"), rel=1e-12)


def test_wkb_spectrum_of_a_sharp_wide_well():
    levels = wkb_spectrum(WellParams(80.0, 7.0, 0.1))
    assert len(levels) > 0
    assert all(-80.0 < lv.energy < 0.0 for lv in levels)
    assert [lv.index for lv in levels] == list(range(len(levels)))


def test_wkb_level_count_is_bounded(monkeypatch, demo_well):
    # About 1.3e153 levels: the bound is checked before any per-level array.
    with pytest.raises(DomainError, match=r"gives 1.31489e\+153 WKB levels, more than 4000000"):
        wkb_spectrum(WellParams(1e307, 1.0, 1.0))
    monkeypatch.setattr(semiclassical, "MAX_WKB_LEVELS", 3)
    assert len(wkb_spectrum(demo_well)) == 3
    monkeypatch.setattr(semiclassical, "MAX_WKB_LEVELS", 2)
    with pytest.raises(DomainError, match="gives 3 WKB levels, more than 2"):
        wkb_spectrum(demo_well)
