import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiwell import (
    DEFAULT_KAPPA2,
    DimensionlessWell,
    WellParams,
    from_dimensionless,
    potential,
    to_dimensionless,
)
from fermiwell.core import check_ladder
from fermiwell.errors import BracketCollisionError, DomainError, LabelingError


def test_depth_at_origin():
    p = WellParams(5.0, 3.0, 1.0)
    assert potential(p, 0.0) == pytest.approx(-5.0, abs=1e-12)


def test_potential_even_and_vanishing_at_infinity():
    p = WellParams(5.0, 3.0, 0.5)
    for x in (0.3, 1.7, 4.2):
        assert potential(p, x) == pytest.approx(potential(p, -x), abs=1e-15)
    assert abs(potential(p, 60.0)) < 1e-40


def test_potential_monotone_in_half_line():
    p = WellParams(45.3642, 2.0, 1.0)
    xs = np.linspace(0.0, 15.0, 400)
    vals = np.array([potential(p, x) for x in xs])
    assert np.all(np.diff(vals) > 0.0)


def test_u0_exceeds_v0():
    p = WellParams(50.0, 1.3, 0.65)
    assert p.u0 == pytest.approx(p.v0 * (1.0 + math.exp(-p.a / p.b)), rel=1e-14)
    assert p.u0 > p.v0


def test_dimensionless_round_trip():
    p = WellParams(48.6845, 1.5, 0.9)
    d = to_dimensionless(p)
    back = from_dimensionless(d, b=p.b, kappa2=p.kappa2)
    assert back.v0 == pytest.approx(p.v0, rel=1e-12)
    assert back.a == pytest.approx(p.a, rel=1e-12)


def test_dimensionless_round_trip_other_direction():
    d = DimensionlessWell(alpha=2.0, beta=1.5723)
    p = from_dimensionless(d, b=1.0, kappa2=DEFAULT_KAPPA2)
    d2 = to_dimensionless(p)
    assert d2.alpha == pytest.approx(d.alpha, rel=1e-12)
    assert d2.beta == pytest.approx(d.beta, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    v0=st.floats(0.5, 100.0),
    a=st.floats(0.2, 8.0),
    b=st.floats(0.05, 2.0),
)
def test_round_trip_property(v0, a, b):
    p = WellParams(v0, a, b)
    back = from_dimensionless(to_dimensionless(p), b=p.b, kappa2=p.kappa2)
    assert back.v0 == pytest.approx(p.v0, rel=1e-12)
    assert back.a == pytest.approx(p.a, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    v0=st.floats(0.5, 100.0),
    a=st.floats(0.2, 8.0),
    b=st.floats(0.05, 2.0),
    x=st.floats(-50.0, 50.0),
)
def test_potential_confined_property(v0, a, b, x):
    p = WellParams(v0, a, b)
    v = float(potential(p, x))
    # far tails may underflow to exactly 0.0; the well bottom may round one
    # ulp past -v0 for sharp-edged wells
    assert -p.v0 * (1.0 + 1e-14) <= v <= 0.0


def test_invalid_params_rejected():
    for bad in [(-1.0, 2.0, 1.0), (5.0, 0.0, 1.0), (5.0, 2.0, -0.3)]:
        with pytest.raises(DomainError):
            WellParams(*bad)


@pytest.mark.parametrize("cls, fields", [
    (WellParams, ("v0", "a", "b", "kappa2")), (DimensionlessWell, ("alpha", "beta")),
])
def test_non_finite_fields_rejected(cls, fields):
    for name in fields:
        args = dict.fromkeys(fields, 1.0)
        args[name] = math.inf
        with pytest.raises(DomainError, match=f"{cls.__name__}.{name} must be finite"):
            cls(**args)


def test_check_ladder_orders_and_passes_the_counting_rule():
    values, odd = check_ladder(np.array([-1.0, -3.0, -2.0]), np.array([False, False, True]),
                               lambda e, o: np.arange(e.size))
    assert values.tolist() == [-3.0, -2.0, -1.0]
    assert odd.tolist() == [False, True, False]
    betas, odd = check_ladder(np.array([0.9, 1.5]), np.array([True, False]), lambda b, o: np.array([1, 2]),
                              first=1, name="beta")
    assert (betas.tolist(), odd.tolist()) == ([0.9, 1.5], [True, False])


def test_check_ladder_parity_failure_precedes_node_count():
    def unreachable(values, odd):
        raise AssertionError("nodes counted before the parity check passed")

    with pytest.raises(BracketCollisionError,
                       match=r"^state 1 has parity even, expected odd; a root was likely missed$"):
        check_ladder(np.array([-3.0, -2.0]), np.array([False, False]), unreachable)


def test_check_ladder_node_failure_is_a_labeling_error():
    with pytest.raises(LabelingError,
                       match=r"^state 2 \(even, beta=1\.500000\) has 3 nodes; labeling is inconsistent$"):
        check_ladder(np.array([1.5, 0.9]), np.array([False, True]), lambda b, o: np.array([1, 3]),
                     first=1, name="beta")
