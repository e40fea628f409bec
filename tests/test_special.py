"""Identity battery and external-oracle checks for the 2F1 engine."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from fermiwell import hyp2f1, hyp2f1_dz, lgamma_complex
from fermiwell import kernels, special
from fermiwell.errors import ConvergenceError, DegenerateParameterError, DomainError, PoleError

mpmath.mp.dps = 30


def _random_params(rng):
    """Parameter triples shaped like the package's call sites: a = nu + i*mu,
    b = a+1, c = 2 nu + 1, plus generic complex perturbations."""
    nu = rng.uniform(0.05, 3.0)
    mu = rng.uniform(0.05, 3.0)
    a = complex(nu, mu)
    return a, a + 1.0, complex(2.0 * nu + 1.0, 0.0)


# ------------------------------------------------------------ mpmath oracle


def test_hyp2f1_matches_mpmath():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a, b, c = _random_params(rng)
        z = rng.uniform(-0.9, 0.98)
        got = hyp2f1(a, b, c, z)
        want = complex(mpmath.hyp2f1(a, b, c, z))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_hyp2f1_dz_matches_mpmath_derivative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.05, 0.9)
        got = hyp2f1_dz(a, b, c, z)
        want = complex(mpmath.diff(lambda t: mpmath.hyp2f1(a, b, c, t), z))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_lgamma_matches_mpmath():
    rng = np.random.default_rng(13)
    for _ in range(80):
        z = complex(rng.uniform(-6.0, 8.0), rng.uniform(-6.0, 6.0))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        got = lgamma_complex(z)
        want = complex(mpmath.loggamma(z))
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


# --------------------------------------------------------- identity battery


def test_euler_transformation():
    rng = np.random.default_rng(17)
    for _ in range(40):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.0, 0.95)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * hyp2f1(c - a, c - b, c, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_pfaff_transformation():
    rng = np.random.default_rng(19)
    for _ in range(40):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.0, 0.95)
        lhs = hyp2f1(a, b, c, z)
        rhs = (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1.0))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_gauss_contiguous_relation():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.0, 0.9)
        lhs = c * hyp2f1(a, b, c, z) - c * hyp2f1(a + 1.0, b, c, z) \
            + b * z * hyp2f1(a + 1.0, b + 1.0, c + 1.0, z)
        scale = max(1.0, abs(c * hyp2f1(a, b, c, z)))
        assert abs(lhs) <= 1e-9 * scale


def test_series_connection_overlap_band():
    rng = np.random.default_rng(29)
    for _ in range(40):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.6, 0.8)
        direct = kernels.hyp2f1_series_kernel(
            a, b, c, z, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS
        )
        connected = complex(kernels.hyp2f1_zu_batch(
            a, b, c, z, 1.0 - z, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, 0.0
        ))
        assert abs(direct - connected) <= 1e-9 * max(1.0, abs(direct))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(31)
    step = 1e-6
    for _ in range(30):
        a, b, c = _random_params(rng)
        z = rng.uniform(0.05, 0.9)
        fd = (hyp2f1(a, b, c, z + step) - hyp2f1(a, b, c, z - step)) / (2.0 * step)
        got = hyp2f1_dz(a, b, c, z)
        assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


def test_symmetry_in_a_b_is_exact():
    a, b, c = complex(0.4, 1.3), complex(1.4, 1.3), complex(1.8, 0.0)
    for z in (0.3, 0.85, -2.0):
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_conjugate_pair_is_real():
    # c - a - b = 1 is an integer here, so stay on the series path (z <= 0.7);
    # the connection formula legitimately refuses this parameter set.
    beta = 1.5723
    for z in (0.1, 0.5, 0.7):
        val = hyp2f1(complex(0.0, beta), complex(0.0, -beta), 1.0, z)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))


# ------------------------------------------------------------------- errors


def test_lgamma_pole_rejected():
    with pytest.raises(PoleError):
        lgamma_complex(0.0)
    with pytest.raises(PoleError):
        lgamma_complex(-3.0)


def test_bad_arguments_rejected():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, -2.0, 0.3)
    with pytest.raises(DomainError):
        hyp2f1(complex("nan"), 0.5, 1.0, 0.3)


def test_degenerate_connection_parameters_rejected():
    # c - a - b = 0: the 1-z connection formula has a genuine pole.
    with pytest.raises(DegenerateParameterError):
        hyp2f1(1.0, 1.0, 2.0, 0.9)


def test_term_cap_raises_convergence_error():
    with pytest.raises(ConvergenceError):
        hyp2f1(complex(0.3, 1.0), complex(1.3, 1.0), 1.6, 0.5, max_terms=3)


# ---------------------------------------------------------- batched layer


def _bracket_sample(seed, n=200):
    """Random bound-bracket arguments over both branches (y below and above
    Z_SWITCH) plus deep-edge points where y rounds to 1 and y1 ~ 1e-17."""
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.0, 3.0, n)
    mu = rng.uniform(0.05, 3.0, n)
    t = rng.uniform(-4.0, 4.0, n)
    y, y1 = 1.0 / (1.0 + np.exp(t)), 1.0 / (1.0 + np.exp(-t))
    y[-3:], y1[-3:] = 1.0, (1e-17, 3e-17, 1e-16)
    return nu, mu, y, y1


def _mp_bracket(nu, mu, y, y1):
    """mpmath bracket y^nu (1-y)^mu 2F1(a, a+1; 2nu+1; y), its d/dy, and y^nu."""
    y1 = mpmath.mpf(y1)
    y = 1 - y1 if y == 1.0 else mpmath.mpf(y)
    a, c, m = mpmath.mpc(nu, mu), 2 * nu + 1, mpmath.mpc(0, mu)
    w = y**nu * y1**m
    br = w * mpmath.hyp2f1(a, a + 1, c, y)
    dbr = (nu / y - m / y1) * br + w * (a * (a + 1) / c) * mpmath.hyp2f1(a + 1, a + 2, c + 1, y)
    return br, dbr, abs(w), abs(w) * (nu / y + mu / y1)


def test_bracket_batch_matches_mpmath():
    # 1e-12, not DEFAULT_TOL: the series stops two terms below tol*|sum|,
    # which leaves a tail of up to tol/(1-z) at the branch switch; the scalar
    # loop this layer replaced erred by 4e-13 at the worst point here too.
    nu, mu, y, y1 = _bracket_sample(3)
    assert (y > special.Z_SWITCH).sum() > 50 and (y <= special.Z_SWITCH).sum() > 50
    val, dval, _ = kernels.bound_bracket_batch(
        nu, mu, y, y1, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH, True
    )
    for i in range(nu.size):
        br, dbr, w, dw = _mp_bracket(nu[i], mu[i], y[i], y1[i])
        assert abs(val[i] - br.real) <= 1e-12 * max(abs(br), w)
        assert abs(dval[i] - dbr.real) <= 1e-12 * max(abs(dbr), dw)


def test_bracket_batch_matches_scalar_wrapper():
    nu, mu, y, y1 = _bracket_sample(4)
    args = (special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH, True)
    batch = kernels.bound_bracket_batch(nu, mu, y, y1, *args)
    for i in range(nu.size):
        val, dval, resid = kernels.bound_bracket_kernel(nu[i], mu[i], y[i], y1[i], *args)
        assert val == pytest.approx(batch[0][i], rel=1e-13)
        assert dval == pytest.approx(batch[1][i], rel=1e-13)
        assert resid == pytest.approx(batch[2][i], abs=1e-13)


def test_hyp2f1_array_matches_mpmath_and_scalar_calls():
    rng = np.random.default_rng(37)
    nu, mu = rng.uniform(0.05, 3.0, 60), rng.uniform(0.05, 3.0, 60)
    a, c = nu + 1j * mu, 2.0 * nu + 1.0
    z = rng.uniform(-0.9, 0.98, 60)
    got = hyp2f1(a, a + 1.0, c, z)
    assert got.shape == (60,)
    for i in range(60):
        want = complex(mpmath.hyp2f1(a[i], a[i] + 1.0, c[i], z[i]))
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(got[i] - hyp2f1(a[i], a[i] + 1.0, c[i], z[i])) <= 1e-13 * abs(got[i])


def test_one_degenerate_element_fails_the_batch():
    # c - a - b = 0 at the middle element only, on the connection branch.
    a = np.array([0.5 + 1j, 1.0, 0.5 + 1j])
    with pytest.raises(DegenerateParameterError):
        kernels.hyp2f1_batch(a, a + 1.0, 2.0, 0.9, special.DEFAULT_TOL,
                             special.DEFAULT_MAX_TERMS, special.Z_SWITCH)
    with pytest.raises(DegenerateParameterError):
        hyp2f1(a, a + 1.0, 2.0, 0.9)


def test_one_non_converging_element_fails_the_batch():
    # Near z = 0 three terms suffice; at z = 0.5 they do not.
    z = np.array([1e-20, 0.5, 1e-20])
    with pytest.raises(ConvergenceError):
        kernels.hyp2f1_batch(complex(0.3, 1.0), complex(1.3, 1.0), 1.6, z,
                             special.DEFAULT_TOL, 3, special.Z_SWITCH)
    with pytest.raises(ConvergenceError):
        hyp2f1(complex(0.3, 1.0), complex(1.3, 1.0), 1.6, z, max_terms=3)
