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


# ------------------------------------------- bit identity of the blocked loop


def _series_one(a, b, c, z, tol, max_terms):
    """The Gauss series of one element, term by term on one-element arrays,
    with the stopping rule of ``hyp2f1_series_batch``: (value, the number of
    terms after the leading 1), or None where max_terms do not suffice."""
    a, b, c = (np.array([v], dtype=complex) for v in (a, b, c))
    z = np.array([z])
    term = np.ones(1, dtype=complex)
    acc = term
    prev_small = False
    for n in range(max_terms):
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        acc = acc + term
        small = bool(np.abs(term[0]) <= tol * np.abs(acc[0]))
        if small and prev_small:
            return acc[0], n + 1
        prev_small = small
    return None


# Both branches' series: the direct one in y, and the two connection series
# in u = 1-y, with a = nu + i mu, b = a + 1, c = 2 nu + 1.
_BRANCH_PARAMS = [
    (complex(nu, mu), complex(nu + 1.0, mu), complex(2.0 * nu + 1.0, 0.0))
    for nu, mu in ((0.4, 1.3), (2.1, 0.2), (0.0, 3.5))
] + [
    (complex(nu, mu), complex(nu + 1.0, mu), complex(2.0, 2.0 * mu))
    for nu, mu in ((0.4, 1.3), (1.7, 2.4))
] + [
    (complex(nu + 1.0, -mu), complex(nu, -mu), complex(1.0, -2.0 * mu))
    for nu, mu in ((0.4, 1.3), (1.7, 2.4))
]

# Around the edges of a SERIES_BLOCK = 8 pass: last, first and second term.
_STOPS = (7, 8, 9, 16, 17)


def _elements_stopping_at(stops):
    """(a, b, c, z, value, stop) of one element per parameter set and stop."""
    out = []
    zs = np.geomspace(1e-7, 0.7, 600)
    for a, b, c in _BRANCH_PARAMS:
        found = {}
        for z in zs.tolist():
            value, stop = _series_one(a, b, c, z, special.DEFAULT_TOL, max(stops)) or (None, None)
            if stop in stops and stop not in found:
                found[stop] = (a, b, c, z, value, stop)
        assert sorted(found) == sorted(stops), (a, b, c)
        out += found.values()
    return out


def test_series_batch_equals_term_by_term_loop():
    assert kernels.SERIES_BLOCK == 8
    cases = _elements_stopping_at(_STOPS)
    rng = np.random.default_rng(17)
    extra = [(a, b, c, z) + _series_one(a, b, c, z, special.DEFAULT_TOL, 10_000)
             for a, b, c in _BRANCH_PARAMS for z in rng.uniform(0.0, 0.7, 20).tolist()]
    a, b, c, z, want, _ = (np.array(v) for v in zip(*cases, *extra))
    got = kernels.hyp2f1_series_batch(a, b, c, z, special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS)
    assert np.array_equal(got, want)
    for i in range(a.size):
        one = kernels.hyp2f1_series_batch(a[i], b[i], c[i], z[i], special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS)
        assert one == want[i]


def test_series_batch_term_cap_at_block_edges():
    # An element that stops at term s passes with max_terms = s and fails
    # with s - 1 (3 and 9 among them), beside elements that stop early.
    for a, b, c, z, value, stop in _elements_stopping_at(_STOPS + (4, 10)):
        zs = np.array([1e-20, z, 1e-20])
        got = kernels.hyp2f1_series_batch(a, b, c, zs, special.DEFAULT_TOL, stop)
        assert got[1] == value
        with pytest.raises(ConvergenceError):
            kernels.hyp2f1_series_batch(a, b, c, zs, special.DEFAULT_TOL, stop - 1)


@pytest.mark.parametrize("y0", [None, 0.4, 0.93])
def test_bracket_derivative_mask_leaves_values_alone(y0):
    # None: the sample's own points on both branches; a float: one shared
    # point, as in the matching conditions.
    nu, mu, y, y1 = _bracket_sample(5)
    if y0 is not None:
        y, y1 = y0, 1.0 - y0
    args = (special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH)
    every = kernels.bound_bracket_batch(nu, mu, y, y1, *args, True)
    none = kernels.bound_bracket_batch(nu, mu, y, y1, *args, False)
    mask = np.random.default_rng(6).random(nu.size) < 0.5
    some = kernels.bound_bracket_batch(nu, mu, y, y1, *args, mask)
    for got in (some, none):
        assert np.array_equal(got[0], every[0])
        assert np.array_equal(got[2], every[2])
    assert np.array_equal(some[1][mask], every[1][mask])
    assert not some[1][~mask].any() and not none[1].any()


# ------------------------------------------------ one path for both branches


def test_interleaved_branches_equal_single_branch_calls():
    # Direct and connection elements alternate in one call, and each equals
    # the same element in a call of its branch alone.
    nu, mu, y, y1 = _bracket_sample(8)
    direct, conn = np.flatnonzero(y <= special.Z_SWITCH), np.flatnonzero(y > special.Z_SWITCH)
    m = min(direct.size, conn.size)
    assert m > 50
    mixed = np.stack((direct[:m], conn[:m]), axis=1).ravel()
    nu, mu, y, y1 = (v[mixed] for v in (nu, mu, y, y1))
    parts = (slice(0, None, 2), slice(1, None, 2))
    a = nu + 1j * mu
    args = (special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH)
    both = kernels.hyp2f1_zu_batch(a, a + 1.0, 2.0 * nu + 1.0, y, y1, *args)
    for part in parts:
        assert np.array_equal(both[part], kernels.hyp2f1_zu_batch(
            a[part], a[part] + 1.0, 2.0 * nu[part] + 1.0, y[part], y1[part], *args))
    mask = np.arange(nu.size) % 3 != 0
    both = kernels.bound_bracket_batch(nu, mu, y, y1, *args, mask)
    for part in parts:
        alone = kernels.bound_bracket_batch(nu[part], mu[part], y[part], y1[part], *args, mask[part])
        for got, want in zip(both, alone):
            assert np.array_equal(got[part], want)


@pytest.mark.parametrize("y0", [None, 0.4, 0.93])
def test_scalar_true_equals_all_true_mask(y0):
    nu, mu, y, y1 = _bracket_sample(9)
    if y0 is not None:
        y, y1 = y0, 1.0 - y0
    args = (special.DEFAULT_TOL, special.DEFAULT_MAX_TERMS, special.Z_SWITCH)
    scalar = kernels.bound_bracket_batch(nu, mu, y, y1, *args, True)
    masked = kernels.bound_bracket_batch(nu, mu, y, y1, *args, np.ones(nu.size, dtype=bool))
    for got, want in zip(scalar, masked):
        assert np.array_equal(got, want)
    # a one-element call rounds as its element of the whole call
    y, y1 = np.broadcast_to(y, nu.shape), np.broadcast_to(y1, nu.shape)
    for k in range(nu.size):
        one = kernels.bound_bracket_batch(nu[k], mu[k], y[k], y1[k], *args, True)
        assert [float(v) for v in one] == [float(v[k]) for v in masked]
