"""Numerical kernels: a numpy-batched Gauss 2F1 layer and the Numerov recursion.

The 2F1 layer takes broadcast arrays and evaluates every element at once:
log Gamma through ``scipy.special.loggamma``, the Gauss series as a masked
term loop that drops elements as they converge, and the z -> 1-z connection
formula as array arithmetic.  The scalar ``*_kernel`` names are length-1
calls of the same code.  Kernels return per-element status codes instead of
raising; :mod:`fermiwell.special` translates them into exceptions.

The Numerov kernels are nopython-jitted when numba is enabled (see
:mod:`fermiwell.backend`) and run as plain Python otherwise.

Status codes: 0 ok, 1 series did not converge, 2 degenerate connection
parameters (c-a-b within 1e-8 of an integer).
"""

import math

import numpy as np
from scipy.special import loggamma

from .backend import njit


def _flat(complex_args, real_args):
    """Common broadcast shape, then every argument flattened to 1-D:
    complex128 for ``complex_args``, float64 for ``real_args``."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in complex_args),
                                 *(np.asarray(v, dtype=float) for v in real_args))
    return arrays[0].shape, [v.ravel() for v in arrays]


def hyp2f1_series_batch(a, b, c, z, tol, max_terms):
    """Direct Gauss series for 2F1(a,b;c;z) elementwise; requires |z| < 1.

    An element stops after two consecutive terms at or below tol times its
    partial sum, and leaves the working set.  Returns (values, status), with
    status 1 where max_terms terms did not reach that.
    """
    shape, (a, b, c, z) = _flat((a, b, c), (z,))
    total = np.empty(a.size, dtype=complex)
    status = np.ones(a.size, dtype=np.int64)
    idx = np.arange(a.size)
    term = np.ones(a.size, dtype=complex)
    acc = term.copy()
    prev_small = np.zeros(a.size, dtype=bool)
    for n in range(max_terms):
        if idx.size == 0:
            break
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        acc = acc + term
        small = np.abs(term) <= tol * np.abs(acc)
        done = small & prev_small
        prev_small = small
        if done.any():
            total[idx[done]] = acc[done]
            status[idx[done]] = 0
            keep = ~done
            idx, a, b, c, z, term, acc, prev_small = (
                v[keep] for v in (idx, a, b, c, z, term, acc, prev_small)
            )
    total[idx] = acc
    return total.reshape(shape), status.reshape(shape)


def hyp2f1_zu_batch(a, b, c, z, u, tol, max_terms, z_switch):
    """2F1(a,b;c;z) elementwise for z in [0,1), with u = 1-z supplied separately.

    Callers near z = 1 compute u in a stable form (e.g. a logistic tail), so
    the connection path keeps full precision even when 1.0 - z underflows.
    Elements with z <= z_switch take the direct series, the rest the
    connection formula in powers of u; all series terms run in one pass.
    """
    shape, (a, b, c, z, u) = _flat((a, b, c), (z, u))
    out = np.zeros(a.size, dtype=complex)
    status = np.zeros(a.size, dtype=np.int64)
    direct = np.flatnonzero(z <= z_switch)
    k = np.flatnonzero(z > z_switch)
    s = c[k] - a[k] - b[k]
    nearest = np.floor(s.real + 0.5)
    degenerate = (np.abs(s.imag) < 1e-8) & (np.abs(s.real - nearest) < 1e-8)
    status[k[degenerate]] = 2
    k, s = k[~degenerate], s[~degenerate]
    ak, bk, ck, uk = a[k], b[k], c[k], u[k]
    nd, nk = direct.size, k.size
    vals, st = hyp2f1_series_batch(
        np.concatenate((a[direct], ak, ck - ak)),
        np.concatenate((b[direct], bk, ck - bk)),
        np.concatenate((c[direct], ak + bk - ck + 1.0, s + 1.0)),
        np.concatenate((z[direct], uk, uk)),
        tol, max_terms,
    )
    out[direct] = vals[:nd]
    status[direct] = st[:nd]
    f1, f2 = vals[nd:nd + nk], vals[nd + nk:]
    st1, st2 = st[nd:nd + nk], st[nd + nk:]
    lg_c, lg_s, lg_ca, lg_cb, lg_ms, lg_a, lg_b = loggamma(np.stack((ck, s, ck - ak, ck - bk, -s, ak, bk)))
    p1 = np.exp(lg_c + lg_s - lg_ca - lg_cb)
    p2 = np.exp(lg_c + lg_ms - lg_a - lg_b + s * np.log(uk))
    conn_status = np.where(st1 != 0, st1, st2)
    out[k] = np.where(conn_status == 0, p1 * f1 + p2 * f2, 0.0)
    status[k] = conn_status
    return out.reshape(shape), status.reshape(shape)


def hyp2f1_batch(a, b, c, z, tol, max_terms, z_switch):
    """2F1(a,b;c;z) elementwise for real z < 1.

    z < 0 is mapped into [0,1) by a Pfaff transformation; on [0, z_switch]
    the direct series is used, above it the Gauss connection formula in
    powers of 1-z (invalid when c-a-b is near an integer -> status 2).
    """
    shape, (a, b, c, z) = _flat((a, b, c), (z,))
    neg = z < 0.0
    pre = np.ones(a.size, dtype=complex)
    # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
    pre[neg] = np.exp(-a[neg] * np.log(1.0 - z[neg]))
    b = np.where(neg, c - b, b)
    z = np.where(neg, z / (z - 1.0), z)
    val, status = hyp2f1_zu_batch(a, b, c, z, 1.0 - z, tol, max_terms, z_switch)
    return (pre * val).reshape(shape), status.reshape(shape)


def bound_bracket_batch(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv):
    """Value (and optionally d/dy) of y^nu (1-y)^mu 2F1(nu+mu, nu+mu+1; 2nu+1; y).

    All arguments broadcast.  y1 = 1-y is passed separately so deep-edge
    wells (y0 within rounding of 1) keep full precision.  mu = i*mu_im is
    purely imaginary, so the bracket is real analytically; the real part is
    returned together with a relative imaginary residual.  The derivative
    series runs in the same pass as the value series.  Returns arrays
    (psi, dpsi_dy, im_resid, status); dpsi_dy is zero unless want_deriv.
    """
    nu, mu_im, y, y1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (nu, mu_im, y, y1)))
    mu = 1j * mu_im
    a = nu + mu
    b = a + 1.0
    c = 2.0 * nu + 1.0
    if want_deriv:
        f, status = hyp2f1_zu_batch(
            np.stack((a, a + 1.0)), np.stack((b, b + 1.0)), np.stack((c, c + 1.0)),
            y, y1, tol, max_terms, z_switch,
        )
        f, fp = f
        status = np.where(status[0] != 0, status[0], status[1])
    else:
        f, status = hyp2f1_zu_batch(a, b, c, y, y1, tol, max_terms, z_switch)
    w = np.exp(nu * np.log(y) + mu * np.log(y1))
    br = w * f
    # residual relative to max(|bracket|, y^nu): |(1-y)^mu| = 1, so y^nu is
    # the natural outer scale and stays O(1) where the bracket crosses zero
    mag = np.maximum(np.abs(br), np.abs(w))
    resid = np.divide(np.abs(br.imag), mag, out=np.zeros(mag.shape), where=mag > 0.0)
    if not want_deriv:
        return br.real, np.zeros(br.shape), resid, status
    fp = fp * (a * b / c)
    dbr = (nu / y) * br - (mu / y1) * br + w * fp
    return br.real, dbr.real, resid, status


# Scalar entry points: one-element calls of the batched code above.


def lgamma_complex_kernel(z):
    """Principal branch of log Gamma(z) for complex z off the poles."""
    return complex(loggamma(complex(z)))


def hyp2f1_series_kernel(a, b, c, z, tol, max_terms):
    """Direct Gauss series for 2F1(a,b;c;z); requires |z| < 1.  Returns (value, status)."""
    val, status = hyp2f1_series_batch(a, b, c, z, tol, max_terms)
    return complex(val), int(status)


def _hyp2f1_zu_kernel(a, b, c, z, u, tol, max_terms, z_switch):
    """2F1(a,b;c;z) for z in [0,1) with u = 1-z supplied.  Returns (value, status)."""
    val, status = hyp2f1_zu_batch(a, b, c, z, u, tol, max_terms, z_switch)
    return complex(val), int(status)


def bound_bracket_kernel(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv):
    """Scalar :func:`bound_bracket_batch`: (psi, dpsi_dy, im_resid, status)."""
    psi, dpsi_dy, resid, status = bound_bracket_batch(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv)
    return float(psi), float(dpsi_dy), float(resid), int(status)


def count_sign_changes_kernel(vals, rel_floor):
    """Strict sign changes, ignoring entries at or below rel_floor * max|vals|."""
    mags = np.abs(vals)
    if mags.size == 0:
        return 0
    positive = np.asarray(vals)[mags > rel_floor * mags.max()] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


@njit(cache=True)
def numerov_propagate_kernel(f, h, psi0, psi1):
    """Numerov recursion for psi'' + f(x) psi = 0 on a uniform grid.

    The running solution is renormalized whenever |psi| exceeds 1e100; the
    returned array is therefore the solution up to an overall positive scale.
    """
    n = f.size
    psi = np.empty(n)
    psi[0] = psi0
    psi[1] = psi1
    h12 = h * h / 12.0
    for i in range(2, n):
        num = 2.0 * (1.0 - 5.0 * h12 * f[i - 1]) * psi[i - 1] - (1.0 + h12 * f[i - 2]) * psi[i - 2]
        val = num / (1.0 + h12 * f[i])
        psi[i] = val
        if abs(val) > 1e100:
            inv = 1.0 / abs(val)
            for j in range(i + 1):
                psi[j] *= inv
    return psi


@njit(cache=True)
def _deriv5(psi, i, h):
    return (psi[i - 2] - 8.0 * psi[i - 1] + 8.0 * psi[i + 1] - psi[i + 2]) / (12.0 * h)


@njit(cache=True)
def _outward_seed(f, h, parity_odd):
    """psi(h) from a one-sided Taylor expansion, O(h^6) accurate.

    A ghost-point seed would span x = 0, where the |x| dependence of the
    potential makes psi''' jump and silently degrades the scheme to second
    order; the one-sided expansion stays on the smooth branch.  f', f'', f'''
    at the origin come from one-sided finite differences of the grid values.
    """
    f0 = f[0]
    fp = (-11.0 * f0 + 18.0 * f[1] - 9.0 * f[2] + 2.0 * f[3]) / (6.0 * h)
    fpp = (2.0 * f0 - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    fppp = (-f0 + 3.0 * f[1] - 3.0 * f[2] + f[3]) / (h * h * h)
    if parity_odd:
        # psi(0) = 0, psi'(0) = 1
        return h * (1.0 - f0 * h * h / 6.0 - fp * h**3 / 12.0
                    + (f0 * f0 - 3.0 * fpp) * h**4 / 120.0)
    # psi(0) = 1, psi'(0) = 0
    return (1.0 - f0 * h * h / 2.0 - fp * h**3 / 6.0
            + (f0 * f0 - fpp) * h**4 / 24.0
            + (4.0 * f0 * fp - fppp) * h**5 / 120.0)


@njit(cache=True)
def shooting_mismatch_kernel(w, h, kappa2, e, m, parity_odd):
    """Scaled Wronskian of the outward and inward solutions at grid index m.

    w = kappa2 * V on the half-line grid.  Zero exactly at eigenvalues; sign
    changes continuously with E, which makes it a clean bracketing target.
    """
    n = w.size
    f = kappa2 * e - w
    h12 = h * h / 12.0
    p0 = 0.0 if parity_odd else 1.0
    p1 = _outward_seed(f, h, parity_odd)
    out = numerov_propagate_kernel(f[: m + 3], h, p0, p1)
    k = math.sqrt(-kappa2 * e)
    rev = f[m - 2 :][::-1].copy()
    inw = numerov_propagate_kernel(rev, h, 1.0, math.exp(k * h))[::-1]
    po = out[m]
    dpo = _deriv5(out, m, h)
    mi = m - (m - 2)
    pi_ = inw[mi]
    dpi = _deriv5(inw, mi, h)
    wr = dpo * pi_ - dpi * po
    norm = (abs(po) + h * abs(dpo)) * (abs(pi_) + h * abs(dpi))
    if norm == 0.0:
        return wr
    return wr / norm


@njit(cache=True)
def assemble_eigenfunction_kernel(w, h, kappa2, e, m, parity_odd):
    """Half-line eigenfunction: outward up to m, matched inward beyond."""
    n = w.size
    f = kappa2 * e - w
    h12 = h * h / 12.0
    p0 = 0.0 if parity_odd else 1.0
    p1 = _outward_seed(f, h, parity_odd)
    out = numerov_propagate_kernel(f, h, p0, p1)
    k = math.sqrt(-kappa2 * e)
    inw = numerov_propagate_kernel(f[::-1].copy(), h, 1.0, math.exp(k * h))[::-1]
    psi = np.empty(n)
    scale = out[m] / inw[m] if inw[m] != 0.0 else 1.0
    for i in range(n):
        if i <= m:
            psi[i] = out[i]
        else:
            psi[i] = inw[i] * scale
    return psi
