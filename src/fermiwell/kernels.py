"""Numerical kernels: a numpy-batched Gauss 2F1 layer and the Numerov recursion.

The 2F1 layer takes broadcast arrays and evaluates every element at once:
log Gamma through ``scipy.special.loggamma``, the Gauss series as a masked
term loop that drops elements as they converge, and the z -> 1-z connection
formula as array arithmetic.  The scalar ``*_kernel`` names are length-1
calls of the same code.  Kernels return per-element status codes instead of
raising; :mod:`fermiwell.special` translates them into exceptions.

Status codes: 0 ok, 1 series did not converge, 2 degenerate connection
parameters (c-a-b within 1e-8 of an integer).

The Numerov recursion advances a whole batch of rows (energies, parities
or states) at once along the grid with numpy, holding only its two running
values and the columns a caller asks for; the shooting mismatch evaluates a
whole energy scan of both parities in one call.
"""

import math

import numpy as np
from scipy.special import loggamma


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
    """Strict sign changes along the last axis, ignoring entries at or below
    rel_floor * max|row|: an int for one row, an array of counts for (S, n)."""
    rows = np.atleast_2d(vals)
    mags = np.abs(rows)
    row, col = np.nonzero(mags > rel_floor * mags.max(axis=-1, keepdims=True, initial=0.0))
    positive = rows[row, col] > 0.0
    flips = (positive[1:] != positive[:-1]) & (row[1:] == row[:-1])
    counts = np.bincount(row[1:][flips], minlength=rows.shape[0])
    return int(counts[0]) if np.ndim(vals) == 1 else counts


# Recursion coefficients formed in one array operation, in elements: long
# blocks of grid columns for a few rows, short ones for a wide scan.
_NUMEROV_BLOCK = 512


def numerov_propagate_kernel(f, h, psi0, psi1, shift=0.0, keep=slice(None)):
    """Numerov recursion for psi'' + (shift + f(x)) psi = 0 on a uniform grid.

    ``f`` is (n,) or (B, n) along the grid.  ``psi0``, ``psi1`` (the first two
    values) and ``shift`` broadcast against its leading axes to the row shape,
    and every row advances at once along x; a per-row ``shift`` runs many
    energies over one (n,) profile without forming a (B, n) array.  Only the
    two running values and the columns ``keep`` (a contiguous slice of
    range(n)) are held; the result has the row shape plus one axis over them.
    A row is renormalized whenever its |psi| exceeds 1e100, so each row is its
    solution up to its own positive scale.
    """
    f = np.asarray(f, dtype=float)
    shift = np.asarray(shift, dtype=float)[..., None]
    n = f.shape[-1]
    lo, hi, _ = keep.indices(n)
    h12 = h * h / 12.0
    coef_rows = np.broadcast_shapes(shift.shape, f.shape)[:-1]
    rows = np.broadcast_shapes(np.shape(psi0), np.shape(psi1), coef_rows)
    block = max(1, _NUMEROV_BLOCK // math.prod(coef_rows))
    p0 = np.broadcast_to(psi0, rows).astype(float)
    p1 = np.broadcast_to(psi1, rows).astype(float)
    kept = np.empty(rows + (max(hi - lo, 0),))
    for i, v in ((0, p0), (1, p1)):
        if lo <= i < hi:
            kept[..., i - lo] = v
    # c = 1 + h^2 f / 12 at i-2 and i-1, a = 2 (1 - 5 h^2 f / 12) at i-1
    f1 = shift[..., 0] + f[..., 1]
    c0, c1 = 1.0 + h12 * (shift[..., 0] + f[..., 0]), 1.0 + h12 * f1
    a1 = 2.0 * (1.0 - 5.0 * h12 * f1)
    for start in range(2, n, block):
        fb = shift + f[..., start:start + block]
        cb = np.moveaxis(1.0 + h12 * fb, -1, 0)
        ab = np.moveaxis(2.0 * (1.0 - 5.0 * h12 * fb), -1, 0)
        for i, ci, ai in zip(range(start, n), cb, ab):
            val = (a1 * p1 - c0 * p0) / ci
            big = np.abs(val) > 1e100
            if big.any():
                inv = 1.0 / np.where(big, np.abs(val), 1.0)
                val, p1 = val * inv, p1 * inv
                kept[..., : max(min(i, hi) - lo, 0)] *= inv[..., None]
            if lo <= i < hi:
                kept[..., i - lo] = val
            p0, p1 = p1, val
            c0, c1, a1 = c1, ci, ai
    return kept


def _deriv5(cols, h):
    """d/dx at the middle of five consecutive grid columns."""
    return (cols[..., 0] - 8.0 * cols[..., 1] + 8.0 * cols[..., 3] - cols[..., 4]) / (12.0 * h)


def outward_seed(f, h, parity_odd):
    """(psi(0), psi(h)) of the parity solution; ``f`` holds f at 0, h, 2h, 3h
    on its last axis, and ``parity_odd`` broadcasts against its rows.

    Odd: psi(0) = 0, psi'(0) = 1; even: psi(0) = 1, psi'(0) = 0.  psi(h) comes
    from a one-sided Taylor expansion, O(h^6) accurate.  A ghost-point seed
    would span x = 0, where the |x| dependence of the potential makes psi'''
    jump and silently degrades the scheme to second order; the one-sided
    expansion stays on the smooth branch.  f', f'', f''' at the origin come
    from one-sided finite differences of the grid values.
    """
    f0, f1, f2, f3 = (f[..., j] for j in range(4))
    fp = (-11.0 * f0 + 18.0 * f1 - 9.0 * f2 + 2.0 * f3) / (6.0 * h)
    fpp = (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / (h * h)
    fppp = (-f0 + 3.0 * f1 - 3.0 * f2 + f3) / (h * h * h)
    odd = h * (1.0 - f0 * h * h / 6.0 - fp * h**3 / 12.0
               + (f0 * f0 - 3.0 * fpp) * h**4 / 120.0)
    even = (1.0 - f0 * h * h / 2.0 - fp * h**3 / 6.0
            + (f0 * f0 - fpp) * h**4 / 24.0
            + (4.0 * f0 * fp - fppp) * h**5 / 120.0)
    return np.where(parity_odd, 0.0, 1.0), np.where(parity_odd, odd, even)


# libm's exp, as for a scalar seed: numpy's SIMD exp differs from it in the
# last bit for a few percent of arguments, which moves refined levels.
_exp = np.vectorize(math.exp, otypes=[float])


def _inward_seed(q, h):
    """psi at the grid end and one step in, e^(kx) with k = sqrt(-q), q = kappa2 E."""
    return 1.0, _exp(np.sqrt(-q) * h)


def shooting_mismatch_kernel(w, h, kappa2, e, m, parity_odd):
    """Scaled Wronskian of the outward and inward solutions at grid index m.

    w = kappa2 * V on the half-line grid.  ``e`` and ``parity_odd`` broadcast
    to the shape of the result, one element per (E, parity).  The inward
    branch depends on E alone, so it is integrated once per energy and
    shared by both parities.  Zero exactly at eigenvalues; sign changes
    continuously with E, which makes it a clean bracketing target.
    """
    q = kappa2 * np.asarray(e, dtype=float)
    f = -w
    out = numerov_propagate_kernel(f[: m + 3], h, *outward_seed(q[..., None] + f[:4], h, parity_odd),
                                   shift=q, keep=slice(m - 2, None))
    inw = numerov_propagate_kernel(f[m - 2:][::-1], h, *_inward_seed(q, h), shift=q, keep=slice(-5, None))
    inw = inw[..., ::-1]
    po, pi_ = out[..., 2], inw[..., 2]
    dpo, dpi = _deriv5(out, h), _deriv5(inw, h)
    wr = dpo * pi_ - dpi * po
    norm = (np.abs(po) + h * np.abs(dpo)) * (np.abs(pi_) + h * np.abs(dpi))
    return np.where(norm == 0.0, wr, wr / np.where(norm == 0.0, 1.0, norm))[()]


def assemble_eigenfunction_kernel(w, h, kappa2, e, m, parity_odd):
    """Half-line eigenfunctions, one row per broadcast (E, parity): outward up
    to m, matched inward beyond."""
    q = kappa2 * np.asarray(e, dtype=float)
    f = -w
    psi = numerov_propagate_kernel(f, h, *outward_seed(q[..., None] + f[:4], h, parity_odd), shift=q)
    inw = numerov_propagate_kernel(f[::-1], h, *_inward_seed(q, h), shift=q, keep=slice(f.size - m))
    at_m = inw[..., -1]  # the inward rows run from the grid end down to x index m
    scale = np.where(at_m != 0.0, psi[..., m] / np.where(at_m != 0.0, at_m, 1.0), 1.0)
    inw *= scale[..., None]
    psi[..., m + 1:] = inw[..., -2::-1]
    return psi
