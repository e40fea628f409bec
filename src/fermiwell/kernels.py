"""Numerical kernels: a numpy-batched Gauss 2F1 layer and the Numerov recursion.

The 2F1 layer takes broadcast arrays and evaluates every element at once:
log Gamma through ``scipy.special.loggamma``, the Gauss series as a masked
term loop that drops elements as they converge, and the z -> 1-z connection
formula as array arithmetic.  The scalar ``*_kernel`` names are length-1
calls of the same code.  A failed element fails the whole call where it is
detected: ``DegenerateParameterError`` when a connection element has c-a-b
within 1e-8 of an integer (checked before any series runs), then
``ConvergenceError`` when a series element is left after max_terms terms.

``bound_bracket_rows`` samples many states of the bound bracket on one shared
grid, as the node check does.  A state's series coefficients do not depend on
the point, so they are formed once per state and summed at every point as a
matrix product with one power table of the grid; log Gamma runs once per
state.  On that bracket the two connection series are complex conjugates,
so one of them gives the real part.

The Numerov recursion advances a whole batch of rows (energies, parities
or states) at once along the grid, holding only its two running values and
the columns a caller asks for.  It is a lower triangular band system, and
LAPACK ``dtbtrs`` runs its forward substitution in compiled code, one chunk
of the grid for all rows per call.  The step must satisfy
X = h^2 max|shift + f| / 12 <= 0.1, or DomainError is raised.  From X alone
a bound on the growth of psi gives the widest chunk that cannot overflow
before its rescale (:func:`_chunk_width`); at the oracle's X the memory cap
of 16k values per chunk binds first, so a sweep of up to 8 rows over a
2000-point grid is one ``dtbtrs`` call.  After a chunk a row whose |psi|
exceeds 1e100 is rescaled by a power of two.  ``scipy.linalg`` is imported
on the first Numerov call, so the 2F1 paths never pay for it.  The
arithmetic is that of the step-by-step recursion, but a BLAS that fuses the
two updates of a step into multiply-adds rounds differently, so the last
bits may differ between machines; on one machine results are deterministic.
The recursion can count each row's sign changes chunk by chunk as it
sweeps, so one pair of shooting sweeps gives, for a batch of energies of
both parities, the mismatch, the half-line node count and the Sturm count
of levels below each energy; the refinement's mismatch sweeps count nothing.
"""

import math

import numpy as np
from scipy.special import loggamma

from .errors import ConvergenceError, DegenerateParameterError, DomainError


def _flat(complex_args, real_args):
    """Common broadcast shape, then every argument flattened to 1-D:
    complex128 for ``complex_args``, float64 for ``real_args``."""
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=complex) for v in complex_args),
                                 *(np.asarray(v, dtype=float) for v in real_args))
    return arrays[0].shape, [v.ravel() for v in arrays]


def hyp2f1_series_batch(a, b, c, z, tol, max_terms):
    """Direct Gauss series for 2F1(a,b;c;z) elementwise; requires |z| < 1.

    An element stops after two consecutive terms at or below tol times its
    partial sum, and leaves the working set.  Raises ConvergenceError if any
    element has not stopped after max_terms terms.
    """
    shape, (a, b, c, z) = _flat((a, b, c), (z,))
    total = np.empty(a.size, dtype=complex)
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
            keep = ~done
            idx, a, b, c, z, term, acc, prev_small = (
                v[keep] for v in (idx, a, b, c, z, term, acc, prev_small)
            )
    if idx.size:
        raise ConvergenceError("hypergeometric series hit the term cap before the tolerance")
    return total.reshape(shape)


def _check_connection(s):
    """Raise DegenerateParameterError where any s = c-a-b is within 1e-8 of an integer."""
    nearest = np.floor(s.real + 0.5)
    if np.any((np.abs(s.imag) < 1e-8) & (np.abs(s.real - nearest) < 1e-8)):
        raise DegenerateParameterError(
            "c-a-b within 1e-8 of an integer; the z->1-z connection formula degenerates"
        )


def hyp2f1_zu_batch(a, b, c, z, u, tol, max_terms, z_switch):
    """2F1(a,b;c;z) elementwise for z in [0,1), with u = 1-z supplied separately.

    Callers near z = 1 compute u in a stable form (e.g. a logistic tail), so
    the connection path keeps full precision even when 1.0 - z underflows.
    Elements with z <= z_switch take the direct series, the rest the
    connection formula in powers of u; all series terms run in one pass.
    """
    shape, (a, b, c, z, u) = _flat((a, b, c), (z, u))
    out = np.zeros(a.size, dtype=complex)
    direct = np.flatnonzero(z <= z_switch)
    k = np.flatnonzero(z > z_switch)
    s = c[k] - a[k] - b[k]
    _check_connection(s)
    ak, bk, ck, uk = a[k], b[k], c[k], u[k]
    nd, nk = direct.size, k.size
    vals = hyp2f1_series_batch(
        np.concatenate((a[direct], ak, ck - ak)),
        np.concatenate((b[direct], bk, ck - bk)),
        np.concatenate((c[direct], ak + bk - ck + 1.0, s + 1.0)),
        np.concatenate((z[direct], uk, uk)),
        tol, max_terms,
    )
    out[direct] = vals[:nd]
    f1, f2 = vals[nd:nd + nk], vals[nd + nk:]
    lg_c, lg_s, lg_ca, lg_cb, lg_ms, lg_a, lg_b = loggamma(np.stack((ck, s, ck - ak, ck - bk, -s, ak, bk)))
    p1 = np.exp(lg_c + lg_s - lg_ca - lg_cb)
    p2 = np.exp(lg_c + lg_ms - lg_a - lg_b + s * np.log(uk))
    out[k] = p1 * f1 + p2 * f2
    return out.reshape(shape)


def hyp2f1_batch(a, b, c, z, tol, max_terms, z_switch):
    """2F1(a,b;c;z) elementwise for real z < 1.

    z < 0 is mapped into [0,1) by a Pfaff transformation; on [0, z_switch]
    the direct series is used, above it the Gauss connection formula in
    powers of 1-z (invalid when c-a-b is near an integer).
    """
    shape, (a, b, c, z) = _flat((a, b, c), (z,))
    neg = z < 0.0
    pre = np.ones(a.size, dtype=complex)
    # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
    pre[neg] = np.exp(-a[neg] * np.log(1.0 - z[neg]))
    b = np.where(neg, c - b, b)
    z = np.where(neg, z / (z - 1.0), z)
    return (pre * hyp2f1_zu_batch(a, b, c, z, 1.0 - z, tol, max_terms, z_switch)).reshape(shape)


def bound_bracket_batch(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv):
    """Value (and optionally d/dy) of y^nu (1-y)^mu 2F1(nu+mu, nu+mu+1; 2nu+1; y).

    All arguments broadcast.  y1 = 1-y is passed separately so deep-edge
    wells (y0 within rounding of 1) keep full precision.  mu = i*mu_im is
    purely imaginary, so the bracket is real analytically; the real part is
    returned together with a relative imaginary residual.  The derivative
    series runs in the same pass as the value series.  Returns arrays
    (psi, dpsi_dy, im_resid); dpsi_dy is zero unless want_deriv.
    """
    nu, mu_im, y, y1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (nu, mu_im, y, y1)))
    mu = 1j * mu_im
    a = nu + mu
    b = a + 1.0
    c = 2.0 * nu + 1.0
    if want_deriv:
        f, fp = hyp2f1_zu_batch(
            np.stack((a, a + 1.0)), np.stack((b, b + 1.0)), np.stack((c, c + 1.0)),
            y, y1, tol, max_terms, z_switch,
        )
    else:
        f = hyp2f1_zu_batch(a, b, c, y, y1, tol, max_terms, z_switch)
    w = np.exp(nu * np.log(y) + mu * np.log(y1))
    br = w * f
    # residual relative to max(|bracket|, y^nu): |(1-y)^mu| = 1, so y^nu is
    # the natural outer scale and stays O(1) where the bracket crosses zero
    mag = np.maximum(np.abs(br), np.abs(w))
    resid = np.divide(np.abs(br.imag), mag, out=np.zeros(mag.shape), where=mag > 0.0)
    if not want_deriv:
        return br.real, np.zeros(br.shape), resid
    fp = fp * (a * b / c)
    dbr = (nu / y) * br - (mu / y1) * br + w * fp
    return br.real, dbr.real, resid


# Row coefficients are formed this many series terms at a time.
_ROW_TERM_BLOCK = 64


def _series_coefficients(a, b, c, z_max, tol, max_terms):
    """Gauss series coefficients of 2F1(a,b;c;z), one row per element of the 1-D a, b, c.

    They come from the ratio recurrence, _ROW_TERM_BLOCK terms at a time.  Row
    k stops at the first term where the rule of :func:`hyp2f1_series_batch`
    holds at z = z_max, and needs counts[k] coefficients.  Returns (coef,
    counts); every row of ``coef`` is valid up to counts.max().  Raises
    ConvergenceError if a row has not stopped after max_terms terms.
    """
    coef = [np.ones((a.size, 1), dtype=complex)]
    partial = np.ones(a.size, dtype=complex)
    prev_small = np.zeros(a.size, dtype=bool)
    counts = np.zeros(a.size, dtype=int)
    for n0 in range(0, max_terms, _ROW_TERM_BLOCK):
        if counts.all():
            break
        n = np.arange(n0, min(n0 + _ROW_TERM_BLOCK, max_terms), dtype=float)
        # block[:, j] is the coefficient of z^(n0 + 1 + j)
        block = coef[-1][:, -1:] * np.cumprod((a[:, None] + n) * (b[:, None] + n) / ((c[:, None] + n) * (n + 1.0)),
                                              axis=1)
        coef.append(block)
        terms = block * z_max ** (n + 1.0)
        sums = partial[:, None] + np.cumsum(terms, axis=1)
        small = np.abs(terms) <= tol * np.abs(sums)
        done = small & np.concatenate((prev_small[:, None], small[:, :-1]), axis=1)
        stops = (counts == 0) & done.any(axis=1)
        counts[stops] = n0 + 2 + done[stops].argmax(axis=1)
        partial, prev_small = sums[:, -1], small[:, -1]
    if not counts.all():
        raise ConvergenceError("hypergeometric series hit the term cap before the tolerance")
    return np.concatenate(coef, axis=1), counts


def _series_rows(a, b, c, z, tol, max_terms):
    """2F1(a,b;c;z) for every element of the 1-D a, b, c at every point of the 1-D z in [0, 1).

    Each element's coefficients (:func:`_series_coefficients`, stopped at
    z.max()) meet one table of z^n in its own matrix product, so its row does
    not depend on the other elements.
    """
    coef, counts = _series_coefficients(a, b, c, z.max(), tol, max_terms)
    table = np.ones((counts.max(initial=1), z.size))
    table[1:] = np.cumprod(np.broadcast_to(z, (table.shape[0] - 1, z.size)), axis=0)
    sums = np.empty((a.size, 2, z.size))
    for k, m in enumerate(counts.tolist()):
        sums[k] = np.stack((coef[k, :m].real, coef[k, :m].imag)) @ table[:m]
    return sums[:, 0] + 1j * sums[:, 1]


def bound_bracket_rows(nu, mu_im, y, y1, tol, max_terms, z_switch):
    """Real bound bracket of :func:`bound_bracket_batch` for many states over one grid.

    ``nu`` and ``mu_im`` broadcast to the states' shape; ``y`` and ``y1`` =
    1-y are the 1-D grid all states share.  The result has the states' shape
    plus one axis along the grid.  Each state's series coefficients are
    formed once and summed at every point as one matrix product with a power
    table of the grid: z^n at the points with y <= z_switch (direct series),
    u^n with u = y1 at the rest (connection formula).  A state takes, at
    every point of a branch, the terms the stopping rule of
    :func:`hyp2f1_series_batch` asks for at that branch's largest z on the
    grid.  log Gamma runs once per state, and only the outer factor
    y^nu (1-y)^mu per point.  A row does not depend on the other states of
    the call.  Raises DegenerateParameterError where a state has connection
    points and c-a-b within 1e-8 of an integer, then ConvergenceError as the
    series.
    """
    nu, mu_im = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(mu_im, dtype=float))
    shape = nu.shape
    nu, mu_im = nu.ravel(), mu_im.ravel()
    y, y1 = np.asarray(y, dtype=float), np.asarray(y1, dtype=float)
    a = nu + 1j * mu_im
    b = a + 1.0
    c = (2.0 * nu + 1.0).astype(complex)
    # psi = Re[w f]: f is 2F1 on the direct branch and, on the connection
    # branch, twice its first term (see below).
    f = np.empty((nu.size, y.size), dtype=complex)
    direct = y <= z_switch
    if not direct.all():
        s = c - a - b
        _check_connection(s)
        # Connection formula: 2F1 = p1 F(a, b; a+b-c+1; u) + p2 u^s F(c-a, c-b; s+1; u),
        # s = c-a-b = -2i mu_im.  Here c-a = conj(b), c-b = conj(a) and s+1 =
        # conj(a+b-c+1), so with u real the second series and its prefactor
        # are the conjugates of the first, and w = y^nu u^(i mu_im) makes
        # w p2 u^s F2 the conjugate of w p1 F1: the real part is twice that of
        # the first term.
        lg_c, lg_s, lg_a, lg_b = loggamma(np.stack((c, s, a, b)))
        p1 = np.exp(lg_c + lg_s - np.conj(lg_a) - np.conj(lg_b))
        f[:, ~direct] = (2.0 * p1)[:, None] * _series_rows(a, b, a + b - c + 1.0, y1[~direct], tol, max_terms)
    if direct.any():
        f[:, direct] = _series_rows(a, b, c, y[direct], tol, max_terms)
    w = np.exp(nu[:, None] * np.log(y) + 1j * mu_im[:, None] * np.log(y1))
    return (w * f).real.reshape(shape + y.shape)


# Scalar entry points: one-element calls of the batched code above.


def lgamma_complex_kernel(z):
    """Principal branch of log Gamma(z) for complex z off the poles."""
    return complex(loggamma(complex(z)))


def hyp2f1_series_kernel(a, b, c, z, tol, max_terms):
    """Direct Gauss series for 2F1(a,b;c;z); requires |z| < 1."""
    return complex(hyp2f1_series_batch(a, b, c, z, tol, max_terms))


def bound_bracket_kernel(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv):
    """Scalar :func:`bound_bracket_batch`: (psi, dpsi_dy, im_resid)."""
    return tuple(map(float, bound_bracket_batch(nu, mu_im, y, y1, tol, max_terms, z_switch, want_deriv)))


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


# A chunk's band system holds at most this many values, so memory stays
# O(rows) on any grid.
_BAND_VALUES = 1 << 14
# The recursion requires h^2 |shift + f| / 12 <= _STEP_BOUND at every grid
# point, so that 1 + h^2 f / 12 >= 0.9 never vanishes.
_STEP_BOUND = 0.1
_RESCALE_ABOVE = 1e100
# No value of a chunk may exceed this, well short of the largest double, so
# that the partial sums of a forward-substitution step cannot overflow either.
_OVERFLOW_AT = 1e300
# X is floored here so that the growth bound's s is positive; a larger X
# only loosens the bound.
_X_FLOOR = 1e-12


def _growth(x):
    """(s, g) of the growth bound at step ratio x = h^2 max|shift + f| / 12:
    one step multiplies max(|psi|, |d| / s) by at most rho = 1 + g.

    With t_i = h^2 (shift + f_i) / 12, |t_i| <= x < 1, and d_i = psi_i -
    psi_(i-1), the recursion reads d_i = e_i psi_(i-1) + r_i d_(i-1) with
    e_i = -(t_i + 10 t_(i-1) + t_(i-2)) / (1 + t_i) and r_i = (1 + t_(i-2)) /
    (1 + t_i), so |e_i| <= E = 12x / (1 - x) and 0 < r_i <= R = (1 + x) /
    (1 - x).  Let N = max(|psi_(i-1)|, |d_(i-1)| / s) with s = sqrt(E / R).
    Then |d_i| <= (E + R s) N, so |d_i| / s <= (sqrt(E R) + R) N and
    |psi_i| <= |psi_(i-1)| + |d_i| <= (1 + E + sqrt(E R)) N; as R <= 1 + E,
    both are at most (1 + g) N with g = E + sqrt(E R).
    """
    x = max(x, _X_FLOOR)
    e, r = 12.0 * x / (1.0 - x), (1.0 + x) / (1.0 - x)
    return math.sqrt(e / r), e + math.sqrt(e * r)


def _chunk_width(x, peak, rows):
    """Columns per chunk for ``rows`` rows at step ratio ``x`` whose chunks
    start from values of magnitude at most ``peak``.

    A chunk starts from its carried values psi_0, psi_1, where N <=
    max(1, 2 / s) peak, and each step multiplies N by at most 1 + g
    (:func:`_growth`), so W = floor(ln(_OVERFLOW_AT / (max(1, 2 / s) peak)) /
    ln(1 + g)) steps keep every |psi| of the chunk at or below _OVERFLOW_AT.
    The width is W, capped so that a chunk holds at most _BAND_VALUES
    values.  Raises DomainError where not even one step is safe.
    """
    s, g = _growth(x)
    room = _OVERFLOW_AT / (max(1.0, 2.0 / s) * peak)
    if not room >= 1.0 + g:
        raise DomainError(f"Numerov seeds up to {peak:.3g} are too large to propagate without overflow")
    return max(1, min(math.floor(math.log(room) / math.log1p(g)), _BAND_VALUES // rows - 2))


def numerov_propagate_kernel(f, h, psi0, psi1, shift=0.0, keep=slice(None), count=None):
    """Numerov recursion for psi'' + (shift + f(x)) psi = 0 on a uniform grid.

    ``f`` is (n,) along the grid.  ``psi0``, ``psi1`` (the first two values)
    and ``shift`` broadcast to the row shape, and every row advances at once
    along x; a per-row ``shift`` runs many energies over one profile.  Only
    the two running values and the columns ``keep`` (a contiguous slice of
    range(n)) are held; the result has the row shape plus one axis over them.
    With ``count``, a contiguous slice of range(n) too, the sign changes of
    each row between consecutive columns of that slice, psi < 0 on one side
    and not on the other, are counted chunk by chunk as the sweep goes, and
    (kept columns, counts) is returned, the counts in the row shape.  No
    column outside ``keep`` is held for them, and no value is too small to
    count.

    With c = 1 + h^2 f / 12 and a = 2 (1 - 5 h^2 f / 12) the recursion
    c_i psi_i - a_(i-1) psi_(i-1) + c_(i-2) psi_(i-2) = 0 is a lower
    triangular system of bandwidth 2, and forward substitution on it is the
    step-by-step recursion.  The grid is cut into chunks of equal width,
    set by :func:`_chunk_width` from X = h^2 max|shift + f| / 12 over the
    grid and rows and from the larger of 1e100 and the seeds' peak, so that
    no chunk can overflow; each chunk stacks one block per row, opened by
    two identity equations that carry the row's last two values, into one
    block-diagonal band solved by LAPACK ``dtbtrs``.  After a chunk a row
    whose |psi| exceeds 1e100 is rescaled, with its kept columns, by a power
    of two, so each row is its solution up to its own positive scale and,
    the scaling being exact and sign-preserving, nothing else depends on
    where the chunks end.  Raises DomainError, naming the first offending
    grid step, where X exceeds 0.1: past that bound c may vanish.  Raises
    DomainError too where the seeds are so large that not one step is safe.
    """
    # Imported on first use: scipy.linalg costs about 45 ms at import, and
    # only the oracle runs the recursion.
    from scipy.linalg.lapack import dtbtrs

    f = np.asarray(f, dtype=float)
    shift = np.asarray(shift, dtype=float)[..., None]
    n = f.size
    lo, hi, _ = keep.indices(n)
    c_lo, c_hi, _ = (slice(0) if count is None else count).indices(n)
    h12 = h * h / 12.0
    rows = np.broadcast(psi0, psi1, shift[..., 0]).shape
    r = math.prod(rows)
    kept = np.empty((r, max(hi - lo, 0)))
    flips = np.zeros(r, dtype=int)
    carry = np.empty(rows + (2,))
    carry[..., 0], carry[..., 1] = psi0, psi1
    carry = carry.reshape(r, 2)
    for i in range(lo, min(hi, 2)):
        kept[:, i - lo] = carry[:, i]
    if c_lo == 0 and c_hi >= 2:
        flips += (carry[:, 0] < 0.0) != (carry[:, 1] < 0.0)
    if r == 0 or n <= 2:
        return _propagated(kept, flips, rows, count)
    # max |shift + f| over the grid and rows is at a grid extreme of f and an extreme shift
    s_lo, s_hi = shift.min(), shift.max()
    x = h12 * max(f.max() + s_hi, -(f.min() + s_lo))
    if x > _STEP_BOUND:
        over = np.flatnonzero(h12 * np.maximum(np.abs(f + s_hi), np.abs(f + s_lo)) > _STEP_BOUND)
        raise DomainError(f"Numerov step too large: h^2 |shift + f| / 12 exceeds {_STEP_BOUND} at grid step {over[0]}")
    # a chunk starts from the seeds or from values at most _RESCALE_ABOVE
    width = _chunk_width(x, max(_RESCALE_ABOVE, np.abs(carry).max()), r)
    for start in range(2, n, width):
        cols = min(width, n - start)
        fb = shift + f[start - 2:start + cols]
        # Column j of a row's block holds (c_j, -a_j, c_j); its first two
        # columns are the identity equations, and no entry couples two rows.
        band = np.empty(rows + (cols + 2, 3))
        band[..., 0] = band[..., 2] = 1.0 + h12 * fb
        band[..., 1] = -2.0 * (1.0 - 5.0 * h12 * fb)
        band[..., :2, 0] = 1.0
        band[..., 0, 1] = band[..., -1, 1] = 0.0
        band[..., -2:, 2] = 0.0
        psi = np.zeros((r, cols + 2))
        psi[:, :2] = carry
        psi = dtbtrs(band.reshape(-1, 3).T, psi.reshape(-1, 1), uplo="L", overwrite_b=1)[0].reshape(r, cols + 2)
        # sign changes between grid columns i - 1 and i for the new columns i
        i0, i1 = max(start, c_lo + 1), min(start + cols, c_hi)
        if i0 < i1:
            neg = psi[:, i0 - start + 1:i1 - start + 2] < 0.0
            flips += (neg[:, 1:] != neg[:, :-1]).sum(axis=1)
        if max(psi.max(), -psi.min()) > _RESCALE_ABOVE:
            peak = np.abs(psi).max(axis=1)
            big = peak > _RESCALE_ABOVE
            scale = np.ldexp(1.0, -np.frexp(peak[big])[1])[:, None]
            psi[big] *= scale
            kept[big, :max(min(start, hi) - lo, 0)] *= scale
        i0, i1 = max(start, lo), min(start + cols, hi)
        if i0 < i1:
            kept[:, i0 - lo:i1 - lo] = psi[:, i0 - start + 2:i1 - start + 2]
        carry = psi[:, -2:]
    return _propagated(kept, flips, rows, count)


def _propagated(kept, flips, rows, count):
    psi = kept.reshape(rows + (kept.shape[-1],))
    return psi if count is None else (psi, flips.reshape(rows))


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


def _inward_seed(q, h):
    """psi at the grid end and one step in, e^(kx) with k = sqrt(-q), q = kappa2 E."""
    return 1.0, np.exp(np.sqrt(-q) * h)


def _sweeps(w, h, kappa2, e, m, parity_odd, out_count=None, in_count=None):
    """The two shooting sweeps: the outward parity branch on grid indices
    [0, m+2] and the inward decaying branch on [m-2, end], reversed, each
    with its five columns around m and, where a count slice is given, its
    sign changes over that slice."""
    q = kappa2 * np.asarray(e, dtype=float)
    f = -w
    out = numerov_propagate_kernel(f[: m + 3], h, *outward_seed(q[..., None] + f[:4], h, parity_odd),
                                   shift=q, keep=slice(m - 2, None), count=out_count)
    inw = numerov_propagate_kernel(f[m - 2:][::-1], h, *_inward_seed(q, h), shift=q,
                                   keep=slice(-5, None), count=in_count)
    return out, inw


def shoot_kernel(w, h, kappa2, e, m, parity_odd):
    """Outward parity branch on grid indices [0, m+2] and inward decaying
    branch on [m-2, end], as :func:`shooting_mismatch_kernel` integrates
    them: the five columns around m of each, in grid order, and the number
    of half-line nodes, the sign changes of the outward branch on [1, m]
    plus those of the inward one on [m, end], counted in the sweeps."""
    (out, out_nodes), (inw, in_nodes) = _sweeps(w, h, kappa2, e, m, parity_odd, slice(1, m + 1), slice(0, -2))
    return out, inw[..., ::-1], out_nodes + in_nodes


def _scaled_wronskian(out, inw, h):
    """Wronskian of the two branches at the middle of their five columns,
    divided by the product of their (|psi| + h |psi'|) there."""
    po, pi_ = out[..., 2], inw[..., 2]
    dpo, dpi = _deriv5(out, h), _deriv5(inw, h)
    wr = dpo * pi_ - dpi * po
    norm = (np.abs(po) + h * np.abs(dpo)) * (np.abs(pi_) + h * np.abs(dpi))
    return np.where(norm == 0.0, wr, wr / np.where(norm == 0.0, 1.0, norm))


def shooting_mismatch_kernel(w, h, kappa2, e, m, parity_odd):
    """Scaled Wronskian of the outward and inward solutions at grid index m.

    w = kappa2 * V on the half-line grid.  ``e`` and ``parity_odd`` broadcast
    to the shape of the result, one element per (E, parity).  The inward
    branch depends on E alone, so it is integrated once per energy and
    shared by both parities.  Zero exactly at eigenvalues; sign changes
    continuously with E, which makes it a clean bracketing target.  The
    sweeps count no nodes.
    """
    out, inw = _sweeps(w, h, kappa2, e, m, parity_odd)
    return _scaled_wronskian(out, inw[..., ::-1], h)[()]


def sturm_count_kernel(w, h, kappa2, e, m, parity_odd):
    """(scaled Wronskian, Sturm count) at each (E, parity), broadcast as in
    :func:`shooting_mismatch_kernel` from the same two sweeps.

    The count is the number of levels of the parity below E: the half-line
    nodes of the two branches plus one where u'/u < v'/v at m, i.e. where
    W u v < 0 for the outward branch u, the inward branch v and their
    Wronskian W = u'v - v'u (B. R. Johnson, J. Chem. Phys. 67, 4086 (1977)).
    """
    out, inw, nodes = shoot_kernel(w, h, kappa2, e, m, parity_odd)
    wr = _scaled_wronskian(out, inw, h)
    return wr, nodes + (np.sign(wr) * np.sign(out[..., 2]) * np.sign(inw[..., 2]) < 0.0)
