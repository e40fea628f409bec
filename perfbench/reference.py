"""Physics computed apart from fermiwell, for checking its outputs.

Nothing here imports the program.  The matching conditions are evaluated
with ``mpmath.hyp2f1`` at raised precision, G comes from the paper's closed
form, the WKB action from ``scipy.integrate.quad`` over the turning-point
interval, and bound-state counts from a zero-energy Numerov integration
written here (Sturm oscillation: the zeros of the regular E = 0 solution on
(0, inf) count the bound states of each parity).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

# Published values of the paper (arXiv:1904.02284), kappa2 = 0.048 MeV^-1 fm^-2.
KAPPA2 = 0.048
# (G, a, b, v0, count)
G_COUNT_ROWS = [
    (3.0, 1.5, 0.9, 48.6845, 3),
    (3.0, 1.5, 0.7590, 60.0, 3),
    (3.0, 1.0518, 0.9, 60.0, 3),
    (6.4, 5.0, 0.8, 56.2945, 6),
    (6.4, 5.0, 0.6651, 60.0, 6),
    (6.4, 4.5090, 0.7, 70.0, 6),
    (8.7, 6.8, 0.7, 64.4349, 9),
    (8.7, 6.0, 0.8646, 75.0, 9),
    (8.7, 6.0027, 0.7, 80.0, 9),
]
# alpha -> [beta_1 .. beta_8], and the G at each.
HBS_BETAS = {
    1.0: [0.8774, 1.4975, 2.1402, 2.7494, 3.3789, 3.9892, 4.6142, 5.2255],
    2.0: [0.6226, 1.1000, 1.5723, 2.0281, 2.4907, 2.9449, 3.4046, 3.8586],
    3.0: [0.4683, 0.8534, 1.2234, 1.5835, 1.9446, 2.3018, 2.6607, 3.0172],
    4.0: [0.3697, 0.6905, 0.9947, 1.2913, 1.5866, 1.8796, 2.1729, 2.4650],
}
HBS_G = {
    1.0: [1.4238, 2.4302, 3.4731, 4.4617, 5.4833, 6.4735, 7.4878, 8.4798],
    2.0: [1.3679, 2.4166, 3.4541, 4.4555, 5.4716, 6.4694, 7.4794, 8.4767],
    3.0: [1.3150, 2.3963, 3.4353, 4.4465, 5.4604, 6.4635, 7.4713, 8.4722],
    4.0: [1.2700, 2.3717, 3.4166, 4.4354, 5.4496, 6.4563, 7.4636, 8.4669],
}
# (element, A, G, s-wave count); v0 = 50 MeV, a = 1.3 A^(1/3) fm, b = 0.65 fm.
NUCLEAR_ROWS = [("O", 16, 4.13, 2), ("Sn", 132, 7.42, 3), ("Pb", 208, 8.49, 4)]
DEMO_WELL = (45.3642, 2.0, 1.0)
DEMO_EXACT = [-33.7554, -16.2221, -4.6764]
DEMO_WKB = [-32.9723, -15.8589, -4.2151]
# Published figures are rounded to four decimals.
TOL_PUBLISHED = 5e-4


def u0(v0: float, a: float, b: float) -> float:
    return v0 * (1.0 + math.exp(-a / b))


def dimensionless(v0: float, a: float, b: float, kappa2: float = KAPPA2) -> tuple[float, float]:
    """(alpha, beta) = (a/b, b sqrt(kappa2 U0))."""
    return a / b, b * math.sqrt(kappa2 * u0(v0, a, b))


def well_from_dimensionless(alpha: float, beta: float, b: float = 1.0,
                            kappa2: float = KAPPA2) -> tuple[float, float, float]:
    """(v0, a, b) of the well with the given (alpha, beta) and diffuseness b."""
    big_u0 = beta**2 / (kappa2 * b**2)
    return big_u0 / (1.0 + math.exp(-alpha)), alpha * b, b


def g_value(alpha: float, beta: float) -> float:
    """The paper's G = (4/pi) beta asinh(e^(alpha/2))."""
    return 4.0 / math.pi * beta * math.asinh(math.exp(0.5 * alpha))


def count_bracket(g: float) -> tuple[int, int]:
    """The paper's rule: a well holds floor(G) or floor(G) + 1 bound states."""
    return math.floor(g), math.floor(g) + 1


def _bracket(nu: float, mu_im: float, alpha: float, deriv: bool):
    """Re of y^nu (1-y)^mu 2F1(nu+mu, nu+mu+1; 2nu+1; y) at the origin, or of
    its y-derivative; y = 1/(1 + e^-alpha), mu = i mu_im.

    The y-derivative has the sign of -dpsi/dx(0+), so its sign changes are
    those of the even matching condition.
    """
    with mpmath.workdps(30 + int(alpha / 2.0)):
        y1 = 1 / (1 + mpmath.exp(alpha))
        y = 1 - y1
        mu = mpmath.mpc(0, mu_im)
        nu = mpmath.mpf(nu)
        a = nu + mu
        b = a + 1
        c = 2 * nu + 1
        w = mpmath.exp(nu * mpmath.log(y) + mu * mpmath.log(y1))
        br = w * mpmath.hyp2f1(a, b, c, y)
        if deriv:
            fp = mpmath.hyp2f1(a + 1, b + 1, c + 1, y) * (a * b / c)
            br = (nu / y) * br - (mu / y1) * br + w * fp
        return float(br.real)


def level_matching(well: tuple[float, float, float], energy: float, parity: str) -> float:
    """psi(0) (odd) or -dpsi/dy at the origin (even) of the decaying solution."""
    v0, a, b = well
    nu = b * math.sqrt(-KAPPA2 * energy)
    mu_im = b * math.sqrt(KAPPA2 * (energy + u0(v0, a, b)))
    return _bracket(nu, mu_im, a / b, parity == "even")


def hbs_matching(alpha: float, beta: float, odd: bool) -> float:
    """The zero-energy (nu = 0) matching condition at the origin."""
    return _bracket(0.0, beta, alpha, not odd)


def level_window(v0: float) -> float:
    """Half-width of the energy window a level must bracket, in MeV."""
    return max(1e-6 * v0, 1e-5)


BETA_WINDOW = 1e-5


def wkb_action(well: tuple[float, float, float], energy: float) -> float:
    """F(E) = (2/pi) int_0^x2 sqrt(kappa2 (E - V)) dx by adaptive quadrature,
    in t with x = x2 - t^2, which takes the square root out of the turning
    point x2."""
    v0, a, b = well
    big_u0 = u0(v0, a, b)
    x2 = a + b * math.log(big_u0 / -energy - 1.0)

    def integrand(t):
        v = -big_u0 / (1.0 + math.exp((x2 - t * t - a) / b))
        return 2.0 * t * math.sqrt(max(KAPPA2 * (energy - v), 0.0))

    val, _ = quad(integrand, 0.0, math.sqrt(x2), points=[math.sqrt(x2 - a)] if x2 > a else None,
                  epsabs=0.0, epsrel=1e-11, limit=400)
    return 2.0 * val / math.pi


def zero_energy_counts(alphas, betas, tail: float = 40.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bound-state counts per parity, and where each parity's last node lies.

    Integrates psi'' + beta^2 s(xi) psi = 0, s = 1/(1 + e^(xi - alpha)), in
    units of b from xi = 0 to max(alpha) + tail for many wells at once, for
    the even (psi = 1, psi' = 0) and odd (psi = 0, psi' = 1) regular
    solutions.  Beyond the well each solution is a line A + B xi; a zero of
    that line past the grid counts as one more node.  Returns (even counts,
    odd counts, even zeros, odd zeros), the zeros being where each line
    crosses 0.  A zero far out means the well is just past a critical beta_n
    and its last state of that parity is barely bound, by about
    1 / (kappa2 (b * zero)^2).
    """
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    al = np.concatenate((alphas, alphas))
    f_scale = np.concatenate((betas, betas)) ** 2
    h = min(0.02, 0.05 / float(betas.max()))
    steps = int(math.ceil((float(alphas.max()) + tail) / h))
    h12 = h * h / 12.0
    m = alphas.size

    def f_at(xi):
        return f_scale / (1.0 + np.exp(np.clip(xi - al, -700.0, 700.0)))

    f0, f1 = f_at(0.0), f_at(h)
    fp0 = -f0 * (1.0 - f0 / f_scale)
    prev = np.concatenate((np.ones(m), np.zeros(m)))
    cur = np.concatenate((1.0 - f0[:m] * h * h / 2.0 - fp0[:m] * h**3 / 6.0,
                          h - f0[m:] * h**3 / 6.0))
    nodes = np.zeros(2 * m, dtype=int)
    f_prev, f_cur = f0, f1
    for i in range(2, steps + 1):
        f_next = f_at(i * h)
        nxt = (2.0 * (1.0 - 5.0 * h12 * f_cur) * cur - (1.0 + h12 * f_prev) * prev) / (1.0 + h12 * f_next)
        nodes += (nxt * cur < 0.0)
        prev, cur = cur, nxt
        f_prev, f_cur = f_cur, f_next
    slope = (cur - prev) / h
    xi_end = steps * h
    with np.errstate(divide="ignore"):
        crossing = np.where(slope != 0.0, xi_end - cur / slope, np.inf)
    nodes += (crossing > xi_end)
    return nodes[:m], nodes[m:], crossing[:m], crossing[m:]


def below_resolution(zero: float, well: tuple[float, float, float]) -> bool:
    """True when a state whose line zero lies at ``zero`` (units of b) is bound
    by less than NEAR_THRESHOLD * v0: closer to E = 0 than an energy scan
    that stops at -1e-6 v0 can resolve."""
    v0, _, b = well
    return zero * b > 1.0 / math.sqrt(KAPPA2 * NEAR_THRESHOLD * v0)


NEAR_THRESHOLD = 2e-6
