"""Independent oracles for the PSD engine tests.

Everything here is built from first principles with bare complex arithmetic
(cavity-filtered light PSD, its displacement conversion), deliberately not
reusing the package's spectral code paths.
"""

import cmath
import decimal
import functools
import math
from decimal import Decimal

import numpy as np


def chi_c(omega, kappa):
    return 1.0 / (kappa / 2.0 - 1j * omega)


def chi_m(omega, gamma, omega_m):
    return 1.0 / (gamma / 2.0 - 1j * (omega - omega_m))


def sql_photons_resonant(kappa, gamma, omega_m):
    """Photon number (times g^2) for on-resonance SQL detection: returns
    g^2 * a_sql^2, which is all the light PSD needs."""
    return gamma / (4.0 * kappa * abs(chi_c(omega_m, kappa)) ** 2)


def light_psd_full(omega, phi, eps, kappa, gamma, omega_m, n_th, g2a2):
    """Cavity-filtered light PSD: shot noise + transfer * <xx> + cross term."""
    cm = chi_c(-omega, kappa)
    cp = chi_c(omega, kappa)
    xm = chi_m(omega, gamma, omega_m)
    e2p = np.exp(-2j * phi)
    fxx = eps * kappa * g2a2 * (
        abs(cm) ** 2 + abs(cp) ** 2 - 2.0 * (cm * cp * e2p).real
    )
    s_mux = eps * kappa * g2a2 * (abs(cm) ** 2 - abs(cp) ** 2) * (1j * xm).imag
    s_mux -= 2.0 * eps * kappa * g2a2 * (cm * cp * e2p).imag * (1j * xm).real
    xx = gamma * (n_th + 0.5) * abs(xm) ** 2
    xx += g2a2 * abs(xm) ** 2 * (kappa / 2.0) * (abs(cm) ** 2 + abs(cp) ** 2)
    return 1.0 + fxx * xx + s_mux


def displacement_psd_full(rho, p, phi, eps, kappa, gamma, omega_m, n_th):
    """Dimensionless displacement PSD from the full light PSD.

    Converts the normalized power p to g^2 a^2 through the on-resonance SQL
    photon number, evaluates the light PSD, and divides by the
    light-to-displacement transfer 2 eps p sin^2(phi).
    """
    omega = omega_m + rho * gamma / 2.0
    g2a2 = p * sql_photons_resonant(kappa, gamma, omega_m)
    s_phi = light_psd_full(omega, phi, eps, kappa, gamma, omega_m, n_th, g2a2)
    return s_phi / (2.0 * eps * p * np.sin(phi) ** 2)


# --- the dimensionless budget, term by term --------------------------------
#
# Scalar formulas on Python floats, written out apart from the package's
# broadcasting kernels, which its point evaluators are views of.  Each
# returns its terms and the summed magnitude of its additive parts, the
# scale of the float64 tolerance.


def chim2(rho):
    """|chi_m(rho)|^2 = 1 / (1 + rho^2)."""
    return 1.0 / (1.0 + rho * rho)


def homodyne_terms(rho, p, phi, eps, n_th):
    """(s_m, s_ii, s_ff, s_corr) of homodyne readout at angle phi."""
    c = math.cos(phi) / math.sin(phi)
    x2 = chim2(rho)
    return (
        2.0 * (n_th + 0.5) * x2,
        (1.0 + c * c) / (2.0 * eps * p),
        0.5 * p * x2,
        -c * rho * x2,
    )


def synodyne_terms(rho, p, beta, lo_phi, eps, n_th):
    """(s_m, s_ii, s_ff, s_corr) of a two-tone LO with ratio beta and phase
    lo_phi: shot noise (|alpha_a|^2 + |alpha_p|^2) / |alpha_p|^2 and
    correlation Im(conj(alpha_a) alpha_p) / |alpha_p|^2."""
    alpha_a = 0.5 * (cmath.exp(-1j * lo_phi) + beta * cmath.exp(1j * lo_phi))
    alpha_p = -0.5j * (cmath.exp(-1j * lo_phi) - beta * cmath.exp(1j * lo_phi))
    ap2 = abs(alpha_p) ** 2
    x2 = chim2(rho)
    return (
        2.0 * (n_th + 0.5) * x2,
        (abs(alpha_a) ** 2 + ap2) / ap2 / (2.0 * eps * p),
        0.5 * p * x2,
        -(alpha_a.conjugate() * alpha_p).imag / ap2 * x2,
    )


def uncertainty_product(phi, p, eps):
    """(S_II S_FF, 1/4 + S_IF^2) with S_II = (1 + cot^2 phi) / (2 eps p),
    S_FF = p / 2 and S_IF = -cot(phi) / 2."""
    c = math.cos(phi) / math.sin(phi)
    return (1.0 + c * c) / (2.0 * eps * p) * (0.5 * p), 0.25 + 0.25 * c * c


def lo_opt(rho, p, eps):
    """(beta, phi) of the optimal two-tone LO: with x = eps p |chi_m|^2 the
    ratio (1 + x) / |1 - x|, on the phase branch (phi = pi/2) for x < 1 and
    the amplitude branch (phi = 0) above."""
    x = eps * p * chim2(rho)
    return (1.0 + x) / abs(1.0 - x), (0.0 if x > 1.0 else math.pi / 2.0)


def classical_noise_displacement(omega, phi, p, kappa, c_aa, c_pp):
    """(s_ln, scale): the classical-noise term in displacement units as the
    sum of three parts, a common-mode part, a quadrature-exchange part and
    the amplitude-phase cross term, which can cancel; scale sums their
    magnitudes."""
    cm, cp = chi_c(-omega, kappa), chi_c(omega, kappa)
    cross = cm * cp * cmath.exp(-2j * phi)
    parts = (
        (c_aa + c_pp) * (abs(cm) ** 2 + abs(cp) ** 2),
        2.0 * (c_aa - c_pp) * cross.real,
        -4.0 * math.sqrt(c_aa * c_pp) * cross.imag,
    )
    to_displacement = (kappa / 2.0) ** 2 / (p * math.sin(phi) ** 2)
    return sum(parts) * to_displacement, sum(map(abs, parts)) * to_displacement


# --- closed-form optima ------------------------------------------------------
#
# Optimal powers and the limits they reach, which the package no longer
# evaluates itself: the tests check its fixed-power curves against them.


def p_opt(rho, eps):
    """Power minimizing the homodyne PSD at the optimal angle:
    1 / (sqrt(eps (1 + (1 - eps) rho^2)) |chi_m|^2)."""
    return 1.0 / (math.sqrt(eps * (1.0 + (1.0 - eps) * rho * rho)) * chim2(rho))


def ql_psd(rho, eps, n_th):
    """The QL total PSD, the homodyne PSD at the optimal angle and p_opt:
    2 (n_th + 1/2) |chi_m|^2 + sqrt(1/eps + (1 - eps)/eps rho^2) |chi_m|^2."""
    x2 = 1.0 / (1.0 + np.square(rho))
    return (2.0 * (n_th + 0.5) + np.sqrt(1.0 / eps + (1.0 - eps) / eps * np.square(rho))) * x2


def synodyne_p_opt(rho, eps):
    """Power minimizing the synodyne PSD at the optimal ratio:
    1 / (sqrt(eps ((1 - eps) + rho^2)) |chi_m|^2), infinite at eps = 1, rho = 0."""
    radicand = eps * ((1.0 - eps) + rho * rho)
    return math.inf if radicand == 0.0 else 1.0 / (math.sqrt(radicand) * chim2(rho))


def synodyne_ql(rho, eps, n_th):
    """The synodyne PSD at the optimal ratio and synodyne_p_opt:
    2 (n_th + 1/2) |chi_m|^2 + sqrt((1 - eps)/eps + rho^2/eps) |chi_m|^2."""
    return (2.0 * (n_th + 0.5) + math.sqrt((1.0 - eps) / eps + rho * rho / eps)) * chim2(rho)


# --- 50-digit references for the |chi_m|^2 terms ------------------------------
#
# Each term in decimal arithmetic at 50 significant digits, from its float64
# inputs taken exactly, so no partial result overflows or underflows (the
# decimal exponent range is +-999999).  The package builds the same terms in
# float64 from chi_m_parts; these are the values they must round to.

DIGITS = decimal.Context(prec=50)
# a float64 term is within TERM_TOL relative of its 50-digit value, with
# float64's smallest normal number as the floor of the scale
TERM_TOL = 8 * Decimal(np.finfo(float).eps)
TINY = Decimal(np.finfo(float).tiny)


def close(got, want, tol=TERM_TOL):
    """Whether the float got is within tol relative of the Decimal want."""
    return abs(Decimal(float(got)) - want) <= tol * (abs(want) + TINY)


def _decimal(term):
    """Run term under DIGITS with each float argument as its exact Decimal."""

    @functools.wraps(term)
    def exact(*args):
        with decimal.localcontext(DIGITS):
            return term(*(Decimal(a) if isinstance(a, float) else a for a in args))

    return exact


def _sin_cos(x):
    """(sin x, cos x) by their Taylor series; |x| <= 4 here."""
    sin = cos = Decimal(0)
    term, k = Decimal(1), 0  # x^k / k!
    while abs(term) > Decimal("1e-70"):
        if k % 4 == 0:
            cos += term
        elif k % 4 == 1:
            sin += term
        elif k % 4 == 2:
            cos -= term
        else:
            sin -= term
        k += 1
        term = term * x / k
    return sin, cos


def _atan(x):
    """arctan x: three argument halvings to |x| < 0.2, then its series."""
    for _ in range(3):
        x = x / (1 + (1 + x * x).sqrt())
    total, power, k = Decimal(0), x, 0
    while abs(power) > abs(x) * Decimal("1e-60"):
        total += (-1) ** k * power / (2 * k + 1)
        power *= x * x
        k += 1
    return 8 * total


@_decimal
def thermal_exact(rho, n_th):
    """s_m = 2 (n_th + 1/2) / (1 + rho^2)."""
    return 2 * (n_th + Decimal("0.5")) / (1 + rho * rho)


@_decimal
def homodyne_exact(rho, p, phi):
    """(s_ff, s_corr) of homodyne readout: (p/2) / (1 + rho^2) and
    -cot(phi) rho / (1 + rho^2)."""
    sin, cos = _sin_cos(phi)
    return p / 2 / (1 + rho * rho), -cos / sin * rho / (1 + rho * rho)


@_decimal
def synodyne_corr_exact(rho, corr):
    """s_corr = -corr / (1 + rho^2) of a two-tone LO with correlation coefficient corr."""
    return -corr / (1 + rho * rho)


@_decimal
def light_exact(rho, phi, p, eps, n_th):
    """(s_m, s_ff, s_corr) of the light PSD: 2 eps p sin^2(phi) times the
    displacement terms, and -2 eps p sin cos rho / (1 + rho^2)."""
    sin, cos = _sin_cos(phi)
    x2 = 1 / (1 + rho * rho)
    scale = 2 * eps * p * sin * sin
    return scale * 2 * (n_th + Decimal("0.5")) * x2, scale * p / 2 * x2, -2 * eps * p * sin * cos * rho * x2


@_decimal
def residual_backaction_exact(rho, p, a, b):
    """(p/2) (a + b rho^2) / (1 + rho^2)^2."""
    return p / 2 * (a + b * rho * rho) / (1 + rho * rho) ** 2


@_decimal
def optimal_readout_exact(rho, p, eps, n_th, a, b):
    """The total of a correlation-optimal readout: the thermal term, the shot
    term 1/(2 eps p) and the residual backaction (p/2) (a + b rho^2) / (1 + rho^2)^2."""
    return thermal_exact(rho, n_th) + 1 / (2 * eps * p) + residual_backaction_exact(rho, p, a, b)


@_decimal
def sql_exact(rho):
    """1 / sqrt(1 + rho^2)."""
    return 1 / (1 + rho * rho).sqrt()


@_decimal
def ql_added_exact(rho, eps):
    """sqrt(1/eps + (1 - eps)/eps rho^2) / (1 + rho^2)."""
    return (1 / eps + (1 - eps) / eps * rho * rho).sqrt() / (1 + rho * rho)


@_decimal
def phase_added_min_exact(rho, eps):
    """|chi_m| / sqrt(eps) = 1 / sqrt(eps (1 + rho^2)), the least added noise
    of phase-quadrature (phi = 90 deg) readout, at p = 1 / (sqrt(eps) |chi_m|)."""
    return 1 / (eps * (1 + rho * rho)).sqrt()


@_decimal
def phi_opt_exact(rho, p, eps):
    """The angle in (0, pi) whose cotangent is eps p rho / (1 + rho^2)."""
    c = eps * p * rho / (1 + rho * rho)
    if abs(c) <= 1:
        return 2 * _atan(Decimal(1)) - _atan(c)
    return _atan(1 / c) + (0 if c > 0 else 4 * _atan(Decimal(1)))


@_decimal
def beta_opt_exact(rho, p, eps):
    """(1 + x) / |1 - x| with x = eps p / (1 + rho^2), and its condition
    number 2 x / |1 - x^2|; both infinite at the pole x = 1."""
    x = eps * p / (1 + rho * rho)
    if x == 1:
        return Decimal("Infinity"), Decimal("Infinity")
    return (1 + x) / abs(1 - x), 2 * x / abs(1 - x * x)
