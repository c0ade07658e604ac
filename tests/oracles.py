"""Independent oracles for the PSD engine tests.

Everything here is built from first principles with bare complex arithmetic
(cavity-filtered light PSD, its displacement conversion), deliberately not
reusing the package's spectral code paths.
"""

import cmath
import math

import numpy as np


def chi_c(omega, kappa, delta=0.0):
    return 1.0 / (kappa / 2.0 - 1j * (omega + delta))


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


def force_psd_opt(rho, eps, n_th, p=None):
    """Force PSD at the optimal angle, at power p or at the optimal power,
    as its additive terms."""
    if p is None:
        return 2.0 * (n_th + 0.5), math.sqrt(1.0 / eps + (1.0 - eps) / eps * rho * rho)
    x2 = chim2(rho)
    return (
        2.0 * (n_th + 0.5),
        1.0 / (2.0 * eps * p * x2),
        0.5 * p * (1.0 + (1.0 - eps) * rho * rho) * x2,
    )


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
