"""Unit conventions, susceptibilities, and probe-power normalization.

All frequencies are angular (rad/s) and all angles are radians; any Hz or
degree conversion happens at the CLI boundary.  The canonical dimensionless
frequency coordinate is the mechanical detuning

    rho = 2 (omega - omega_m) / gamma,

and probe power is expressed as p = n_photons / n_sql(omega_m), the photon
number relative to the on-resonance SQL requirement.  The cooperativity
commonly used elsewhere is C = p / 4.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParameterError, UnsupportedConfigError

HIGH_Q_THRESHOLD = 1e-3


def check_finite(name: str, x):
    """ParameterError naming the argument when x holds a nan or an inf."""
    finite = np.isfinite(x)
    if not finite.all():
        raise ParameterError(f"{name} must be finite, got {np.asarray(x)[~finite].flat[0]}")


def check_finite_fields(obj):
    """check_finite on each float field of dataclass obj, and each tuple of floats."""
    for f in fields(obj):
        if isinstance(getattr(obj, f.name), (float, tuple)):
            check_finite(f.name, getattr(obj, f.name))


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical resonator: frequency, effective linewidth, occupations.

    gamma and omega_m are *effective* values; optical damping and spring
    shifts are assumed to be already folded in by the caller.

    Parameters
    ----------
    omega_m : float
        Mechanical resonance frequency (rad/s, > 0).
    gamma : float
        Effective mechanical linewidth (rad/s, > 0).
    n_th : float
        Mean thermal phonon occupation (>= 0).
    n_ba : float
        Backaction-cooling occupation floor (>= 0).
    """

    omega_m: float
    gamma: float
    n_th: float = 0.0
    n_ba: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        if not self.omega_m > 0:
            raise ParameterError(f"omega_m must be positive, got {self.omega_m}")
        if not self.gamma > 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n_th < 0:
            raise ParameterError(f"n_th must be >= 0, got {self.n_th}")
        if self.n_ba < 0:
            raise ParameterError(f"n_ba must be >= 0, got {self.n_ba}")

    @property
    def is_high_q(self) -> bool:
        """True when gamma/omega_m < 1e-3, the regime the dimensionless
        spectra assume."""
        return self.gamma / self.omega_m < HIGH_Q_THRESHOLD


@dataclass(frozen=True)
class OpticalCavity:
    """Optical cavity: linewidth kappa and probe detuning delta (rad/s)."""

    kappa: float
    delta: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        if not self.kappa > 0:
            raise ParameterError(f"kappa must be positive, got {self.kappa}")


@dataclass(frozen=True)
class Detection:
    """Total quantum efficiency of the readout chain, 0 < epsilon <= 1."""

    epsilon: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ParameterError(
                f"epsilon must be in (0, 1], got {self.epsilon}"
            )


def rho_from_omega(omega, mode: MechanicalMode):
    """Dimensionless mechanical detuning rho = 2(omega - omega_m)/gamma."""
    return 2.0 * (np.asarray(omega) - mode.omega_m) / mode.gamma


def omega_from_rho(rho, mode: MechanicalMode):
    """Inverse of rho_from_omega."""
    return mode.omega_m + np.asarray(rho) * mode.gamma / 2.0


def chi_m(omega, mode: MechanicalMode):
    """Mechanical susceptibility chi_m(omega) = 1/(gamma/2 - i(omega - omega_m)).

    Units 1/(rad/s); |chi_m(omega_m)| = 2/gamma.
    """
    return 1.0 / (mode.gamma / 2.0 - 1j * (np.asarray(omega) - mode.omega_m))


def chi_m_dimensionless(rho):
    """Dimensionless mechanical susceptibility (1 - i rho)^-1.

    Equals chi_m(omega) / |chi_m(omega_m)| with rho = 2(omega - omega_m)/gamma.
    """
    return 1.0 / (1.0 - 1j * np.asarray(rho))


def chi_c(omega, cav: OpticalCavity):
    """Cavity susceptibility chi_c(omega) = 1/(kappa/2 - i(omega + delta))."""
    return 1.0 / (cav.kappa / 2.0 - 1j * (np.asarray(omega) + cav.delta))


def pi_plus(omega, cav: OpticalCavity):
    """Constructive cavity interference function chi_c*(-omega) + chi_c(omega)."""
    return np.conj(chi_c(-np.asarray(omega), cav)) + chi_c(omega, cav)


def pi_minus(omega, cav: OpticalCavity):
    """Destructive cavity interference function i(chi_c*(-omega) - chi_c(omega))."""
    return 1j * (np.conj(chi_c(-np.asarray(omega), cav)) - chi_c(omega, cav))


def _require_resonant_probe(cav: OpticalCavity, what: str):
    if cav.delta != 0.0:
        raise UnsupportedConfigError(
            f"{what} assumes a resonant probe (delta = 0); got delta = {cav.delta}"
        )


def sql_photon_number(omega, g, mode: MechanicalMode, cav: OpticalCavity):
    """Intracavity photon number required for SQL detection at omega.

    n_sql(omega) = gamma * sqrt(1 + rho^2) / (4 kappa g^2 |chi_c(omega)|^2),
    valid only for a resonant probe (delta = 0), where the SQL optimum lies.
    """
    _require_resonant_probe(cav, "sql_photon_number")
    if not g > 0:
        raise ParameterError(f"coupling g must be positive, got {g}")
    rho = rho_from_omega(omega, mode)
    chic2 = np.abs(chi_c(omega, cav)) ** 2
    return mode.gamma * np.sqrt(1.0 + rho**2) / (4.0 * cav.kappa * g**2 * chic2)


def normalized_power(n_photons, g, mode: MechanicalMode, cav: OpticalCavity):
    """Probe power p: photon number normalized to the on-resonance SQL value."""
    if np.any(np.asarray(n_photons) < 0):
        raise ParameterError("photon number must be >= 0")
    return np.asarray(n_photons) / sql_photon_number(mode.omega_m, g, mode, cav)


def photon_number_from_p(p, g, mode: MechanicalMode, cav: OpticalCavity):
    """Inverse of normalized_power."""
    return np.asarray(p) * sql_photon_number(mode.omega_m, g, mode, cav)


def cot(phi):
    """Cotangent, written out so the intent is visible at call sites."""
    return np.cos(phi) / np.sin(phi)
