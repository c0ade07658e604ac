"""Homodyne displacement and light power spectral densities.

Dimensionless convention: the zero-point motion contributes 1 to the
displacement PSD on mechanical resonance, and probe power p is normalized to
the on-resonance SQL power.  The displacement PSD decomposes additively into

    total = s_m + s_ii + s_ff + s_corr + s_ln

with a mechanical term (thermal + zero point), shot-noise imprecision,
backaction (already filtered by |chi_m|^2), the imprecision-backaction
cross-correlation, and an optional classical-noise term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Detection,
    MechanicalMode,
    OpticalCavity,
    check_finite,
    check_finite_fields,
    chi_c,
    chi_m,
    chi_m_dimensionless,
    cot,
    pi_minus,
    pi_plus,
    rho_from_omega,
    _require_resonant_probe,
)
from .errors import DivergenceError, GridRangeError, ParameterError

_SIN_FLOOR = 1e-12


@dataclass(frozen=True)
class SpectrumComponents:
    """Additive terms of the dimensionless displacement PSD: floats at one
    frequency, or equally shaped arrays from the broadcasting kernels."""

    s_m: float
    s_ii: float
    s_ff: float
    s_corr: float
    s_ln: float = 0.0

    @property
    def terms(self) -> tuple:
        return (self.s_m, self.s_ii, self.s_ff, self.s_corr, self.s_ln)

    @property
    def total(self) -> float:
        return self.s_m + self.s_ii + self.s_ff + self.s_corr + self.s_ln


@dataclass(frozen=True)
class ClassicalNoise:
    """Fractional in-cavity classical noise, relative to shot noise.

    c_aa is amplitude noise, c_pp phase noise.  The cross-correlation is the
    fully-correlated value sqrt(c_aa * c_pp) and is always derived, never
    stored.
    """

    c_aa: float = 0.0
    c_pp: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        for key in ("c_aa", "c_pp"):
            if getattr(self, key) < 0:
                raise ParameterError(f"{key} must be >= 0, got {getattr(self, key)}")

    @property
    def c_ap(self) -> float:
        return math.sqrt(self.c_aa * self.c_pp)

    @property
    def is_zero(self) -> bool:
        return self.c_aa == 0.0 and self.c_pp == 0.0


@dataclass(frozen=True)
class ExternalForce:
    """Coherent external force drive at a single frequency.

    amplitude is in newtons; phi_f matters only for synodyne readout.
    """

    amplitude: float
    omega_f: float
    phi_f: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        if self.amplitude < 0:
            raise ParameterError("force amplitude must be >= 0")


def _values(x):
    """The distinct values of a scalar or array argument, each checked once."""
    return np.unique(x).tolist() if isinstance(x, np.ndarray) else (x,)


def _check_phi(phi):
    for value in _values(phi):
        if not 0.0 < value < math.pi or abs(math.sin(value)) < _SIN_FLOOR:
            raise DivergenceError(
                "displacement measurement diverges at phi = 0 or pi; "
                f"got phi = {value} rad"
            )


def _check_p(p):
    for value in _values(p):
        if not 0.0 < value < math.inf:
            raise DivergenceError(
                f"imprecision diverges for p <= 0, backaction for p = inf; got p = {value}"
            )


def point_view(evaluate):
    """Decorator for a point evaluator, whose result is SpectrumComponents,
    a tuple or one value; each 0-d value is returned as a Python float.  It
    runs with float64 warnings off, and a result that is not finite, from an
    overflow on the way, is a DivergenceError."""

    @functools.wraps(evaluate)
    def view(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = evaluate(*args, **kwargs)
                comps, many = isinstance(out, SpectrumComponents), isinstance(out, tuple)
                parts = tuple(
                    float(v) if np.ndim(v) == 0 else v
                    for v in (out.terms if comps else out if many else (out,))
                )
                finite = np.isfinite(parts + (sum(parts),) if comps else parts).all()
        except ArithmeticError:  # a Python float overflow or division by zero
            finite = False
        if not finite:
            raise DivergenceError(f"{evaluate.__name__} overflows float64 at these inputs")
        return SpectrumComponents(*parts) if comps else parts if many else parts[0]

    return view


def thermal_term(rho, n_th):
    """Thermal + zero-point motion s_m = 2 (n_th + 1/2) |chi_m|^2; broadcasts."""
    return 2.0 * (n_th + 0.5) * np.abs(chi_m_dimensionless(rho)) ** 2


def budget_terms(rho, p, epsilon, n_th, imprecision, correlation, s_ln=0.0):
    """Broadcasting displacement-PSD budget of a linear readout.

    s_m    = 2 (n_th + 1/2) |chi_m|^2
    s_ii   = imprecision / (2 eps p)
    s_ff   = (p/2) |chi_m|^2
    s_corr = -correlation * |chi_m|^2

    Every argument broadcasts; the five terms come back as arrays of the
    common shape.  rho is checked here, p and the angles by the callers.
    """
    check_finite("rho", rho)
    chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
    return SpectrumComponents(
        *np.broadcast_arrays(
            thermal_term(rho, n_th),
            imprecision / (2.0 * epsilon * p),
            0.5 * p * chim2,
            -correlation * chim2,
            s_ln,
        )
    )


def homodyne_terms(rho, p, phi, epsilon: float, n_th: float, s_ln=0.0):
    """Broadcasting form of displacement_psd over arrays rho, p and phi.

    Each distinct input value is checked once; s_ln, when given, is a
    pre-computed classical-noise term broadcastable to the same shape.
    """
    _check_phi(phi)
    _check_p(p)
    c = cot(phi)
    return budget_terms(rho, p, epsilon, n_th, 1.0 + c * c, c * rho, s_ln)


@point_view
def displacement_psd(
    rho: float,
    p: float,
    phi: float,
    det: Detection,
    mode: MechanicalMode,
    s_ln: float = 0.0,
) -> SpectrumComponents:
    """Dimensionless displacement PSD components at detuning rho: the
    homodyne_terms budget at one point, with imprecision 1 + cot^2 phi and
    correlation cot(phi) rho.

    The optional s_ln slot carries a pre-computed classical-noise
    contribution in the same units (zero by default).
    """
    return homodyne_terms(rho, p, phi, det.epsilon, mode.n_th, s_ln)


def displacement_psd_cavity(
    omega: float,
    p: float,
    phi: float,
    det: Detection,
    mode: MechanicalMode,
    cav: OpticalCavity,
    s_ln: float = 0.0,
) -> SpectrumComponents:
    """Displacement PSD retaining the cavity's weak frequency dependence:
    displacement_psd at the power p |chi_c_tilde(omega)|^2 the cavity passes,
    so the imprecision scales as 1/|chi_c_tilde|^2 and the backaction as
    |chi_c_tilde|^2, with chi_c_tilde unity at omega_m.  Resonant probe only.
    """
    _require_resonant_probe(cav, "displacement_psd_cavity")
    chict2 = abs(chi_c(omega, cav)) ** 2 / abs(chi_c(mode.omega_m, cav)) ** 2
    rho = float(rho_from_omega(omega, mode))
    return displacement_psd(rho, p * chict2, phi, det, mode, s_ln=s_ln)


def light_terms(rho, phi, p: float, epsilon: float, n_th: float):
    """Shot-noise-normalized light PSD, S_phi = 2 eps p sin^2(phi) S_xx, as
    terms that broadcast over rho and phi.

    Written in the limit form in which the sin^2(phi) factor cancels the
    shot-noise divergence, so phi = 0 and pi are allowed (pure shot noise
    remains).  Components map to the displacement decomposition scaled by
    2 eps p sin^2(phi), with the imprecision term collapsing to exactly 1.
    """
    if not 0.0 <= p < math.inf:
        raise ParameterError(f"p must be finite and >= 0, got {p}")
    check_finite("rho", rho)
    check_finite("phi", phi)
    chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
    s2 = np.sin(phi) ** 2
    scale = 2.0 * epsilon * p * s2
    return SpectrumComponents(
        s_m=scale * thermal_term(rho, n_th),
        s_ii=1.0,
        s_ff=scale * 0.5 * p * chim2,
        s_corr=-2.0 * epsilon * p * np.sin(phi) * np.cos(phi) * rho * chim2,
    )


@point_view
def light_psd(rho, phi, p, det: Detection, mode: MechanicalMode) -> float:
    """Total light PSD of light_terms at one point (ponderomotive squeezing < 1)."""
    return light_terms(rho, phi, p, det.epsilon, mode.n_th).total


def classical_noise_psd(
    omega: float,
    phi: float,
    det: Detection,
    cav: OpticalCavity,
    noise: ClassicalNoise,
) -> float:
    """Classical-noise contribution to the light PSD (shot-noise units).

    2 eps (kappa/2)^2 |sqrt(c_aa) (A + B) + i sqrt(c_pp) (A - B)|^2 with
    A = chi_c(-omega) e^{-i phi} and B = conj(chi_c(omega)) e^{i phi}: the
    sum of a part proportional to c_aa + c_pp, a quadrature-exchange part
    proportional to c_aa - c_pp and the amplitude-phase cross term, written
    as one squared magnitude so it is never negative.  For a resonant probe
    at phi = 90 deg this reduces to 8 eps (kappa/2)^2 |chi_c(omega)|^2 c_pp.
    Broadcasts over omega and phi.
    """
    a = chi_c(-omega, cav) * np.exp(-1j * phi)
    b = np.conj(chi_c(omega, cav)) * np.exp(1j * phi)
    amp = math.sqrt(noise.c_aa) * (a + b) + 1j * math.sqrt(noise.c_pp) * (a - b)
    return 2.0 * det.epsilon * (cav.kappa / 2.0) ** 2 * np.abs(amp) ** 2


def classical_noise_displacement(
    omega: float,
    phi: float,
    p: float,
    det: Detection,
    cav: OpticalCavity,
    noise: ClassicalNoise,
) -> float:
    """Classical-noise term converted to dimensionless displacement units.

    Broadcasts over omega, phi and p.
    """
    _check_phi(phi)
    _check_p(p)
    s_ln = classical_noise_psd(omega, phi, det, cav, noise)
    return s_ln / (2.0 * det.epsilon * p * np.sin(phi) ** 2)


def squashing_ratio(
    omega: float,
    phi: float,
    cav: OpticalCavity,
    mode: MechanicalMode,
    noise: ClassicalNoise,
) -> float:
    """Signed classical-noise/mechanics cross-correlation (squashing) term.

    Returned in units of the on-resonance SQL PSD:
    -(cot(phi) c_aa + c_ap) * Im[kappa chi_c(omega) chi_m_tilde(omega)].
    The quantum efficiency cancels in this normalization.  Resonant probe
    only; can be negative, squashing the apparent PSD.
    """
    _require_resonant_probe(cav, "squashing_ratio")
    _check_phi(phi)
    rho = float(rho_from_omega(omega, mode))
    kernel = (cav.kappa * chi_c(omega, cav) * chi_m_dimensionless(rho)).imag
    return -(cot(phi) * noise.c_aa + noise.c_ap) * float(kernel)


def mechanical_psd(
    omega: float,
    g: float,
    n_photons: float,
    mode: MechanicalMode,
    cav: OpticalCavity,
    noise: Optional[ClassicalNoise] = None,
) -> float:
    """Smooth part of the resonator displacement PSD <x x>(omega).

    Displacement in zero-point units, PSD in s/rad; contains the thermal +
    zero-point term, the backaction drive, and (optionally) the classical
    intensity/phase noise drive.  No external force (see mechanical_psd_full).
    Broadcasts over omega.
    """
    if n_photons < 0:
        raise ParameterError("photon number must be >= 0")
    chim2 = abs(chi_m(omega, mode)) ** 2
    g2a2 = g * g * n_photons
    cm2 = abs(chi_c(-omega, cav)) ** 2
    cp2 = abs(chi_c(omega, cav)) ** 2
    out = mode.gamma * (mode.n_th + 0.5) * chim2
    out += g2a2 * chim2 * (cav.kappa / 2.0) * (cm2 + cp2)
    if noise is not None and not noise.is_zero:
        cross = (chi_c(-omega, cav) * chi_c(omega, cav)).imag
        out += (
            g2a2
            * chim2
            * (cav.kappa / 2.0)
            * (
                abs(pi_plus(omega, cav)) ** 2 * noise.c_aa
                + abs(pi_minus(omega, cav)) ** 2 * noise.c_pp
                - 4.0 * cross * noise.c_ap
            )
        )
    return out


def _bin_widths(grid: np.ndarray) -> np.ndarray:
    edges = np.empty(grid.size + 1)
    edges[1:-1] = 0.5 * (grid[1:] + grid[:-1])
    edges[0] = grid[0] - 0.5 * (grid[1] - grid[0])
    edges[-1] = grid[-1] + 0.5 * (grid[-1] - grid[-2])
    return np.diff(edges)


def bin_index(grid: np.ndarray, omega: float) -> int:
    """Index of the grid bin containing omega; error when out of range."""
    if omega < grid[0] or omega > grid[-1]:
        raise GridRangeError(
            f"frequency {omega} outside evaluation grid "
            f"[{grid[0]}, {grid[-1]}]"
        )
    return int(np.argmin(np.abs(grid - omega)))


def mechanical_psd_full(
    grid: np.ndarray,
    g: float,
    n_photons: float,
    mode: MechanicalMode,
    cav: OpticalCavity,
    noise: Optional[ClassicalNoise] = None,
    force: Optional[ExternalForce] = None,
    p_zp: Optional[float] = None,
) -> np.ndarray:
    """Resonator displacement PSD over a frequency grid, with optional force.

    The delta-function force line is discretized as bin mass divided by bin
    width, assigned to the grid bin containing omega_f.  p_zp (the zero-point
    momentum hbar/(2 x_zp)) is required when a force is given, to convert
    newtons to the dimensionless drive (F / 4 p_zp)^2.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be a sorted 1-D array of >= 2 points")
    out = mechanical_psd(grid, g, n_photons, mode, cav, noise)
    if force is not None:
        if p_zp is None or not p_zp > 0:
            raise ParameterError("p_zp must be given (> 0) with an external force")
        i = bin_index(grid, force.omega_f)
        width = _bin_widths(grid)[i]
        mass = (force.amplitude / (4.0 * p_zp)) ** 2 * abs(
            chi_m(force.omega_f, mode)
        ) ** 2
        out[i] += mass / width
    return out
