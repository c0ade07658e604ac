"""Two-tone local-oscillator (synodyne) readout.

The LO carries tones split by twice the mechanical frequency, which
demodulates the mechanical resonance to DC; the dimensionless detuning rho
used throughout this module is therefore measured from the *shifted*
resonance.  Use rho_demodulated to convert an angular offset from omega_m.

With balanced sidebands (beta = 1) synodyne reduces exactly to homodyne
detection without the cross-correlation term; a slight imbalance turns the
correlation back on at DC, allowing sub-QL on-resonance sensitivity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Detection, MechanicalMode, OpticalCavity, check_finite_fields, chi_c,
    chi_m_dimensionless,
)
from .errors import BranchPoleError, DivergenceError, ParameterError
from .limits import OptimalPower, P_CAP
from .spectra import (
    ExternalForce,
    SpectrumComponents,
    _bin_widths,
    _check_p,
    bin_index,
    budget_terms,
    point_view,
    thermal_term,
)

_ALPHA_P_FLOOR = 1e-300


@dataclass(frozen=True)
class SynodyneLO:
    """Two-tone LO: sideband amplitude ratio beta = alpha_+/alpha_- and
    global phase phi.  Any extra phase between the tones only shifts phi and
    is fixed to zero."""

    beta: float
    phi: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")


def lo_coefficients(lo: SynodyneLO):
    """Amplitude/phase LO coefficients, normalized by alpha_-.

    alpha_a = (e^{-i phi} + beta e^{i phi}) / 2
    alpha_p = -i (e^{-i phi} - beta e^{i phi}) / 2

    Energy identity: |alpha_a|^2 + |alpha_p|^2 = (1 + beta^2)/2.
    """
    em = cmath.exp(-1j * lo.phi)
    ep = cmath.exp(1j * lo.phi)
    alpha_a = 0.5 * (em + lo.beta * ep)
    alpha_p = -0.5j * (em - lo.beta * ep)
    return alpha_a, alpha_p


def rho_demodulated(delta_omega, mode: MechanicalMode):
    """Dimensionless detuning from the demodulated (DC) resonance."""
    return 2.0 * np.asarray(delta_omega) / mode.gamma


def check_cavity_symmetry(
    cav: OpticalCavity, mode: MechanicalMode, delta_omega_max: float
):
    """Assert |chi_c(omega_m + d)|^2 ~ |chi_c(omega_m - d)|^2 over the band.

    Synodyne splits the signal into sidebands around omega_m; the model
    requires the cavity response to be symmetric across the band to a
    relative 1e-3.
    """
    d = abs(delta_omega_max)
    hi = abs(chi_c(mode.omega_m + d, cav)) ** 2
    lo_ = abs(chi_c(mode.omega_m - d, cav)) ** 2
    asym = abs(hi - lo_) / max(hi, lo_)
    if asym >= 1e-3:
        raise ParameterError(
            "cavity response asymmetric across the synodyne band: "
            f"relative asymmetry {asym:.2e} >= 1e-3"
        )


def _checked_lo(lo: SynodyneLO):
    """lo_coefficients(lo) and |alpha_p|^2; alpha_p = 0 is a DivergenceError."""
    alpha_a, alpha_p = lo_coefficients(lo)
    ap2 = abs(alpha_p) ** 2
    if ap2 < _ALPHA_P_FLOOR:
        raise DivergenceError(
            "alpha_p = 0: the LO carries no mechanical information "
            f"(beta = {lo.beta}, phi = {lo.phi})"
        )
    return alpha_a, alpha_p, ap2


@point_view
def synodyne_components(
    rho: float,
    p: float,
    lo: SynodyneLO,
    det: Detection,
    mode: MechanicalMode,
) -> SpectrumComponents:
    """Synodyne displacement PSD components at demodulated detuning rho: the
    synodyne_terms budget at one point."""
    return synodyne_terms(rho, p, lo, det.epsilon, mode.n_th)


def synodyne_terms(rho, p, lo: SynodyneLO, epsilon: float, n_th: float):
    """Broadcasting form of synodyne_components over arrays rho and p, with
    imprecision (|alpha_a|^2 + |alpha_p|^2) / |alpha_p|^2 and correlation
    Im(conj(alpha_a) alpha_p) / |alpha_p|^2."""
    _check_p(p)
    alpha_a, alpha_p, ap2 = _checked_lo(lo)
    shot = (abs(alpha_a) ** 2 + ap2) / ap2
    corr = (alpha_a.conjugate() * alpha_p).imag / ap2
    return budget_terms(rho, p, epsilon, n_th, shot, corr)


def synodyne_psd(
    rho: float, p: float, lo: SynodyneLO, det: Detection, mode: MechanicalMode
) -> float:
    """Total synodyne displacement PSD (dimensionless)."""
    return synodyne_components(rho, p, lo, det, mode).total


def beta_opt(
    rho: float, p: float, det: Detection, branch: str = "auto"
) -> float:
    """Optimal sideband ratio for the phase (phi=90 deg) or amplitude
    (phi=0 deg) branch.

    phase branch:     (1 + eps p |chi_m|^2) / (1 - eps p |chi_m|^2),
    amplitude branch: the same expression negated, positive above the
    crossover eps p |chi_m|^2 = 1.  "auto" picks the branch whose ratio is
    positive; exactly at the crossover the ratio has a pole and is an error.
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    x = det.epsilon * p * abs(chi_m_dimensionless(rho)) ** 2
    if x == 1.0:
        raise BranchPoleError(
            "eps * p * |chi_m|^2 = 1: branch crossover pole, no optimal ratio"
        )
    if branch == "auto":
        branch = "amplitude" if x > 1.0 else "phase"
    if branch == "phase":
        if x > 1.0:
            raise ParameterError(
                "phase branch (phi = 90 deg) is only valid for "
                f"eps p |chi_m|^2 < 1; got {x}"
            )
        return (1.0 + x) / (1.0 - x)
    if branch == "amplitude":
        if x < 1.0:
            raise ParameterError(
                "amplitude branch (phi = 0 deg) is only valid for "
                f"eps p |chi_m|^2 > 1; got {x}"
            )
        return (x + 1.0) / (x - 1.0)
    raise ParameterError(f"unknown branch {branch!r}")


def lo_opt(rho: float, p: float, det: Detection) -> SynodyneLO:
    """Optimal LO (branch angle and ratio) for the given detuning and power."""
    x = det.epsilon * p * abs(chi_m_dimensionless(rho)) ** 2
    phi = 0.0 if x > 1.0 else math.pi / 2.0
    return SynodyneLO(beta=beta_opt(rho, p, det), phi=phi)


def synodyne_variational(
    rho: float, p: float, det: Detection, mode: MechanicalMode
) -> float:
    """Synodyne PSD at the per-frequency optimal ratio, fixed power.

    2 (n_th + 1/2) |chi_m|^2 + synodyne_added_noise(rho, p, det)
    """
    return thermal_term(rho, mode.n_th) + synodyne_added_noise(rho, p, det)


def synodyne_added_noise(rho, p: float, det: Detection):
    """Probe-added noise at the optimal ratio, fixed power (broadcasts in rho).

    1/(2 eps p) + (p/2) ((1 - eps) + rho^2) |chi_m|^4
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    eps = det.epsilon
    chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
    return 1.0 / (2.0 * eps * p) + 0.5 * p * ((1.0 - eps) + rho**2) * chim2**2


def synodyne_p_opt(rho: float, det: Detection) -> OptimalPower:
    """Power minimizing synodyne_variational; diverges at eps=1, rho=0.

    The divergent case returns P_CAP with the saturated flag set; the
    limiting PSD there is the bare 2 (n_th + 1/2) (added noise -> 0).
    """
    eps = det.epsilon
    radicand = eps * ((1.0 - eps) + rho**2)
    chim2 = abs(chi_m_dimensionless(rho)) ** 2
    if radicand == 0.0:
        return OptimalPower(P_CAP, True)
    p = 1.0 / (math.sqrt(radicand) * chim2)
    return OptimalPower(min(p, P_CAP), p > P_CAP)


def synodyne_ql(rho, det: Detection, mode: MechanicalMode):
    """Synodyne PSD at optimal ratio and optimal power.

    2 (n_th + 1/2) |chi_m|^2 + sqrt((1-eps)/eps + rho^2/eps) |chi_m|^2;
    one zero-point motion on resonance for an ideal detector.
    """
    eps = det.epsilon
    chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
    return thermal_term(rho, mode.n_th) + np.sqrt(
        (1.0 - eps) / eps + rho**2 / eps
    ) * chim2


def synodyne_force_response(
    force: ExternalForce,
    lo: SynodyneLO,
    mode: MechanicalMode,
    grid: np.ndarray,
    p_zp: float,
) -> np.ndarray:
    """Per-bin displacement PSD from a coherent force, synodyne readout.

    grid holds demodulated angular frequencies (resonance at 0).  The force
    at omega_f produces delta lines at +/-(omega_f - omega_m); on resonance
    the two lines coincide and interfere, making the response depend on the
    force phase relative to arg(alpha_p) (single-quadrature sensitivity);
    off resonance the lines land in distinct bins and the response is phase
    independent.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be a sorted 1-D array of >= 2 points")
    if not p_zp > 0:
        raise ParameterError(f"p_zp must be positive, got {p_zp}")
    _, alpha_p, ap2 = _checked_lo(lo)
    widths = _bin_widths(grid)
    offset = force.omega_f - mode.omega_m
    amp2 = (force.amplitude / (4.0 * p_zp)) ** 2
    out = np.zeros_like(grid)
    i_plus = bin_index(grid, offset)
    i_minus = bin_index(grid, -offset)
    term_plus = alpha_p * cmath.exp(-1j * force.phi_f)
    term_minus = alpha_p.conjugate() * cmath.exp(1j * force.phi_f)
    if i_plus == i_minus:
        lines = [(i_plus, term_plus + term_minus)]
    else:
        lines = [(i_plus, term_plus), (i_minus, term_minus)]
    for i, term in lines:
        weight = abs(term) ** 2 / (2.0 * ap2)
        chim2 = abs(chi_m_dimensionless(rho_demodulated(grid[i], mode))) ** 2
        out[i] += amp2 * chim2 * weight / widths[i]
    return out
