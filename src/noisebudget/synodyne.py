"""Two-tone local-oscillator (synodyne) readout.

The LO carries tones split by twice the mechanical frequency, which
demodulates the mechanical resonance to DC; the dimensionless detuning rho
used throughout this module is therefore measured from the *shifted*
resonance: an angular offset d from omega_m sits at rho = 2 d / gamma.

With balanced sidebands (beta = 1) synodyne reduces exactly to homodyne
detection without the cross-correlation term; a slight imbalance turns the
correlation back on at DC, allowing sub-QL on-resonance sensitivity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import (
    Detection, MechanicalMode, check_finite, check_finite_fields, check_positive,
    chi_m_parts,
)
from .errors import BranchPoleError, DivergenceError, ParameterError
from .spectra import budget_terms, point_view, residual_backaction, thermal_term

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
        check_positive("beta", self.beta)


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


def synodyne_terms(rho, p, lo: SynodyneLO, epsilon: float, n_th: float):
    """Synodyne displacement-PSD budget at demodulated detuning rho, over arrays
    rho and p: budget_terms with imprecision P / |alpha_p|^2, where P = (1 + beta^2)/2
    is the LO power |alpha_a|^2 + |alpha_p|^2, and correlation Im(conj(alpha_a) alpha_p)
    / |alpha_p|^2.  Checks only the LO: alpha_p = 0 or P = inf is a DivergenceError."""
    alpha_a, alpha_p = lo_coefficients(lo)
    try:
        ap2 = abs(alpha_p) ** 2
        power = abs(alpha_a) ** 2 + ap2
    except OverflowError:  # a Python float power raises where numpy gives inf
        power = math.inf
    if not math.isfinite(power):
        raise DivergenceError(
            f"beta = {lo.beta}: the LO power (1 + beta^2)/2 overflows float64"
        )
    if ap2 < _ALPHA_P_FLOOR:
        raise DivergenceError(
            "alpha_p = 0: the LO carries no mechanical information "
            f"(beta = {lo.beta}, phi = {lo.phi})"
        )
    corr = (alpha_a.conjugate() * alpha_p).imag / ap2
    return budget_terms(rho, p, epsilon, n_th, power / ap2, corr * chi_m_parts(rho)[0])


@point_view
def synodyne_psd(
    rho: float, p: float, lo: SynodyneLO, det: Detection, mode: MechanicalMode
) -> float:
    """Total synodyne displacement PSD (dimensionless) at one point."""
    check_finite("rho", rho)
    check_positive("p", p)
    return synodyne_terms(rho, p, lo, det.epsilon, mode.n_th).total


def beta_opt(
    rho: float, p: float, det: Detection, branch: str = "auto"
) -> float:
    """Optimal sideband ratio (1 + x) / |1 - x|, x = eps p |chi_m|^2, on the
    phase (phi=90 deg, x < 1) or amplitude (phi=0 deg, x > 1) branch.

    "auto" picks the branch on x's side of the crossover x = 1; exactly at the
    crossover the ratio has a pole and is an error.
    """
    check_finite("rho", rho)
    check_positive("p", p)
    chi = float(chi_m_parts(rho)[0])
    x = chi * (det.epsilon * p) * chi
    if x == 1.0:
        raise BranchPoleError(
            "eps * p * |chi_m|^2 = 1: branch crossover pole, no optimal ratio"
        )
    if branch == "auto":
        branch = "amplitude" if x > 1.0 else "phase"
    if branch == "phase" and x > 1.0:
        raise ParameterError(
            "phase branch (phi = 90 deg) is only valid for "
            f"eps p |chi_m|^2 < 1; got {x}"
        )
    if branch == "amplitude" and x < 1.0:
        raise ParameterError(
            "amplitude branch (phi = 0 deg) is only valid for "
            f"eps p |chi_m|^2 > 1; got {x}"
        )
    if branch not in ("phase", "amplitude"):
        raise ParameterError(f"unknown branch {branch!r}")
    return (1.0 + x) / abs(1.0 - x)


@point_view
def synodyne_variational(
    rho: float, p: float, det: Detection, mode: MechanicalMode
) -> float:
    """Synodyne PSD at the per-frequency optimal ratio, fixed power.

    2 (n_th + 1/2) |chi_m|^2 + synodyne_added_noise(rho, p, det)
    """
    check_finite("rho", rho)
    check_positive("p", p)
    return thermal_term(rho, mode.n_th) + synodyne_added_noise(rho, p, det)


def synodyne_added_noise(rho, p: float, det: Detection):
    """Probe-added noise at the optimal ratio, fixed power (broadcasts in rho).

    1/(2 eps p) + (p/2) ((1 - eps) + rho^2) |chi_m|^4
    """
    eps = det.epsilon
    return 1.0 / (2.0 * eps * p) + residual_backaction(rho, p, 1.0 - eps, 1.0)
