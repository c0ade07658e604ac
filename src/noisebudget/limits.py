"""SQL and QL references, variational readout, stitching, and force sensitivity.

The SQL here is the added measurement noise with uncorrelated imprecision and
backaction, 1/sqrt(1 + rho^2) in dimensionless units; the QL is the deeper
bound from mechanical quadrature non-commutation, reached by measuring at the
correlation-optimal quadrature and power.  sql_psd and ql_added_noise are the
added noise alone; ql_psd adds the mode's thermal + zero-point term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import Detection, MechanicalMode, check_finite, chi_m_dimensionless, cot
from .errors import ParameterError
from .spectra import displacement_psd, homodyne_terms, point_view, thermal_term

P_CAP = 1e9


class OptimalPower(NamedTuple):
    """Optimal normalized power; saturated marks the p > P_CAP guard."""

    p: float
    saturated: bool


@dataclass(frozen=True)
class LimitCurve:
    """A reference curve over a rho grid with its generating context."""

    grid: np.ndarray
    values: np.ndarray
    kind: str  # "fixed-angle"
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StitchedSpectrum:
    """Pointwise minimum over fixed-angle spectra with the chosen angles."""

    grid: np.ndarray
    chosen_phi: np.ndarray
    values: np.ndarray


def sql_psd(rho):
    """Dimensionless SQL added-noise PSD, |chi_m(rho)| = 1/sqrt(1 + rho^2).

    Multiply by S_sql(omega_m) = 2 x_zp^2 / gamma for absolute units.
    """
    return 1.0 / np.sqrt(1.0 + np.asarray(rho) ** 2)


def phi_opt(rho, p, det: Detection):
    """Correlation-optimal homodyne angle, cot(phi_opt) = eps p rho |chi_m|^2.

    Lies in (0, pi); greater than 90 degrees for rho < 0.  Broadcasts over
    rho and p.
    """
    if not np.all(np.asarray(p) > 0):
        raise ParameterError(f"p must be positive, got {p}")
    c = det.epsilon * p * rho * np.abs(chi_m_dimensionless(rho)) ** 2
    return np.arctan2(1.0, c)


@point_view
def psd_at_phi_opt(
    rho: float, p: float, det: Detection, mode: MechanicalMode
) -> float:
    """Displacement PSD at the optimal quadrature for fixed power.

    2 (n_th + 1/2) |chi_m|^2 + 1/(2 eps p)
      + (p/2) (1 + (1 - eps) rho^2) |chi_m|^4
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    check_finite("rho", rho)
    eps = det.epsilon
    chim2 = abs(chi_m_dimensionless(rho)) ** 2
    return (
        thermal_term(rho, mode.n_th)
        + 1.0 / (2.0 * eps * p)
        + 0.5 * p * (1.0 + (1.0 - eps) * rho**2) * chim2**2
    )


def p_opt(rho: float, det: Detection) -> OptimalPower:
    """Power minimizing psd_at_phi_opt; capped at P_CAP with a flag."""
    eps = det.epsilon
    chim2 = abs(chi_m_dimensionless(rho)) ** 2
    p = 1.0 / (math.sqrt(eps * (1.0 + (1.0 - eps) * rho**2)) * chim2)
    return OptimalPower(min(p, P_CAP), p > P_CAP)


def ql_added_noise(rho, det: Detection):
    """Probe-added noise at the QL: sqrt(1/eps + (1-eps)/eps rho^2) |chi_m|^2."""
    check_finite("rho", rho)
    eps = det.epsilon
    rho = np.asarray(rho)
    chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
    return np.sqrt(1.0 / eps + (1.0 - eps) / eps * rho**2) * chim2


def ql_psd(rho, det: Detection, mode: MechanicalMode):
    """QL total PSD: thermal + zero-point term plus the optimal added noise."""
    return thermal_term(rho, mode.n_th) + ql_added_noise(rho, det)


@point_view
def uncertainty_product(phi: float, p: float, det: Detection):
    """(S_II * S_FF, 1/4 + S_IF^2) for the probe uncertainty relation.

    S_II and S_FF are homodyne_terms at rho = 0, where |chi_m|^2 = 1, and
    S_IF = -cot(phi) / 2.  lhs >= rhs, with equality iff eps = 1.  phi = 0
    or pi is a DivergenceError, as in displacement_psd.
    """
    if not p > 0:
        raise ParameterError(f"p must be positive, got {p}")
    comps = homodyne_terms(0.0, p, phi, det.epsilon, 0.0)
    return comps.s_ii * comps.s_ff, 0.25 + (-0.5 * cot(phi)) ** 2


def fixed_angle_spectrum(
    grid, p: float, phi: float, det: Detection, mode: MechanicalMode
) -> LimitCurve:
    """Fixed-quadrature displacement PSD totals over the grid."""
    grid = np.asarray(grid, dtype=float)
    values = homodyne_terms(grid, p, phi, det.epsilon, mode.n_th).total
    return LimitCurve(
        grid,
        values,
        "fixed-angle",
        {"p": p, "phi": phi, "epsilon": det.epsilon, "n_th": mode.n_th},
    )


def pick_quadrature(phi, totals):
    """Per point, the index along the last axis of totals of the candidate
    angle (phi, radians) with the lowest total.  Candidates are searched by
    distance from 90 degrees and np.argmin keeps the first minimum, so a tie
    goes to the angle nearest phase quadrature."""
    order = np.argsort(np.abs(np.asarray(phi) - math.pi / 2.0), kind="stable")
    return order[np.argmin(totals[..., order], axis=-1)]


def stitch_quadratures(curves: Sequence[LimitCurve]) -> StitchedSpectrum:
    """Minimum envelope over fixed-angle spectra sharing grid and
    parameters; pick_quadrature chooses the angle at each point."""
    if len(curves) < 2:
        raise ParameterError("stitching needs at least two fixed-angle spectra")
    ref = curves[0]
    for c in curves[1:]:
        if c.grid.shape != ref.grid.shape or not np.array_equal(c.grid, ref.grid):
            raise ParameterError("stitched spectra must share an identical grid")
        for key in ("p", "epsilon", "n_th"):
            if c.params.get(key) != ref.params.get(key):
                raise ParameterError(
                    f"stitched spectra disagree on {key}: "
                    f"{c.params.get(key)} vs {ref.params.get(key)}"
                )
    phis = np.array([c.params["phi"] for c in curves])
    totals = np.stack([c.values for c in curves], axis=-1)
    pick = pick_quadrature(phis, totals)
    return StitchedSpectrum(
        grid=ref.grid.copy(),
        chosen_phi=phis[pick],
        values=totals[np.arange(ref.grid.size), pick],
    )


@point_view
def force_psd(
    rho: float, p: float, phi: float, det: Detection, mode: MechanicalMode
) -> float:
    """Dimensionless force PSD, |chi_m|^-2 times the displacement PSD.

    Absolute units: multiply by S_sql_f(omega_m) = p_zp^2 gamma / 2 with
    p_zp = hbar / (2 x_zp).
    """
    chim2 = abs(chi_m_dimensionless(rho)) ** 2
    return displacement_psd(rho, p, phi, det, mode).total / chim2


def force_sql(rho):
    """Force SQL relative to its on-resonance value: sqrt(1 + rho^2)."""
    return np.sqrt(1.0 + np.asarray(rho) ** 2)


@point_view
def force_psd_opt(
    rho: float,
    det: Detection,
    mode: MechanicalMode,
    p: Optional[float] = None,
) -> float:
    """Force PSD at the optimal quadrature (and optimal power when p is None):
    psd_at_phi_opt, or ql_psd when p is None, over |chi_m|^2.

    At p_opt: 2 (n_th + 1/2) + sqrt(1/eps + (1-eps)/eps rho^2).
    """
    psd = ql_psd(rho, det, mode) if p is None else psd_at_phi_opt(rho, p, det, mode)
    return psd / abs(chi_m_dimensionless(rho)) ** 2
