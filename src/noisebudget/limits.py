"""SQL and QL references, variational readout, and stitching.

The SQL here is the added measurement noise with uncorrelated imprecision and
backaction, 1/sqrt(1 + rho^2) in dimensionless units; the QL is the deeper
bound from mechanical quadrature non-commutation, reached by measuring at the
correlation-optimal quadrature and power.  sql_psd and ql_added_noise are the
added noise alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    Detection, MechanicalMode, check_angle, check_finite, check_positive, chi_m_parts, cot,
)
from .errors import ParameterError
from .spectra import homodyne_terms, point_view, residual_backaction, thermal_term


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
    return chi_m_parts(rho)[0]


@point_view
def phi_opt(rho, p, det: Detection):
    """Correlation-optimal homodyne angle, cot(phi_opt) = eps p rho |chi_m|^2.

    Lies in (0, pi); greater than 90 degrees for rho < 0.  Broadcasts over
    rho and p.
    """
    check_finite("rho", rho)
    check_positive("p", p)
    chi, rho_chi = chi_m_parts(rho)
    return np.arctan2(1.0, chi * (det.epsilon * p) * rho_chi)


@point_view
def psd_at_phi_opt(
    rho: float, p: float, det: Detection, mode: MechanicalMode
) -> float:
    """Displacement PSD at the optimal quadrature for fixed power.

    2 (n_th + 1/2) |chi_m|^2 + 1/(2 eps p)
      + (p/2) (1 + (1 - eps) rho^2) |chi_m|^4
    """
    check_finite("rho", rho)
    check_positive("p", p)
    eps = det.epsilon
    return (
        thermal_term(rho, mode.n_th)
        + 1.0 / (2.0 * eps * p)
        + residual_backaction(rho, p, 1.0, 1.0 - eps)
    )


def ql_added_noise(rho, det: Detection):
    """Probe-added noise at the QL: sqrt(1/eps + (1-eps)/eps rho^2) |chi_m|^2,
    as sqrt(|chi_m|^2 + (1-eps) (rho |chi_m|)^2) |chi_m| / sqrt(eps), at most
    1/sqrt(eps) <= 4.5e161."""
    check_finite("rho", rho)
    eps = det.epsilon
    chi, rho_chi = chi_m_parts(rho)
    return np.sqrt(chi * chi + (1.0 - eps) * (rho_chi * rho_chi)) * chi / math.sqrt(eps)


@point_view
def uncertainty_product(phi: float, p: float, det: Detection):
    """(S_II * S_FF, 1/4 + S_IF^2) for the probe uncertainty relation.

    S_II and S_FF are homodyne_terms at rho = 0, where |chi_m|^2 = 1, and
    S_IF = -cot(phi) / 2.  lhs >= rhs, with equality iff eps = 1.  phi = 0
    or pi is a DivergenceError, as in displacement_psd.
    """
    check_positive("p", p)
    check_angle(phi)
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


def quadrature_order(phi):
    """Indices that sort candidate angles phi (radians) by distance from 90
    degrees, stably.  Stitching searches the candidates in this order and
    keeps the first minimum (np.argmin), so a tie goes to the angle nearest
    90 degrees."""
    return np.argsort(np.abs(np.asarray(phi) - math.pi / 2.0), kind="stable")


def stitch_quadratures(curves: Sequence[LimitCurve]) -> StitchedSpectrum:
    """Minimum envelope over fixed-angle spectra sharing grid and
    parameters, searched in quadrature_order at each point."""
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
    curves = [curves[i] for i in quadrature_order([c.params["phi"] for c in curves])]
    phis = np.array([c.params["phi"] for c in curves])
    totals = np.stack([c.values for c in curves], axis=-1)
    pick = np.argmin(totals, axis=-1)
    return StitchedSpectrum(
        grid=ref.grid.copy(),
        chosen_phi=phis[pick],
        values=totals[np.arange(ref.grid.size), pick],
    )
