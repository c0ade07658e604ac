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
    Detection, MechanicalMode, check_angle, check_finite, check_positive, chi_m_dimensionless,
    cot,
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
    Where rho^2 overflows float64 (|rho| above about 1.34e154) the value is
    1/|rho|, which sqrt(1 + rho^2) = |rho| makes exact there.
    """
    rho = np.asarray(rho)
    with np.errstate(over="ignore"):
        psd = np.asarray(1.0 / np.sqrt(1.0 + rho**2))
    huge = psd == 0  # exactly where rho^2 overflowed, or rho is infinite
    psd[huge] = 1.0 / np.abs(rho[huge])
    return psd[()]


@point_view
def phi_opt(rho, p, det: Detection):
    """Correlation-optimal homodyne angle, cot(phi_opt) = eps p rho |chi_m|^2.

    Lies in (0, pi); greater than 90 degrees for rho < 0.  Broadcasts over
    rho and p.
    """
    check_finite("rho", rho)
    check_positive("p", p)
    chi = chi_m_dimensionless(rho)
    c = det.epsilon * p * rho * np.abs(chi) ** 2
    # where eps p rho overflows, Im(chi_m) = rho |chi_m|^2 keeps the product finite
    return np.arctan2(1.0, np.where(np.isfinite(c), c, det.epsilon * (p * chi.imag)))


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
    """Probe-added noise at the QL: sqrt(1/eps + (1-eps)/eps rho^2) |chi_m|^2.

    Where that expression overflows float64 the value is, at eps = 1,
    |chi_m|^2, which the formula gives everywhere else; below eps = 2^-53,
    where 1 - eps rounds to 1 and 1/eps itself may overflow, sql_psd(rho) /
    sqrt(eps), at most 1/sqrt(5e-324) = 4.5e161; and at any other eps the
    asymptote sqrt((1-eps)/eps) / |rho|, since the overflow then needs
    |rho| > 1e146.
    """
    check_finite("rho", rho)
    eps = det.epsilon
    rho = np.asarray(rho)
    chim2 = np.asarray(np.abs(chi_m_dimensionless(rho)) ** 2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        added = np.asarray(np.sqrt(1.0 / eps + (1.0 - eps) / eps * rho**2) * chim2)
        huge = ~np.isfinite(added)  # inf * |chi_m|^2, or 0 * inf at eps = 1
        if eps == 1.0:
            added[huge] = chim2[huge]
        elif 1.0 - eps == 1.0:
            added[huge] = sql_psd(rho[huge]) / math.sqrt(eps)
        else:
            added[huge] = math.sqrt((1.0 - eps) / eps) / np.abs(rho[huge])
    return added[()]


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
