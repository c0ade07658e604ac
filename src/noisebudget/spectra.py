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

import numpy as np

from .core import (
    Detection,
    MechanicalMode,
    OpticalCavity,
    check_angle,
    check_finite,
    check_finite_fields,
    check_positive,
    chi_c,
    chi_m_parts,
    cot,
)
from .errors import DivergenceError, ParameterError


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
        """s_m + s_ii + s_ff + s_corr + s_ln in that order, into one buffer: each
        term after the first full-shape sum is added into that sum in place.  A
        float 0.0 term adds nothing, so one other term is the total itself (where
        it is -0.0, the plain sum would give +0.0)."""
        terms = [t for t in self.terms if not (isinstance(t, float) and t == 0.0)] or [0.0]
        total, shape = terms[0], np.broadcast_shapes(*map(np.shape, terms))
        for i, term in enumerate(terms[1:]):  # i > 0: total is a sum, not a term
            total = np.add(total, term, out=total if i and shape == total.shape != () else None)
        return total


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
                raise ParameterError(f"{key} must be >= 0, got {getattr(self, key)}", key)

    @property
    def is_zero(self) -> bool:
        return self.c_aa == 0.0 and self.c_pp == 0.0


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
    chi = chi_m_parts(rho)[0]
    return chi * (2.0 * (n_th + 0.5)) * chi


def residual_backaction(rho, p, a, b):
    """(p/2) (a + b rho^2) |chi_m|^4, the backaction a correlation-optimal
    readout leaves, as |chi_m| (p/2) (a |chi_m|^2 + b (rho |chi_m|)^2) |chi_m|;
    broadcasts over rho and p."""
    chi, rho_chi = chi_m_parts(rho)
    half = 0.5 * p
    return chi * (a * (chi * half * chi) + b * (rho_chi * half * rho_chi)) * chi


def budget_terms(rho, p, epsilon, n_th, imprecision, correlation, s_ln=0.0):
    """Broadcasting displacement-PSD budget of a linear readout.

    s_m    = 2 (n_th + 1/2) |chi_m|^2
    s_ii   = imprecision / (2 eps p)
    s_ff   = (p/2) |chi_m|^2
    s_corr = -correlation |chi_m|

    correlation already carries its other chi_m_parts factor: cot(phi)
    rho |chi_m| in homodyne readout, a constant times |chi_m| in synodyne.
    Every argument broadcasts; the four quantum terms come back as arrays of
    their common shape, and s_ln as given, so a float 0.0 stays one value.
    Nothing is checked here: the public evaluators check their arguments on
    entry.
    """
    chi = chi_m_parts(rho)[0]
    quantum = np.broadcast_arrays(
        thermal_term(rho, n_th), imprecision / (2.0 * epsilon * p), chi * (0.5 * p) * chi,
        -correlation * chi,
    )
    return SpectrumComponents(*quantum, s_ln)


def homodyne_terms(rho, p, phi, epsilon: float, n_th: float, s_ln=0.0):
    """Broadcasting form of displacement_psd over arrays rho, p and phi,
    unchecked; s_ln, when given, is a pre-computed classical-noise term
    broadcastable to the same shape.
    """
    c = cot(phi)
    return budget_terms(rho, p, epsilon, n_th, 1.0 + c * c, c * chi_m_parts(rho)[1], s_ln)


@point_view
def displacement_psd(
    rho: float, p: float, phi: float, det: Detection, mode: MechanicalMode
) -> SpectrumComponents:
    """Dimensionless displacement PSD components at detuning rho: the
    homodyne_terms budget at one point, with imprecision 1 + cot^2 phi and
    correlation cot(phi) rho.
    """
    check_finite("rho", rho)
    check_positive("p", p)
    check_angle(phi)
    return homodyne_terms(rho, p, phi, det.epsilon, mode.n_th)


def light_terms(rho, phi, p: float, epsilon: float, n_th: float):
    """Shot-noise-normalized light PSD, S_phi = 2 eps p sin^2(phi) S_xx, as
    terms that broadcast over rho and phi.

    Written in the limit form in which the sin^2(phi) factor cancels the
    shot-noise divergence, so phi = 0 and pi are allowed (pure shot noise
    remains).  Components map to the displacement decomposition scaled by
    2 eps p sin^2(phi), with the imprecision term collapsing to exactly 1.
    That scale is a second large factor in s_m and s_ff, so they are
    squares of |chi_m| times the square roots of both factors.
    """
    chi, rho_chi = chi_m_parts(rho)
    root = np.sqrt(2.0 * epsilon) * np.sqrt(p) * np.abs(np.sin(phi))
    return SpectrumComponents(
        s_m=(chi * (root * np.sqrt(2.0 * (n_th + 0.5)))) ** 2,
        s_ii=1.0,
        s_ff=(chi * (root * np.sqrt(0.5 * p))) ** 2,
        s_corr=-(chi * (2.0 * epsilon * p * np.sin(phi) * np.cos(phi)) * rho_chi),
    )


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
    # a float64 power: (kappa/2)^2 past float64 is inf, not an OverflowError
    return 2.0 * det.epsilon * np.float64(cav.kappa / 2.0) ** 2 * np.abs(amp) ** 2


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
    s_ln = classical_noise_psd(omega, phi, det, cav, noise)
    return s_ln / (2.0 * det.epsilon * p * np.sin(phi) ** 2)
