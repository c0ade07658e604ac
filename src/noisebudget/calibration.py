"""Parameter-extraction chain: sideband thermometry, coupling calibration,
occupation rescaling, quantum-efficiency composition, and Lorentzian fits
against synthetic sideband spectra.

Sideband spectra are modeled as offset Lorentzians in shot-noise units; any
electronic-noise floor is folded into the offset.  Spectra travel as
two-column CSV (frequency_hz, psd_shotnoise_units) with a one-line header.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import leastsq

from .core import Detection, MechanicalMode, OpticalCavity, chi_c
from .errors import (
    FitConvergenceError,
    NonphysicalAsymmetryError,
    NoPeakError,
    ParameterError,
)

CSV_HEADER = ("frequency_hz", "psd_shotnoise_units")

MAX_NFEV = 1000  # residual evaluations allowed to fit_lorentzian; Jacobian ones not counted


@dataclass(frozen=True)
class LorentzianFit:
    """Single offset-Lorentzian fit result.

    Model: offset + amplitude * (gamma/2)^2 / ((gamma/2)^2 + (x - center)^2),
    with center and gamma in the units of the sample frequencies.
    """

    center: float
    gamma: float
    amplitude: float
    offset: float
    residual_rms: float


@dataclass(frozen=True)
class SidebandFit:
    """Joint red/blue sideband fit used for thermometry."""

    gamma_fit: float
    a_red: float
    a_blue: float
    offset: float
    residual_rms: float

    def __post_init__(self):
        if not self.gamma_fit > 0:
            raise ParameterError(f"gamma_fit must be positive, got {self.gamma_fit}")
        if not self.a_red >= self.a_blue >= 0:
            raise NonphysicalAsymmetryError(
                "thermal-state sidebands require a_red >= a_blue >= 0, got "
                f"a_red = {self.a_red}, a_blue = {self.a_blue}"
            )

    @classmethod
    def from_fits(cls, red: LorentzianFit, blue: LorentzianFit) -> "SidebandFit":
        """Combine the red and blue sideband fits.

        gamma_fit, offset and residual_rms are the red/blue averages; the
        amplitudes keep their own fits (only their ratio matters downstream).
        """
        return cls(
            gamma_fit=0.5 * (red.gamma + blue.gamma),
            a_red=red.amplitude,
            a_blue=blue.amplitude,
            offset=0.5 * (red.offset + blue.offset),
            residual_rms=0.5 * (red.residual_rms + blue.residual_rms),
        )


@dataclass(frozen=True)
class EfficiencyBudget:
    """Multiplicative quantum-efficiency budget.

    eps_sq is the squeezing-measured total, eps_en the electronic-noise
    factor it contains, eps_opt the extra path losses, eps_vis the
    homodyne visibility (enters squared).
    """

    eps_sq: float
    eps_en: float
    eps_opt: float
    eps_vis: float

    def __post_init__(self):
        for name in ("eps_sq", "eps_en", "eps_opt", "eps_vis"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ParameterError(f"{name} must be in (0, 1], got {v}")

    @property
    def eps_meas(self) -> float:
        return self.eps_sq / self.eps_en


def n_th_from_sidebands(a_red: float, a_blue: float) -> float:
    """Phonon occupation from sideband asymmetry: (a_red/a_blue - 1)^-1.

    Scale invariant: only the amplitude ratio enters.
    """
    if not a_blue > 0:
        raise ParameterError(f"a_blue must be positive, got {a_blue}")
    if not a_red > a_blue:
        raise NonphysicalAsymmetryError(
            "sideband asymmetry requires a_red > a_blue, got "
            f"a_red = {a_red}, a_blue = {a_blue}"
        )
    return 1.0 / (a_red / a_blue - 1.0)


def g_from_blue_sideband(
    a_blue: float,
    gamma: float,
    n_th: float,
    det: Detection,
    cav: OpticalCavity,
    omega_m: float,
    n_damp_photons: float,
) -> float:
    """Single-photon coupling from the blue sideband amplitude.

    Inverts g^2 N_damp = A_b gamma / (4 eps kappa |chi_c(omega_m)| n_th).
    """
    for name, v in (
        ("a_blue", a_blue),
        ("gamma", gamma),
        ("n_th", n_th),
        ("n_damp_photons", n_damp_photons),
    ):
        if not v > 0:
            raise ParameterError(f"{name} must be positive, got {v}")
    chic = abs(chi_c(omega_m, cav))
    g2 = a_blue * gamma / (det.epsilon * cav.kappa * chic * 4.0 * n_th * n_damp_photons)
    return math.sqrt(g2)


def blue_sideband_amplitude(
    g: float,
    gamma: float,
    n_th: float,
    det: Detection,
    cav: OpticalCavity,
    omega_m: float,
    n_damp_photons: float,
) -> float:
    """Forward model for g_from_blue_sideband (round-trip identity on g)."""
    chic = abs(chi_c(omega_m, cav))
    return g**2 * n_damp_photons * det.epsilon * cav.kappa * chic * 4.0 * n_th / gamma


def coupling_from_damping_series(n_damp, g2_n_damp) -> float:
    """Coupling g from the slope of g^2 N_damp versus N_damp (fit through
    the origin)."""
    n_damp = np.asarray(n_damp, dtype=float)
    y = np.asarray(g2_n_damp, dtype=float)
    if n_damp.size < 2 or n_damp.size != y.size:
        raise ParameterError("need >= 2 matched (N_damp, g^2 N_damp) points")
    slope = float(np.dot(n_damp, y) / np.dot(n_damp, n_damp))
    if slope <= 0:
        raise ParameterError("series slope is non-positive; no coupling")
    return math.sqrt(slope)


def rescale_occupation(n0_gamma0: float, gamma: float, n_ba: float) -> float:
    """Occupation at a new damping level: n_th = n0*gamma0/gamma + n_ba."""
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    if n_ba < 0:
        raise ParameterError(f"n_ba must be >= 0, got {n_ba}")
    return n0_gamma0 / gamma + n_ba


def compose_efficiency(budget: EfficiencyBudget) -> float:
    """Total quantum efficiency eps = eps_meas * eps_opt * eps_vis^2."""
    return budget.eps_meas * budget.eps_opt * budget.eps_vis**2


def _lorentzian(x, center, gamma, amplitude, offset):
    hw2 = (gamma / 2.0) ** 2
    return offset + amplitude * hw2 / (hw2 + (x - center) ** 2)


def _lorentzian_jacobian(theta, x):
    """Derivatives of _lorentzian at the points x with respect to
    theta = (center, gamma, amplitude, offset), as one (4, N) array with a
    row per parameter (MINPACK's col_deriv layout).

    With d = x - center, hw = gamma/2 and den = hw^2 + d^2 they are
    2 A hw^2 d / den^2, A hw d^2 / den^2, hw^2 / den and 1.
    """
    center, gamma, amplitude, _ = theta
    hw = 0.5 * gamma
    d = x - center
    den = hw * hw + d * d
    q = amplitude * hw / (den * den)
    return np.array([2.0 * hw * d * q, d * d * q, hw * hw / den, np.ones_like(x)])


def _deterministic_init(x, y) -> LorentzianFit:
    n = x.size
    q = max(1, n // 4)
    outer = np.concatenate([y[:q], y[-q:]])
    offset = float(np.median(outer))
    i_peak = int(np.argmax(y))
    height = float(y[i_peak] - offset)
    if height <= 0 or height < 1e-9 * max(1.0, abs(offset)):
        raise NoPeakError("data is flat: no peak above the baseline")
    half = offset + 0.5 * height
    above = y >= half
    lo = i_peak
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = i_peak
    while hi < n - 1 and above[hi + 1]:
        hi += 1
    fwhm = float(x[hi] - x[lo])
    if fwhm <= 0:
        fwhm = float(np.median(np.diff(x)))
    return LorentzianFit(
        center=float(x[i_peak]),
        gamma=fwhm,
        amplitude=height,
        offset=offset,
        residual_rms=math.nan,
    )


def fit_lorentzian(
    samples, init: Optional[LorentzianFit] = None
) -> LorentzianFit:
    """Least-squares offset-Lorentzian fit with deterministic initialization.

    Initialization (when init is None): offset = median of the outer
    quartiles, center = argmax sample, gamma = full width at half of
    (max - offset), amplitude = max - offset.  Refinement is MINPACK's
    Levenberg-Marquardt (lmder, through scipy's leastsq) with the analytic
    Jacobian of the offset Lorentzian.  It stops at the first of
    gtol = 1e-10 (cosine between the residuals and the Jacobian columns),
    xtol = ftol = 1e-14, or MAX_NFEV = 1000 residual evaluations.  MAX_NFEV
    counts residual evaluations only: Jacobian evaluations are counted
    apart, and there are no finite-difference evaluations.  Stopping on
    MAX_NFEV (MINPACK info 5) raises FitConvergenceError carrying the best
    parameters found.  Against the former finite-difference Jacobian the
    fitted parameters agree within 2e-6 relative (the center within 2e-6
    linewidths), the gap set by where the finite-difference fit stopped.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterError("samples must be an (N, 2) array of (frequency, psd)")
    order = np.argsort(arr[:, 0])
    x, y = arr[order, 0], arr[order, 1]
    if x.size < 8:
        raise ParameterError(f"need >= 8 samples, got {x.size}")
    if init is None:
        init = _deterministic_init(x, y)
    if (x[-1] - x[0]) < 3.0 * init.gamma:
        raise ParameterError(
            "samples must span >= 3 linewidths; span "
            f"{x[-1] - x[0]:g} < 3 * {init.gamma:g}"
        )

    def residuals(theta, x):
        return _lorentzian(x, *theta) - y

    theta0 = [init.center, init.gamma, init.amplitude, init.offset]
    theta, _, info, _, status = leastsq(
        residuals,
        theta0,
        args=(x,),
        Dfun=_lorentzian_jacobian,
        col_deriv=True,
        full_output=True,
        gtol=1e-10,
        xtol=1e-14,
        ftol=1e-14,
        maxfev=MAX_NFEV,
    )
    rms = float(np.sqrt(np.mean(info["fvec"] ** 2)))
    fit = LorentzianFit(
        center=float(theta[0]),
        gamma=float(abs(theta[1])),
        amplitude=float(theta[2]),
        offset=float(theta[3]),
        residual_rms=rms,
    )
    if status == 5:
        raise FitConvergenceError(
            f"Lorentzian fit did not converge within MAX_NFEV = {MAX_NFEV} "
            "residual evaluations",
            best_fit=fit,
            residual_rms=rms,
        )
    return fit


def fit_sidebands(red_samples, blue_samples) -> SidebandFit:
    """Fit red and blue sideband spectra and combine them for thermometry
    (see SidebandFit.from_fits)."""
    return SidebandFit.from_fits(fit_lorentzian(red_samples), fit_lorentzian(blue_samples))


def synth_sideband_spectrum(
    truth: LorentzianFit,
    grid,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthetic offset-Lorentzian spectrum, deterministic per seed.

    Returns an (N, 2) array of (frequency, psd); noiseless output satisfies
    the model exactly.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) <= 0):
        raise ParameterError("grid must be a sorted 1-D array")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    y = _lorentzian(grid, truth.center, truth.gamma, truth.amplitude, truth.offset)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=grid.size)
    return np.column_stack([grid, y])


def write_spectrum_csv(path, samples):
    """Write (frequency_hz, psd) samples as two-column CSV with header."""
    arr = np.asarray(samples, dtype=float)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        for f, s in arr:
            w.writerow([f"{f:.17g}", f"{s:.17g}"])


def read_spectrum_csv(path) -> np.ndarray:
    """Read a two-column sideband spectrum CSV written by write_spectrum_csv.

    A row that is not two finite numbers raises ParameterError naming the
    path and line.
    """
    with open(path, newline="") as fh:
        header, body = next(csv.reader([fh.readline()]), []), fh.read()
    if tuple(header) != CSV_HEADER:
        raise ParameterError(f"{path}: expected header {','.join(CSV_HEADER)}")
    # loadtxt skips blank lines, accepts nan, warns on no data: check all three
    lines = body.count("\n") + (not body.endswith("\n"))
    try:
        if body.strip():
            samples = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, comments=None)
            if samples.shape == (lines, 2) and np.isfinite(samples).all():
                return samples
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(body, newline="")))
    for lineno, row in enumerate(rows, start=2):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != 2 or not all(map(math.isfinite, values)):
            raise ParameterError(
                f"{path}: line {lineno}: expected two finite numbers, got {row}"
            )
    return np.array([[float(a), float(b)] for a, b in rows])
