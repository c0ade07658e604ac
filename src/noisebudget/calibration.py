"""Parameter-extraction chain: sideband thermometry, coupling calibration,
quantum-efficiency composition, and Lorentzian fits against synthetic
sideband spectra.

Sideband spectra are modeled as offset Lorentzians in shot-noise units; any
electronic-noise floor is folded into the offset.  Spectra travel as
two-column CSV (frequency_hz, psd_shotnoise_units) with a one-line header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .core import Detection, OpticalCavity, check_positive, chi_c, read_csv_body
from .errors import FitConvergenceError, NonphysicalAsymmetryError, NoPeakError, ParameterError

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
        check_positive("gamma_fit", self.gamma_fit)
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
    check_positive("a_blue", a_blue)
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
        check_positive(name, v)
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


def compose_efficiency(budget: EfficiencyBudget) -> float:
    """Total quantum efficiency eps = eps_meas * eps_opt * eps_vis^2."""
    return budget.eps_meas * budget.eps_opt * budget.eps_vis**2


def _lorentzian(x, center, gamma, amplitude, offset):
    """offset + amplitude hw^2 / (hw^2 + (x - center)^2) with hw = gamma/2,
    computed one operation at a time in that expression's order into the
    array x - center allocates, so the values are the expression's own bit
    for bit and no other array of x's length is allocated."""
    hw2 = (gamma / 2.0) ** 2
    out = np.subtract(x, center)
    np.square(out, out=out)
    np.add(hw2, out, out=out)
    np.divide(amplitude * hw2, out, out=out)
    return np.add(offset, out, out=out)


def _lorentzian_jacobian(theta, x):
    """Derivatives of _lorentzian at the points x with respect to
    theta = (center, gamma, amplitude, offset), as one (4, N) array with a
    row per parameter (MINPACK's col_deriv layout).

    With d = x - center, hw = gamma/2 and den = hw^2 + d^2 they are
    2 A hw^2 d / den^2, A hw d^2 / den^2, hw^2 / den and 1.  They are
    filled in place, the intermediates d, d^2, den and A hw / den^2 held in
    rows 0-3 until each row is overwritten with its own value, so the result
    is the only array allocated.
    """
    center, gamma, amplitude, _ = theta
    hw = 0.5 * gamma
    jac = np.empty((4, np.size(x)))
    d, dd, den, q = jac
    np.subtract(x, center, out=d)
    np.multiply(d, d, out=dd)
    np.add(dd, hw * hw, out=den)
    np.multiply(den, den, out=q)
    np.divide(amplitude * hw, q, out=q)
    np.multiply(dd, q, out=dd)
    np.multiply(d, 2.0 * hw, out=d)
    np.multiply(d, q, out=d)
    np.divide(hw * hw, den, out=den)
    q[:] = 1.0
    return jac


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


def fit_lorentzian(samples) -> LorentzianFit:
    """Least-squares offset-Lorentzian fit with deterministic initialization.

    Samples are fitted in frequency order: samples already in that order
    through views of their two columns, others after a stable sort, so
    samples of equal frequency keep their input order.
    Initialization: offset = median of the outer
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
    x, y = arr[:, 0], arr[:, 1]
    if not (x[1:] >= x[:-1]).all():
        order = np.argsort(x, kind="stable")
        x, y = x[order], y[order]
    if x.size < 8:
        raise ParameterError(f"need >= 8 samples, got {x.size}")
    init = _deterministic_init(x, y)
    if (x[-1] - x[0]) < 3.0 * init.gamma:
        raise ParameterError(
            "samples must span >= 3 linewidths; span "
            f"{x[-1] - x[0]:g} < 3 * {init.gamma:g}"
        )

    def residuals(theta, x):
        res = _lorentzian(x, *theta)
        res -= y
        return res

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


def read_spectrum_csv(path) -> np.ndarray:
    """Read a sideband spectrum CSV as an (N, 2) array: the header line
    frequency_hz,psd_shotnoise_units, then one row per line of two finite
    numbers, frequency and PSD, read by core.read_csv_body."""

    def read_header(fh):
        if fh.readline().rstrip("\r\n") != ",".join(CSV_HEADER):
            raise ParameterError(f"{path}: expected header {','.join(CSV_HEADER)}")
        return 1

    return read_csv_body(path, len(CSV_HEADER), read_header)
