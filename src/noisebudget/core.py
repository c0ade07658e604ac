"""Unit conventions, susceptibilities, the parameter types and the input rules.

All frequencies are angular (rad/s) and all angles are radians; any Hz or
degree conversion happens at the CLI boundary.  The canonical dimensionless
frequency coordinate is the mechanical detuning

    rho = 2 (omega - omega_m) / gamma,

and probe power is expressed as p = n_photons / n_sql(omega_m), the photon
number relative to the on-resonance SQL requirement.  The cooperativity
commonly used elsewhere is C = p / 4.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import DivergenceError, ParameterError, decode_utf8

HIGH_Q_THRESHOLD = 1e-3


def check_finite(name: str, x):
    """ParameterError naming the argument when x holds a nan or an inf."""
    finite = np.isfinite(x)
    if not finite.all():
        bad = np.asarray(x)[~finite].flat[0]
        raise ParameterError(f"{name} must be finite, got {bad}", name)


def check_positive(name: str, x):
    """ParameterError naming the argument and its first value that is not finite and > 0."""
    ok = np.isfinite(x) & (np.asarray(x) > 0)
    if not ok.all():
        bad = np.asarray(x)[~ok].flat[0]
        raise ParameterError(f"{name} must be > 0 and finite, got {bad}", name)


def check_angle(phi):
    """DivergenceError naming the first homodyne angle phi (rad) outside (0, pi)
    or with sin(phi) < 1e-12, where the displacement readout diverges."""
    phi = np.asarray(phi)
    with np.errstate(invalid="ignore"):  # sin(inf)
        ok = (0.0 < phi) & (phi < np.pi) & (np.abs(np.sin(phi)) >= 1e-12)
    if not ok.all():
        raise DivergenceError(
            f"displacement measurement diverges at phi = 0 or pi; got phi = {phi[~ok].flat[0]} rad"
        )


def _loadtxt_body(path, fh, skiprows: int, ncols: int):
    r"""The lines after fh's position, parsed by np.loadtxt from path past its
    first skiprows lines, or None unless they are all ncols finite numbers.
    loadtxt skips blank lines, accepts nan and warns on no data, so the lines
    are counted first, blank ones included (a read with newline="" never ends
    between \r and \n).  Its C reader then takes the file in chunks.
    """
    lines, blank, last = 0, True, "\n"
    for chunk in iter(partial(fh.read, 1 << 16), ""):
        lines += chunk.count("\n")
        if "\r" in chunk:
            lines += chunk.count("\r") - chunk.count("\r\n")
        blank = blank and not chunk.strip()
        last = chunk[-1]
    lines += last not in "\r\n"
    if blank:
        return None
    try:
        data = np.loadtxt(
            path, delimiter=",", ndmin=2, comments=None, skiprows=skiprows, encoding="utf-8"
        )
    except ValueError:
        return None
    return data if data.shape == (lines, ncols) and np.isfinite(data).all() else None


def read_csv_body(path, ncols: int, read_head) -> np.ndarray:
    r"""The rows after the head of the UTF-8 CSV file at path, as an
    (N, ncols) float64 array; read_head(fh) reads the head from fh, opened
    with newline="", and returns its line count.  Lines end at \n, \r\n or
    \r.  A body line that is not ncols finite numbers, a blank one included,
    is a ParameterError naming the path and line, as is a byte that is not
    UTF-8, named by its offset in a regular file.  Only a body that fails
    _loadtxt_body's checks, and a pipe, are read whole, each line split at ",".
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            head = read_head(fh)
            if fh.seekable():
                body = fh.tell()
                data = _loadtxt_body(path, fh, head, ncols)
                if data is not None:
                    return data
                fh.seek(body)
            lines = [raw.rstrip("\r\n") for raw in fh]
    except UnicodeDecodeError as exc:
        if os.path.isfile(path):  # read again for the offset; a pipe cannot be
            with open(path, "rb") as raw:
                decode_utf8(path, raw.read())
        byte = exc.object[exc.start]
        raise ParameterError(f"{path}: byte 0x{byte:02x} is not UTF-8") from None
    data = []
    for lineno, line in enumerate(lines, start=head + 1):
        row = line.split(",") if line else []
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != ncols or not all(map(math.isfinite, values)):
            raise ParameterError(
                f"{path}: line {lineno}: expected {ncols} finite numbers, got {row}"
            )
        data.append(values)
    return np.array(data, dtype=float).reshape(-1, ncols)


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
    """

    omega_m: float
    gamma: float
    n_th: float = 0.0

    def __post_init__(self):
        check_finite_fields(self)
        check_positive("omega_m", self.omega_m)
        check_positive("gamma", self.gamma)
        if self.n_th < 0:
            raise ParameterError(f"n_th must be >= 0, got {self.n_th}")

    @property
    def is_high_q(self) -> bool:
        """True when gamma/omega_m < 1e-3, the regime the dimensionless
        spectra assume."""
        return self.gamma / self.omega_m < HIGH_Q_THRESHOLD


@dataclass(frozen=True)
class OpticalCavity:
    """Optical cavity of linewidth kappa (rad/s), probed on resonance."""

    kappa: float

    def __post_init__(self):
        check_finite_fields(self)
        check_positive("kappa", self.kappa)


@dataclass(frozen=True)
class Detection:
    """Total quantum efficiency of the readout chain, 0 < epsilon <= 1."""

    epsilon: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ParameterError(f"epsilon must be in (0, 1], got {self.epsilon}", "epsilon")


def omega_from_rho(rho, mode: MechanicalMode):
    """Angular frequency at dimensionless detuning rho: omega_m + rho gamma/2."""
    return mode.omega_m + np.asarray(rho) * mode.gamma / 2.0


def chi_m_dimensionless(rho):
    """Dimensionless mechanical susceptibility (1 - i rho)^-1.

    Equals the susceptibility chi_m(omega) = 1/(gamma/2 - i(omega - omega_m))
    over its on-resonance magnitude 2/gamma, with rho = 2(omega - omega_m)/gamma.
    """
    return 1.0 / (1.0 - 1j * np.asarray(rho))


def chi_m_parts(rho):
    """(|chi_m|, rho |chi_m|) = (1, rho) / hypot(1, rho), the two factors every
    |chi_m|^2 term is built from.  Both are at most 1 in magnitude and neither
    overflows at any finite rho; a term puts its large factor (p, n_th + 1/2,
    cot phi) between two of them, so no partial product overflows, or
    underflows before the term itself does."""
    h = np.hypot(1.0, rho)
    return 1.0 / h, rho / h


def chi_c(omega, cav: OpticalCavity):
    """Cavity susceptibility chi_c(omega) = 1/(kappa/2 - i omega)."""
    return 1.0 / (cav.kappa / 2.0 - 1j * np.asarray(omega))


def cot(phi):
    """Cotangent, written out so the intent is visible at call sites."""
    return np.cos(phi) / np.sin(phi)
