"""Exception hierarchy shared by all noisebudget modules.

ParameterError covers invalid inputs and malformed configuration (CLI exit
code 2); DomainError covers configurations the model rejects, such as
measuring at a divergent quadrature or sidebands that imply a negative
occupation (CLI exit code 3).  Of core's input rules, check_finite (rho)
and check_positive (p, powers, beta, kappa, the *_hz keys) raise
ParameterError; check_angle (homodyne phi at 0 or pi) raises DivergenceError,
as does a result that overflows float64.  decode_utf8 reads input bytes.
"""


class NoiseBudgetError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(NoiseBudgetError, ValueError):
    """A parameter or configuration value is out of range or malformed; key,
    if given, is the parameter or config key the message names."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class DomainError(NoiseBudgetError):
    """The requested evaluation is outside the model's domain."""


class DivergenceError(DomainError):
    """The requested configuration has a divergent result (e.g. phi = 0)."""


class BranchPoleError(DomainError):
    """Evaluation exactly at the synodyne branch-crossover pole."""


class NonphysicalAsymmetryError(DomainError):
    """Sideband amplitudes imply a negative or infinite occupation."""


class NoPeakError(DomainError):
    """Spectrum data contains no resolvable peak to fit."""


class FitConvergenceError(DomainError):
    """Iterative fit did not converge; carries the best fit found so far."""

    def __init__(self, message, best_fit=None, residual_rms=None):
        super().__init__(message)
        self.best_fit = best_fit
        self.residual_rms = residual_rms


def decode_utf8(path, data: bytes) -> str:
    """data, the bytes read from path, as UTF-8 text.  A byte that is not
    UTF-8 is a ParameterError naming the path and the byte's offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"{path}: byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        ) from None
