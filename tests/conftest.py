"""Shared fixtures: the experimental parameter set used across the tests,
two small writers for test inputs and a reader of table columns."""

import io
import math

import numpy as np
import pytest

from noisebudget import Detection, MechanicalMode, OpticalCavity, emit_table

# experimental anchor parameters (membrane-in-the-middle system)
F_M_HZ = 1.596e6
F_GAMMA_HZ = 340.0
F_KAPPA_HZ = 2.5e6
OMEGA_M = 2.0 * math.pi * F_M_HZ
GAMMA = 2.0 * math.pi * F_GAMMA_HZ
KAPPA = 2.0 * math.pi * F_KAPPA_HZ
EPS_EXP = 0.35
NTH_EXP = 1.29


@pytest.fixture
def exp_mode():
    return MechanicalMode(OMEGA_M, GAMMA, n_th=NTH_EXP)


@pytest.fixture
def exp_cav():
    return OpticalCavity(KAPPA)


@pytest.fixture
def exp_det():
    return Detection(EPS_EXP)


@pytest.fixture
def ideal_det():
    return Detection(1.0)


@pytest.fixture
def zero_mode():
    """High-Q ground-state mode for dimensionless-only tests."""
    return MechanicalMode(omega_m=1.0, gamma=1e-6, n_th=0.0)


def write_spectrum_csv(path, samples):
    """Write (frequency_hz, psd) samples as the two-column sideband CSV that
    calibrate reads, every value to 17 significant digits."""
    np.savetxt(
        path, np.asarray(samples, dtype=float), fmt="%.17g", delimiter=",",
        header="frequency_hz,psd_shotnoise_units", comments="",
    )


def column_lists(table) -> dict:
    """The table's columns by name, each a list of Python floats."""
    return {name: col.tolist() for name, col in table.columns.items()}


def table_text(table, fmt: str) -> str:
    """The text emit_table writes for table in fmt."""
    buf = io.StringIO()
    emit_table(table, fmt, buf)
    return buf.getvalue()
