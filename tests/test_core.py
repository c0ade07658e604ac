"""Susceptibilities, unit conventions, and power normalization."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import oracles
from conftest import GAMMA, KAPPA, OMEGA_M
from noisebudget import (
    ClassicalNoise,
    Detection,
    MechanicalMode,
    OpticalCavity,
    ParameterError,
    chi_c,
    chi_m_dimensionless,
    omega_from_rho,
)
from noisebudget.core import cot
from noisebudget.synodyne import SynodyneLO


def test_chi_m_matches_scaled_dimensionless():
    offsets = GAMMA * np.array([-30.0, -5.0, -0.5, 0.0, 0.5, 5.0, 30.0])
    omega = OMEGA_M + offsets
    rho = 2.0 * offsets / GAMMA
    np.testing.assert_allclose(
        oracles.chi_m(omega, GAMMA, OMEGA_M),
        chi_m_dimensionless(rho) * (2.0 / GAMMA),
        rtol=1e-12,
    )


def test_chi_m_dimensionless_values():
    assert chi_m_dimensionless(0.0) == 1.0
    assert chi_m_dimensionless(1.0) == pytest.approx(0.5 + 0.5j)
    assert abs(chi_m_dimensionless(5.0)) ** 2 == pytest.approx(1.0 / 26.0)


def test_chi_m_lorentzian_identities():
    rho = np.concatenate([-np.logspace(-2, 2, 21), [0.0], np.logspace(-2, 2, 21)])
    chim = chi_m_dimensionless(rho)
    # |chi|^2 (1 + rho^2) = 1 and Im chi = rho |chi|^2
    np.testing.assert_allclose(np.abs(chim) ** 2 * (1.0 + rho**2), 1.0, rtol=1e-12)
    np.testing.assert_allclose(chim.imag, rho * np.abs(chim) ** 2, rtol=1e-12)


def test_chi_c_values(exp_cav):
    assert chi_c(0.0, exp_cav) == pytest.approx(2.0 / KAPPA)
    omega = np.array([-KAPPA, 0.3 * KAPPA, 2.0 * KAPPA])
    np.testing.assert_allclose(
        chi_c(omega, exp_cav), oracles.chi_c(omega, KAPPA), rtol=1e-15
    )


def test_rho_omega_round_trip(exp_mode):
    rho = np.array([-12.0, -1.0, 0.0, 0.25, 40.0])
    back = 2.0 * (omega_from_rho(rho, exp_mode) - OMEGA_M) / GAMMA
    np.testing.assert_allclose(back, rho, atol=1e-9)


def test_sql_power_minimizes_uncorrelated_added_noise():
    # at phase quadrature and unit efficiency the added noise
    # 1/(2p) + (p/2)|chi|^2 is minimized at p = sqrt(1 + rho^2)
    rho = 12.0
    chim2 = abs(chi_m_dimensionless(rho)) ** 2

    def added(log_p):
        p = math.exp(log_p)
        return 1.0 / (2.0 * p) + 0.5 * p * chim2

    res = minimize_scalar(
        added, bounds=(math.log(0.1), math.log(1e4)), method="bounded",
        options={"xatol": 1e-12},
    )
    assert math.exp(res.x) == pytest.approx(math.sqrt(145.0), rel=1e-6)
    assert res.fun == pytest.approx(1.0 / math.sqrt(145.0), rel=1e-9)


def test_high_q_flag():
    assert MechanicalMode(OMEGA_M, GAMMA).is_high_q
    assert not MechanicalMode(1.0, 0.5).is_high_q


def test_parameter_validation():
    with pytest.raises(ParameterError):
        MechanicalMode(omega_m=-1.0, gamma=1.0)
    with pytest.raises(ParameterError):
        MechanicalMode(omega_m=1.0, gamma=0.0)
    with pytest.raises(ParameterError):
        MechanicalMode(omega_m=1.0, gamma=1.0, n_th=-0.1)
    with pytest.raises(ParameterError):
        OpticalCavity(kappa=0.0)
    with pytest.raises(ParameterError):
        Detection(0.0)
    with pytest.raises(ParameterError):
        Detection(1.2)
    # ParameterError doubles as a ValueError for generic callers
    assert issubclass(ParameterError, ValueError)


NON_FINITE_FIELDS = {
    "MechanicalMode.omega_m": lambda v: MechanicalMode(v, 1.0),
    "MechanicalMode.gamma": lambda v: MechanicalMode(1.0, v),
    "MechanicalMode.n_th": lambda v: MechanicalMode(1.0, 1.0, n_th=v),
    "OpticalCavity.kappa": lambda v: OpticalCavity(v),
    "ClassicalNoise.c_aa": lambda v: ClassicalNoise(c_aa=v),
    "ClassicalNoise.c_pp": lambda v: ClassicalNoise(c_pp=v),
    "SynodyneLO.beta": lambda v: SynodyneLO(v),
    "SynodyneLO.phi": lambda v: SynodyneLO(1.02, phi=v),
}


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("field", NON_FINITE_FIELDS)
def test_parameter_dataclasses_reject_non_finite_fields(field, bad):
    name = field.split(".")[1]
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        NON_FINITE_FIELDS[field](bad)


def test_cot():
    assert cot(math.pi / 4.0) == pytest.approx(1.0)
    assert cot(math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)
