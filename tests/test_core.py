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
    UnsupportedConfigError,
    chi_c,
    chi_m,
    chi_m_dimensionless,
    normalized_power,
    omega_from_rho,
    pi_minus,
    pi_plus,
    rho_from_omega,
    sql_photon_number,
)
from noisebudget.core import cot, photon_number_from_p
from noisebudget.spectra import ExternalForce
from noisebudget.synodyne import SynodyneLO


def test_chi_m_on_resonance(exp_mode):
    val = chi_m(OMEGA_M, exp_mode)
    assert val == pytest.approx(2.0 / GAMMA)
    assert val.imag == 0.0


def test_chi_m_matches_scaled_dimensionless(exp_mode):
    offsets = GAMMA * np.array([-30.0, -5.0, -0.5, 0.0, 0.5, 5.0, 30.0])
    omega = OMEGA_M + offsets
    rho = rho_from_omega(omega, exp_mode)
    np.testing.assert_allclose(
        chi_m(omega, exp_mode),
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
    detuned = OpticalCavity(KAPPA, delta=0.3 * KAPPA)
    assert chi_c(0.0, detuned) == pytest.approx(
        1.0 / (KAPPA / 2.0 - 0.3j * KAPPA)
    )


def test_cavity_interference_functions(exp_cav):
    omega = np.linspace(-2.0, 2.0, 9) * KAPPA
    # a resonant probe sees a symmetric cavity: pi_minus vanishes and
    # pi_plus is twice the one-sided susceptibility
    np.testing.assert_allclose(pi_minus(omega, exp_cav), 0.0, atol=1e-18)
    np.testing.assert_allclose(
        pi_plus(omega, exp_cav), 2.0 * chi_c(omega, exp_cav), rtol=1e-12
    )
    detuned = OpticalCavity(KAPPA, delta=0.2 * KAPPA)
    assert abs(pi_minus(0.5 * KAPPA, detuned)) > 0.0


def test_rho_omega_round_trip(exp_mode):
    rho = np.array([-12.0, -1.0, 0.0, 0.25, 40.0])
    back = rho_from_omega(omega_from_rho(rho, exp_mode), exp_mode)
    np.testing.assert_allclose(back, rho, atol=1e-9)


def test_sql_photon_number_values(exp_mode, exp_cav):
    g = 2.0 * math.pi * 39.0
    n0 = sql_photon_number(OMEGA_M, g, exp_mode, exp_cav)
    expected = GAMMA / (
        4.0 * KAPPA * g**2 * abs(oracles.chi_c(OMEGA_M, KAPPA)) ** 2
    )
    assert n0 == pytest.approx(expected, rel=1e-12)
    # off resonance the requirement grows as sqrt(1+rho^2) corrected by the
    # cavity filter
    rho = 12.0
    omega = OMEGA_M + rho * GAMMA / 2.0
    ratio = sql_photon_number(omega, g, exp_mode, exp_cav) / n0
    expected_ratio = (
        math.sqrt(1.0 + rho**2)
        * abs(oracles.chi_c(OMEGA_M, KAPPA)) ** 2
        / abs(oracles.chi_c(omega, KAPPA)) ** 2
    )
    assert ratio == pytest.approx(expected_ratio, rel=1e-12)


def test_sql_photon_number_rejects_detuned_probe(exp_mode):
    detuned = OpticalCavity(KAPPA, delta=0.1 * KAPPA)
    with pytest.raises(UnsupportedConfigError):
        sql_photon_number(OMEGA_M, 1.0, exp_mode, detuned)
    with pytest.raises(ParameterError):
        sql_photon_number(OMEGA_M, -1.0, exp_mode, OpticalCavity(KAPPA))


def test_normalized_power_round_trip(exp_mode, exp_cav):
    g = 2.0 * math.pi * 39.0
    for p in (0.1, 1.0, 50.0):
        n = photon_number_from_p(p, g, exp_mode, exp_cav)
        assert normalized_power(n, g, exp_mode, exp_cav) == pytest.approx(
            p, rel=1e-12
        )
    with pytest.raises(ParameterError):
        normalized_power(-1.0, g, exp_mode, exp_cav)


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
    "MechanicalMode.n_ba": lambda v: MechanicalMode(1.0, 1.0, n_ba=v),
    "OpticalCavity.kappa": lambda v: OpticalCavity(v),
    "OpticalCavity.delta": lambda v: OpticalCavity(1.0, delta=v),
    "ClassicalNoise.c_aa": lambda v: ClassicalNoise(c_aa=v),
    "ClassicalNoise.c_pp": lambda v: ClassicalNoise(c_pp=v),
    "ExternalForce.amplitude": lambda v: ExternalForce(v, 1.0),
    "ExternalForce.omega_f": lambda v: ExternalForce(1.0, v),
    "ExternalForce.phi_f": lambda v: ExternalForce(1.0, 1.0, phi_f=v),
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
