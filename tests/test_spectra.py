"""Homodyne displacement/light PSDs against a full-model oracle."""

import math

import numpy as np
import pytest

import oracles
from conftest import EPS_EXP, GAMMA, KAPPA, NTH_EXP, OMEGA_M
from noisebudget import (
    ClassicalNoise,
    Detection,
    DivergenceError,
    MechanicalMode,
    ParameterError,
    SpectrumComponents,
    displacement_psd,
)
from noisebudget.spectra import classical_noise_displacement, classical_noise_psd, light_terms

# upper bounds on the laser's fractional amplitude/phase noise
C_AA_EXP = 0.004
C_PP_EXP = 0.04


def test_sql_configuration_components(ideal_det, zero_mode):
    comps = displacement_psd(0.0, 1.0, math.pi / 2.0, ideal_det, zero_mode)
    assert comps.s_m == pytest.approx(1.0)
    assert comps.s_ii == pytest.approx(0.5)
    assert comps.s_ff == pytest.approx(0.5)
    assert comps.s_corr == 0.0
    assert comps.total == pytest.approx(2.0)


def test_component_anchor_values(exp_det, exp_mode):
    comps = displacement_psd(5.0, 14.0, math.pi / 4.0, exp_det, exp_mode)
    assert comps.s_m == pytest.approx(3.58 / 26.0, rel=1e-9)
    assert comps.s_ii == pytest.approx(2.0 / 9.8, rel=1e-9)
    assert comps.s_ff == pytest.approx(7.0 / 26.0, rel=1e-9)
    assert comps.s_corr == pytest.approx(-5.0 / 26.0, rel=1e-9)
    assert comps.total == pytest.approx(0.4186970172684459, rel=1e-12)
    # flipping the detuning flips the correlation sign
    flipped = displacement_psd(-5.0, 14.0, math.pi / 4.0, exp_det, exp_mode)
    assert flipped.s_corr == pytest.approx(5.0 / 26.0, rel=1e-9)
    assert flipped.total == pytest.approx(0.4186970172684459 + 10.0 / 26.0, rel=1e-9)


def test_total_matches_full_model_oracle(exp_det, exp_mode):
    for rho in (-12.0, -5.0, 0.3, 5.0, 12.0):
        for p in (6.0, 28.0):
            for phi in (math.pi / 4.0, math.pi / 2.0, 2.0):
                got = displacement_psd(rho, p, phi, exp_det, exp_mode).total
                want = oracles.displacement_psd_full(
                    rho, p, phi, EPS_EXP, KAPPA, GAMMA, OMEGA_M, NTH_EXP
                )
                assert got == pytest.approx(want, rel=1e-2)


def test_broadband_limit_converges_to_oracle(ideal_det):
    # with kappa/omega_m > 1e4 the dimensionless model matches the full
    # cavity model to better than 1e-6 everywhere in the band
    mode = MechanicalMode(OMEGA_M, GAMMA, n_th=0.7)
    kappa = 1e4 * OMEGA_M * 1.5
    for rho in np.linspace(-20.0, 20.0, 41):
        got = displacement_psd(float(rho), 10.0, 1.1, ideal_det, mode).total
        want = oracles.displacement_psd_full(
            float(rho), 10.0, 1.1, 1.0, kappa, GAMMA, OMEGA_M, 0.7
        )
        assert abs(got / want - 1.0) < 1e-6


def test_mirror_symmetry(exp_det, exp_mode):
    for rho in (0.5, 3.0, 11.0):
        for phi in (0.4, 1.0, 2.2):
            a = displacement_psd(rho, 9.0, phi, exp_det, exp_mode).total
            b = displacement_psd(-rho, 9.0, math.pi - phi, exp_det, exp_mode).total
            assert a == pytest.approx(b, rel=1e-12)


def test_divergent_configurations_rejected(ideal_det, zero_mode):
    for phi in (0.0, math.pi, -0.1, 3.2):
        with pytest.raises(DivergenceError):
            displacement_psd(0.0, 1.0, phi, ideal_det, zero_mode)


def test_light_psd_shot_noise_limits():
    # zero power leaves pure shot noise at any quadrature, including the
    # amplitude quadrature where the displacement picture diverges
    for phi in (0.0, 0.3, math.pi / 2.0, math.pi):
        assert light_terms(3.0, phi, 0.0, 1.0, 0.0).total == pytest.approx(1.0)


def test_light_psd_transfer_identity(exp_det, exp_mode):
    # S_phi = 2 eps p sin^2(phi) S_xx away from the divergent quadratures
    for rho in (-5.0, 0.0, 2.0):
        for phi in (0.3, 1.0, 2.5):
            for p in (0.5, 14.0):
                lhs = light_terms(rho, phi, p, EPS_EXP, NTH_EXP).total
                sxx = displacement_psd(rho, p, phi, exp_det, exp_mode).total
                rhs = 2.0 * EPS_EXP * p * math.sin(phi) ** 2 * sxx
                assert lhs == pytest.approx(rhs, rel=1e-12)


def test_light_psd_ponderomotive_squeezing():
    # closed-form minimum over phi: 1 + A/2 - sqrt(A^2 + B^2)/2 with
    # A = 2 p (s_m + s_ff) scale and B the correlation amplitude
    rho, p = 5.0, 6.0
    chim2 = 1.0 / 26.0
    a = 2.0 * p * (1.0 + 0.5 * p) * chim2  # 2p(s_m + s_ff), eps = 1
    b = 2.0 * p * rho * chim2
    want = 1.0 + 0.5 * a - 0.5 * math.sqrt(a * a + b * b)
    phis = np.linspace(1e-4, math.pi - 1e-4, 40001)
    vals = light_terms(rho, phis, p, 1.0, 0.0).total
    assert vals.min() < 1.0  # squeezed below shot noise
    assert vals.min() == pytest.approx(want, abs=1e-6)


def test_classical_noise_zero_and_coefficient(exp_det, exp_cav):
    zero = ClassicalNoise()
    assert zero.is_zero
    assert classical_noise_psd(OMEGA_M, 1.0, exp_det, exp_cav, zero) == 0.0
    coeff = (
        8.0
        * EPS_EXP
        * (KAPPA / 2.0) ** 2
        * abs(oracles.chi_c(OMEGA_M, KAPPA)) ** 2
    )
    # pure phase noise read at the phase quadrature
    got_pp = classical_noise_psd(
        OMEGA_M, math.pi / 2.0, exp_det, exp_cav, ClassicalNoise(c_pp=0.04)
    )
    assert got_pp == pytest.approx(coeff * 0.04, rel=1e-9)
    # pure amplitude noise read at the amplitude quadrature: same coefficient
    got_aa = classical_noise_psd(
        OMEGA_M, 0.0, exp_det, exp_cav, ClassicalNoise(c_aa=0.04)
    )
    assert got_aa == pytest.approx(coeff * 0.04, rel=1e-9)
    with pytest.raises(ParameterError):
        ClassicalNoise(c_aa=-0.1)


def test_classical_noise_displacement_scaling(exp_det, exp_cav):
    noise = ClassicalNoise(C_AA_EXP, C_PP_EXP)
    phi, p = 1.2, 14.0
    raw = classical_noise_psd(OMEGA_M, phi, exp_det, exp_cav, noise)
    disp = classical_noise_displacement(OMEGA_M, phi, p, exp_det, exp_cav, noise)
    assert disp == pytest.approx(
        raw / (2.0 * EPS_EXP * p * math.sin(phi) ** 2), rel=1e-12
    )


def test_components_additivity():
    comps = SpectrumComponents(1.0, 2.0, 3.0, -0.5, 0.25)
    assert comps.total == pytest.approx(5.75)
