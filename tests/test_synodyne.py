"""Two-tone local-oscillator readout."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import oracles
from noisebudget import (
    Detection,
    DivergenceError,
    ParameterError,
    SynodyneLO,
    beta_opt,
    chi_m_dimensionless,
    displacement_psd,
    lo_coefficients,
    synodyne_psd,
    synodyne_variational,
)
from noisebudget.errors import BranchPoleError
from noisebudget.synodyne import synodyne_terms


def test_lo_coefficients_values():
    # balanced tones at zero phase: pure amplitude readout
    a, p = lo_coefficients(SynodyneLO(1.0, 0.0))
    assert a == pytest.approx(1.0)
    assert p == pytest.approx(0.0, abs=1e-15)
    # balanced tones at 90 degrees: pure phase readout
    a, p = lo_coefficients(SynodyneLO(1.0, math.pi / 2.0))
    assert abs(a) == pytest.approx(0.0, abs=1e-15)
    assert abs(p) == pytest.approx(1.0)
    # slight imbalance at zero phase: large amplitude-to-phase weight ratio
    a, p = lo_coefficients(SynodyneLO(1.02, 0.0))
    assert abs(a) ** 2 / abs(p) ** 2 == pytest.approx(10201.0, rel=1e-9)


def test_lo_energy_identity():
    for beta in (0.3, 1.0, 1.02, 7.0):
        for phi in (0.0, 0.4, math.pi / 2.0, 2.5):
            a, p = lo_coefficients(SynodyneLO(beta, phi))
            assert abs(a) ** 2 + abs(p) ** 2 == pytest.approx(
                (1.0 + beta**2) / 2.0, rel=1e-12
            )


def test_lo_validation():
    with pytest.raises(ParameterError):
        SynodyneLO(0.0)
    with pytest.raises(ParameterError):
        SynodyneLO(-1.0)


def test_shot_and_correlation_factors_closed_form():
    for beta in (0.5, 1.02, 3.0):
        for phi in (0.2, 1.0, 2.0):
            a, p = lo_coefficients(SynodyneLO(beta, phi))
            denom = 1.0 + beta**2 - 2.0 * beta * math.cos(2.0 * phi)
            shot = (abs(a) ** 2 + abs(p) ** 2) / abs(p) ** 2
            assert shot == pytest.approx(2.0 * (1.0 + beta**2) / denom, rel=1e-9)
            corr = (a.conjugate() * p).imag / abs(p) ** 2
            assert corr == pytest.approx((beta**2 - 1.0) / denom, rel=1e-9)


def test_large_ratio_limits():
    # beta -> infinity: single-tone limit, shot factor -> 2 of the energy
    # split and unit correlation weight
    a, p = lo_coefficients(SynodyneLO(1e6, 0.3))
    assert (abs(a) ** 2 + abs(p) ** 2) / abs(p) ** 2 == pytest.approx(2.0, rel=1e-5)
    assert (a.conjugate() * p).imag / abs(p) ** 2 == pytest.approx(1.0, rel=1e-5)


def test_balanced_reduces_to_homodyne_without_correlation(exp_det, exp_mode):
    # beta = 1 with LO phase phi reproduces the homodyne budget at angle
    # phi with the cross-correlation switched off
    phi, p = math.pi / 4.0, 14.0
    lo = SynodyneLO(1.0, phi)
    for rho in np.linspace(-10.0, 10.0, 21):
        syn = synodyne_terms(float(rho), p, lo, exp_det.epsilon, exp_mode.n_th)
        hom = displacement_psd(float(rho), p, phi, exp_det, exp_mode)
        assert syn.total == pytest.approx(hom.total - hom.s_corr, rel=1e-12)
        assert syn.s_corr == pytest.approx(0.0, abs=1e-12)
        assert synodyne_psd(float(rho), p, lo, exp_det, exp_mode) == syn.total


def test_degenerate_lo_rejected(ideal_det, zero_mode):
    with pytest.raises(DivergenceError):
        synodyne_psd(0.0, 1.0, SynodyneLO(1.0, 0.0), ideal_det, zero_mode)


def test_overflowing_lo_power_names_beta(ideal_det, zero_mode):
    # (1 + beta^2)/2 overflows float64; below that the budget stays finite
    lo = SynodyneLO(1e200, 0.0)
    with pytest.raises(DivergenceError, match=r"beta = 1e\+200"):
        synodyne_psd(0.0, 1.0, lo, ideal_det, zero_mode)
    with pytest.raises(DivergenceError, match=r"beta = 1e\+200"):
        synodyne_terms(np.zeros(3), 1.0, lo, 1.0, 0.0)
    assert math.isfinite(synodyne_psd(0.0, 1.0, SynodyneLO(1e150, 0.0), ideal_det, zero_mode))


def test_slight_imbalance_beats_sql_on_resonance(ideal_det, zero_mode):
    # figure anchor: p = 100, beta = 1.02, amplitude phase -> total near one
    # zero-point unit on resonance, far below the shot-noise-limited value
    total = synodyne_psd(0.0, 100.0, SynodyneLO(1.02, 0.0), ideal_det, zero_mode)
    assert total == pytest.approx(1.01, rel=1e-9)  # 1 + 51.01 + 50 - 101
    phase_only = displacement_psd(
        0.0, 100.0, math.pi / 2.0, ideal_det, zero_mode
    ).total
    assert total < 0.05 * phase_only


def test_beta_opt_branches(ideal_det):
    assert beta_opt(0.0, 100.0, ideal_det) == pytest.approx(101.0 / 99.0, abs=1e-12)
    assert beta_opt(0.0, 100.0, ideal_det, branch="amplitude") == pytest.approx(
        101.0 / 99.0, abs=1e-12
    )
    # weak drive: phase branch, ratio slightly above balanced
    weak = beta_opt(0.0, 0.01, ideal_det)
    assert weak == pytest.approx(1.01 / 0.99, rel=1e-12)
    with pytest.raises(BranchPoleError):
        beta_opt(0.0, 1.0, ideal_det)
    with pytest.raises(ParameterError):
        beta_opt(0.0, 100.0, ideal_det, branch="phase")
    with pytest.raises(ParameterError):
        beta_opt(0.0, 0.01, ideal_det, branch="amplitude")
    with pytest.raises(ParameterError):
        beta_opt(0.0, 100.0, ideal_det, branch="sideways")
    with pytest.raises(ParameterError):
        beta_opt(0.0, 0.0, ideal_det)


# x = eps p |chi_m|^2 is rounded a few times, a few ulp, in both beta_opt and
# the oracle; the ratio (1 + x) / |1 - x| amplifies a relative error in x by at
# most 1 + x / |1 - x|, under ~1e3 with |1 - x| >= 1e-3
BETA_RTOL = 1e-11


@settings(max_examples=300, deadline=None)
@given(
    rho=st.floats(-1e3, 1e3),
    eps=st.just(1.0) | st.floats(1e-2, 1.0),
    x=st.floats(1e-6, 1.0 - 1e-3) | st.floats(1.0 + 1e-3, 1e6),
)
def test_beta_opt_is_one_ratio_on_either_side(rho, eps, x):
    p = x / (eps * oracles.chim2(rho))
    x = eps * p * oracles.chim2(rho)
    assume(abs(1.0 - x) >= 1e-3)
    det = Detection(eps)
    side, other, valid = (
        ("amplitude", "phase", "< 1") if x > 1.0 else ("phase", "amplitude", "> 1")
    )
    got = beta_opt(rho, p, det)
    assert got == beta_opt(rho, p, det, branch=side)
    with pytest.raises(ParameterError, match=f"{other} branch .* {valid}; got"):
        beta_opt(rho, p, det, branch=other)
    assert got == pytest.approx(oracles.lo_opt(rho, p, eps)[0], rel=BETA_RTOL)


def test_beta_opt_matches_numerical_minimum(ideal_det, zero_mode):
    # phase branch: scan beta at the 90-degree LO phase
    rho, p = 0.0, 0.5
    want = beta_opt(rho, p, ideal_det)
    assert want == pytest.approx(3.0, rel=1e-12)
    betas = np.linspace(1.001, 10.0, 20001)
    vals = [
        synodyne_psd(rho, p, SynodyneLO(float(b), math.pi / 2.0), ideal_det, zero_mode)
        for b in betas
    ]
    assert betas[int(np.argmin(vals))] == pytest.approx(want, abs=2e-3)
    # amplitude branch: scan beta at the 0-degree LO phase
    rho, p = 0.0, 100.0
    want = beta_opt(rho, p, ideal_det)
    betas = np.linspace(1.001, 1.2, 40001)
    vals = [
        synodyne_psd(rho, p, SynodyneLO(float(b), 0.0), ideal_det, zero_mode)
        for b in betas
    ]
    assert betas[int(np.argmin(vals))] == pytest.approx(want, abs=2e-4)


def test_synodyne_variational_is_local_optimum(ideal_det, zero_mode):
    rho, p = 0.0, 100.0
    best = synodyne_variational(rho, p, ideal_det, zero_mode)
    lo = SynodyneLO(*oracles.lo_opt(rho, p, ideal_det.epsilon))
    assert synodyne_psd(rho, p, lo, ideal_det, zero_mode) == pytest.approx(
        best, rel=1e-12
    )
    for db in (-1e-2, -1e-3, 1e-3, 1e-2):
        perturbed = SynodyneLO(lo.beta + db, lo.phi)
        assert synodyne_psd(rho, p, perturbed, ideal_det, zero_mode) > best


def test_synodyne_variational_matches_two_parameter_minimum(zero_mode):
    # lossy detector, on resonance: minimize over (beta, p) numerically and
    # compare with the closed-form optimal added noise sqrt((1-eps)/eps)
    det = Detection(0.35)

    def objective(theta):
        beta, log_p = theta
        if beta <= 0.0:
            return 1e9
        return synodyne_psd(
            0.0, math.exp(log_p), SynodyneLO(beta, math.pi / 2.0), det, zero_mode
        )

    res = minimize(
        objective, x0=[4.0, math.log(3.0)], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 5000},
    )
    want = 1.0 + math.sqrt(0.65 / 0.35)  # zpm + added
    assert res.fun == pytest.approx(want, rel=1e-8)
    assert oracles.synodyne_ql(0.0, 0.35, 0.0) == pytest.approx(want, rel=1e-12)
    p_opt = oracles.synodyne_p_opt(0.0, 0.35)
    assert synodyne_variational(0.0, p_opt, det, zero_mode) == pytest.approx(want, rel=1e-12)


def test_synodyne_p_opt(ideal_det, zero_mode):
    # ideal detector on resonance: the optimum runs away (added noise -> 0)
    assert oracles.synodyne_p_opt(0.0, 1.0) == math.inf
    runaway = [synodyne_variational(0.0, p, ideal_det, zero_mode) for p in (1e2, 1e4, 1e6)]
    assert runaway == sorted(runaway, reverse=True) and runaway[-1] - 1.0 < 1e-5
    off = oracles.synodyne_p_opt(2.0, 1.0)
    assert off == pytest.approx((1.0 + 4.0) / 2.0 * 1.0, rel=1e-12)  # 1/(rho |chi|^2)
    # synodyne QL at the ideal detector: rho |chi|^2 added noise, reached by
    # the fixed-power optimum at p_opt and missed on either side of it
    for rho in (0.5, 2.0, 8.0):
        p = oracles.synodyne_p_opt(rho, 1.0)
        best = synodyne_variational(rho, p, ideal_det, zero_mode)
        want = (1.0 + rho) * abs(chi_m_dimensionless(rho)) ** 2
        assert best == pytest.approx(want, rel=1e-12)
        assert oracles.synodyne_ql(rho, 1.0, 0.0) == pytest.approx(want, rel=1e-12)
        for k in (0.99, 1.01):
            assert synodyne_variational(rho, k * p, ideal_det, zero_mode) > best
