"""SQL/QL curves, variational readout, and stitching."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import oracles
from noisebudget import (
    Detection,
    DivergenceError,
    MechanicalMode,
    ParameterError,
    chi_m_dimensionless,
    displacement_psd,
    phi_opt,
    psd_at_phi_opt,
    sql_psd,
    uncertainty_product,
)
from noisebudget.limits import fixed_angle_spectrum, ql_added_noise, stitch_quadratures
from noisebudget.spectra import homodyne_terms, residual_backaction, thermal_term
from noisebudget.sweep import curve_columns
from noisebudget.synodyne import synodyne_variational


def test_sql_psd_values():
    assert sql_psd(0.0) == pytest.approx(1.0)
    assert sql_psd(1.0) == pytest.approx(1.0 / math.sqrt(2.0))
    np.testing.assert_allclose(sql_psd(np.array([-3.0, 3.0])), 1.0 / math.sqrt(10.0))


def test_sql_psd_stays_finite_where_rho_squared_overflows():
    # rho**2 overflows above |rho| ~ 1.34e154, where sqrt(1 + rho^2) = |rho|
    assert sql_psd(1e200) == 1e-200
    assert sql_psd(-1e200) == 1e-200
    assert type(sql_psd(1e200)) is np.float64
    finite, huge = np.array([0.0, 3.0, 1e154, -1.3e154]), np.array([1.35e154, -1e300, 1.7e308])
    with np.errstate(over="ignore"):
        assert np.isfinite(finite**2).all() and np.isinf(huge**2).all()
    # bit for bit the plain expression wherever rho**2 is finite
    expected = np.concatenate([1.0 / np.sqrt(1.0 + finite**2), 1.0 / np.abs(huge)])
    np.testing.assert_array_equal(sql_psd(np.concatenate([finite, huge])), expected)


@pytest.mark.parametrize("eps", (0.35, 1.0))
def test_ql_added_noise_stays_finite_where_rho_squared_overflows(eps):
    det = Detection(eps)
    rho = np.array([0.0, 3.0, 1e153, -1.3e153, 1e154, 1.35e154, -1e300, 1.7e308])
    with np.errstate(over="ignore", invalid="ignore"):
        chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
        plain = np.sqrt(1.0 / eps + (1.0 - eps) / eps * rho**2) * chim2
    # (1-eps)/eps rho^2 overflows from |rho| ~ 1e154 at eps = 0.35 (rho^2 alone
    # from 1.34e154), and the plain expression is then inf or nan
    huge = ~np.isfinite(plain)
    assert huge.tolist() == [False] * 4 + [eps < 1] + [True] * 3
    added = ql_added_noise(rho, det)
    # finite and within TERM_TOL of the 50-digit value, on both sides of the overflow
    assert np.isfinite(added).all()
    for r, got in zip(rho, added):
        assert oracles.close(got, oracles.ql_added_exact(r, eps)), (r, got)
    assert type(ql_added_noise(1e200, det)) is np.float64


# rho**2 overflows from |rho| ~ 1.34e154, |chi_m|^4 underflows to 0 from
# ~1e81, and p rho^2 |chi_m|^4 overflows on the way at 1e76 when p = 1e300
HUGE_RHO = np.array([0.0, 3.0, -40.0, 1e76, -1e153, 1e154, 1.35e154, -1e200, 1.7e308])
# each optimal readout: total = thermal + shot (+) (p/2) (a + b rho^2) |chi_m|^4,
# as (a, b) and the order in which the view adds its three terms
OPTIMAL_READOUTS = {
    "psd_at_phi_opt": (psd_at_phi_opt, lambda eps: (1.0, 1.0 - eps), lambda t, s, r: t + s + r),
    "synodyne_variational": (
        synodyne_variational, lambda eps: (1.0 - eps, 1.0), lambda t, s, r: t + (s + r)
    ),
}


@pytest.mark.parametrize("p", (1.0, 1e300))
@pytest.mark.parametrize("eps", (0.35, 1.0))
@pytest.mark.parametrize("readout", OPTIMAL_READOUTS)
def test_optimal_readouts_stay_finite_where_rho_squared_overflows(readout, eps, p):
    view, ab, add = OPTIMAL_READOUTS[readout]
    (a, b), rho = ab(eps), HUGE_RHO
    with np.errstate(over="ignore", invalid="ignore"):
        chim2 = np.abs(chi_m_dimensionless(rho)) ** 2
        plain = 0.5 * p * (a + b * rho**2) * chim2**2
    # the plain term is inf or nan, or |chi_m|^4 underflowed to 0
    huge = ~np.isfinite(plain) | (chim2**2 == 0)
    assert huge[:3].tolist() == [False] * 3 and huge[-4:].all()
    thermal, shot = thermal_term(rho, 1.29), 1.0 / (2.0 * eps * p)
    got = view(rho, p, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=1.29))
    # the view adds its three terms in its documented order
    residual = residual_backaction(rho, p, a, b)
    np.testing.assert_array_equal(got, add(thermal, shot, residual))
    # finite and within TERM_TOL of the 50-digit total at every rho
    assert np.isfinite(got).all()
    for r, total in zip(rho, got):
        assert oracles.close(total, oracles.optimal_readout_exact(r, p, eps, 1.29, a, b)), (r, total)
    # where the plain term fails, the asymptote (p/2) (a / rho^4 + b / rho^2),
    # in an order that neither overflows nor underflows before it must
    r = rho[huge]
    asymptote = 0.5 * (a * (p / r / r) / r / r + b * (p / r) / r)
    np.testing.assert_allclose(got[huge], add(thermal[huge], shot, asymptote), rtol=1e-15)


def test_optimal_readouts_at_huge_rho_and_power():
    mode = MechanicalMode(1.0, 1e-6)
    # the shot term 1/(2 eps p) alone is left at p = 1
    assert psd_at_phi_opt(1e200, 1.0, Detection(1.0), mode) == 0.5
    assert synodyne_variational(1e200, 1.0, Detection(1.0), mode) == 0.5
    # at p = 1e300 the (p/2) (1 - eps) / rho^2 term dominates
    got = psd_at_phi_opt(1e200, 1e300, Detection(0.5), mode)
    assert got == pytest.approx(0.25e-100, rel=1e-15, abs=0)
    got = synodyne_variational(1e200, 1e300, Detection(0.5), mode)
    assert got == pytest.approx(0.5e-100, rel=1e-15, abs=0)


@pytest.mark.parametrize("p", (1.0, 1e300))
@pytest.mark.parametrize("eps", (0.35, 1.0))
def test_phi_opt_stays_finite_where_eps_p_rho_overflows(eps, p):
    rho = HUGE_RHO
    with np.errstate(over="ignore", invalid="ignore"):
        plain = eps * p * rho * np.abs(chi_m_dimensionless(rho)) ** 2
    huge = ~np.isfinite(plain)
    assert huge.any() == (p > 1.0)
    phi = phi_opt(rho, p, Detection(eps))
    # finite and within TERM_TOL of the 50-digit angle at every rho
    assert np.isfinite(phi).all()
    for r, got in zip(rho, phi):
        assert oracles.close(got, oracles.phi_opt_exact(r, p, eps)), (r, got)
    # where the plain cotangent overflows, cot(phi) = eps p rho |chi_m|^2 takes its asymptote eps p / rho
    np.testing.assert_allclose(phi[huge], np.arctan2(1.0, eps * (p / rho[huge])), rtol=1e-15)
    assert phi_opt(1e200, 1e300, Detection(0.5)) == pytest.approx(2e-100, rel=1e-15, abs=0)


@pytest.mark.parametrize("eps", (5e-324, 1e-310, 5.5e-309, 5.6e-309, 1e-306, 1e-300))
def test_ql_added_noise_stays_finite_and_exact_at_tiny_eps(eps):
    # 1 - eps rounds to 1, so the value is 1 / (sqrt(eps) sqrt(1 + rho^2)):
    # finite, at most 1/sqrt(5e-324) = 4.5e161 at rho = 0, also where 1/eps
    # (the first three eps) or 1/eps rho^2 overflows float64
    rho = np.array([0.0, 3.0, -40.0, 1e5, 1e200, -1.7e308])
    added = ql_added_noise(rho, Detection(eps))
    want = [1.0 / (math.sqrt(eps) * math.hypot(1.0, r)) for r in rho]
    np.testing.assert_allclose(added, want, rtol=4e-16)
    assert np.isfinite(added).all() and added[0] <= 4.5e161
    for r, got in zip(rho, added):
        assert oracles.close(got, oracles.ql_added_exact(r, eps)), (r, got)


def test_sql_is_minimum_of_uncorrelated_readout(ideal_det, zero_mode):
    # grid minimum over power of the phase-quadrature added noise touches
    # the SQL curve
    for rho in (0.0, 2.0, 7.0):
        powers = np.logspace(-2, 3, 20001)
        added = [
            displacement_psd(rho, float(p), math.pi / 2.0, ideal_det, zero_mode).total
            - abs(chi_m_dimensionless(rho)) ** 2
            for p in powers
        ]
        assert min(added) == pytest.approx(float(sql_psd(rho)), rel=1e-6)


def test_phi_opt_values(ideal_det, exp_det):
    assert phi_opt(0.0, 10.0, ideal_det) == pytest.approx(math.pi / 2.0)
    want = math.atan2(1.0, 250.0 / 26.0)
    assert phi_opt(5.0, 50.0, ideal_det) == pytest.approx(want, rel=1e-12)
    assert phi_opt(12.0, 28.0, exp_det) == pytest.approx(
        math.atan2(1.0, 0.35 * 28.0 * 12.0 / 145.0), rel=1e-12
    )
    # negative detuning lands above 90 degrees
    assert phi_opt(-5.0, 50.0, ideal_det) > math.pi / 2.0
    with pytest.raises(ParameterError):
        phi_opt(1.0, 0.0, ideal_det)


def test_psd_at_phi_opt_consistency(exp_det, exp_mode):
    for rho in (-7.0, -0.5, 0.0, 3.0, 12.0):
        for p in (0.7, 14.0, 200.0):
            phi = phi_opt(rho, p, exp_det)
            direct = displacement_psd(rho, p, phi, exp_det, exp_mode).total
            assert psd_at_phi_opt(rho, p, exp_det, exp_mode) == pytest.approx(
                direct, rel=1e-12
            )


def test_phi_opt_is_global_minimum(exp_det, exp_mode):
    rho, p = 6.0, 20.0
    best = psd_at_phi_opt(rho, p, exp_det, exp_mode)
    for phi in np.linspace(1e-3, math.pi - 1e-3, 5001):
        assert (
            displacement_psd(rho, p, float(phi), exp_det, exp_mode).total
            >= best - 1e-10
        )


def _ql_total(rho, eps, n_th):
    """total of the ql curve kind, as limits and the figures evaluate it."""
    return curve_columns("ql", rho, 0.0, 0.0, eps, n_th)["total"]


def test_p_opt_and_ql(ideal_det, zero_mode):
    # ideal on-resonance case: unit power, added noise one zero-point unit
    assert oracles.p_opt(0.0, 1.0) == pytest.approx(1.0)
    assert float(ql_added_noise(0.0, ideal_det)) == pytest.approx(1.0)
    assert _ql_total(0.0, 1.0, 0.0)[0] == pytest.approx(2.0)
    assert psd_at_phi_opt(0.0, 1.0, ideal_det, zero_mode) == pytest.approx(2.0)
    # ideal detector: added noise is |chi|^2 at every detuning
    rho = np.linspace(-10.0, 10.0, 41)
    np.testing.assert_allclose(
        ql_added_noise(rho, ideal_det),
        np.abs(chi_m_dimensionless(rho)) ** 2,
        rtol=1e-12,
    )


def test_ql_matches_two_parameter_minimization(exp_det, exp_mode):
    # independent 2-D minimization over (phi, p) lands on the closed form
    rho = 5.0
    want = oracles.ql_psd(rho, 0.35, 1.29)
    added = math.sqrt(1.0 / 0.35 + (0.65 / 0.35) * 25.0) / 26.0
    assert want == pytest.approx(3.58 / 26.0 + added, rel=1e-9)
    assert _ql_total(rho, 0.35, 1.29)[0] == pytest.approx(want, rel=1e-12)

    def objective(theta):
        phi, log_p = theta
        if not 1e-6 < phi < math.pi - 1e-6:
            return 1e9
        return displacement_psd(
            rho, math.exp(log_p), phi, exp_det, exp_mode
        ).total

    res = minimize(
        objective, x0=[1.2, math.log(20.0)], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000},
    )
    assert res.fun == pytest.approx(want, rel=1e-8)
    assert math.exp(res.x[1]) == pytest.approx(oracles.p_opt(rho, 0.35), rel=1e-4)


def test_uncertainty_product(ideal_det, exp_det):
    rng = np.random.default_rng(7)
    for _ in range(100):
        phi = rng.uniform(0.05, math.pi - 0.05)
        p = float(rng.uniform(0.1, 100.0))
        lhs, rhs = uncertainty_product(phi, p, ideal_det)
        assert lhs - rhs == pytest.approx(0.0, abs=1e-12)
        lhs, rhs = uncertainty_product(phi, p, exp_det)
        assert lhs - rhs > 0.0


@pytest.mark.parametrize("phi", (0.0, math.pi))
def test_uncertainty_product_diverges_at_phi_0_and_pi(ideal_det, phi):
    with pytest.raises(DivergenceError, match="phi = 0 or pi"):
        uncertainty_product(phi, 1.0, ideal_det)


def test_sql_zero_point_and_variational_bounds(exp_det, exp_mode):
    grid = np.linspace(-10.0, 10.0, 81)
    chim2 = np.abs(chi_m_dimensionless(grid)) ** 2
    # SQL + zero point: ideal ground-state phase-quadrature readout at the
    # power 1/|chi_m| that minimizes its added noise
    p_sql = np.sqrt(1.0 + grid**2)
    sql_zpm = homodyne_terms(grid, p_sql, math.pi / 2.0, 1.0, 0.0).total
    np.testing.assert_allclose(sql_zpm - sql_psd(grid), chim2, rtol=1e-12)
    ql = _ql_total(grid, exp_det.epsilon, exp_mode.n_th)
    np.testing.assert_allclose(ql, oracles.ql_psd(grid, exp_det.epsilon, exp_mode.n_th), rtol=1e-12)
    var = psd_at_phi_opt(grid, 50.0, exp_det, exp_mode)
    eps, n_th = exp_det.epsilon, exp_mode.n_th
    phase = homodyne_terms(grid, 50.0, math.pi / 2.0, eps, n_th).total
    # variational never loses to the phase quadrature, and never beats QL
    assert np.all(var <= phase + 1e-12)
    assert np.all(var >= ql - 1e-12)
    i0 = np.argmin(np.abs(grid))
    assert var[i0] == pytest.approx(phase[i0], rel=1e-12)


def test_variational_tangent_to_ql_at_matching_power(ideal_det, zero_mode):
    # at eps = 1 the fixed-power variational curve touches the QL exactly
    # where p_opt(rho) equals that power: 1 + rho^2 = p
    p = 50.0
    rho_star = math.sqrt(p - 1.0)
    var = psd_at_phi_opt(rho_star, p, ideal_det, zero_mode)
    ql = _ql_total(rho_star, 1.0, 0.0)[0]
    assert var == pytest.approx(ql, rel=1e-12)
    assert oracles.p_opt(rho_star, 1.0) == pytest.approx(p, rel=1e-12)


def test_stitch_quadratures(exp_det, exp_mode):
    grid = np.linspace(-12.0, 12.0, 121)
    angles = [math.radians(a) for a in (45.0, 60.0, 75.0, 90.0)]
    curves = [
        fixed_angle_spectrum(grid, 14.0, a, exp_det, exp_mode) for a in angles
    ]
    stitched = stitch_quadratures(curves)
    stacked = np.vstack([c.values for c in curves])
    np.testing.assert_allclose(stitched.values, stacked.min(axis=0), rtol=1e-12)
    # the envelope never loses to any candidate and never beats the
    # per-frequency optimum
    for rho, v in zip(grid, stitched.values):
        assert v >= psd_at_phi_opt(float(rho), 14.0, exp_det, exp_mode) - 1e-12
    # identical candidates tie everywhere; the tie-break picks the angle
    # nearest the phase quadrature
    twin = stitch_quadratures([curves[-1], curves[-1]])
    np.testing.assert_allclose(twin.chosen_phi, math.pi / 2.0)
    with pytest.raises(ParameterError):
        stitch_quadratures([curves[0]])
    other_grid = fixed_angle_spectrum(grid + 0.5, 14.0, angles[0], exp_det, exp_mode)
    with pytest.raises(ParameterError):
        stitch_quadratures([curves[0], other_grid])
    other_p = fixed_angle_spectrum(grid, 15.0, angles[0], exp_det, exp_mode)
    with pytest.raises(ParameterError):
        stitch_quadratures([curves[0], other_p])


def test_homodyne_synodyne_variational_crossover(ideal_det, zero_mode):
    # correlation-assisted homodyne wins away from resonance, synodyne wins
    # near resonance (ideal detector, fixed power)
    p = 100.0
    for rho in (1.5, 3.0):
        assert psd_at_phi_opt(rho, p, ideal_det, zero_mode) < synodyne_variational(
            rho, p, ideal_det, zero_mode
        )
    for rho in (0.0, 0.5):
        assert synodyne_variational(rho, p, ideal_det, zero_mode) < psd_at_phi_opt(
            rho, p, ideal_det, zero_mode
        )
