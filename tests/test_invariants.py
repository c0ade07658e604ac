"""Documented invariants of the noise budget, checked over drawn
(rho, p, phi, epsilon, n_th) rather than at hand-picked points.  The
tolerances are those of the point tests in test_spectra, test_limits and
test_synodyne, but for the |chi_m|^2 terms, held to oracles.TERM_TOL of
the 50-digit oracles out to float64's largest rho."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from noisebudget import (
    ClassicalNoise, Detection, MechanicalMode, OpticalCavity, beta_opt,
    chi_m_dimensionless, displacement_psd, omega_from_rho, phi_opt, psd_at_phi_opt, sql_psd,
    synodyne_psd, synodyne_variational,
)
from noisebudget.errors import BranchPoleError, DivergenceError
from noisebudget.limits import ql_added_noise, quadrature_order, uncertainty_product
from noisebudget.spectra import (
    classical_noise_displacement, classical_noise_psd, homodyne_terms, light_terms,
    residual_backaction, thermal_term,
)
from noisebudget.sweep import COLUMNS, curve_columns, spectrum_columns
from noisebudget.synodyne import SynodyneLO, synodyne_terms

points = st.tuples(
    st.floats(-1e4, 1e4),  # rho
    st.floats(0.1, 100.0),  # p
    st.floats(0.05, math.pi - 0.05),  # phi, rad
    st.one_of(st.just(1.0), st.floats(1e-2, 1.0)),  # epsilon
    st.floats(0.0, 1e4),  # n_th
)


@settings(max_examples=200, deadline=None)
@given(points)
def test_total_is_sum_of_the_five_terms(point):
    rho, p, phi, eps, n_th = point
    comps = homodyne_terms(np.array([rho]), p, phi, eps, n_th)
    columns = spectrum_columns(rho, math.degrees(phi), p, comps)
    terms = [float(columns[c][0]) for c in ("s_m", "s_ii", "s_ff", "s_corr", "s_ln")]
    scale = math.fsum(map(abs, terms))
    assert abs(columns["total"][0] - math.fsum(terms)) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(points)
def test_uncertainty_relation(point):
    rho, p, phi, eps, n_th = point
    lhs, rhs = uncertainty_product(phi, p, Detection(eps))
    if eps == 1.0:
        assert lhs - rhs == pytest.approx(0.0, abs=1e-12)
    else:
        assert lhs - rhs > -1e-12
    # the product is that of the kernel's imprecision and back-action terms
    comps = homodyne_terms(np.array([rho]), p, phi, eps, n_th)
    chim2 = abs(chi_m_dimensionless(rho)) ** 2
    assert comps.s_ii[0] * comps.s_ff[0] / chim2 == pytest.approx(lhs, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(points)
def test_balanced_synodyne_is_homodyne_without_correlation(point):
    rho, p, phi, eps, n_th = point
    syn = synodyne_terms(np.array([rho]), p, SynodyneLO(1.0, phi), eps, n_th)
    hom = homodyne_terms(np.array([rho]), p, phi, eps, n_th)
    assert syn.total[0] == pytest.approx(hom.total[0] - hom.s_corr[0], rel=1e-12)
    assert syn.s_corr[0] == pytest.approx(0.0, abs=1e-12)


@st.composite
def noisy_points(draw):
    """(omega, phi, epsilon, cavity, noise) with the angle often drawn next to
    the root of the classical-noise quadratic form, where its parts cancel;
    for a resonant probe that root is phi = atan2(sqrt(c_pp), sqrt(c_aa)) + pi/2."""
    kappa = 2 * math.pi * draw(st.floats(1e5, 1e8))
    omega = 2 * math.pi * draw(st.floats(1e3, 1e8)) * draw(st.sampled_from((-1, 1)))
    level = st.one_of(st.just(0.0), st.floats(1e-4, 10.0))
    c_aa, c_pp = draw(level), draw(level)
    root = math.atan2(math.sqrt(c_pp), math.sqrt(c_aa)) + math.pi / 2
    phi = draw(st.one_of(
        st.floats(0.05, math.pi - 0.05),
        st.floats(-1e-6, 1e-6).map(lambda d: (root + d) % math.pi),
    ))
    eps = draw(st.floats(1e-2, 1.0))
    return omega, phi, Detection(eps), OpticalCavity(kappa), ClassicalNoise(c_aa, c_pp)


@settings(max_examples=300, deadline=None)
@given(noisy_points())
def test_classical_noise_is_never_negative(point):
    omega, phi, det, cav, noise = point
    assert classical_noise_psd(omega, phi, det, cav, noise) >= 0.0


@st.composite
def stitch_cases(draw):
    """(rho column, p, candidate angles in degrees, epsilon, n_th, s_ln): the
    angles are distinct and often mirror each other about 90 degrees, which
    ties them exactly at rho = 0 without classical noise."""
    rho = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=1, max_size=20
    )))[:, None]
    p = draw(st.floats(0.1, 100.0))
    angles = np.array(draw(st.lists(
        st.one_of(st.floats(1.0, 179.0), st.sampled_from((30.0, 60.0, 90.0, 120.0, 150.0))),
        min_size=2, max_size=4, unique=True,
    )))
    eps, n_th = draw(st.floats(1e-2, 1.0)), draw(st.floats(0.0, 100.0))
    s_ln = None
    if draw(st.booleans()):
        noise = ClassicalNoise(draw(st.floats(0.0, 1.0)), draw(st.floats(1e-4, 1.0)))
        cav = OpticalCavity(2 * math.pi * draw(st.floats(1e5, 1e8)))
        mode = MechanicalMode(2 * math.pi * draw(st.floats(1e6, 1e8)), 2 * math.pi * 340.0)

        def s_ln(phi):
            omega = omega_from_rho(rho, mode)
            return classical_noise_displacement(omega, phi, p, Detection(eps), cav, noise)

    return rho, p, angles, eps, n_th, s_ln


@settings(max_examples=300, deadline=None)
@given(stitch_cases())
def test_stitched_is_the_pointwise_minimum_over_its_angles(case):
    rho, p, angles, eps, n_th, s_ln = case
    stitched = curve_columns("stitched", rho, p, angles, eps, n_th, s_ln=s_ln)
    fixed = curve_columns("homodyne", rho, p, angles, eps, n_th, s_ln=s_ln)
    fixed = {c: fixed[c].reshape(len(rho), len(angles)) for c in COLUMNS}
    order = quadrature_order(np.radians(angles))
    for i in range(len(rho)):
        totals = fixed["total"][i]
        assert stitched["total"][i] == totals.min()
        # the first angle in quadrature_order whose total is the minimum
        chosen = next(k for k in order if totals[k] == totals.min())
        assert stitched["phi_used"][i] == angles[chosen]
        for c in COLUMNS:
            assert stitched[c][i] == fixed[c][i, chosen], c


def _log_uniform(low, high):
    """Floats 10**e for e uniform in [log10(low), log10(high)], kept <= high."""

    def power(e):
        try:
            return min(10.0**e, high)
        except OverflowError:  # e rounded past log10 of float64's maximum
            return high

    return st.floats(math.log10(low), math.log10(high)).map(power)


far_points = st.tuples(
    st.one_of(st.just(0.0), st.sampled_from((1e200, 1.7976931348623157e308)),
              _log_uniform(1e-10, 1.7976931348623157e308)),  # |rho|
    st.sampled_from((1.0, -1.0)),  # sign of rho
    _log_uniform(1e-10, 1e300),  # p
    st.one_of(st.just(0.0), _log_uniform(1e-10, 1e300)),  # n_th
    st.one_of(st.just(1.0), st.just(5e-324), _log_uniform(5e-324, 1.0)),  # epsilon
    st.floats(1e-6, math.pi - 1e-6),  # phi, rad
    _log_uniform(0.1, 10.0),  # synodyne beta
)


@settings(max_examples=500, deadline=None)
@given(far_points)
@np.errstate(over="ignore", divide="ignore")  # s_ii = 1/(2 eps p) may overflow; no term checked here
def test_chi_m_terms_match_their_50_digit_values_out_to_float64_max(point):
    size, sign, p, n_th, eps, phi, beta = point
    rho, det = sign * size, Detection(eps)
    p = np.float64(p)  # so that an overflowing s_ii is inf, not a ZeroDivisionError
    x = np.array([rho])
    want_ff, want_corr = oracles.homodyne_exact(rho, p, phi)
    homodyne = homodyne_terms(x, p, phi, eps, n_th)
    lo = SynodyneLO(beta, phi)
    corr = -synodyne_terms(0.0, 1.0, lo, 1.0, 0.0).s_corr  # the coefficient as rounded
    synodyne = synodyne_terms(x, p, lo, eps, n_th)
    checks = {
        "thermal": (thermal_term(x, n_th)[0], oracles.thermal_exact(rho, n_th)),
        "homodyne s_m": (homodyne.s_m[0], oracles.thermal_exact(rho, n_th)),
        "homodyne s_ff": (homodyne.s_ff[0], want_ff),
        "homodyne s_corr": (homodyne.s_corr[0], want_corr),
        "synodyne s_ff": (synodyne.s_ff[0], want_ff),
        "synodyne s_corr": (synodyne.s_corr[0], oracles.synodyne_corr_exact(rho, corr)),
        "residual (1, 1 - eps)": (
            residual_backaction(x, p, 1.0, 1.0 - eps)[0],
            oracles.residual_backaction_exact(rho, p, 1.0, 1.0 - eps),
        ),
        "residual (1 - eps, 1)": (
            residual_backaction(x, p, 1.0 - eps, 1.0)[0],
            oracles.residual_backaction_exact(rho, p, 1.0 - eps, 1.0),
        ),
        "sql": (sql_psd(rho), oracles.sql_exact(rho)),
        "ql": (ql_added_noise(rho, det), oracles.ql_added_exact(rho, eps)),
        "phi_opt": (phi_opt(rho, p, det), oracles.phi_opt_exact(rho, p, eps)),
    }
    light = light_terms(x, phi, p, eps, n_th)
    for name, got, want in zip(("s_m", "s_ff", "s_corr"), (light.s_m, light.s_ff, light.s_corr),
                               oracles.light_exact(rho, phi, p, eps, n_th)):
        if abs(want) < 1e300:  # above, the light term itself overflows float64
            checks[f"light {name}"] = (got[0], want)
    for name, (got, want) in checks.items():
        assert math.isfinite(got), name
        assert oracles.close(got, want), (name, float(got), float(want))
    want, condition = oracles.beta_opt_exact(rho, p, eps)
    try:
        got = beta_opt(rho, p, det)
    except BranchPoleError:  # eps p |chi_m|^2 rounds to 1
        assert condition > 1e15
    else:
        assert oracles.close(got, want, oracles.TERM_TOL * (1 + condition)), ("beta_opt", got, float(want))


# --- the chain of bounds -------------------------------------------------------
#
# The orderings that carry the paper's argument, over finite rho, p > 0,
# 0 < eps <= 1, n_th >= 0 and phi in (0, pi): variational readout beats every
# fixed angle, the QL bounds the variational added noise, the SQL bounds the
# phase-quadrature added noise, and the optimal sideband ratio beats every
# two-tone LO.  Each holds to BOUND_SLACK relative; test_limits keeps
# hand-picked examples of the first three.  Their equality cases are held to
# the 50-digit oracles.  The variational side is psd_at_phi_opt's closed
# form: the variational table evaluates homodyne_terms at phi_opt, whose
# s_ii and s_corr cancel far off resonance at high power.

BOUND_SLACK = 16 * 2.0**-52
bound_points = st.tuples(
    st.one_of(st.just(0.0), _log_uniform(1e-3, 1e4)),  # |rho|
    st.sampled_from((1.0, -1.0)),  # sign of rho
    _log_uniform(1e-3, 1e4),  # p
    st.one_of(st.just(1.0), _log_uniform(1e-2, 1.0)),  # epsilon
    st.one_of(st.just(0.0), _log_uniform(1e-3, 1e2)),  # n_th
)


def _at_most(lower, upper):
    return lower <= upper * (1 + BOUND_SLACK)


@settings(max_examples=300, deadline=None)
@given(
    bound_points,
    st.lists(st.floats(1e-6, math.pi - 1e-6), min_size=2, max_size=4, unique=True),
)
def test_variational_is_at_most_every_angle_and_so_the_stitched_total(point, angles):
    size, sign, p, eps, n_th = point
    rho, det, mode = sign * size, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
    variational = psd_at_phi_opt(rho, p, det, mode)
    for phi in angles:
        assert _at_most(variational, displacement_psd(rho, p, phi, det, mode).total)
    stitched = curve_columns("stitched", np.array([[rho]]), p, np.degrees(angles), eps, n_th)
    assert _at_most(variational, stitched["total"][0])


@settings(max_examples=300, deadline=None)
@given(bound_points)
def test_ql_is_at_most_the_variational_added_noise(point):
    size, sign, p, eps, n_th = point
    rho, det, mode = sign * size, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
    # QL added noise <= total - s_m, with s_m added to both sides: total - s_m
    # would carry the rounding of a total that s_m may dominate
    ql = curve_columns("ql", np.array([rho]), p, 0.0, eps, n_th)
    assert ql["s_ii"][0] == ql_added_noise(rho, det)
    assert ql["s_m"][0] == thermal_term(rho, n_th)
    assert _at_most(ql["total"][0], psd_at_phi_opt(rho, p, det, mode))


@settings(max_examples=300, deadline=None)
@given(bound_points)
def test_sql_is_at_most_the_phase_quadrature_added_noise(point):
    size, sign, p, eps, n_th = point
    rho, det, mode = sign * size, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
    phase = displacement_psd(rho, p, math.pi / 2.0, det, mode)
    added = phase.s_ii + phase.s_ff + phase.s_corr  # total - s_m, term by term
    assert _at_most(sql_psd(rho) / math.sqrt(eps), added)
    assert _at_most(sql_psd(rho), added)  # since eps <= 1


@settings(max_examples=300, deadline=None)
@given(bound_points, _log_uniform(1e-2, 1e2), st.floats(-math.pi, math.pi))
def test_optimal_sideband_ratio_is_at_most_every_two_tone_lo(point, beta, lo_phi):
    size, sign, p, eps, n_th = point
    rho, det, mode = sign * size, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
    try:
        fixed = synodyne_psd(rho, p, SynodyneLO(beta, lo_phi), det, mode)
    except DivergenceError:  # alpha_p = 0: beta = 1 at lo_phi = 0 or pi
        assume(False)
    assert _at_most(synodyne_variational(rho, p, det, mode), fixed)


@settings(max_examples=200, deadline=None)
@given(bound_points)
def test_bounds_are_reached_at_their_optimal_powers(point):
    size, sign, _, eps, n_th = point
    rho, det, mode = sign * size, Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
    # at the power that minimizes the variational added noise, the QL
    ql = oracles.thermal_exact(rho, n_th) + oracles.ql_added_exact(rho, eps)
    p = oracles.p_opt(rho, eps)
    assert oracles.close(psd_at_phi_opt(rho, p, det, mode), ql)
    assert oracles.close(curve_columns("ql", np.array([rho]), p, 0.0, eps, n_th)["total"][0], ql)
    # at p = 1 / (sqrt(eps) |chi_m|), the phase-quadrature added noise is |chi_m| / sqrt(eps)
    phase = displacement_psd(rho, 1.0 / (math.sqrt(eps) * sql_psd(rho)), math.pi / 2.0, det, mode)
    added = phase.s_ii + phase.s_ff + phase.s_corr
    assert oracles.close(added, oracles.phase_added_min_exact(rho, eps))
