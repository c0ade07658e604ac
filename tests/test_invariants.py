"""Documented invariants of the noise budget, checked over drawn
(rho, p, phi, epsilon, n_th) rather than at hand-picked points.  The
tolerances are those of the point tests in test_spectra, test_limits and
test_synodyne."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisebudget import (
    ClassicalNoise, Detection, MechanicalMode, OpticalCavity, chi_m_dimensionless, omega_from_rho,
)
from noisebudget.limits import quadrature_order, uncertainty_product
from noisebudget.spectra import classical_noise_displacement, classical_noise_psd, homodyne_terms
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
