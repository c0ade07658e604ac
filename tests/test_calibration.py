"""Sideband thermometry, coupling calibration, and Lorentzian fitting."""

import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from conftest import F_GAMMA_HZ, F_M_HZ, GAMMA, KAPPA, NTH_EXP, OMEGA_M, write_spectrum_csv
from noisebudget import (
    Detection,
    EfficiencyBudget,
    LorentzianFit,
    OpticalCavity,
    ParameterError,
    compose_efficiency,
    fit_lorentzian,
    g_from_blue_sideband,
    n_th_from_sidebands,
    synth_sideband_spectrum,
)
from noisebudget import calibration
from noisebudget.calibration import (
    SidebandFit,
    _deterministic_init,
    _lorentzian,
    _lorentzian_jacobian,
    blue_sideband_amplitude,
    fit_sidebands,
    read_spectrum_csv,
)
from noisebudget.cli import main as cli_main
from noisebudget.errors import FitConvergenceError, NonphysicalAsymmetryError, NoPeakError


def test_n_th_from_sidebands():
    assert n_th_from_sidebands(2.0, 1.0) == pytest.approx(1.0)
    # amplitude-scale invariance: only the ratio enters
    for k in (0.1, 3.0, 250.0):
        assert n_th_from_sidebands(2.0 * k, 1.0 * k) == pytest.approx(1.0, rel=1e-12)
    # measured sideband amplitudes land within 3% of the formula value
    got = n_th_from_sidebands(1.35, 0.78)
    formula = 1.0 / (1.35 / 0.78 - 1.0)
    assert got == pytest.approx(formula, rel=1e-12)
    assert abs(got / formula - 1.0) < 0.03
    assert got == pytest.approx(1.3684, abs=1e-4)
    # ground-state limit
    assert n_th_from_sidebands(1e9, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(NonphysicalAsymmetryError):
        n_th_from_sidebands(1.0, 1.0)
    with pytest.raises(NonphysicalAsymmetryError):
        n_th_from_sidebands(0.5, 1.0)
    with pytest.raises(ParameterError):
        n_th_from_sidebands(1.0, 0.0)


def test_g_round_trip():
    det = Detection(0.35)
    cav = OpticalCavity(KAPPA)
    g_true = 2.0 * math.pi * 39.0
    n_damp = 1.0e5
    a_blue = blue_sideband_amplitude(g_true, GAMMA, 1.29, det, cav, OMEGA_M, n_damp)
    g_back = g_from_blue_sideband(a_blue, GAMMA, 1.29, det, cav, OMEGA_M, n_damp)
    assert g_back == pytest.approx(g_true, rel=1e-9)
    # doubling the damping photon number at fixed amplitude halves g^2
    g_half = g_from_blue_sideband(
        a_blue, GAMMA, 1.29, det, cav, OMEGA_M, 2.0 * n_damp
    )
    assert g_half**2 == pytest.approx(0.5 * g_back**2, rel=1e-12)
    with pytest.raises(ParameterError):
        g_from_blue_sideband(0.0, GAMMA, 1.29, det, cav, OMEGA_M, n_damp)
    with pytest.raises(ParameterError):
        g_from_blue_sideband(a_blue, GAMMA, -1.0, det, cav, OMEGA_M, n_damp)


def test_compose_efficiency():
    assert compose_efficiency(EfficiencyBudget(1.0, 1.0, 1.0, 1.0)) == 1.0
    budget = EfficiencyBudget(eps_sq=0.26, eps_en=0.585, eps_opt=0.95, eps_vis=0.92)
    assert budget.eps_meas == pytest.approx(0.4444, abs=5e-4)
    assert compose_efficiency(budget) == pytest.approx(0.357, abs=1e-3)
    # monotone increasing in every factor
    base = compose_efficiency(budget)
    assert compose_efficiency(
        EfficiencyBudget(0.27, 0.585, 0.95, 0.92)
    ) > base
    assert compose_efficiency(
        EfficiencyBudget(0.26, 0.585, 0.97, 0.92)
    ) > base
    assert compose_efficiency(
        EfficiencyBudget(0.26, 0.585, 0.95, 0.94)
    ) > base
    with pytest.raises(ParameterError):
        EfficiencyBudget(0.0, 0.5, 0.5, 0.5)
    with pytest.raises(ParameterError):
        EfficiencyBudget(0.5, 0.5, 1.5, 0.5)


def test_fit_lorentzian_noiseless_recovery():
    truth = LorentzianFit(
        center=0.0, gamma=325.0, amplitude=0.78, offset=1.0, residual_rms=0.0
    )
    grid = np.linspace(-1600.0, 1600.0, 400)
    samples = synth_sideband_spectrum(truth, grid)
    fit = fit_lorentzian(samples)
    assert fit.center == pytest.approx(truth.center, abs=1e-6 * truth.gamma)
    assert fit.gamma == pytest.approx(truth.gamma, rel=1e-6)
    assert fit.amplitude == pytest.approx(truth.amplitude, rel=1e-6)
    assert fit.offset == pytest.approx(truth.offset, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_fit_lorentzian_noisy_single_seed():
    truth = LorentzianFit(
        center=1.596e6, gamma=325.0, amplitude=0.78, offset=1.0, residual_rms=0.0
    )
    grid = np.linspace(1.596e6 - 1600.0, 1.596e6 + 1600.0, 400)
    samples = synth_sideband_spectrum(truth, grid, noise_sigma=0.0078, seed=3)
    fit = fit_lorentzian(samples)
    assert abs(fit.gamma / truth.gamma - 1.0) < 0.01


def test_fit_lorentzian_translation_equivariance():
    truth = LorentzianFit(
        center=0.0, gamma=325.0, amplitude=0.78, offset=1.0, residual_rms=0.0
    )
    grid = np.linspace(-1600.0, 1600.0, 300)
    samples = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=5)
    fit0 = fit_lorentzian(samples)
    shifted = samples.copy()
    shifted[:, 0] += 12345.0
    fit1 = fit_lorentzian(shifted)
    assert fit1.center - fit0.center == pytest.approx(12345.0, abs=1e-3)
    assert fit1.gamma == pytest.approx(fit0.gamma, rel=1e-6)
    assert fit1.amplitude == pytest.approx(fit0.amplitude, rel=1e-6)
    assert fit1.offset == pytest.approx(fit0.offset, rel=1e-6)


def test_fit_lorentzian_input_validation():
    grid = np.linspace(-1000.0, 1000.0, 200)
    flat = np.column_stack([grid, np.ones_like(grid)])
    with pytest.raises(NoPeakError):
        fit_lorentzian(flat)
    truth = LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0)
    few = synth_sideband_spectrum(truth, np.linspace(-1000.0, 1000.0, 5))
    with pytest.raises(ParameterError):
        fit_lorentzian(few)
    narrow = synth_sideband_spectrum(truth, np.linspace(-300.0, 300.0, 50))
    with pytest.raises(ParameterError):
        fit_lorentzian(narrow)
    with pytest.raises(ParameterError):
        fit_lorentzian(np.ones((10, 3)))


# central differences with steps of 1e-4 of each parameter's scale are
# within ~1e-8 of the column's largest entry (truncation), plus the rounding
# of the model values, a few ulp of the largest one, divided by the step
JACOBIAN_RTOL = 1e-6


@settings(max_examples=200, deadline=None)
@given(
    center=st.floats(-1e7, 1e7),
    gamma=st.floats(1e-3, 1e5),
    amplitude=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    offset=st.floats(-1e3, 1e3),
    span=st.floats(0.1, 50.0),
    n=st.integers(1, 64),
)
def test_lorentzian_jacobian_matches_central_differences(
    center, gamma, amplitude, offset, span, n
):
    x = center + gamma * np.linspace(-span, span, n)
    theta = np.array([center, gamma, amplitude, offset])
    jac = _lorentzian_jacobian(theta, x)
    assert jac.shape == (4, n)
    scale = (gamma, gamma, abs(amplitude), max(1.0, abs(offset)))
    for k, row in enumerate(jac):
        h = np.zeros(4)
        h[k] = 1e-4 * scale[k]
        hi, lo = theta + h, theta - h
        f_hi, f_lo = _lorentzian(x, *hi), _lorentzian(x, *lo)
        central = (f_hi - f_lo) / (hi[k] - lo[k])
        rounding = 8 * np.finfo(float).eps * np.abs([f_hi, f_lo]).max() / (hi[k] - lo[k])
        bound = JACOBIAN_RTOL * np.abs(row).max() + rounding
        np.testing.assert_array_less(np.abs(row - central), bound)


def test_lorentzian_jacobian_allocates_only_its_result():
    x = np.linspace(F_M_HZ - 25e3, F_M_HZ + 25e3, 100_001)
    theta = np.array([F_M_HZ, F_GAMMA_HZ, 0.5, 1.0])
    _lorentzian_jacobian(theta, x)
    tracemalloc.start()
    try:
        jac = _lorentzian_jacobian(theta, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jac.shape == (4, x.size)
    assert peak < 1.5 * jac.nbytes, f"{peak / 1e6:.1f} MB"


def _plain_lorentzian(x, center, gamma, amplitude, offset):
    """The offset Lorentzian as one numpy expression, a temporary per step."""
    hw2 = (gamma / 2.0) ** 2
    return offset + amplitude * hw2 / (hw2 + (x - center) ** 2)


@settings(max_examples=200, deadline=None)
@given(
    center=st.floats(-1e7, 1e7),
    gamma=st.floats(1e-3, 1e5),
    amplitude=st.floats(-1e3, 1e3),
    offset=st.floats(-1e3, 1e3),
    span=st.floats(0.1, 50.0),
    n=st.integers(1, 64),
)
def test_lorentzian_in_place_is_the_expression_bit_for_bit(
    center, gamma, amplitude, offset, span, n
):
    x = center + gamma * np.linspace(-span, span, n)
    theta = np.array([center, gamma, amplitude, offset])  # float64 scalars, as leastsq passes
    assert _lorentzian(x, *theta).tobytes() == _plain_lorentzian(x, *theta).tobytes()


def test_lorentzian_allocates_only_its_result():
    x = np.linspace(F_M_HZ - 25e3, F_M_HZ + 25e3, 100_001)
    theta = np.array([F_M_HZ, F_GAMMA_HZ, 0.5, 1.0])
    _lorentzian(x, *theta)
    tracemalloc.start()
    try:
        _lorentzian(x, *theta)
        fresh = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh < 1.5 * x.nbytes, f"{fresh / 1e6:.1f} MB"


def test_fit_lorentzian_on_shuffled_samples_equals_fit_on_sorted():
    # sorted samples are fitted through views of their columns, others after
    # a sort: both paths must see the same arrays
    truth = LorentzianFit(F_M_HZ, F_GAMMA_HZ, 0.5, 1.0, 0.0)
    grid = np.linspace(F_M_HZ - 25e3, F_M_HZ + 25e3, 2001)
    data = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=7)
    shuffled = data[np.random.default_rng(7).permutation(len(data))]
    assert fit_lorentzian(shuffled) == fit_lorentzian(data)
    assert fit_lorentzian(data[::-1]) == fit_lorentzian(data)


def _finite_difference_fit(samples):
    """The fit this module used before the analytic Jacobian: scipy's
    least_squares Levenberg-Marquardt with its default 2-point differences,
    same initial guess and tolerances; returns (theta, cost)."""
    x, y = samples[:, 0], samples[:, 1]
    init = _deterministic_init(x, y)
    res = least_squares(
        lambda theta: _lorentzian(x, *theta) - y,
        [init.center, init.gamma, init.amplitude, init.offset],
        method="lm",
        gtol=1e-10,
        xtol=1e-14,
        ftol=1e-14,
        max_nfev=1000,
    )
    assert res.status > 0
    return res.x, res.cost


# worst gaps seen over 80 seeds: 4.9e-7 linewidths (center), 3.8e-7 (gamma)
FIT_RTOL = 2e-6


@pytest.mark.parametrize("samples", (2001, 100001))
def test_fit_lorentzian_matches_finite_difference_reference(samples):
    grid = np.linspace(F_M_HZ - 25e3, F_M_HZ + 25e3, samples)
    for seed in range(40):
        amplitude = 0.5 * (1.0 + 1.0 / NTH_EXP) if seed % 2 else 0.5
        truth = LorentzianFit(F_M_HZ, F_GAMMA_HZ, amplitude, 1.0, 0.0)
        data = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=seed)
        fit = fit_lorentzian(data)
        (center, gamma, amp, offset), cost = _finite_difference_fit(data)
        assert abs(fit.center - center) <= FIT_RTOL * gamma, seed
        assert fit.gamma == pytest.approx(gamma, rel=FIT_RTOL), seed
        assert fit.amplitude == pytest.approx(amp, rel=FIT_RTOL), seed
        assert fit.offset == pytest.approx(offset, rel=FIT_RTOL), seed
        theta = (fit.center, fit.gamma, fit.amplitude, fit.offset)
        fit_cost = 0.5 * np.sum((_lorentzian(grid, *theta) - data[:, 1]) ** 2)
        assert fit_cost <= cost * (1.0 + 1e-12), seed
        assert fit.residual_rms == pytest.approx(math.sqrt(2.0 * fit_cost / samples), rel=1e-9)


def test_fit_lorentzian_raises_convergence_error_at_max_nfev(tmp_path, capsys, monkeypatch):
    grid = np.linspace(-1600.0, 1600.0, 400)
    red = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 1.35, 1.0, 0.0), grid, noise_sigma=0.005, seed=1
    )
    blue = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0), grid, noise_sigma=0.005, seed=2
    )
    monkeypatch.setattr(calibration, "MAX_NFEV", 3)
    with pytest.raises(FitConvergenceError, match="MAX_NFEV = 3 residual evaluations") as info:
        fit_lorentzian(red)
    assert isinstance(info.value.best_fit, LorentzianFit)
    assert math.isfinite(info.value.residual_rms)
    assert info.value.best_fit.residual_rms == info.value.residual_rms
    paths = {}
    for name, samples in (("red", red), ("blue", blue)):
        paths[name] = tmp_path / f"{name}.csv"
        write_spectrum_csv(paths[name], samples)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text(f"red_csv = {paths['red']}\nblue_csv = {paths['blue']}\n")
    assert cli_main(["--config", str(cfg), "calibrate"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "MAX_NFEV = 3" in err


def test_fit_sidebands_thermometry():
    grid = np.linspace(-1600.0, 1600.0, 400)
    red = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 1.35, 1.0, 0.0), grid, noise_sigma=0.005, seed=1
    )
    blue = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0), grid, noise_sigma=0.005, seed=2
    )
    fit = fit_sidebands(red, blue)
    assert fit.gamma_fit == pytest.approx(325.0, rel=0.01)
    n_th = n_th_from_sidebands(fit.a_red, fit.a_blue)
    assert n_th == pytest.approx(1.0 / (1.35 / 0.78 - 1.0), rel=0.03)
    with pytest.raises(NonphysicalAsymmetryError):
        SidebandFit(325.0, 0.5, 0.8, 1.0, 0.0)


def test_synth_determinism_and_validation():
    truth = LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0)
    grid = np.linspace(-1000.0, 1000.0, 101)
    a = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=9)
    b = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=9)
    np.testing.assert_array_equal(a, b)
    c = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=10)
    assert not np.array_equal(a, c)
    # noiseless output satisfies the model exactly
    clean = synth_sideband_spectrum(truth, grid)
    model = 1.0 + 0.78 * (325.0 / 2.0) ** 2 / ((325.0 / 2.0) ** 2 + grid**2)
    np.testing.assert_allclose(clean[:, 1], model, rtol=1e-12)
    with pytest.raises(ParameterError):
        synth_sideband_spectrum(truth, grid, noise_sigma=-0.1)
    with pytest.raises(ParameterError):
        synth_sideband_spectrum(truth, grid[::-1])


def test_spectrum_csv_round_trip(tmp_path):
    truth = LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0)
    grid = np.linspace(-1000.0, 1000.0, 64)
    samples = synth_sideband_spectrum(truth, grid, noise_sigma=0.01, seed=4)
    path = tmp_path / "sideband.csv"
    write_spectrum_csv(path, samples)
    back = read_spectrum_csv(path)
    np.testing.assert_array_equal(back, samples)
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    with pytest.raises(ParameterError):
        read_spectrum_csv(bad)


@pytest.mark.parametrize(
    "body",
    ("1,2\n3\n5,6\n", "1,2\n3,four\n5,6\n", "1,2\n3,nan\n5,6\n", "1,2\n3,-inf\n5,6\n",
     "1,2\n3,4,5\n5,6\n"),
    ids=("short", "non-numeric", "nan", "inf", "long"),
)
def test_read_spectrum_csv_names_bad_line(tmp_path, capsys, body):
    path = tmp_path / "bad.csv"
    path.write_text("frequency_hz,psd_shotnoise_units\n" + body)
    with pytest.raises(ParameterError, match=r"bad\.csv: line 3: expected 2 finite numbers"):
        read_spectrum_csv(path)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text(f"sideband_csv = {path}\n")
    assert cli_main(["--config", str(cfg), "calibrate"]) == 2
    assert f"{path}: line 3" in capsys.readouterr().err


def test_read_spectrum_csv_names_a_byte_that_is_not_utf8(tmp_path):
    data = b"frequency_hz,psd_shotnoise_units\n1,2\n3,\xe94\n"
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    with pytest.raises(ParameterError, match=r"latin1\.csv: byte 0xe9 at offset 39 is not UTF-8"):
        read_spectrum_csv(path)
    # a pipe cannot be read again for the offset
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        with pytest.raises(ParameterError, match=rf"^/dev/fd/{r}: byte 0xe9 is not UTF-8$"):
            read_spectrum_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
