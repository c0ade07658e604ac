"""The broadcasting evaluation kernels and their point views against
tests/oracles.py.

The oracles are scalar formulas written term by term on Python floats;
run_sweep and the *_terms kernels evaluate whole grids at once, and the
point evaluators (displacement_psd, synodyne_psd, ...) are views of
those kernels.  The tolerance is fixed from float64: each term within ULPS
ulp of the summed magnitudes of every additive part at that point.  The
oracle writes the classical-noise term s_ln as a sum of three parts that
can cancel, so s_ln counts by the magnitudes of those parts.  Stitched
angles must match unless two candidates' totals tie within that same
tolerance.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import GAMMA, OMEGA_M, column_lists
from noisebudget import (
    Detection,
    DivergenceError,
    MechanicalMode,
    NoiseBudgetError,
    ParameterError,
    SweepSpec,
    beta_opt,
    chi_m_dimensionless,
    displacement_psd,
    omega_from_rho,
    parse_config,
    psd_at_phi_opt,
    run_sweep,
    synodyne_psd,
    synodyne_variational,
    uncertainty_product,
)
from noisebudget.cli import main as cli_main
from noisebudget.limits import fixed_angle_spectrum, phi_opt, ql_added_noise, stitch_quadratures
from noisebudget.spectra import SpectrumComponents, homodyne_terms
from noisebudget.sweep import COLUMNS, READOUTS, SpectrumTable, curve_columns
from noisebudget.synodyne import SynodyneLO, synodyne_terms

ULPS = 8
EPS64 = np.finfo(float).eps
TERMS = ("s_m", "s_ii", "s_ff", "s_corr", "s_ln")

CAVITY = "kappa_hz = 2.5e6\nomega_m_hz = 1.596e6\ngamma_hz = 340\n"
GRIDS = (
    "rho_min = -10\nrho_max = 10\nrho_count = 41\n",
    "rho_min = 0.01\nrho_max = 100\nrho_count = 33\nrho_spacing = log-symmetric\n",
)
NOISE = ("", CAVITY + "c_aa = 0.5\nc_pp = 2\n")
BASE = "powers = 0.7,14,28\nepsilon = 0.35\nn_th = 1.29\n"


def _assert_row_matches(cols, i, comps, scale: float):
    tol = ULPS * EPS64 * scale
    for name in TERMS:
        assert abs(cols[name][i] - getattr(comps, name)) <= tol, (name, i, cols["rho"][i])
    assert abs(cols["total"][i] - comps.total) <= tol, (i, cols["rho"][i])


def _oracle(spec: SweepSpec):
    """Oracle homodyne evaluation of one point of the spec: (rho, phi, p) ->
    (components, summed magnitudes of every additive part)."""
    noisy = bool(spec.c_aa or spec.c_pp)
    if noisy:
        cav_mode = MechanicalMode(
            2 * math.pi * spec.omega_m_hz, 2 * math.pi * spec.gamma_hz, n_th=spec.n_th
        )
        kappa = 2 * math.pi * spec.kappa_hz

    def point(rho, phi, p):
        s_ln = s_ln_scale = 0.0
        if noisy:
            omega = float(omega_from_rho(rho, cav_mode))
            s_ln, s_ln_scale = oracles.classical_noise_displacement(
                omega, phi, p, kappa, spec.c_aa, spec.c_pp
            )
        quantum = oracles.homodyne_terms(rho, p, phi, spec.epsilon, spec.n_th)
        comps = SpectrumComponents(*quantum, s_ln)
        return comps, sum(map(abs, quantum)) + s_ln_scale

    return point


def check_stitched(spec: SweepSpec, table) -> int:
    """Every row is the pointwise minimum over the candidates; returns the
    number of rows whose angle was decided by a tie within tolerance."""
    point = _oracle(spec)
    angles = sorted(spec.stitch_angles_deg, key=lambda a: abs(math.radians(a) - math.pi / 2))
    ties, cols = 0, column_lists(table)
    for i, (rho, phi_used, p) in enumerate(zip(*(cols[c] for c in COLUMNS[:3]))):
        candidates = {a: point(rho, math.radians(a), p) for a in angles}
        best_deg = min(angles, key=lambda a: candidates[a][0].total)
        best = candidates[best_deg][0].total
        tol = ULPS * EPS64 * max(scale for _, scale in candidates.values())
        near = [a for a in angles if candidates[a][0].total - best <= tol]
        assert phi_used in near, (rho, p, phi_used, best_deg)
        ties += phi_used != best_deg
        _assert_row_matches(cols, i, *candidates[phi_used])
    return ties


def test_homodyne_terms_broadcast_shapes_and_checks():
    rho = np.linspace(-3.0, 3.0, 7)[:, None, None]
    p = np.array([1.0, 2.0])[None, :, None]
    phi = np.radians([30.0, 90.0, 150.0])
    comps = homodyne_terms(rho, p, phi, 0.5, 2.0)
    assert all(t.shape == (7, 2, 3) for t in comps.terms[:4])
    # s_ln comes back as given: the default 0.0, not an array of zeros
    assert type(comps.s_ln) is float and comps.s_ln == 0.0


@pytest.mark.parametrize("noise", NOISE, ids=("clean", "noise"))
@pytest.mark.parametrize("grid", GRIDS, ids=("linear", "log"))
def test_homodyne_sweep_matches_scalar(grid, noise):
    spec = parse_config(grid + BASE + noise + "angles_deg = 20,45,90,135\n")
    point = _oracle(spec)
    cols = column_lists(run_sweep(spec))
    assert len(cols["rho"]) == spec.rho_count * 3 * 4
    for i, (rho, phi_used, p) in enumerate(zip(*(cols[c] for c in COLUMNS[:3]))):
        _assert_row_matches(cols, i, *point(rho, math.radians(phi_used), p))


@pytest.mark.parametrize("noise", NOISE, ids=("clean", "noise"))
@pytest.mark.parametrize("grid", GRIDS, ids=("linear", "log"))
def test_variational_sweep_matches_scalar(grid, noise):
    spec = parse_config(grid + BASE + noise + "readout = variational\n")
    point, det = _oracle(spec), Detection(spec.epsilon)
    cols = column_lists(run_sweep(spec))
    for i, (rho, phi_used, p) in enumerate(zip(*(cols[c] for c in COLUMNS[:3]))):
        # the kernel's angle comes from np.arctan2 of an array-computed
        # cotangent; it stays within ULPS ulp of the scalar math.atan2 one
        phi = float(phi_opt(rho, p, det))
        c = det.epsilon * p * rho * abs(chi_m_dimensionless(rho)) ** 2
        assert abs(phi - math.atan2(1.0, c)) <= ULPS * math.ulp(phi)
        assert phi_used == math.degrees(phi)
        _assert_row_matches(cols, i, *point(rho, phi, p))


@pytest.mark.parametrize("grid", GRIDS, ids=("linear", "log"))
def test_synodyne_sweep_matches_scalar(grid):
    spec = parse_config(grid + BASE + "readout = synodyne\nbeta = 1.02\nsynodyne_phi_deg = 5.8\n")
    cols = column_lists(run_sweep(spec))
    for i, (rho, phi_used, p) in enumerate(zip(*(cols[c] for c in COLUMNS[:3]))):
        assert phi_used == 5.8
        terms = oracles.synodyne_terms(rho, p, 1.02, math.radians(5.8), spec.epsilon, spec.n_th)
        _assert_row_matches(cols, i, SpectrumComponents(*terms), sum(map(abs, terms)))
    with pytest.raises(DivergenceError, match="alpha_p = 0"):
        synodyne_terms(np.zeros(3), 1.0, SynodyneLO(1.0, 0.0), 1.0, 0.0)


@pytest.mark.parametrize("noise", NOISE, ids=("clean", "noise"))
@pytest.mark.parametrize("grid", GRIDS, ids=("linear", "log"))
def test_stitched_sweep_matches_scalar(grid, noise):
    spec = parse_config(
        grid + BASE + noise + "readout = stitched\nstitch_angles_deg = 90,45,60,75\n"
    )
    table = run_sweep(spec)
    assert check_stitched(spec, table) == 0
    # rho-major, then powers in config order
    rho, p = table.columns["rho"].tolist(), table.columns["p"].tolist()
    assert p[:3] == [0.7, 14.0, 28.0]
    assert rho == sorted(rho)


def test_stitched_classical_noise_picks_pointwise_minimum():
    # the angle must be chosen on totals that include the classical-noise
    # term; choosing it on the quantum terms alone and adding s_ln after
    # leaves 19 of these 41 rows above another candidate's total
    spec = parse_config(
        "rho_min = -10\nrho_max = 10\nrho_count = 41\npowers = 14\n"
        "epsilon = 0.35\nn_th = 1.29\nreadout = stitched\n"
        "stitch_angles_deg = 45,60,75,90\nc_aa = 0.5\nc_pp = 2\n" + CAVITY
    )
    assert check_stitched(spec, run_sweep(spec)) == 0


def test_stitched_ties_go_toward_phase_quadrature():
    # at rho = 0 the correlation term vanishes, and at p = 1e9 the
    # angle-dependent imprecision is below one ulp of the backaction, so all
    # four totals tie exactly; the tie goes to 90 degrees, listed last, in
    # run_sweep and in stitch_quadratures alike
    angles = (45.0, 60.0, 75.0, 90.0)
    spec = parse_config(
        "rho_min = -1\nrho_max = 1\nrho_count = 3\npowers = 1e9\n"
        "readout = stitched\nstitch_angles_deg = 45,60,75,90\n"
    )
    totals = {sum(oracles.homodyne_terms(0.0, 1e9, math.radians(a), 1.0, 0.0))
              for a in angles}
    assert len(totals) == 1
    cols = run_sweep(spec).columns
    assert cols["phi_used"][cols["rho"] == 0.0][0] == 90.0
    det, mode = Detection(1.0), MechanicalMode(1.0, 1e-6)
    curves = [fixed_angle_spectrum(spec.rho_grid(), 1e9, math.radians(a), det, mode)
              for a in angles]
    assert len({c.values[1] for c in curves}) == 1
    assert stitch_quadratures(curves).chosen_phi[1] == math.pi / 2.0


# --- point views -----------------------------------------------------------


def _assert_view_matches(got, want, terms):
    """got within ULPS ulp of the summed magnitudes of the oracle's additive
    terms of want."""
    assert abs(got - want) <= ULPS * EPS64 * math.fsum(map(abs, terms)), (got, want)


def test_point_views_match_oracles():
    rng = np.random.default_rng(11)
    for _ in range(400):
        rho = float(rng.choice([0.0, rng.uniform(-30.0, 30.0), rng.uniform(-1e4, 1e4)]))
        p = float(10.0 ** rng.uniform(-3.0, 6.0))
        phi = float(rng.uniform(0.01, math.pi - 0.01))
        eps, n_th = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 100.0))
        beta, lo_phi = float(rng.uniform(0.2, 5.0)), float(rng.uniform(-3.0, 3.0))
        det, mode = Detection(eps), MechanicalMode(1.0, 1e-6, n_th=n_th)
        comps = displacement_psd(rho, p, phi, det, mode)
        terms = oracles.homodyne_terms(rho, p, phi, eps, n_th)
        assert all(type(t) is float for t in comps.terms)
        for got, want in zip(comps.terms, terms + (0.0,)):
            _assert_view_matches(got, want, terms)
        _assert_view_matches(comps.total, math.fsum(terms), terms)
        lo = SynodyneLO(beta, lo_phi)
        terms = oracles.synodyne_terms(rho, p, beta, lo_phi, eps, n_th)
        for got, want in zip(synodyne_terms(rho, p, lo, eps, n_th).terms, terms + (0.0,)):
            _assert_view_matches(float(got), want, terms)
        total = synodyne_psd(rho, p, lo, det, mode)
        assert type(total) is float
        _assert_view_matches(total, math.fsum(terms), terms)
        lhs, rhs = uncertainty_product(phi, p, det)
        want_lhs, want_rhs = oracles.uncertainty_product(phi, p, eps)
        _assert_view_matches(lhs, want_lhs, (want_lhs,))
        _assert_view_matches(rhs, want_rhs, (want_rhs,))


def test_kernel_totals_match_full_model_in_broadband_limit():
    # with kappa/omega_m > 1e4 the dimensionless budget matches the
    # cavity-filtered light PSD to better than 1e-6 everywhere in the band
    rho, p, phi = np.meshgrid(
        np.linspace(-20.0, 20.0, 41), [0.7, 14.0, 28.0], [0.4, 1.1, math.pi / 2.0, 2.5],
        indexing="ij",
    )
    kappa = 1e4 * OMEGA_M * 1.5
    got = homodyne_terms(rho, p, phi, 0.35, 1.29).total
    want = oracles.displacement_psd_full(rho, p, phi, 0.35, kappa, GAMMA, OMEGA_M, 1.29)
    np.testing.assert_allclose(got, want, rtol=1e-6)


# every float that a caller can pass: nan, +-inf, +-0.0, subnormals and the
# largest finite values, beside ordinary draws
SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1.7e308)


def _floats(*bounds):
    return st.one_of(st.sampled_from(SPECIAL), st.floats(*bounds))


def _mode(n_th):
    return MechanicalMode(1.0, 1e-6, n_th=n_th)


def _light_total(rho, p, phi, eps, n_th):
    """The total of a one-point light curve, as figure 1d evaluates it."""
    columns = curve_columns("light", rho, p, math.degrees(phi), eps, n_th)
    return SpectrumTable({}, columns).columns["total"].tolist()[0]


VIEWS = {
    "displacement_psd": lambda rho, p, phi, eps, n_th, beta: displacement_psd(
        rho, p, phi, Detection(eps), _mode(n_th)).total,
    "synodyne_psd": lambda rho, p, phi, eps, n_th, beta: synodyne_psd(
        rho, p, SynodyneLO(beta, phi), Detection(eps), _mode(n_th)),
    "uncertainty_product": lambda rho, p, phi, eps, n_th, beta: uncertainty_product(
        phi, p, Detection(eps)),
    "psd_at_phi_opt": lambda rho, p, phi, eps, n_th, beta: psd_at_phi_opt(
        rho, p, Detection(eps), _mode(n_th)),
    "light": lambda rho, p, phi, eps, n_th, beta: _light_total(rho, p, phi, eps, n_th),
    "synodyne_variational": lambda rho, p, phi, eps, n_th, beta: synodyne_variational(
        rho, p, Detection(eps), _mode(n_th)),
    "phi_opt": lambda rho, p, phi, eps, n_th, beta: phi_opt(rho, p, Detection(eps)),
    "beta_opt": lambda rho, p, phi, eps, n_th, beta: beta_opt(rho, p, Detection(eps)),
}


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(VIEWS)), _floats(), _floats(), _floats(0.0, math.pi),
    _floats(0.0, 1.0), _floats(0.0), _floats(0.0),
)
def test_point_views_return_finite_floats_or_typed_errors(
    name, rho, p, phi, eps, n_th, beta
):
    try:
        out = VIEWS[name](rho, p, phi, eps, n_th, beta)
    except NoiseBudgetError:
        return
    for value in out if isinstance(out, tuple) else (out,):
        assert isinstance(value, float) and math.isfinite(value), (name, out)


# --- validation ----------------------------------------------------------

MINIMAL = "rho_min = -10\nrho_max = 10\nrho_count = 21\npowers = 14\nangles_deg = 90\n"
FLOAT_KEYS = ("rho_min", "rho_max", "epsilon", "n_th", "beta", "synodyne_phi_deg",
              "c_aa", "c_pp", "kappa_hz", "omega_m_hz", "gamma_hz")
LIST_KEYS = ("powers", "angles_deg", "stitch_angles_deg")


@pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
@pytest.mark.parametrize("key", FLOAT_KEYS + LIST_KEYS)
def test_non_finite_values_rejected(key, bad):
    lines = {k: v for k, v in (ln.split(" = ") for ln in MINIMAL.strip().split("\n"))}
    lines[key] = f"1,{bad}" if key in LIST_KEYS else bad
    text = "".join(f"{k} = {v}\n" for k, v in lines.items())
    with pytest.raises(ParameterError, match=f"{key} must be finite"):
        parse_config(text)


_DET, _MODE = Detection(1.0), MechanicalMode(1.0, 1e-6)
# the exported evaluators as functions of (rho, p), other arguments at
# ordinary values, with the arguments each takes
EVALUATORS = {
    "displacement_psd": (
        lambda rho, p: displacement_psd(rho, p, 1.0, _DET, _MODE), ("rho", "p")),
    "uncertainty_product": (lambda rho, p: uncertainty_product(1.0, p, _DET), ("p",)),
    "psd_at_phi_opt": (lambda rho, p: psd_at_phi_opt(rho, p, _DET, _MODE), ("rho", "p")),
    "synodyne_psd": (
        lambda rho, p: synodyne_psd(rho, p, SynodyneLO(1.02), _DET, _MODE), ("rho", "p")),
    "phi_opt": (lambda rho, p: phi_opt(rho, p, _DET), ("rho", "p")),
    "beta_opt": (lambda rho, p: beta_opt(rho, p, _DET), ("rho", "p")),
    "ql_added_noise": (lambda rho, p: ql_added_noise(rho, _DET), ("rho",)),
    "synodyne_variational": (
        lambda rho, p: synodyne_variational(rho, p, _DET, _MODE), ("rho", "p")),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_non_finite_power_and_detuning_rejected(name):
    evaluate, takes = EVALUATORS[name]
    for p in (0.0, -1.0, math.inf, math.nan) if "p" in takes else ():
        with pytest.raises(ParameterError, match=re.escape(f"p must be > 0 and finite, got {p}")):
            evaluate(1.0, p)
    for rho in (math.inf, -math.inf, math.nan) if "rho" in takes else ():
        with pytest.raises(ParameterError, match=re.escape(f"rho must be finite, got {rho}")):
            evaluate(rho, 1.0)


def test_synodyne_with_classical_noise_rejected(tmp_path, capsys):
    # synodyne reads no classical-noise key, so the first one is rejected by line
    noise = "c_aa = 0.004\nc_pp = 0.04\n" + CAVITY
    text = MINIMAL.replace("angles_deg = 90\n", "beta = 1.02\n") + noise
    with pytest.raises(ParameterError, match="line 6: synodyne readout does not read 'c_aa'"):
        parse_config(text + "readout = synodyne\n")
    cfg = tmp_path / "syn.cfg"
    cfg.write_text(MINIMAL + noise)
    assert cli_main(["--config", str(cfg), "spectrum"]) == 0
    cfg.write_text(text)
    assert cli_main(["--config", str(cfg), "synodyne"]) == 2
    assert "line 6: synodyne readout does not read 'c_aa'" in capsys.readouterr().err


def test_non_finite_config_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINIMAL + "n_th = nan\n")
    assert cli_main(["--config", str(cfg), "spectrum"]) == 2
    assert "n_th must be finite" in capsys.readouterr().err
    # finite input whose evaluation overflows float64 is a domain error
    cfg.write_text(MINIMAL + "n_th = 1e308\n")
    assert cli_main(["--config", str(cfg), "spectrum"]) == 3
    assert "overflows" in capsys.readouterr().err


# --- properties over accepted configs ------------------------------------

# the physical domain drawn from: bounded far beyond any laboratory value,
# with angles strictly inside (0, 180) degrees and beta != 1 so that the
# synodyne LO keeps mechanical information
_pos = st.floats(1e-3, 1e6)
_angle = st.floats(0.5, 179.5)


@st.composite
def configs(draw):
    readout = draw(st.sampled_from(("homodyne", "variational", "synodyne", "stitched")))
    spacing = draw(st.sampled_from(("linear", "log-symmetric")))
    lo = draw(st.floats(1e-3, 1e3) if spacing == "log-symmetric" else st.floats(-1e4, 1e4))
    hi = lo + draw(st.floats(1e-3, 1e4))
    lines = [
        f"rho_min = {lo!r}", f"rho_max = {hi!r}",
        f"rho_count = {draw(st.integers(2, 40))}", f"rho_spacing = {spacing}",
        "powers = "
        + ",".join(repr(v) for v in draw(st.lists(_pos, min_size=1, max_size=3, unique=True))),
        f"epsilon = {draw(st.floats(1e-2, 1.0))!r}", f"n_th = {draw(st.floats(0.0, 1e4))!r}",
        f"readout = {readout}",
    ]
    row = READOUTS[readout]  # only the keys the readout reads
    if row.angles in ("angles_deg", "stitch_angles_deg"):
        angles = draw(st.lists(_angle, min_size=row.least, max_size=row.least + 2, unique=True))
        lines.append(f"{row.angles} = " + ",".join(map(repr, angles)))
    if "beta" in row.reads:
        beta = draw(st.floats(0.1, 10.0).filter(lambda b: abs(b - 1.0) > 1e-6))
        lines += [f"beta = {beta!r}", f"synodyne_phi_deg = {draw(st.floats(-180, 180))!r}"]
    if "c_aa" in row.reads and draw(st.booleans()):
        lines += [f"c_aa = {draw(st.floats(0.0, 10.0))!r}",
                  f"c_pp = {draw(st.floats(0.0, 10.0))!r}", CAVITY.strip()]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_accepted_configs_give_finite_tables(text):
    spec = parse_config(text)
    table = run_sweep(spec)
    assert set(table.columns) == set(COLUMNS)
    for name, col in table.columns.items():
        assert col.dtype == np.float64 and col.ndim == 1
        assert np.isfinite(col).all(), name
    if spec.readout == "stitched":
        check_stitched(spec, table)
