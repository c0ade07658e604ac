"""Config parsing, sweep evaluation, serialization, and the CLI surface."""

import json
import math

import numpy as np
import pytest

from conftest import table_text, write_spectrum_csv
from noisebudget import (
    ParameterError,
    SweepSpec,
    emit_table,
    load_table_csv,
    parse_config,
    run_sweep,
)
from noisebudget.cli import main as cli_main
from noisebudget.limits import psd_at_phi_opt, sql_psd
from noisebudget.sweep import (
    COLUMNS,
    COMMON_KEYS,
    NORMALIZATION_STATEMENT,
    READOUTS,
    SpectrumTable,
    read_key_values,
)
from noisebudget.core import Detection, MechanicalMode

MINIMAL = """
rho_min = -10
rho_max = 10
rho_count = 21
powers = 14
angles_deg = 90
"""
GRID = MINIMAL.replace("angles_deg = 90\n", "")  # for the readouts that do not read angles_deg


def test_parse_minimal_defaults():
    spec = parse_config(MINIMAL)
    assert spec.epsilon == 1.0
    assert spec.n_th == 0.0
    assert spec.rho_spacing == "linear"
    assert spec.readout == "homodyne"
    assert spec.powers == (14.0,)
    assert spec.angles_deg == (90.0,)


def test_parse_errors():
    with pytest.raises(ParameterError, match="rho_count"):
        parse_config(MINIMAL.replace("rho_count = 21", "rho_count = 1"))
    with pytest.raises(ParameterError, match="missing required key"):
        parse_config("rho_min = 0\nrho_max = 1\nrho_count = 5\n")
    with pytest.raises(ParameterError, match="line 2"):
        parse_config("rho_min = 0\nnonsense line\n")
    with pytest.raises(ParameterError, match="duplicate"):
        parse_config(MINIMAL + "rho_min = 3\n")
    with pytest.raises(ParameterError, match="bad value"):
        parse_config(MINIMAL.replace("rho_count = 21", "rho_count = many"))
    with pytest.raises(ParameterError, match="angles_deg"):
        parse_config(MINIMAL.replace("angles_deg = 90", ""))
    with pytest.raises(ParameterError, match="classical noise"):
        parse_config(MINIMAL + "c_aa = 0.01\n")
    # unknown keys are always rejected, with the key and its line
    with pytest.raises(ParameterError, match="line 7: unknown key 'mystery'"):
        parse_config(MINIMAL + "mystery = 1\n")


def _config_text(spec: SweepSpec) -> str:
    """The set fields of spec that its readout reads as config text; a
    float's str round-trips."""
    reads = COMMON_KEYS + READOUTS[spec.readout].reads
    fields = {
        k: v for k, v in spec.metadata()["spec"].items() if v not in (None, []) and k in reads
    }
    return "".join(
        f"{k} = {','.join(map(str, v)) if isinstance(v, list) else v}\n" for k, v in fields.items()
    )


def test_config_round_trip():
    text = MINIMAL + "epsilon = 0.35\nn_th = 1.29\ngamma_hz = 340\n"
    text += "kappa_hz = 2.5e6\nomega_m_hz = 1.596e6\n"
    spec = parse_config(text)
    assert parse_config(_config_text(spec)) == spec
    syn = parse_config(
        MINIMAL.replace("angles_deg = 90", "readout = synodyne\nbeta = 1.02")
    )
    assert parse_config(_config_text(syn)) == syn


def test_log_symmetric_grid():
    spec = parse_config(
        "rho_min = 0.1\nrho_max = 10\nrho_count = 11\n"
        "rho_spacing = log-symmetric\npowers = 1\nangles_deg = 90\n"
    )
    grid = spec.rho_grid()
    assert grid.size == 11
    assert grid[5] == 0.0
    np.testing.assert_allclose(grid, -grid[::-1], atol=1e-15)
    np.testing.assert_allclose(grid[6:], np.logspace(-1, 1, 5), rtol=1e-12)
    with pytest.raises(ParameterError):
        parse_config(
            "rho_min = -1\nrho_max = 10\nrho_count = 10\n"
            "rho_spacing = log-symmetric\npowers = 1\nangles_deg = 90\n"
        )


def test_sweep_correlation_sign_structure():
    # 45-degree quadrature below the phase quadrature for rho > 0, above
    # for rho < 0, mirroring the correlation sign
    spec = parse_config(
        "rho_min = -10\nrho_max = 10\nrho_count = 21\npowers = 14\n"
        "angles_deg = 45,90\nepsilon = 0.35\nn_th = 1.29\n"
    )
    table = run_sweep(spec)
    assert len(table.rows) == 21 * 2
    by_key = {(r.rho, r.phi_used): r for r in table.rows}
    for rho in spec.rho_grid():
        r45 = by_key[(float(rho), 45.0)]
        r90 = by_key[(float(rho), 90.0)]
        if rho > 0:
            assert r45.s_corr < 0
        elif rho < 0:
            assert r45.s_corr > 0
        else:
            assert r45.s_corr == 0.0
        # mid-band the favorable correlation outweighs the extra imprecision
        # of the rotated quadrature; on the negative side it always hurts
        if 1.0 <= rho <= 9.0:
            assert r45.total < r90.total
        elif rho < 0:
            assert r45.total > r90.total


def test_sweep_row_invariants():
    spec = parse_config(MINIMAL + "epsilon = 0.35\nn_th = 1.29\n")
    table = run_sweep(spec)
    for r in table.rows:
        parts = r.s_m + r.s_ii + r.s_ff + r.s_corr + r.s_ln
        assert r.total == pytest.approx(parts, rel=1e-12)
        assert r.total_over_sql == pytest.approx(
            r.total / float(sql_psd(r.rho)), rel=1e-12
        )
    # deterministic rho-major ordering
    rhos = [r.rho for r in table.rows]
    assert rhos == sorted(rhos)


def test_sweep_variational_delegates():
    spec = parse_config(
        "rho_min = -10\nrho_max = 10\nrho_count = 41\npowers = 50\n"
        "readout = variational\n"
    )
    table = run_sweep(spec)
    det = Detection(1.0)
    mode = MechanicalMode(1.0, 1e-6, n_th=0.0)
    for r in table.rows:
        assert r.total == pytest.approx(
            psd_at_phi_opt(r.rho, 50.0, det, mode), rel=1e-12
        )


def test_sweep_synodyne_and_stitched():
    syn = parse_config(
        "rho_min = -5\nrho_max = 5\nrho_count = 11\npowers = 100\n"
        "readout = synodyne\nbeta = 1.02\n"
    )
    table = run_sweep(syn)
    on_res = [r for r in table.rows if r.rho == 0.0][0]
    assert on_res.total == pytest.approx(1.01, rel=1e-9)
    stitched = parse_config(
        "rho_min = -5\nrho_max = 5\nrho_count = 11\npowers = 14\n"
        "readout = stitched\nstitch_angles_deg = 45,90\n"
        "epsilon = 0.35\nn_th = 1.29\n"
    )
    table = run_sweep(stitched)
    for r in table.rows:
        assert min(abs(r.phi_used - 45.0), abs(r.phi_used - 90.0)) < 1e-9
        if r.rho > 0:
            assert r.phi_used == pytest.approx(45.0)


def test_sweep_evaluates_what_its_readout_reads():
    # parse_config rejects c_aa and c_pp for synodyne; a SweepSpec built
    # directly may hold them without the cavity keys, and synodyne ignores them
    spec = SweepSpec(
        rho_min=-5.0, rho_max=5.0, rho_count=11, powers=(100.0,), readout="synodyne", beta=1.02
    )
    noisy = SweepSpec(**dict(spec.__dict__, c_aa=0.004, c_pp=0.04))
    assert run_sweep(noisy).rows == run_sweep(spec).rows


def test_sweep_classical_noise_column():
    base = (
        "rho_min = -10\nrho_max = 10\nrho_count = 5\npowers = 14\n"
        "angles_deg = 45\nepsilon = 0.35\nn_th = 1.29\n"
        "kappa_hz = 2.5e6\nomega_m_hz = 1.596e6\ngamma_hz = 340\n"
    )
    clean = run_sweep(parse_config(base))
    noisy = run_sweep(parse_config(base + "c_aa = 0.004\nc_pp = 0.04\n"))
    for rc, rn in zip(clean.rows, noisy.rows):
        assert rc.s_ln == 0.0
        assert rn.s_ln > 0.0
        assert rn.total == pytest.approx(rc.total + rn.s_ln, rel=1e-12)


def test_emit_round_trip_csv(tmp_path):
    spec = parse_config(MINIMAL + "epsilon = 0.35\nn_th = 1.29\n")
    table = run_sweep(spec)
    path = tmp_path / "table.csv"
    emit_table(table, "csv", path)
    back = load_table_csv(path)
    assert back.rows == table.rows  # bit-identical floats
    assert back.metadata["normalization"] == NORMALIZATION_STATEMENT
    assert back.metadata["spec"]["epsilon"] == 0.35


def test_emit_jsonl_metadata_and_columns():
    spec = parse_config(MINIMAL)
    table = run_sweep(spec)
    text = table_text(table, "jsonl")
    lines = text.strip().split("\n")
    head = json.loads(lines[0])
    assert head["metadata"]["normalization"] == NORMALIZATION_STATEMENT
    row = json.loads(lines[1])
    assert set(row) == set(COLUMNS)
    assert len(lines) == 1 + len(table.rows)
    with pytest.raises(ParameterError):
        table_text(table, "xml")


def test_emit_empty_table():
    table = SpectrumTable(
        metadata={"note": "empty"}, columns={c: np.empty(0) for c in COLUMNS}
    )
    text = table_text(table, "csv")
    lines = text.strip().split("\n")
    assert lines[-1] == ",".join(COLUMNS)


def test_read_key_values_comments():
    text = "# top\nalpha = 1  # trailing\n\nbeta = two\n"
    kv = read_key_values(text, ("alpha", "beta"))
    assert kv["alpha"] == ("1", 2)
    assert kv["beta"] == ("two", 4)
    with pytest.raises(ParameterError, match="line 4: unknown key 'beta'"):
        read_key_values(text, ("alpha",))


def _write_config(tmp_path, text):
    path = tmp_path / "sweep.cfg"
    path.write_text(text)
    return path


def test_cli_spectrum_success(tmp_path, capsys):
    cfg = _write_config(tmp_path, MINIMAL)
    out = tmp_path / "out.csv"
    code = cli_main(["--config", str(cfg), "--out", str(out), "spectrum"])
    assert code == 0
    table = load_table_csv(out)
    assert len(table.rows) == 21


def test_cli_exit_codes(tmp_path, capsys):
    # 2: validation error (bad config)
    bad = _write_config(tmp_path, "rho_min = 0\n")
    assert cli_main(["--config", str(bad), "spectrum"]) == 2
    assert "error" in capsys.readouterr().err
    # 2: missing config
    assert cli_main(["spectrum"]) == 2
    # 2: a quadrature angle of 0 (where the readout diverges) is rejected as
    # a config value
    div = _write_config(tmp_path, MINIMAL.replace("angles_deg = 90", "angles_deg = 0"))
    assert cli_main(["--config", str(div), "spectrum"]) == 2
    assert "angles_deg must lie strictly between 0 and 180 degrees" in capsys.readouterr().err
    # 3: domain error (the LO power overflows)
    div = _write_config(tmp_path, GRID + "beta = 1e200\n")
    assert cli_main(["--config", str(div), "synodyne"]) == 3
    # 2: unknown keys are rejected, and there is no --strict flag
    odd = _write_config(tmp_path, MINIMAL + "mystery = 1\n")
    assert cli_main(["--config", str(odd), "spectrum"]) == 2
    assert "unknown key 'mystery'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli_main(["--config", str(odd), "--strict", "spectrum"])
    # 4: unwritable output path
    cfg = _write_config(tmp_path, MINIMAL)
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert cli_main(["--config", str(cfg), "--out", str(missing), "spectrum"]) == 4
    capsys.readouterr()


def test_cli_variational_and_synodyne_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, GRID)
    out = tmp_path / "var.csv"
    assert cli_main(["--config", str(cfg), "--out", str(out), "variational"]) == 0
    table = load_table_csv(out)
    assert table.metadata["spec"]["readout"] == "variational"
    # synodyne override without beta is a validation error
    assert cli_main(["--config", str(cfg), "synodyne"]) == 2
    syn_cfg = _write_config(tmp_path, GRID + "beta = 1.02\n")
    out2 = tmp_path / "syn.csv"
    assert cli_main(["--config", str(syn_cfg), "--out", str(out2), "synodyne"]) == 0
    capsys.readouterr()


def test_cli_limits(tmp_path):
    cfg = _write_config(tmp_path, MINIMAL + "epsilon = 0.35\nn_th = 1.29\n")
    out = tmp_path / "lim.csv"
    assert cli_main(["--config", str(cfg), "--out", str(out), "limits"]) == 0
    sql = load_table_csv(tmp_path / "lim.sql.csv")
    ql = load_table_csv(tmp_path / "lim.ql.csv")
    for r in sql.rows:
        assert r.total == pytest.approx(float(sql_psd(r.rho)), rel=1e-12)
    for r in ql.rows:
        assert r.total == pytest.approx(
            r.s_m + r.s_ii, rel=1e-12
        )


def test_cli_calibrate(tmp_path, capsys):
    from noisebudget import LorentzianFit, synth_sideband_spectrum

    grid = np.linspace(-1600.0, 1600.0, 400)
    red = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 1.35, 1.0, 0.0), grid, 0.005, seed=1
    )
    blue = synth_sideband_spectrum(
        LorentzianFit(0.0, 325.0, 0.78, 1.0, 0.0), grid, 0.005, seed=2
    )
    red_csv, blue_csv = tmp_path / "red.csv", tmp_path / "blue.csv"
    write_spectrum_csv(red_csv, red)
    write_spectrum_csv(blue_csv, blue)
    cfg = _write_config(
        tmp_path, f"red_csv = {red_csv}\nblue_csv = {blue_csv}\n"
    )
    out = tmp_path / "cal.json"
    assert cli_main(["--config", str(cfg), "--out", str(out), "calibrate"]) == 0
    result = json.loads(out.read_text())
    assert result["sidebands"]["n_th"] == pytest.approx(
        1.0 / (1.35 / 0.78 - 1.0), rel=0.03
    )
    # single-spectrum mode
    cfg2 = _write_config(tmp_path, f"sideband_csv = {blue_csv}\n")
    assert cli_main(["--config", str(cfg2), "calibrate"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["lorentzian"]["gamma_hz"] == pytest.approx(325.0, rel=0.01)
    # empty calibrate config is a validation error
    cfg3 = _write_config(tmp_path, "# nothing\n")
    assert cli_main(["--config", str(cfg3), "calibrate"]) == 2


def test_cli_reproduce_figure_determinism(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["--out", str(out_a), "reproduce-figure", "1d"]) == 0
    assert cli_main(["--out", str(out_b), "reproduce-figure", "1d"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_stdout_default(capsys):
    assert cli_main(["reproduce-figure", "1d"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# --- light_psd ---")
    assert ",".join(COLUMNS) in out
