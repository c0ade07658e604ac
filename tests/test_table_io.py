"""Table text I/O: CSV and JSON-lines emission, the finite-table invariant,
and the sideband spectrum CSV reader, each checked against a plain reference."""

import argparse
import hashlib
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import table_text, write_spectrum_csv
from noisebudget import DivergenceError, ParameterError, load_table_csv
from noisebudget.calibration import CSV_HEADER, read_spectrum_csv
from noisebudget.cli import _cmd_limits, main as cli_main
from noisebudget.figures import FIGURE_IDS, reproduce_figure
from noisebudget.limits import sql_psd
from noisebudget.sweep import (
    BLOCK_ROWS, COLUMNS, SpectrumTable, curve_columns, emit_table, parse_config, run_sweep,
)

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-5, 1e-4, 14.0, -3.0, 1.0)
finite = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _reference_text(table, fmt):
    """The writer without folding or blocks: one json.dumps (JSON lines) or
    one '%.17g' (CSV) per cell."""
    rows = zip(*(table.columns[c].tolist() for c in COLUMNS))
    if fmt == "jsonl":
        text = json.dumps({"metadata": table.metadata}, sort_keys=True) + "\n"
        return text + "".join(
            json.dumps(dict(zip(COLUMNS, row)), sort_keys=True) + "\n" for row in rows
        )
    text = "".join(
        f"# {k}: {json.dumps(v, sort_keys=True)}\n" for k, v in table.metadata.items()
    )
    text += ",".join(COLUMNS) + "\n"
    return text + "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)


@st.composite
def columns(draw):
    """Columns of one length, each varying, constant, or zeros of either sign."""
    n = draw(st.integers(0, 12))
    column = st.one_of(
        st.lists(finite, min_size=n, max_size=n),
        finite.map(lambda v: [v] * n),
        st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n),
    )
    return {c: np.array(draw(column), dtype=float) for c in COLUMNS}


@settings(max_examples=150, deadline=None)
@given(columns())
def test_jsonl_matches_per_row_json_dumps(columns):
    table = SpectrumTable({"note": "property"}, columns)
    text = table_text(table, "jsonl")
    assert text == _reference_text(table, "jsonl")
    for line in text.splitlines()[1:]:
        json.loads(line, parse_constant=_reject_constant)


@settings(max_examples=150, deadline=None)
@given(columns())
def test_csv_matches_per_cell_format(columns):
    table = SpectrumTable({"note": "property"}, columns)
    assert table_text(table, "csv") == _reference_text(table, "csv")


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
# row counts one below, at and one above a multiple of the block size
@pytest.mark.parametrize(
    "n",
    (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
     4 * BLOCK_ROWS - 1, 4 * BLOCK_ROWS, 4 * BLOCK_ROWS + 1, 8 * BLOCK_ROWS + 1),
)
@pytest.mark.parametrize("varying", (True, False), ids=("mixed", "all-constant"))
def test_emit_row_blocks(fmt, n, varying):
    columns = {c: np.full(n, 0.5 * i) for i, c in enumerate(COLUMNS)}
    columns["s_ii"] = np.full(n, -0.0)
    if varying:
        columns["rho"] = np.linspace(-3.0, 3.0, n)
        columns["total"] = np.arange(n) / 7.0
    table = SpectrumTable({"rows": n}, columns)
    text = table_text(table, fmt)
    assert text == _reference_text(table, fmt)
    assert text.count("\n") == n + (1 if fmt == "jsonl" else 2)


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
def test_emit_memory_does_not_grow_with_rows(tmp_path, fmt):
    n = 50_001
    columns = {c: np.linspace(i, i + 1.0, n) for i, c in enumerate(COLUMNS)}
    table = SpectrumTable({}, columns)
    tracemalloc.start()
    try:
        emit_table(table, fmt, tmp_path / f"table.{fmt}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.7 MB with BLOCK_ROWS = 1024 (2.6 MB with 4096)
    assert peak < 1e6, f"{peak / 1e6:.2f} MB"


# the benchmark's stitched workload: 20,001 rho x 2 powers x 4 candidate angles
STITCHED_WORKLOAD = (
    "rho_min = -20\nrho_max = 20\nrho_count = 20001\npowers = 14,28\nepsilon = 0.35\n"
    "n_th = 1.29\nreadout = stitched\nstitch_angles_deg = 45,60,75,90\n"
)


def test_stitched_sweep_memory_stays_near_its_table():
    # it peaked at 1.85 times the table when the candidate totals were copied
    # into search order and every full-length term was copied into its column,
    # and at 1.20 times while total summed the flattened columns through fresh
    # arrays and total_over_sql evaluated the SQL over the flattened rho (1.00
    # now, the total and the SQL taken before broadcasting)
    spec = parse_config(STITCHED_WORKLOAD)
    run_sweep(spec)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        table = run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(col.nbytes for col in table.columns.values())
    assert nbytes == len(COLUMNS) * 40_002 * 8
    assert peak < 1.1 * nbytes, f"{peak / 1e6:.2f} MB for a {nbytes / 1e6:.2f} MB table"


# the benchmark's limits workload: two tables of 50,001 rows
LIMITS_WORKLOAD = (
    "rho_min = -50\nrho_max = 50\nrho_count = 50001\npowers = 14\nangles_deg = 90\n"
    "epsilon = 0.35\nn_th = 1.29\n"
)


def test_limits_memory_holds_each_distinct_column_once(tmp_path):
    # sql's total is its s_ii column and its total_over_sql a zero-stride 1.0;
    # they were two more arrays of the grid's length, and the traced peak was
    # 10.0 arrays of it (7.1 now)
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_WORKLOAD)
    args = argparse.Namespace(config=cfg)
    _cmd_limits(args)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        tables = _cmd_limits(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    column = 50_001 * 8
    held = [c for t in tables.values() for c in t.columns.values() if c.strides != (0,)]
    distinct = [c for i, c in enumerate(held) if not any(np.shares_memory(c, d) for d in held[:i])]
    # rho, shared; sql's s_ii; ql's s_m, s_ii, total and total_over_sql
    assert sum(c.nbytes for c in distinct) == 6 * column
    assert peak < 8.5 * column, f"{peak / 1e6:.2f} MB for {column / 1e6:.2f} MB columns"


def test_read_spectrum_csv_memory_stays_near_the_array(tmp_path):
    # the reader used to hold the body as a str, then as a UCS-4 StringIO copy
    # (about 15 MB at its peak for this file)
    path = tmp_path / "spectrum.csv"
    grid = np.linspace(1.5e6, 1.7e6, 100_001)
    write_spectrum_csv(path, np.column_stack([grid, 1.0 + np.sin(grid)]))
    read_spectrum_csv(path)  # one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        samples = read_spectrum_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.shape == (100_001, 2)
    assert peak < 3 * samples.nbytes, f"{peak / 1e6:.1f} MB"


def test_read_spectrum_csv_reads_a_pipe_like_a_file(tmp_path):
    # a pipe cannot seek back to count its lines first: it takes the csv path
    path = tmp_path / "spectrum.csv"
    grid = np.linspace(-1000.0, 1000.0, 64)
    write_spectrum_csv(path, np.column_stack([grid, np.cos(grid)]))
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes())  # fits in the pipe's buffer
        os.close(w)
        from_pipe = read_spectrum_csv(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert from_pipe.tobytes() == read_spectrum_csv(path).tobytes()


LIMITS_CONFIG = (
    "rho_min = 1e-6\nrho_max = 1e6\nrho_count = 41\nrho_spacing = log-symmetric\n"
    "powers = 14\nangles_deg = 90\nepsilon = 0.35\nn_th = 1.29\n"
)
# sha256 of `noisebudget --config <LIMITS_CONFIG> --format <fmt> limits` on
# stdout, recorded once every |chi_m|^2 term was built from core.chi_m_parts
LIMITS_SHA256 = {
    "csv": "ba11f94d5d7945e8117527d4df0978cefab02b47dc6d1af3772ff6271a90a77a",
    "jsonl": "33bd1dfbde78613ac0842246a7f19d33b2ab1f747fc64ea5d731ad1b11fe0125",
}


@pytest.mark.parametrize("fmt", sorted(LIMITS_SHA256))
def test_limits_output_golden_sha256(tmp_path, capsys, fmt):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_CONFIG)
    assert cli_main(["--config", str(cfg), "--format", fmt, "limits"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LIMITS_SHA256[fmt]


# columns of one bit pattern in each limits table: those that come from a
# scalar, and sql's total_over_sql, its total (its s_ii) over the SQL
LIMITS_CONSTANT = {
    "sql": {"phi_used", "p", "s_m", "s_ff", "s_corr", "s_ln", "total_over_sql"},
    "ql": {"phi_used", "p", "s_ff", "s_corr", "s_ln"},
}


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
def test_limits_constant_columns_are_zero_stride_views(tmp_path, fmt):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_CONFIG)
    tables = _cmd_limits(argparse.Namespace(config=cfg))
    assert tables.keys() == LIMITS_CONSTANT.keys()
    for name, table in tables.items():
        constant = {c for c, col in table.columns.items() if col.strides == (0,)}
        assert constant == LIMITS_CONSTANT[name]
        assert not any(table.columns[c].flags.writeable for c in constant)
        assert table_text(table, fmt) == _reference_text(table, fmt)


def test_limits_tables_share_one_rho_column(tmp_path):
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_CONFIG)
    sql, ql = (table.columns for table in _cmd_limits(argparse.Namespace(config=cfg)).values())
    assert np.shares_memory(sql["rho"], ql["rho"])


def test_every_table_column_is_read_only(tmp_path):
    # a column may be a view of an evaluated term or of another table's
    # column, so writing through it would change what it shares
    given = np.linspace(0.0, 1.0, 3)
    tables = [SpectrumTable({}, dict.fromkeys(COLUMNS, given))]
    assert given.flags.writeable  # the table's view is read-only, not the array
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_CONFIG)
    tables += _cmd_limits(argparse.Namespace(config=cfg)).values()
    tables.append(run_sweep(parse_config(STITCHED_CONFIG)))
    for table in tables:
        for name, values in table.columns.items():
            assert not values.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0


CURVE_KINDS = (
    "homodyne", "variational", "stitched", "synodyne", "light",
    "sql", "sql_zpm", "ql", "synodyne_variational",
)


@st.composite
def curves(draw):
    """curve_columns arguments: a kind and its inputs in one of the layouts
    the package hands in (run_sweep's (rho, power, angle) grid, a figure's
    rho or power grid, limits' rho grid with the scalar p = 0 and phi = 0),
    with rho = 0.0 and -0.0 among the draws."""
    kind = draw(st.sampled_from(CURVE_KINDS))
    rho = np.array(draw(st.lists(
        st.sampled_from((0.0, -0.0)) | st.floats(-1e3, 1e3), min_size=1, max_size=5
    )))
    p = np.array(draw(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=3)))
    phi = np.array(draw(st.lists(st.floats(1.0, 179.0), min_size=1, max_size=3, unique=True)))
    layouts = {
        "sweep": (rho[:, None, None], p[None, :, None], phi),
        "rho": (rho[:, None], float(p[0]), phi) if kind == "stitched"
        else (rho, float(p[0]), float(phi[0])),
        "power": (float(rho[0]), p[:, None], phi) if kind == "stitched"
        else (float(rho[0]), p, float(phi[0])),
        "limits": (rho, 0.0, 0.0),
    }
    if kind not in ("sql", "sql_zpm", "ql"):  # the others evaluate p and phi
        del layouts["limits"]
    if kind == "synodyne":  # the LO phase is one value
        layouts["sweep"] = (rho[:, None], p, float(phi[0]))
    args = draw(st.sampled_from(sorted(layouts.items())))[1]
    epsilon = draw(st.just(1.0) | st.floats(0.01, 1.0))
    n_th = draw(st.floats(0.0, 1e4))
    beta = draw(st.floats(1.05, 3.0)) if kind == "synodyne" else None
    return kind, args, epsilon, n_th, beta


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(curves())
def test_every_curve_total_is_the_plain_sum_and_survives_a_round_trip(tmp_path, curve):
    kind, (rho, p, phi), epsilon, n_th, beta = curve
    columns = curve_columns(kind, rho, p, phi, epsilon, n_th, beta)
    # the one value 0.0, never written out (numpy gives one row the stride 8)
    assert columns["s_ln"].strides == (0,) or columns["s_ln"].size == 1, kind
    table = SpectrumTable({"kind": kind}, columns)
    col = table.columns
    plain = col["s_m"] + col["s_ii"] + col["s_ff"] + col["s_corr"] + col["s_ln"]
    assert col["total"].tobytes() == plain.tobytes()  # bit for bit, the sign of 0 too
    assert col["total_over_sql"].tobytes() == (plain / sql_psd(col["rho"])).tobytes()
    emit_table(table, "csv", tmp_path / "curve.csv")
    loaded = load_table_csv(tmp_path / "curve.csv")
    for name in COLUMNS:
        assert loaded.columns[name].tobytes() == col[name].tobytes(), name


STITCHED_CONFIG = (
    "rho_min = -10\nrho_max = 10\nrho_count = 21\npowers = 0.7,14\n"
    "readout = stitched\nstitch_angles_deg = 90,60,120\nepsilon = 0.35\nn_th = 1.29\n"
)
CLASSICAL_NOISE = (
    "c_aa = 0.004\nc_pp = 0.04\nkappa_hz = 2.5e6\nomega_m_hz = 1.596e6\ngamma_hz = 340\n"
)
_SWEEP = "rho_min = -10\nrho_max = 10\nrho_count = 21\npowers = 0.7,14\nepsilon = 0.35\nn_th = 1.29\n"
# one config per evaluator branch of run_sweep
SPECTRUM_CONFIGS = {
    "stitched": STITCHED_CONFIG,
    "homodyne-linear": _SWEEP + "angles_deg = 90,45\n",
    "homodyne-log-symmetric": (
        "rho_min = 1e-3\nrho_max = 1e3\nrho_count = 21\nrho_spacing = log-symmetric\n"
        "powers = 14\nangles_deg = 90,45\nepsilon = 0.35\nn_th = 1.29\n"
    ),
    "variational": _SWEEP + "readout = variational\n",
    "synodyne": _SWEEP + "readout = synodyne\nbeta = 1.02\nsynodyne_phi_deg = 10\n",
    "stitched-noise": STITCHED_CONFIG + CLASSICAL_NOISE,
}
# sha256 of `noisebudget --config <config> --format <fmt> spectrum` on
# stdout, recorded once every |chi_m|^2 term was built from core.chi_m_parts
SPECTRUM_SHA256 = {
    ("stitched", "csv"): "29200d3a696f30ed015b671f858af54a6fe9b0d94ba25dc96cd2f0d8652f17f5",
    ("stitched", "jsonl"): "c61e8ac1de794a045c7740165ffbb43d9a67d58fbac82e9fbc983431cccb7394",
    ("homodyne-linear", "csv"): "aaa96df0426f45edc2196cbf9d851b3ad4492881f515c54c0dda71785ec18941",
    ("homodyne-linear", "jsonl"): "474e855a82196c7d0a3b25ee3ab515fa5d159b3df8f6abe916f1bcced3c8bf02",
    ("homodyne-log-symmetric", "csv"): "8eb004d827573b713b868e682d61a342e55b145cdacd2dc1995c4901f1e5bb45",
    ("homodyne-log-symmetric", "jsonl"): "374b28e0f3a3c5fa9fdf5b8b5d62c48bc80c76d326bf417b0a48f5b8ce73aac6",
    ("variational", "csv"): "a54590fbf61ae9cf009d9cb24d9dedecf81027f84f6c7c2ae13151c5ee82733c",
    ("variational", "jsonl"): "f0705596942954d21bd54c526c7498857b7d763b9754f5cc0ebecd4042bd8933",
    ("synodyne", "csv"): "e5f47d4fb6ba760863dcd3e3f6f4d96cc2f1bdfa55a89db3bf4a34b837128986",
    ("synodyne", "jsonl"): "e7d9cc567dfda0f6b55fd2c4841326adffd15b0bcb2c98e7e60f0d97b44c60ca",
    ("stitched-noise", "csv"): "e3014db06bbceea234476fbfe8f06a95c55ac3a3d07272457e590ee32d66e79d",
    ("stitched-noise", "jsonl"): "bf62fdc5bc8995707638d443e251622fea85472e48eee721ab266ad984ebbd05",
}


@pytest.mark.parametrize(
    "config, fmt", sorted(SPECTRUM_SHA256), ids=[f"{c}-{f}" for c, f in sorted(SPECTRUM_SHA256)]
)
def test_spectrum_output_golden_sha256(tmp_path, capsys, config, fmt):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SPECTRUM_CONFIGS[config])
    assert cli_main(["--config", str(cfg), "--format", fmt, "spectrum"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_SHA256[config, fmt]


@pytest.mark.parametrize("noise", ("", CLASSICAL_NOISE), ids=("without-noise", "with-noise"))
def test_stitched_s_ln_is_a_constant_column_only_without_noise(noise):
    # and so in the homodyne and variational sweeps, which share the branch
    for config in ("stitched", "homodyne-linear", "variational"):
        table = run_sweep(parse_config(SPECTRUM_CONFIGS[config] + noise))
        s_ln = table.columns["s_ln"]
        if noise:
            assert s_ln.strides == (8,) and (s_ln > 0).all(), config
        else:
            assert s_ln.strides == (0,) and s_ln[0] == 0.0, config


@pytest.mark.parametrize("shape", ((), (3, 1)), ids=("0-d", "2-d"))
def test_table_rejects_columns_that_are_not_1d(shape):
    # a 0-d table was accepted when a 0-d rho set the expected shape
    with pytest.raises(ParameterError, match="1-D arrays of one length"):
        SpectrumTable({}, {c: np.ones(shape) for c in COLUMNS})


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_table_rejects_non_finite_column(bad):
    columns = {c: np.ones(3) for c in COLUMNS}
    columns["s_ff"] = np.array([1.0, bad, 2.0])
    with pytest.raises(DivergenceError, match="column s_ff"):
        SpectrumTable({}, columns)


def test_load_table_csv_names_path_of_non_finite_table(tmp_path):
    table = SpectrumTable({}, {c: np.ones(2) for c in COLUMNS})
    path = tmp_path / "table.csv"
    emit_table(table, "csv", path)
    path.write_text(path.read_text().replace("\n1,", "\nnan,", 1))
    message = r"table\.csv: line 2: expected 10 finite numbers, got \['nan'"
    with pytest.raises(ParameterError, match=message):
        load_table_csv(path)


def test_load_table_csv_names_line_of_non_numeric_cell(tmp_path):
    table = SpectrumTable({}, {c: np.ones(2) for c in COLUMNS})
    path = tmp_path / "table.csv"
    emit_table(table, "csv", path)
    path.write_text(path.read_text().replace("\n1,", "\nabc,", 1))
    with pytest.raises(ParameterError) as info:
        load_table_csv(path)
    got = ["abc"] + ["1"] * 9
    assert str(info.value) == f"{path}: line 2: expected 10 finite numbers, got {got}"


@pytest.mark.parametrize(
    "command, curve", (("spectrum", "sweep"), ("limits", "sql")), ids=("spectrum", "limits")
)
def test_load_table_csv_names_stdout_separator(tmp_path, capsys, command, curve):
    cfg = tmp_path / "table.cfg"
    cfg.write_text(LIMITS_CONFIG)
    assert cli_main(["--config", str(cfg), command]) == 0
    path = tmp_path / "stdout.csv"
    path.write_text(capsys.readouterr().out)
    with pytest.raises(ParameterError) as info:
        load_table_csv(path)
    message = str(info.value)
    assert message.startswith(
        f"{path}: line 1: expected a '# key: <json>' metadata line, got '# --- {curve} ---'"
    )
    assert "--out" in message


HEADER_ROW = ",".join(COLUMNS)


@pytest.mark.parametrize(
    "text, message",
    (
        (
            f"{HEADER_ROW}\n\n\n1,1,1,1,1,1,1,1,1,1\n2,2\n",
            "line 3: expected 10 finite numbers, got []",
        ),
        (
            f"{HEADER_ROW}\n1,1,1,1,1,1,1,1,1,1\n# --- ql ---\n",
            "line 4: expected 10 finite numbers, got ['# --- ql ---']",
        ),
        (f"#x\n{HEADER_ROW}\n", "line 2: expected a '# key: <json>' metadata line, got '#x'"),
        (
            f"# bad: {{\n{HEADER_ROW}\n",
            "line 2: expected a '# key: <json>' metadata line, got '# bad: {'",
        ),
        (
            f"{HEADER_ROW}\n1,1,1,1,1,1,1,1,1,1\r\nnan,x\r\n",
            "line 4: expected 10 finite numbers, got ['nan', 'x']",
        ),
    ),
    ids=("after-blank-lines", "separator-after-header", "no-space", "bad-json", "crlf"),
)
def test_load_table_csv_names_bad_line(tmp_path, text, message):
    # a comment line is metadata only before the header; after it, a row
    path = tmp_path / "table.csv"
    path.write_text(f"# note: 1\n{text}")
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_table_csv(path)


def test_load_table_csv_names_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    emit_table(run_sweep(parse_config(STITCHED_CONFIG)), "csv", path)
    data = path.read_bytes()
    offset = len(data) - 3
    path.write_bytes(data[:offset] + b"\xe9" + data[offset + 1:])
    message = f"{path}: byte 0xe9 at offset {offset} is not UTF-8"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        load_table_csv(path)


def _assert_loads_back(path, table):
    """The table at path loads with table's metadata and column bits."""
    back = load_table_csv(path)
    assert back.metadata == json.loads(json.dumps(table.metadata))
    for name in COLUMNS:
        assert back.columns[name].tobytes() == np.ascontiguousarray(table.columns[name]).tobytes()


@pytest.mark.parametrize("newline", ("\r\n", "\r"), ids=("crlf", "cr"))
def test_load_table_csv_reads_every_line_end(tmp_path, newline):
    table = run_sweep(parse_config(SPECTRUM_CONFIGS["stitched-noise"]))
    path = tmp_path / "table.csv"
    path.write_bytes(table_text(table, "csv").replace("\n", newline).encode())
    _assert_loads_back(path, table)


@pytest.mark.parametrize("column, index", (("total", 8), ("total_over_sql", 9)))
def test_load_table_csv_rechecks_total_and_its_ratio(tmp_path, column, index):
    table = run_sweep(parse_config(SPECTRUM_CONFIGS["homodyne-linear"]))
    path = tmp_path / "table.csv"
    emit_table(table, "csv", path)
    lines = path.read_text().split("\n")
    lineno = len(lines) - 1  # the table's last row: lines ends with an empty string
    row = lines[lineno - 1].split(",")
    row[index] = "123.0"
    lines[lineno - 1] = ",".join(row)
    path.write_text("\n".join(lines))
    want = table.columns[column][-1]
    message = f"{path}: line {lineno}: {column} is 123.0, but the row's other columns give {want}"
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        load_table_csv(path)


def test_every_command_table_loads_back(tmp_path, monkeypatch):
    # every figure's tables, each sweep branch, the limits pair, and a
    # 10,002-row table that --out cuts into two row ranges on two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sweeps = dict(SPECTRUM_CONFIGS, split=STITCHED_WORKLOAD.replace("20001", "5001"))
    cases = [(None, ["reproduce-figure", fid], reproduce_figure(fid)) for fid in FIGURE_IDS]
    for text in sweeps.values():
        cases.append((text, ["spectrum"], {"sweep": run_sweep(parse_config(text))}))
    cfg = tmp_path / "limits.cfg"
    cfg.write_text(LIMITS_CONFIG)
    cases.append((LIMITS_CONFIG, ["limits"], _cmd_limits(argparse.Namespace(config=cfg))))
    for k, (config, argv, tables) in enumerate(cases):
        out = tmp_path / f"out{k}" / "table.csv"
        out.parent.mkdir()
        if config is not None:
            cfg = tmp_path / f"{k}.cfg"
            cfg.write_text(config)
            argv = ["--config", str(cfg), *argv]
        assert cli_main(["--out", str(out), *argv]) == 0
        paths = [out] if len(tables) == 1 else [out.with_name(f"table.{c}.csv") for c in tables]
        for path, table in zip(paths, tables.values()):
            _assert_loads_back(path, table)


def _reference_rows(path):
    r"""The cells of each line of the file at path, split at commas: lines end
    at \n, \r\n or \r, a blank line has no cells and quotes are not special."""
    with open(path, newline="") as fh:
        lines = re.split(r"\r\n|\r|\n", fh.read())
    if lines[-1] == "":  # after the final line end, or an empty file
        lines.pop()
    return [line.split(",") if line else [] for line in lines]


def _reference_body(path, rows, first_line, ncols):
    """The body check without a fast path: one float() per cell."""
    for lineno, row in enumerate(rows, start=first_line):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != ncols or not all(map(math.isfinite, values)):
            raise ParameterError(
                f"{path}: line {lineno}: expected {ncols} finite numbers, got {row}"
            )
    return np.array([[float(v) for v in row] for row in rows]).reshape(-1, ncols)


def _reference_read(path):
    """read_spectrum_csv without a fast path."""
    rows = _reference_rows(path)
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ParameterError(f"{path}: expected header {','.join(CSV_HEADER)}")
    return _reference_body(path, rows[1:], 2, len(CSV_HEADER))


TABLE_HEAD = ("# note: 1", HEADER_ROW)


def _reference_load(path):
    """load_table_csv without a fast path, for a file that starts with
    TABLE_HEAD: the body by _reference_body, then each row's total and ratio
    added up from its terms, one row at a time."""
    rows = _reference_rows(path)
    assert rows[:2] == [[TABLE_HEAD[0]], list(COLUMNS)]
    data = _reference_body(path, rows[2:], 3, len(COLUMNS))
    sql = sql_psd(data[:, 0]).tolist()
    for lineno, (row, sql_row) in enumerate(zip(data.tolist(), sql), start=3):
        s_m, s_ii, s_ff, s_corr, s_ln, total, ratio = row[3:]
        want = s_m + s_ii + s_ff + s_corr + s_ln
        checks = (("total", total, want), ("total_over_sql", ratio, want / sql_row))
        for name, got, derived in checks:
            if got != derived:
                raise ParameterError(
                    f"{path}: line {lineno}: {name} is {got}, but the row's other "
                    f"columns give {derived}"
                )
    return data


def _table_array(path):
    table = load_table_csv(path)
    return np.column_stack([table.columns[c] for c in COLUMNS])


def _outcome(read, path):
    try:
        samples = read(path)
    except ParameterError as exc:
        return str(exc)
    return samples.shape, samples.tobytes()


HEADER = ",".join(CSV_HEADER)
cells = st.one_of(
    finite.map(repr),
    st.sampled_from(("nan", "-inf", "", " ", "\t", " 2 ", "#c", "1_0", '"3"', "x", "1e400", "١")),
)
# the header as written, or a near miss; csv.reader used to unquote the first
headers = st.one_of(st.just(HEADER), st.sampled_from((
    '"frequency_hz","psd_shotnoise_units"', HEADER + ",", " " + HEADER, "frequency_hz", "",
)))
lines = st.one_of(
    st.tuples(cells, cells).map(",".join),
    st.lists(cells, max_size=3).map(",".join),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    headers,
    st.lists(lines, max_size=6),
    st.sampled_from(("\n", "\r\n", "\r")),
    st.booleans(),
)
def test_read_spectrum_csv_matches_reference(tmp_path, header, body, newline, final_newline):
    path = tmp_path / "spectrum.csv"
    text = newline.join([header, *body]) + (newline if final_newline else "")
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(read_spectrum_csv, path) == _outcome(_reference_read, path)


table_values = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))


@st.composite
def table_rows(draw):
    """A row as emit_table writes it, total and total_over_sql derived from
    the other columns, or with one of those two drawn afresh."""
    row = draw(st.lists(table_values, min_size=8, max_size=8))
    s_m, s_ii, s_ff, s_corr, s_ln = row[3:]
    total = s_m + s_ii + s_ff + s_corr + s_ln
    row += [total, total / sql_psd(np.array(row[:1])).item()]
    edit = draw(st.sampled_from((None, 8, 9)))
    if edit is not None:
        row[edit] = draw(table_values)
    return ",".join("%.17g" % v for v in row)


table_lines = st.one_of(
    table_rows(),
    st.lists(cells, min_size=len(COLUMNS), max_size=len(COLUMNS)).map(",".join),
    st.lists(cells, max_size=len(COLUMNS) + 1).map(",".join),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.lists(table_lines, max_size=6),
    st.sampled_from(("\n", "\r\n", "\r")),
    st.booleans(),
)
def test_load_table_csv_matches_reference(tmp_path, body, newline, final_newline):
    path = tmp_path / "table.csv"
    text = newline.join([*TABLE_HEAD, *body]) + (newline if final_newline else "")
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_table_array, path) == _outcome(_reference_load, path)


@pytest.mark.parametrize(
    "body, lineno, got",
    (("1,2\n\n5,6\n", 3, "[]"), ("1,2\n3,4\n\n", 4, "[]"), ("1,2\n#c\n5,6\n", 3, "['#c']")),
    ids=("blank-line", "trailing-blank-line", "comment-row"),
)
def test_read_spectrum_csv_names_line_loadtxt_would_skip(tmp_path, body, lineno, got):
    path = tmp_path / "spectrum.csv"
    path.write_text(HEADER + "\n" + body)
    with pytest.raises(ParameterError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}: line {lineno}: expected 2 finite numbers, got {got}"


@pytest.mark.parametrize(
    "body, lineno, got",
    (('1,2\n"1\n",3\nx,y\n', 3, ['"1']), ('1,2\n"3",4\n', 3, ['"3"', "4"])),
    ids=("quote-across-lines", "quoted-number"),
)
def test_read_spectrum_csv_names_quoted_cell_at_its_own_line(tmp_path, body, lineno, got):
    # quotes are not special: a quoted cell is not a number, and a quote that
    # spans a line end does not join two lines into one row
    path = tmp_path / "spectrum.csv"
    path.write_text(HEADER + "\n" + body)
    with pytest.raises(ParameterError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}: line {lineno}: expected 2 finite numbers, got {got}"


def test_header_only_spectrum_is_empty_and_calibrate_exits_2(tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    path.write_text(HEADER + "\n")
    cfg = tmp_path / "cal.cfg"
    cfg.write_text(f"sideband_csv = {path}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_spectrum_csv(path).size == 0
        assert cli_main(["--config", str(cfg), "calibrate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
