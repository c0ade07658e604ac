"""Table text I/O: CSV and JSON-lines emission, the finite-table invariant,
and the sideband spectrum CSV reader, each checked against a plain reference."""

import argparse
import csv
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
from noisebudget.sweep import (
    BLOCK_ROWS, COLUMNS, SpectrumTable, emit_table, parse_config, run_sweep,
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
    # into search order and every full-length term was copied into its column
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
    assert peak < 1.3 * nbytes, f"{peak / 1e6:.2f} MB for a {nbytes / 1e6:.2f} MB table"


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


# columns that come from a scalar in each limits table
LIMITS_CONSTANT = {
    "sql": {"phi_used", "p", "s_m", "s_ff", "s_corr", "s_ln"},
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
        copied = SpectrumTable(table.metadata, {c: col.copy() for c, col in table.columns.items()})
        assert table_text(table, fmt) == table_text(copied, fmt)


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
    with pytest.raises(ParameterError, match=r"table\.csv: column rho"):
        load_table_csv(path)


def test_load_table_csv_names_line_of_non_numeric_cell(tmp_path):
    table = SpectrumTable({}, {c: np.ones(2) for c in COLUMNS})
    path = tmp_path / "table.csv"
    emit_table(table, "csv", path)
    path.write_text(path.read_text().replace("\n1,", "\nabc,", 1))
    with pytest.raises(ParameterError) as info:
        load_table_csv(path)
    assert str(info.value) == f"{path}: line 2: expected 10 numbers, got 'abc,1,1,1,1,1,1,1,1,1'"


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


@pytest.mark.parametrize(
    "body, message",
    (
        ("\n\n1,1,1,1,1,1,1,1,1,1\n2,2\n", "line 6: expected 10 numbers, got '2,2'"),
        ("1,1,1,1,1,1,1,1,1,1\n# --- ql ---\n", "line 4: expected a '# key: <json>'"),
        ("#x\n", "line 3: expected a '# key: <json>' metadata line, got '#x'"),
        ("# bad: {\n", "line 3: expected a '# key: <json>' metadata line, got '# bad: {'"),
        ("1,1,1,1,1,1,1,1,1,1\r\nnan,x\r\n", "line 4: expected 10 numbers, got 'nan,x\\r'"),
    ),
    ids=("after-blank-lines", "separator-after-header", "no-space", "bad-json", "crlf"),
)
def test_load_table_csv_names_bad_line(tmp_path, body, message):
    path = tmp_path / "table.csv"
    path.write_text(f"# note: 1\n{','.join(COLUMNS)}\n{body}")
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_table_csv(path)


def _reference_read(path):
    """The reader without a fast path: csv rows, one float() per cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_HEADER:
        raise ParameterError(f"{path}: expected header {','.join(CSV_HEADER)}")
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            values = [float(v) for v in row]
        except ValueError:
            values = []
        if len(values) != 2 or not all(map(math.isfinite, values)):
            raise ParameterError(
                f"{path}: line {lineno}: expected two finite numbers, got {row}"
            )
    return np.array([[float(a), float(b)] for a, b in rows[1:]])


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
lines = st.one_of(
    st.tuples(cells, cells).map(",".join),
    st.lists(cells, max_size=3).map(",".join),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.lists(lines, max_size=6),
    st.sampled_from(("\n", "\r\n", "\r")),
    st.booleans(),
)
def test_read_spectrum_csv_matches_reference(tmp_path, body, newline, final_newline):
    path = tmp_path / "spectrum.csv"
    text = newline.join([HEADER, *body]) + (newline if final_newline else "")
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(read_spectrum_csv, path) == _outcome(_reference_read, path)


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
    assert str(info.value) == f"{path}: line {lineno}: expected two finite numbers, got {got}"


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
