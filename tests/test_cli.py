"""The CLI's flag checks, its worker processes and its process entry point.

The row ranges of large tables, to --out or to stdout of any kind, and
calibrate's red/blue pair run as jobs in forked children, with output
bytes, errors and exit codes as in a serial run.  cli.run, the entry point
of a CLI process, freezes the heap at exit and otherwise behaves as the
in-process cli.main.  Any config text gives one of the documented exit
codes, at most one line on stderr, and finite tables."""

import argparse
import contextlib
import errno
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import table_text, write_spectrum_csv
import noisebudget
from noisebudget import LorentzianFit, synth_sideband_spectrum
from noisebudget import cli
from noisebudget.cli import _run_shares
from noisebudget.cli import main as cli_main
from noisebudget.errors import DivergenceError, ParameterError
from noisebudget.figures import FIGURE_IDS, reproduce_figure
from noisebudget.sweep import COMMON_KEYS, READOUTS, load_table_csv

LIMITS_CONFIG = (
    "rho_min = -20\nrho_max = 20\nrho_count = {rho_count}\npowers = 14\n"
    "angles_deg = 90\nepsilon = 0.35\nn_th = 1.29\n"
)
MULTI_CURVE_IDS = [i for i in FIGURE_IDS if len(reproduce_figure(i)) > 1]


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _limits_config(tmp_path, rho_count=401):
    cfg = tmp_path / f"limits{rho_count}.cfg"
    cfg.write_text(LIMITS_CONFIG.format(rho_count=rho_count))
    return cfg


def _use_cpus(monkeypatch, n):
    """Limit the process to n CPUs, and let tables of any size be written in
    forked children, so the small tables here take the forked path too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(cli, "FORK_MIN_ROWS", 0)


def _outputs(tmp_path, monkeypatch, cpus, argv, name):
    """Bytes of every file that `argv + --out <dir>/<name>` writes, by file
    name, with the process limited to cpus CPUs."""
    _use_cpus(monkeypatch, cpus)
    out_dir = tmp_path / f"cpus{cpus}"
    out_dir.mkdir()
    assert cli_main(["--out", str(out_dir / name), *argv]) == 0
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _assert_same_bytes_serial_and_forked(tmp_path, monkeypatch, argv, name, files):
    serial = _outputs(tmp_path, monkeypatch, 1, argv, name)
    assert len(serial) == files
    for cpus in (2, 3):
        assert _outputs(tmp_path, monkeypatch, cpus, argv, name) == serial


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
def test_limits_out_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, fmt):
    cfg = _limits_config(tmp_path)
    argv = ["--config", str(cfg), "--format", fmt, "limits"]
    _assert_same_bytes_serial_and_forked(tmp_path, monkeypatch, argv, f"lim.{fmt}", 2)


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
@pytest.mark.parametrize("fig_id", MULTI_CURVE_IDS)
def test_figure_out_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, fig_id, fmt):
    argv = ["--format", fmt, "reproduce-figure", fig_id]
    files = len(reproduce_figure(fig_id))
    _assert_same_bytes_serial_and_forked(tmp_path, monkeypatch, argv, f"fig.{fmt}", files)


def _sideband_config(tmp_path, blue_body=None):
    grid = np.linspace(-1600.0, 1600.0, 400)
    red_csv, blue_csv = tmp_path / "red.csv", tmp_path / "blue.csv"
    for path, amplitude, seed in ((red_csv, 1.35, 1), (blue_csv, 0.78, 2)):
        truth = LorentzianFit(0.0, 325.0, amplitude, 1.0, 0.0)
        write_spectrum_csv(path, synth_sideband_spectrum(truth, grid, 0.005, seed=seed))
    if blue_body is not None:
        blue_csv.write_text("frequency_hz,psd_shotnoise_units\n" + blue_body)
    cfg = tmp_path / "cal.cfg"
    cfg.write_text(f"red_csv = {red_csv}\nblue_csv = {blue_csv}\n")
    return cfg, blue_csv


def test_calibrate_out_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch):
    cfg, _ = _sideband_config(tmp_path)
    argv = ["--config", str(cfg), "calibrate"]
    _assert_same_bytes_serial_and_forked(tmp_path, monkeypatch, argv, "cal.json", 1)


@pytest.mark.parametrize("cpus", (1, 2))
def test_bad_blue_csv_row_exits_2_naming_file_and_line(tmp_path, monkeypatch, capsys, cpus):
    # with two CPUs the blue spectrum is read and fitted in the child
    cfg, blue_csv = _sideband_config(tmp_path, blue_body="1,2\n3,four\n5,6\n")
    _use_cpus(monkeypatch, cpus)
    assert cli_main(["--config", str(cfg), "calibrate"]) == 2
    assert f"{blue_csv}: line 3: expected 2 finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", (1, 2))
def test_unwritable_second_table_exits_4(tmp_path, monkeypatch, capsys, cpus):
    cfg = _limits_config(tmp_path)
    (tmp_path / "lim.ql.csv").mkdir()  # the second table's path is a directory
    _use_cpus(monkeypatch, cpus)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "lim.csv"), "limits"]) == 4
    assert "lim.ql.csv" in capsys.readouterr().err


STITCHED_CONFIG = (
    "rho_min = -20\nrho_max = 20\nrho_count = {rho_count}\npowers = 1,14\n"
    "readout = stitched\nstitch_angles_deg = 90,60,120\nepsilon = 0.35\nn_th = 1.29\n"
)
SPECTRUM_CASES = {
    "stitched-csv": (STITCHED_CONFIG.format(rho_count=301), "csv"),
    "stitched-jsonl": (STITCHED_CONFIG.format(rho_count=301), "jsonl"),
    # two rows for up to three CPUs: fewer ranges than CPUs
    "fewer-rows-than-cpus": (
        "rho_min = -1\nrho_max = 1\nrho_count = 2\npowers = 3\nangles_deg = 90\n", "csv",
    ),
    # phi_used, p and s_ln hold one value each
    "constant-columns": (LIMITS_CONFIG.format(rho_count=97), "jsonl"),
}


@pytest.mark.parametrize("case", SPECTRUM_CASES)
def test_spectrum_out_bytes_do_not_depend_on_cpus(tmp_path, monkeypatch, case):
    # one file in each output directory: no temporary part is left beside it
    text, fmt = SPECTRUM_CASES[case]
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    argv = ["--config", str(cfg), "--format", fmt, "spectrum"]
    _assert_same_bytes_serial_and_forked(tmp_path, monkeypatch, argv, f"s.{fmt}", 1)


@pytest.mark.parametrize("cpus, n_forks", ((1, 0), (2, 1), (3, 2)))
@pytest.mark.parametrize("rho_count, large", ((4999, False), (5000, True)))
def test_single_table_is_cut_into_one_range_per_cpu_from_fork_min_rows(
    tmp_path, monkeypatch, cpus, n_forks, rho_count, large
):
    assert cli.FORK_MIN_ROWS == 2 * 5000  # rho_count rows at each of two powers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = _count_forks(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STITCHED_CONFIG.format(rho_count=rho_count))
    out = tmp_path / "out" / "s.csv"
    out.parent.mkdir()
    assert cli_main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    assert len(forks) == (n_forks if large else 0)
    assert os.listdir(out.parent) == ["s.csv"]
    assert len(load_table_csv(out).columns["rho"]) == 2 * rho_count


def test_table_with_fewer_rows_than_cpus_forks_only_for_its_later_ranges(
    tmp_path, monkeypatch
):
    # two rows on three CPUs: range 1 goes to a child, and share 2 is empty
    _use_cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(SPECTRUM_CASES["fewer-rows-than-cpus"][0])
    out = tmp_path / "out" / "s.csv"
    out.parent.mkdir()
    assert cli_main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    assert len(forks) == 1
    assert os.listdir(out.parent) == ["s.csv"]
    assert len(load_table_csv(out).columns["rho"]) == 2


def test_table_to_a_path_that_is_no_regular_file_is_cut_as_a_file(tmp_path, monkeypatch):
    # /dev/null is cut as a regular file is: its later range goes to a child,
    # through a temporary file in the default temporary directory, not /dev
    _use_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STITCHED_CONFIG.format(rho_count=301))
    assert cli_main(["--config", str(cfg), "--out", os.devnull, "spectrum"]) == 0
    assert len(forks) == 1


def _kill_when_forked(emit_table, parent):
    """emit_table that kills its own process when that is a forked child."""
    def emit(table, fmt, destination, rows=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        emit_table(table, fmt, destination, rows)
    return emit


def test_killed_worker_exits_4_and_leaves_no_table(tmp_path, monkeypatch, capsys):
    _use_cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "emit_table", _kill_when_forked(cli.emit_table, os.getpid()))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STITCHED_CONFIG.format(rho_count=301))
    out = tmp_path / "out" / "s.csv"
    out.parent.mkdir()
    assert cli_main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 4
    (_, share), = forks
    assert share == [1]
    err = capsys.readouterr().err
    assert re.fullmatch(r"i/o error: worker process \d+ exited without a result\n", err)
    assert os.listdir(out.parent) == ["s.csv"]
    assert out.read_bytes() == b""


def _emit_failing_at_last_row(error, emit_table):
    """emit_table that writes its rows, then raises error if they hold the
    table's last row: the same error, serial or forked, from the last range."""
    def emit(table, fmt, destination, rows=None):
        emit_table(table, fmt, destination, rows)
        n_rows = len(table.columns["rho"])
        if rows is None or n_rows - 1 in rows:
            raise error
    return emit


@pytest.mark.parametrize(
    "error, code",
    (
        (OSError(errno.ENOSPC, "No space left on device"), 4),
        (DivergenceError("column total overflows float64 for this config"), 3),
    ),
)
@pytest.mark.parametrize("command, files", (("spectrum", 1), ("limits", 2)))
def test_failing_later_range_fails_as_serial_and_leaves_no_table(
    tmp_path, monkeypatch, capsys, error, code, command, files
):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(STITCHED_CONFIG.format(rho_count=301))
    serial = _serial_stdout(command, cfg, "csv")
    monkeypatch.setattr(cli, "emit_table", _emit_failing_at_last_row(error, cli.emit_table))
    forks = _count_forks(monkeypatch)
    results, stdout_results = [], []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"cpus{cpus}"
        out_dir.mkdir()
        exit_code = cli_main(["--config", str(cfg), "--out", str(out_dir / "s.csv"), command])
        left = sorted(out_dir.iterdir())
        assert len(left) == files
        for path in left:
            assert path.read_bytes() == b""
            with pytest.raises(ParameterError, match="missing header row"):
                load_table_csv(path)
        results.append((exit_code, capsys.readouterr().err, [p.name for p in left]))
        # stdout, a regular file or a stream with no descriptor here, is cut
        # as --out is but never truncated: it keeps what was written before
        # the error, a prefix of the serial bytes
        for stream in (open(out_dir / "stdout", "w+"), io.StringIO()):
            forks.clear()
            with stream, _stdout(monkeypatch, stream):
                exit_code = cli_main(["--config", str(cfg), command])
                stream.seek(0)
                got = stream.read().encode()
            stdout_results.append((exit_code, capsys.readouterr().err))
            assert len(forks) == cpus - 1
            assert got and serial.startswith(got)
    assert results[0][0] == code
    assert results[1:] == results[:1] * 2
    assert stdout_results == [results[0][:2]] * 6


def _serial_stdout(command, cfg, fmt) -> bytes:
    """The bytes a serial run of command writes to stdout: each table after
    its `# --- <curve> ---` line."""
    args = argparse.Namespace(config=cfg, command=command)
    tables = cli._cmd_limits(args) if command == "limits" else cli._cmd_sweep(args)
    text = "".join(f"# --- {name} ---\n{table_text(t, fmt)}" for name, t in tables.items())
    return text.encode()


@contextlib.contextmanager
def _stdout(monkeypatch, stream):
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", stream)
        yield stream


@pytest.mark.parametrize("cpus", (1, 2, 3))
@pytest.mark.parametrize(
    "command, config, fmt",
    (("spectrum", STITCHED_CONFIG, "csv"), ("limits", LIMITS_CONFIG, "jsonl")),
)
def test_stdout_to_a_regular_file_is_cut_into_one_range_per_cpu(
    tmp_path, monkeypatch, cpus, command, config, fmt
):
    assert cli.FORK_MIN_ROWS == 2 * 5000  # 5,000 rows at each of two powers, or in each table
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = _count_forks(monkeypatch)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(config.format(rho_count=5000))
    stdout = tmp_path / "stdout"
    with open(stdout, "w") as stream, _stdout(monkeypatch, stream):
        assert cli_main(["--config", str(cfg), "--format", fmt, command]) == 0
    assert len(forks) == cpus - 1
    assert stdout.read_bytes() == _serial_stdout(command, cfg, fmt)


def test_stdout_of_every_kind_is_cut_into_one_range_per_cpu(tmp_path, monkeypatch):
    # a pipe, a stream with no descriptor, /dev/null and a file opened for
    # appending, as under >>, each get their later ranges copied onto their end
    cfg = _limits_config(tmp_path, rho_count=21)  # both tables fit in a pipe's buffer
    argv = ["--config", str(cfg), "limits"]
    serial = _serial_stdout("limits", cfg, "csv")
    stdout = tmp_path / "stdout"
    forks = _count_forks(monkeypatch)
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        forks.clear()
        r, w = os.pipe()
        with os.fdopen(r, "rb") as reader:
            with os.fdopen(w, "w") as stream, _stdout(monkeypatch, stream):
                assert cli_main(argv) == 0
            assert reader.read() == serial
        with _stdout(monkeypatch, io.StringIO()) as stream:
            assert cli_main(argv) == 0
        assert stream.getvalue().encode() == serial
        with open(os.devnull, "w") as stream, _stdout(monkeypatch, stream):
            assert cli_main(argv) == 0
        stdout.write_bytes(b"# before\n")
        with open(stdout, "a") as stream, _stdout(monkeypatch, stream):
            assert cli_main(argv) == 0
        assert stdout.read_bytes() == b"# before\n" + serial
        assert len(forks) == 4 * (cpus - 1)


def _count_forks(monkeypatch):
    forks = []
    fork_share = cli._fork_share
    monkeypatch.setattr(cli, "_fork_share", lambda *a: forks.append(a) or fork_share(*a))
    return forks


@pytest.mark.parametrize("fig_id", MULTI_CURVE_IDS)
def test_figure_tables_are_written_in_process(tmp_path, monkeypatch, fig_id):
    # every figure is far below FORK_MIN_ROWS: a fork would cost more than it saves
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _count_forks(monkeypatch)
    assert cli_main(["--out", str(tmp_path / "fig.csv"), "reproduce-figure", fig_id]) == 0
    assert forks == []


@pytest.mark.parametrize("rho_count, n_forks", ((4999, 0), (5000, 1)))
def test_limits_tables_fork_from_fork_min_rows(tmp_path, monkeypatch, rho_count, n_forks):
    assert cli.FORK_MIN_ROWS == 2 * 5000  # two tables of rho_count rows each
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _count_forks(monkeypatch)
    argv = ["--config", str(_limits_config(tmp_path, rho_count)), "limits"]
    assert cli_main(["--out", str(tmp_path / "lim.csv"), *argv]) == 0
    assert len(forks) == n_forks
    assert sorted(p.name for p in tmp_path.glob("lim.*")) == ["lim.ql.csv", "lim.sql.csv"]


@pytest.mark.parametrize("cpus, left", ((1, []), (2, [])))
def test_unwritable_first_table_exits_4(tmp_path, monkeypatch, capsys, cpus, left):
    # every path is opened, in table order, before any table is written
    cfg = _limits_config(tmp_path)
    (tmp_path / "lim.sql.csv").mkdir()
    _use_cpus(monkeypatch, cpus)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "lim.csv"), "limits"]) == 4
    assert "lim.sql.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("lim.*") if p.is_file()] == left


SHARES = {
    "one-share": [[0, 1, 2, 3, 4]],
    "two-shares": [[0, 2, 4], [1, 3]],
    "three-shares": [[0, 3], [1, 4], [2]],
    # empty shares, as a table with fewer rows than there are CPUs leaves
    "empty-shares": [[0], [], [1, 2], [], [3, 4]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("layout", SHARES)
def test_share_0_runs_here_and_each_later_non_empty_share_in_its_own_child(
    monkeypatch, layout
):
    # warnings are errors: Python >= 3.12 warns when a threaded process forks
    shares = SHARES[layout]
    forks = _count_forks(monkeypatch)
    pids = _run_shares([os.getpid] * 5, shares)
    assert [pids[i] for i in shares[0]] == [os.getpid()] * len(shares[0])
    later = [{pids[i] for i in share} for share in shares[1:] if share]
    assert all(len(share_pids) == 1 for share_pids in later)
    workers = set().union(*later)
    assert len(workers) == len(later) == len(forks) and os.getpid() not in workers


def _fail(message):
    raise ValueError(message)


@pytest.mark.parametrize("failing, first", (((1, 2), 1), ((0, 1), 0), ((2, 3), 2)))
def test_first_failing_job_in_input_order_is_raised(failing, first):
    # range k of each of two tables in share k, as _write_out lays them out:
    # each share stops at its own first failure, and the lowest index wins
    jobs = [lambda i=i: i for i in range(4)]
    for i in failing:
        jobs[i] = lambda i=i: _fail(f"job {i}")
    with pytest.raises(ValueError, match=f"^job {first}$"):
        _run_shares(jobs, [[0, 2], [1, 3]])


class _Interrupt(BaseException):
    pass


def _interrupt():
    raise _Interrupt


def _large_result_ended_by_alarm():
    signal.alarm(5)  # ends the child should its write block for good
    return bytes(1 << 20)


def test_children_are_reaped_when_the_parent_share_raises():
    # the child's 1 MiB result fills its pipe; once the parent closes its end
    # the child's write must fail at once, not block until the alarm
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        _run_shares([_interrupt, _large_result_ended_by_alarm], [[0], [1]])
    assert time.monotonic() - start < 4


@pytest.mark.parametrize(
    "argv, flag, command",
    (
        (["--config", "/nonexistent.cfg", "reproduce-figure", "1d"], "--config",
         "reproduce-figure"),
        (["--config", "{cfg}", "--format", "jsonl", "calibrate"], "--format", "calibrate"),
        (["--config", "{cfg}", "--format", "csv", "calibrate"], "--format", "calibrate"),
    ),
)
def test_flag_the_command_does_not_use_exits_2(tmp_path, capsys, argv, flag, command):
    cfg, _ = _sideband_config(tmp_path)
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    assert cli_main(["--out", str(out), *argv]) == 2
    assert f"error: {command} does not use {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code",
    ((["reproduce-figure", "1d"], 0), (["--version"], 0), (["no-such-command"], 2)),
)
def test_run_freezes_the_heap_once_after_main(monkeypatch, capsys, argv, code):
    events = []
    main = cli.main

    def recorded_main(argv=None):
        try:
            return main(argv)
        finally:
            events.append("main")

    monkeypatch.setattr(cli, "main", recorded_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["noisebudget", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert events == ["main", "freeze"]


def test_main_in_process_does_not_freeze_the_heap(tmp_path):
    before = gc.get_freeze_count()
    assert cli_main(["--out", str(tmp_path / "fig.csv"), "reproduce-figure", "1d"]) == 0
    assert gc.get_freeze_count() == before


TINY_CONFIG = (
    "rho_min = -20\nrho_max = 20\nrho_count = 5\npowers = 1\nangles_deg = 90\n"
)
HUGE_GRID_CONFIG = (
    "rho_min = -1e200\nrho_max = 1e200\nrho_count = 5\npowers = 1\nangles_deg = 90\n"
)
# the SQL is 1e-200 at the grid ends and s_ii 5e299, so total_over_sql overflows
HUGE_RATIO_CONFIG = HUGE_GRID_CONFIG.replace("powers = 1", "powers = 1e-300")
HUGE_BETA_CONFIG = TINY_CONFIG.replace("angles_deg = 90\n", "") + "beta = 1e200\n"
# (kappa/2)^2 overflows float64; it used to raise OverflowError, exit 1
HUGE_KAPPA_CONFIG = (
    "rho_min = -20\nrho_max = 20\nrho_count = 11\npowers = 14\nepsilon = 0.35\n"
    "n_th = 1.29\nangles_deg = 90\nc_aa = 0.5\nc_pp = 1\nkappa_hz = 1e154\n"
    "omega_m_hz = 1.596e6\ngamma_hz = 340\n"
)
KAPPA_LINE = "domain error: column s_ln overflows float64 for this config\n"
OVERFLOW_LINE = "domain error: column total_over_sql overflows float64 for this config\n"
SPAN_CONFIG = HUGE_GRID_CONFIG.replace("1e200", "1e308")
SPAN_LINE = (
    "error: rho_max - rho_min overflows float64 (rho_min = -1e+308, rho_max = 1e+308); "
    "narrow the span\n"
)
# 10**log10(rho_max) overflows: the grid's end points would be -inf and inf
LOG_MAX_CONFIG = (
    "rho_min = 1\nrho_max = 1.7976931348623157e308\nrho_count = 5\n"
    "rho_spacing = log-symmetric\npowers = 1\nangles_deg = 90\nbeta = 1.02\n"
)
LOG_MAX_LINE = (
    "error: rho_max = 1.7976931348623157e+308 puts the log-symmetric grid's end point "
    "past float64; lower rho_max\n"
)
HUGE_COUNT_CONFIG = TINY_CONFIG.replace("rho_count = 5", "rho_count = 1000000000000")
GRID_CAP_LINE = (
    "error: rho_count * powers * candidate angles = 1000000000000 * 1 * 1 = "
    "1000000000000 grid points, above MAX_GRID_POINTS = 10000000; lower rho_count\n"
)
ANGLE_LINE = "error: angles_deg must lie strictly between 0 and 180 degrees, got 221.0\n"
BETA_LINE = "domain error: beta = 1e+200: the LO power (1 + beta^2)/2 overflows float64\n"

LATIN1_CONFIG = TINY_CONFIG.encode() + b"# waist 50 \xb5m\n"  # a Latin-1 micro sign
LATIN1_LINE = f"error: {{cfg}}: byte 0xb5 at offset {len(TINY_CONFIG) + 11} is not UTF-8\n"
LATIN1_CSV = b"frequency_hz,psd_shotnoise_units\n1.0,2.0\n\xff3.0,4.0\n"
LATIN1_CSV_LINE = "error: {tmp}/s.csv: byte 0xff at offset 41 is not UTF-8\n"
# 1/epsilon overflows; the QL added noise is at most 1/sqrt(5e-324) = 4.5e161
SUBNORMAL_EPS_CONFIG = TINY_CONFIG + "epsilon = 5e-324\n"
# |chi_m|^2 = 1e-400 underflows at rho = +-1e200, but p |chi_m|^2 and
# n_th |chi_m|^2 do not
FAR_GRID = "rho_min = -1e200\nrho_max = 1e200\nrho_count = 3\nangles_deg = 90\nepsilon = 0.5\n"
FAR_BACKACTION_CONFIG = FAR_GRID + "powers = 1e300\n"
FAR_THERMAL_CONFIG = FAR_GRID + "powers = 1\nn_th = 1e300\n"

# (config text or bytes, a dict of such by file name, or None; argv with
# {cfg} and {tmp}; exit code; stderr with {cfg} and {tmp}, or None)
PROCESS_CASES = {
    "table": (TINY_CONFIG, ["--config", "{cfg}", "spectrum"], 0, ""),
    "version": (None, ["--version"], 0, ""),
    "usage": (None, ["no-such-command"], 2, None),
    "config": (TINY_CONFIG + "mystery = 1\n", ["--config", "{cfg}", "spectrum"], 2, None),
    "spectrum-overflow": (HUGE_RATIO_CONFIG, ["--config", "{cfg}", "spectrum"], 3, OVERFLOW_LINE),
    "spectrum-huge-rho": (HUGE_GRID_CONFIG, ["--config", "{cfg}", "spectrum"], 0, ""),
    # rho**2 overflows here; ql_added_noise takes its asymptote there
    "limits-overflow": (HUGE_GRID_CONFIG, ["--config", "{cfg}", "limits"], 0, ""),
    # np.linspace over an infinite span would make nan points
    "spectrum-span": (SPAN_CONFIG, ["--config", "{cfg}", "spectrum"], 2, SPAN_LINE),
    "limits-span": (SPAN_CONFIG, ["--config", "{cfg}", "limits"], 2, SPAN_LINE),
    **{
        f"{command}-log-max": (LOG_MAX_CONFIG, ["--config", "{cfg}", command], 2, LOG_MAX_LINE)
        for command in ("spectrum", "limits", "variational", "synodyne")
    },
    "grid-cap": (HUGE_COUNT_CONFIG, ["--config", "{cfg}", "spectrum"], 2, GRID_CAP_LINE),
    "angle-range": (
        TINY_CONFIG.replace("angles_deg = 90", "angles_deg = 221"),
        ["--config", "{cfg}", "spectrum"], 2, ANGLE_LINE,
    ),
    "synodyne-beta": (HUGE_BETA_CONFIG, ["--config", "{cfg}", "synodyne"], 3, BETA_LINE),
    "classical-noise-kappa": (HUGE_KAPPA_CONFIG, ["--config", "{cfg}", "spectrum"], 3, KAPPA_LINE),
    "out-dir": (TINY_CONFIG, ["--config", "{cfg}", "--out", "{tmp}/no/such.csv", "spectrum"], 4, None),
    "config-not-utf8": (LATIN1_CONFIG, ["--config", "{cfg}", "spectrum"], 2, LATIN1_LINE),
    "sideband-csv-not-utf8": (
        {"c.cfg": "sideband_csv = {tmp}/s.csv\n", "s.csv": LATIN1_CSV},
        ["--config", "{cfg}", "calibrate"], 2, LATIN1_CSV_LINE,
    ),
    "limits-subnormal-epsilon": (SUBNORMAL_EPS_CONFIG, ["--config", "{cfg}", "limits"], 0, ""),
    "spectrum-far-backaction": (FAR_BACKACTION_CONFIG, ["--config", "{cfg}", "spectrum"], 0, ""),
    "spectrum-far-thermal": (FAR_THERMAL_CONFIG, ["--config", "{cfg}", "spectrum"], 0, ""),
    "limits-far-thermal": (FAR_THERMAL_CONFIG, ["--config", "{cfg}", "limits"], 0, ""),
}
# (table, {column: value}) of a case's stdout CSV at its rows with |rho| = 1e200
FAR_ROWS = {
    "spectrum-far-backaction": ("sweep", {"s_ff": 5e-101, "total_over_sql": 5e99}),
    "spectrum-far-thermal": ("sweep", {"s_m": 2e-100}),
    "limits-far-thermal": ("ql", {"s_m": 2e-100, "total_over_sql": 2e100}),
}


def _stdout_table(out, name):
    """Rows of the table after the `# --- name ---` line of CSV stdout, as dicts."""
    lines = out.split(f"# --- {name} ---\n")[1].split("# --- ")[0].splitlines()
    header, *rows = [line for line in lines if not line.startswith("#")]
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


@pytest.mark.parametrize("case", PROCESS_CASES)
def test_cli_process_matches_main_in_process(tmp_path, capsys, case):
    files, argv, code, stderr = PROCESS_CASES[case]
    cfg = tmp_path / "c.cfg"
    files = files if isinstance(files, dict) else {} if files is None else {cfg.name: files}
    for name, body in files.items():
        body = body if isinstance(body, bytes) else body.format(tmp=tmp_path).encode()
        (tmp_path / name).write_bytes(body)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
    try:
        in_process = cli_main(argv)
    except SystemExit as exc:  # argparse's --version and usage errors
        in_process = exc.code
    out, err = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(Path(noisebudget.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "noisebudget.cli", *argv], capture_output=True, env=env,
        cwd=tmp_path,
    )
    assert in_process == proc.returncode == code
    assert proc.stdout == out.encode()
    assert proc.stderr.decode() == err
    if stderr is not None:
        assert err == stderr.format(cfg=cfg, tmp=tmp_path)
    if case in FAR_ROWS:
        name, want = FAR_ROWS[case]
        far = [row for row in _stdout_table(out, name) if abs(row["rho"]) == 1e200]
        assert len(far) == 2
        for row in far:
            assert {c: row[c] for c in want} == pytest.approx(want, rel=1e-15, abs=0)


# float64 edge values: signed zeros, subnormals, and magnitudes whose
# squares (1e154) or values (1e200, 1e308) overflow; keys that must be
# positive take only the positive ones
EDGES = (0.0, -0.0, 5e-324, 2.2e-308, 1e154, 1e200, 1e308)
SIGNED_EDGES = EDGES + tuple(-v for v in EDGES[2:])
SIGNED_KEYS = ("rho", "synodyne_phi_deg")
# the physical range of each numeric key; list keys hold up to three values
PHYSICAL = {
    "rho": (-50.0, 50.0),
    "powers": (1e-3, 1e3),
    "angles_deg": (1.0, 179.0),
    "stitch_angles_deg": (1.0, 179.0),
    "epsilon": (0.01, 1.0),
    "n_th": (0.0, 100.0),
    "beta": (0.01, 10.0),
    "synodyne_phi_deg": (-180.0, 180.0),
    "c_aa": (0.0, 1.0),
    "c_pp": (0.0, 1.0),
    "kappa_hz": (1e3, 1e8),
    "omega_m_hz": (1e5, 1e8),
    "gamma_hz": (1.0, 100.0),
}
LIST_KEYS = {"powers": 1, "angles_deg": 1, "stitch_angles_deg": 2}  # key: least length


@st.composite
def config_values(draw, command: str) -> dict:
    """Values of every key the readout that command runs reads: physical but
    for one or two keys, which take float64 edge values.  Lists hold no
    repeats and the grid bounds come in order, so validation passes unless an
    edge value breaks it."""
    edgy = draw(st.sets(st.sampled_from(sorted(PHYSICAL)), min_size=1, max_size=2))
    spacing = draw(st.sampled_from(("linear", "log-symmetric")))
    physical = dict(PHYSICAL, rho=PHYSICAL["rho"] if spacing == "linear" else (1e-3, 50.0))

    def numbers(key):
        if key not in edgy:
            return st.floats(*physical[key])
        return st.sampled_from(SIGNED_EDGES if key in SIGNED_KEYS else EDGES)

    bounds = draw(st.lists(numbers("rho"), min_size=2, max_size=2, unique=True))
    # variational and synodyne run their own readout; the others the config's
    readout = command if command in READOUTS else draw(st.sampled_from(tuple(READOUTS)))
    keys = [k for k in PHYSICAL if k in COMMON_KEYS + READOUTS[readout].reads]
    values = {
        "rho_min": min(bounds),
        "rho_max": max(bounds),
        "rho_count": draw(st.integers(2, 64)),
        "rho_spacing": spacing,
        "readout": readout,
    }
    for key in keys:
        if key in LIST_KEYS:
            values[key] = draw(st.lists(numbers(key), min_size=LIST_KEYS[key], max_size=3, unique=True))
        else:
            values[key] = draw(numbers(key))
    return values


def _config_text(values: dict) -> str:
    def text(v):
        return ",".join(map(repr, v)) if isinstance(v, list) else str(v)
    return "".join(f"{key} = {text(value)}\n" for key, value in values.items())


def _table_values(out: str, fmt: str) -> list:
    """Every number in the tables of a command's stdout."""
    values = []
    for line in out.splitlines():
        if fmt == "jsonl" and not line.startswith("#"):
            row = json.loads(line, parse_constant=float)
            values += [] if "metadata" in row else list(row.values())
        elif fmt == "csv" and not line.startswith(("#", "rho,")):
            values += [float(v) for v in line.split(",")]
    return values


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.data(),
    st.sampled_from(("spectrum", "limits", "variational", "synodyne")),
    st.sampled_from(("csv", "jsonl")),
)
def test_any_config_text_gives_a_documented_exit_and_finite_tables(tmp_path, data, command, fmt):
    values = data.draw(config_values(command))
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(_config_text(values))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["--config", str(cfg), "--format", fmt, command])
    assert code in (0, 2, 3, 4)
    assert caught == []
    assert err.getvalue().count("\n") == (code != 0)
    if code == 0:
        numbers = _table_values(out.getvalue(), fmt)
        assert numbers and all(isinstance(v, float) and math.isfinite(v) for v in numbers)


@st.composite
def config_bytes(draw, command: str) -> bytes:
    """Raw config bytes: config text for command with a few byte strings
    inserted, which are mostly not UTF-8, or arbitrary bytes."""
    text = _config_text(draw(config_values(command))).encode()
    inserts = st.tuples(st.integers(0, len(text)), st.binary(min_size=1, max_size=4))
    for at, chunk in draw(st.lists(inserts, min_size=1, max_size=3)):
        text = text[:at] + chunk + text[at:]
    return draw(st.one_of(st.just(text), st.binary(max_size=200)))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.data(),
    st.sampled_from(("spectrum", "limits", "variational", "synodyne")),
    st.sampled_from(("csv", "jsonl")),
)
def test_any_config_bytes_give_a_documented_exit(tmp_path, data, command, fmt):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_bytes(data.draw(config_bytes(command)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["--config", str(cfg), "--format", fmt, command])
    assert code in (0, 2, 3, 4)
