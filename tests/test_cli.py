"""The CLI's flag checks and its worker processes: a multi-table --out and
calibrate's red/blue pair run as jobs in forked children, with output bytes,
errors and exit codes as in a serial run."""

import os
import signal
import time

import numpy as np
import pytest

from noisebudget import LorentzianFit, synth_sideband_spectrum
from noisebudget.calibration import write_spectrum_csv
from noisebudget import cli
from noisebudget.cli import _run_jobs
from noisebudget.cli import main as cli_main
from noisebudget.figures import FIGURE_IDS, reproduce_figure

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
    assert f"{blue_csv}: line 3: expected two finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", (1, 2))
def test_unwritable_second_table_exits_4(tmp_path, monkeypatch, capsys, cpus):
    cfg = _limits_config(tmp_path)
    (tmp_path / "lim.ql.csv").mkdir()  # the second table's path is a directory
    _use_cpus(monkeypatch, cpus)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "lim.csv"), "limits"]) == 4
    assert "lim.ql.csv" in capsys.readouterr().err


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


@pytest.mark.parametrize("cpus, left", ((1, []), (2, ["lim.ql.csv"])))
def test_unwritable_first_table_exits_4(tmp_path, monkeypatch, capsys, cpus, left):
    # a serial run stops at the first table; a forked one has written the
    # other share's tables by then, and reports the same error
    cfg = _limits_config(tmp_path)
    (tmp_path / "lim.sql.csv").mkdir()
    _use_cpus(monkeypatch, cpus)
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "lim.csv"), "limits"]) == 4
    assert "lim.sql.csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("lim.*") if p.is_file()] == left


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cpus, children", ((1, 0), (2, 1), (3, 2), (64, 4)))
def test_jobs_are_dealt_round_robin_one_process_per_cpu(monkeypatch, cpus, children):
    # warnings are errors: Python >= 3.12 warns when a threaded process forks
    _use_cpus(monkeypatch, cpus)
    pids = _run_jobs([os.getpid] * 5)
    n = children + 1
    assert pids[::n] == [os.getpid()] * len(pids[::n])
    workers = [pids[k] for k in range(1, n)]
    assert len(set(workers)) == children and os.getpid() not in workers
    assert pids == [pids[i % n] for i in range(5)]


def _fail(message):
    raise ValueError(message)


@pytest.mark.parametrize("failing, first", (((1, 2), 1), ((0, 1), 0), ((2, 3), 2)))
def test_first_failing_job_in_input_order_is_raised(monkeypatch, failing, first):
    _use_cpus(monkeypatch, 2)
    jobs = [lambda i=i: i for i in range(4)]
    for i in failing:
        jobs[i] = lambda i=i: _fail(f"job {i}")
    with pytest.raises(ValueError, match=f"^job {first}$"):
        _run_jobs(jobs)


class _Interrupt(BaseException):
    pass


def _interrupt():
    raise _Interrupt


def _large_result_ended_by_alarm():
    signal.alarm(5)  # ends the child should its write block for good
    return bytes(1 << 20)


def test_children_are_reaped_when_the_parent_share_raises(monkeypatch):
    # the child's 1 MiB result fills its pipe; once the parent closes its end
    # the child's write must fail at once, not block until the alarm
    _use_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(_Interrupt):
        _run_jobs([_interrupt, _large_result_ended_by_alarm])
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
