"""Command-line interface.

Subcommands: spectrum, limits, variational, synodyne, calibrate,
reproduce-figure.  Exit codes: 0 success, 2 validation error, 3 domain
error, 4 I/O error.

calibrate's red/blue pair, and the --out files of a multi-table command
with at least FORK_MIN_ROWS rows in all, run as independent jobs on the CPUs
this process may use (_run_jobs); stdout output and every library function
stay serial.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__
from .calibration import (
    SidebandFit,
    fit_lorentzian,
    n_th_from_sidebands,
    read_spectrum_csv,
)
from .core import Detection
from .errors import DomainError, ParameterError
from .figures import FIGURE_IDS, reproduce_figure
from .limits import ql_added_noise, sql_psd
from .spectra import thermal_term
from .sweep import (
    SpectrumTable,
    emit_table,
    limit_columns,
    parse_config,
    read_key_values,
    run_sweep,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisebudget",
        description="Quantum noise budgets for interferometric displacement "
        "measurement.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--out", type=Path, help="output path (default stdout)")
    parser.add_argument(
        "--format", choices=("csv", "jsonl"), dest="fmt",
        help="table format (default csv); calibrate writes JSON and takes none",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="run the sweep described by --config")
    sub.add_parser("limits", help="emit SQL and QL curves over the config grid")
    sub.add_parser("variational", help="run the sweep with variational readout")
    sub.add_parser("synodyne", help="run the sweep with synodyne readout")
    sub.add_parser("calibrate", help="fit sideband spectra listed in --config")
    fig = sub.add_parser("reproduce-figure", help="emit model curves for a figure")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    return parser


def _check_flags(args):
    """Reject a flag the command would silently ignore."""
    unused = {"calibrate": ("--format", args.fmt), "reproduce-figure": ("--config", args.config)}
    flag, value = unused.get(args.command, (None, None))
    if value is not None:
        raise ParameterError(f"{args.command} does not use {flag}")


def _run_share(jobs, share) -> tuple:
    """Run the jobs at the indices in share, in order, up to the first that
    raises: (results by index, (index, exception) or None)."""
    results = {}
    for i in share:
        try:
            results[i] = jobs[i]()
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _fork_share(jobs, share) -> tuple:
    """Run share in a forked child, which inherits jobs and their inputs and
    sends back only its pickled outcome: (child pid, pipe to read it from)."""
    r, w = os.pipe()
    # Why the fork is safe: the only other threads are the worker pools of
    # the OpenBLAS builds that numpy and scipy load.  The child's jobs do make
    # BLAS/LAPACK calls: leastsq's covariance step runs trtri and a 4x4
    # matmul.  Both builds use pthreads, and a pthreads OpenBLAS shuts its
    # pool down before a fork (pthread_atfork) and starts a new one at the
    # next call that wants threads; 4x4 calls run on the calling thread
    # anyway.  An OpenBLAS built with OpenMP, or MKL, is not covered by this.
    # The child leaves through os._exit, so it never flushes the parent's
    # stdio buffers or runs its exit handlers.  Python >= 3.12 warns on every
    # fork in a process with other threads; that warning is kept off stderr.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", message=r".*use of fork\(\) may lead to deadlocks",
            category=DeprecationWarning,
        )
        pid = os.fork()
    if pid == 0:
        try:
            os.close(r)  # so a write fails, not blocks, once the parent closes r
            with os.fdopen(w, "wb") as fh:
                fh.write(pickle.dumps(_run_share(jobs, share)))
        finally:
            os._exit(0)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _run_jobs(jobs: list, fork: bool = True) -> list:
    """Results of jobs, a list of independent argument-free callables, in
    input order.

    The jobs are dealt round-robin into one share per CPU this process may
    use, at most one per job, or into a single share if not fork.  The first
    share runs in this process, each other one in a forked child
    (_fork_share); with one share every job runs here.  If jobs raise, the
    first failing one in input order is re-raised, as a serial run would
    raise it.  Every child is reaped before return.
    """
    cpus = len(os.sched_getaffinity(0)) if fork and hasattr(os, "sched_getaffinity") else 1
    n = max(1, min(cpus, len(jobs)))
    shares = [range(k, len(jobs), n) for k in range(n)]
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(jobs, share))
        outcomes = [_run_share(jobs, shares[0])]
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise RuntimeError(f"worker process {pid} exited without a result")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    results = {}
    for done, _ in outcomes:
        results.update(done)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [results[i] for i in range(len(jobs))]


# A table row costs about 5 us to write (10 cells) and a fork 5-15 ms, so
# forked writers gain only past about this many rows in all: no figure has
# as many (2,406 at most), a 50,001-point limits run has 100,002.
FORK_MIN_ROWS = 10_000


def _read_config(args) -> str:
    if args.config is None:
        raise ParameterError("this command needs --config <path>")
    return args.config.read_text(encoding="utf-8")


def _write_tables(tables: dict, args):
    fmt = args.fmt or "csv"
    if args.out is None:
        for name, table in tables.items():
            sys.stdout.write(f"# --- {name} ---\n")
            emit_table(table, fmt, sys.stdout)
        return
    out = args.out
    paths = [out] if len(tables) == 1 else [
        out.with_name(f"{out.stem}.{name}{out.suffix}") for name in tables
    ]
    rows = sum(len(table.columns["rho"]) for table in tables.values())
    _run_jobs(
        [partial(emit_table, t, fmt, p) for t, p in zip(tables.values(), paths)],
        fork=rows >= FORK_MIN_ROWS,
    )


def _cmd_sweep(args, readout_override=None) -> dict:
    spec = parse_config(_read_config(args))
    if readout_override is not None:
        spec = replace(spec, readout=readout_override)
    return {"sweep": run_sweep(spec)}


def _cmd_limits(args) -> dict:
    spec = parse_config(_read_config(args))
    grid = spec.rho_grid()
    meta = spec.metadata()
    ql_thermal = thermal_term(grid, spec.n_th)
    ql_added = ql_added_noise(grid, Detection(spec.epsilon))
    return {
        "sql": SpectrumTable(
            dict(meta, curve="sql"), limit_columns(grid, sql_psd(grid), 0.0, 0.0, 0.0)
        ),
        "ql": SpectrumTable(
            dict(meta, curve="ql"), limit_columns(grid, ql_added, ql_thermal, 0.0, 0.0)
        ),
    }


def _fit_spectrum(path):
    return fit_lorentzian(read_spectrum_csv(path))


def _cmd_calibrate(args):
    kv = read_key_values(_read_config(args), ("sideband_csv", "red_csv", "blue_csv"))
    keys = {key: value for key, (value, _) in kv.items()}
    result = {}
    if "red_csv" in keys or "blue_csv" in keys:
        if not ("red_csv" in keys and "blue_csv" in keys):
            raise ParameterError("sideband thermometry needs both red_csv and blue_csv")
        if "sideband_csv" in keys:
            raise ParameterError(
                "give either sideband_csv or red_csv + blue_csv, not both"
            )
        fit = SidebandFit.from_fits(*_run_jobs(
            [partial(_fit_spectrum, keys["red_csv"]), partial(_fit_spectrum, keys["blue_csv"])]
        ))
        result["sidebands"] = {
            "gamma_fit_hz": fit.gamma_fit,
            "a_red": fit.a_red,
            "a_blue": fit.a_blue,
            "offset": fit.offset,
            "residual_rms": fit.residual_rms,
            "n_th": n_th_from_sidebands(fit.a_red, fit.a_blue),
        }
    elif "sideband_csv" in keys:
        fit = _fit_spectrum(keys["sideband_csv"])
        result["lorentzian"] = {
            "center_hz": fit.center,
            "gamma_hz": fit.gamma,
            "amplitude": fit.amplitude,
            "offset": fit.offset,
            "residual_rms": fit.residual_rms,
        }
    else:
        raise ParameterError(
            "calibrate config needs sideband_csv or red_csv + blue_csv"
        )
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        if args.command == "spectrum":
            _write_tables(_cmd_sweep(args), args)
        elif args.command == "variational":
            _write_tables(_cmd_sweep(args, readout_override="variational"), args)
        elif args.command == "synodyne":
            _write_tables(_cmd_sweep(args, readout_override="synodyne"), args)
        elif args.command == "limits":
            _write_tables(_cmd_limits(args), args)
        elif args.command == "calibrate":
            _cmd_calibrate(args)
        elif args.command == "reproduce-figure":
            _write_tables(reproduce_figure(args.figure_id), args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
