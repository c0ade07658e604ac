"""Command-line interface.

Subcommands: spectrum, limits, variational, synodyne, calibrate,
reproduce-figure.  Exit codes: 0 success, 2 validation error, 3 domain
error, 4 I/O error.

calibrate's red/blue pair, and the tables of a command once they hold at
least FORK_MIN_ROWS rows in all, run as independent jobs in shares, one per
CPU this process may use (_run_shares).  Each such table is cut into one
contiguous row range per CPU, and range k of every table runs in share k.
Whatever the destination (an --out file, or stdout to a file, pipe,
terminal or stream), the first range written to it goes straight into it
and every later range to a temporary file that is then copied onto its end
(_write_out), so the bytes do not depend on the CPU count.  Smaller tables
and every library function stay serial.

run() is the process entry point (the noisebudget script and
python -m noisebudget.cli); main(argv) is the same command for in-process
callers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import shutil
import sys
import tempfile
import warnings
from functools import partial
from pathlib import Path

from . import __version__
from .calibration import SidebandFit, fit_lorentzian, n_th_from_sidebands, read_spectrum_csv
from .errors import DomainError, ParameterError, decode_utf8
from .figures import FIGURE_IDS, reproduce_figure
from .sweep import (
    SpectrumTable, curve_columns, emit_table, parse_config, read_key_values, run_sweep,
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
    # stdio buffers or runs its exit handlers; a job that writes a file
    # flushes it itself.  Python >= 3.12 warns on every fork in a process
    # with other threads; that warning is kept off stderr.
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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 on platforms that cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_shares(jobs: list, shares: list) -> list:
    """Results of jobs, a list of independent argument-free callables in
    serial order, run in shares: lists of ascending indices into jobs that
    together hold each index once.

    Share 0 runs in this process, each later non-empty share in a forked
    child (_fork_share).  If jobs raise, the failing one of lowest index is
    re-raised, as a serial run would raise it.  Every child is reaped before
    return.
    """
    children = []
    try:
        for share in shares[1:]:
            if share:
                children.append(_fork_share(jobs, share))
        outcomes = [_run_share(jobs, shares[0])]
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise ChildProcessError(f"worker process {pid} exited without a result")
            outcomes.append(pickle.loads(data))
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = {i: result for done, _ in outcomes for i, result in done.items()}
    return [results[i] for i in range(len(jobs))]


# A table row costs about 2-5 us to write (10 cells) and a fork and reap
# about 3 ms on a quiet host and 5-8 ms under load, so tables are cut into
# one row range per CPU only once they hold about this many rows in all: no
# figure has as many (2,406 at most); a
# 20,001-point stitched spectrum at two powers has 40,002.
FORK_MIN_ROWS = 10_000


def _read_config(args) -> str:
    if args.config is None:
        raise ParameterError("this command needs --config <path>")
    return decode_utf8(args.config, args.config.read_bytes())


def _row_ranges(n_rows: int, n: int) -> list:
    """Contiguous ranges that cut range(n_rows) into min(n, n_rows) parts
    as even as can be, each non-empty; [range(0, 0)] for no rows."""
    n = max(1, min(n, n_rows))
    bounds = [k * n_rows // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _emit_part(table, fmt, fh, rows, head):
    fh.write(head)
    emit_table(table, fmt, fh, rows)
    fh.flush()  # a forked child leaves through os._exit, which flushes nothing


def _write_out(tables: dict, fmt: str, out: Path | None):
    """Write each table to its --out path, or after its `# --- <curve> ---`
    line to stdout if out is None; a large one in a row range per CPU.

    The paths are opened in table order before any work starts.  The first
    range written to a destination goes straight into it, from this process.
    With FORK_MIN_ROWS rows in all, every later range goes to an unlinked
    temporary file in the default temporary directory, which this process
    then copies onto the end of its destination, in order, whatever the
    destination is.  If a job fails, every opened --out file is truncated to
    empty before the error is raised, so no partial table is left to load;
    stdout may be appended to and is left as it is.
    """
    rows = sum(len(table.columns["rho"]) for table in tables.values())
    n = _usable_cpus() if rows >= FORK_MIN_ROWS else 1
    files, parts, jobs, shares, started = [], [], [], [[] for _ in range(n)], set()
    try:
        for name, table in tables.items():
            fh, head = sys.stdout, f"# --- {name} ---\n"
            if out is not None:
                path = out if len(tables) == 1 else out.with_name(f"{out.stem}.{name}{out.suffix}")
                fh, head = open(path, "w", newline=""), ""
                files.append(fh)
            for k, part_rows in enumerate(_row_ranges(len(table.columns["rho"]), n)):
                dest = fh
                if n > 1 and fh in started:
                    dest = tempfile.TemporaryFile("w+", newline="")
                    parts.append((fh, dest))
                started.add(fh)
                shares[k].append(len(jobs))  # range k of every table runs in share k
                jobs.append(partial(_emit_part, table, fmt, dest, part_rows, "" if k else head))
        _run_shares(jobs, shares)
        for fh, part in parts:
            part.seek(0)  # its writer, here or a child sharing its offset, left it at the end
            shutil.copyfileobj(part, fh)
    except BaseException:
        for fh in files:
            with contextlib.suppress(OSError):
                fh.close()
            with contextlib.suppress(OSError):
                os.truncate(fh.name, 0)
        raise
    finally:
        for fh in [part for _, part in parts] + files:
            fh.close()


def _cmd_sweep(args) -> dict:
    readout = None if args.command == "spectrum" else args.command  # its own readout
    return {"sweep": run_sweep(parse_config(_read_config(args), readout))}


def _cmd_limits(args) -> dict:
    spec = parse_config(_read_config(args))
    grid = spec.rho_grid()
    meta = spec.metadata()
    return {
        kind: SpectrumTable(
            dict(meta, curve=kind),
            curve_columns(kind, grid, 0.0, 0.0, spec.epsilon, spec.n_th),
        )
        for kind in ("sql", "ql")
    }


def _fit_spectrum(path):
    return fit_lorentzian(read_spectrum_csv(path))


def _cmd_calibrate(args):
    kv = read_key_values(_read_config(args), ("sideband_csv", "red_csv", "blue_csv"))
    keys = {key: value for key, (value, _) in kv.items()}
    for key, (value, lineno) in kv.items():
        if not value:
            raise ParameterError(f"line {lineno}: {key} is empty; give a spectrum CSV's path")
    result = {}
    if "red_csv" in keys or "blue_csv" in keys:
        if not ("red_csv" in keys and "blue_csv" in keys):
            raise ParameterError("sideband thermometry needs both red_csv and blue_csv")
        if "sideband_csv" in keys:
            raise ParameterError(
                "give either sideband_csv or red_csv + blue_csv, not both"
            )
        jobs = [partial(_fit_spectrum, keys[key]) for key in ("red_csv", "blue_csv")]
        shares = [[0], [1]] if _usable_cpus() > 1 else [[0, 1]]
        fit = SidebandFit.from_fits(*_run_shares(jobs, shares))
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
        fmt = args.fmt or "csv"
        if args.command == "calibrate":
            _cmd_calibrate(args)
        elif args.command == "limits":
            _write_out(_cmd_limits(args), fmt, args.out)
        elif args.command == "reproduce-figure":
            _write_out(reproduce_figure(args.figure_id), fmt, args.out)
        else:  # spectrum, variational or synodyne
            _write_out(_cmd_sweep(args), fmt, args.out)
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


def run():
    """Process entry point: exit with main()'s code.  Only for a process that
    ends with this command; in-process callers use main(argv)."""
    try:
        sys.exit(main())
    finally:
        # Shutdown otherwise spends 0.12-0.19 s in the final garbage
        # collections over the ~51k GC-tracked objects that importing numpy
        # and scipy.optimize leaves.  gc.freeze() moves them into the
        # permanent generation, which those collections skip; stdio is still
        # flushed, atexit handlers still run and acyclic objects are still
        # freed by refcount.  The cost: cyclic garbage left at exit is never
        # collected, so nothing may rely on a finalizer in a reference cycle.
        # Every file the CLI opens is closed explicitly for that reason.
        gc.freeze()


if __name__ == "__main__":
    run()
