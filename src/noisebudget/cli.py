"""Command-line interface.

Subcommands: spectrum, limits, variational, synodyne, calibrate,
reproduce-figure.  Exit codes: 0 success, 2 validation error, 3 domain
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    fit_lorentzian,
    fit_sidebands,
    n_th_from_sidebands,
    read_spectrum_csv,
)
from .core import Detection, chi_m_dimensionless
from .errors import DomainError, ParameterError
from .figures import FIGURE_IDS, reproduce_figure
from .limits import ql_added_noise, sql_psd
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
        "--format", choices=("csv", "jsonl"), default="csv", dest="fmt"
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


def _read_config(args) -> str:
    if args.config is None:
        raise ParameterError("this command needs --config <path>")
    return args.config.read_text(encoding="utf-8")


def _write_tables(tables: dict, args):
    if args.out is None:
        for name, table in tables.items():
            sys.stdout.write(f"# --- {name} ---\n")
            emit_table(table, args.fmt, sys.stdout)
        return
    if len(tables) == 1:
        (table,) = tables.values()
        emit_table(table, args.fmt, args.out)
        return
    for name, table in tables.items():
        path = args.out.with_name(f"{args.out.stem}.{name}{args.out.suffix}")
        emit_table(table, args.fmt, path)


def _cmd_sweep(args, readout_override=None) -> dict:
    spec = parse_config(_read_config(args))
    if readout_override is not None:
        spec = replace(spec, readout=readout_override)
    return {"sweep": run_sweep(spec)}


def _cmd_limits(args) -> dict:
    spec = parse_config(_read_config(args))
    grid = spec.rho_grid()
    meta = spec.metadata()
    ql_thermal = 2.0 * (spec.n_th + 0.5) * np.abs(chi_m_dimensionless(grid)) ** 2
    ql_added = ql_added_noise(grid, Detection(spec.epsilon))
    return {
        "sql": SpectrumTable(
            dict(meta, curve="sql"), limit_columns(grid, sql_psd(grid), 0.0, 0.0, 0.0)
        ),
        "ql": SpectrumTable(
            dict(meta, curve="ql"), limit_columns(grid, ql_added, ql_thermal, 0.0, 0.0)
        ),
    }


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
        fit = fit_sidebands(
            read_spectrum_csv(keys["red_csv"]), read_spectrum_csv(keys["blue_csv"])
        )
        result["sidebands"] = {
            "gamma_fit_hz": fit.gamma_fit,
            "a_red": fit.a_red,
            "a_blue": fit.a_blue,
            "offset": fit.offset,
            "residual_rms": fit.residual_rms,
            "n_th": n_th_from_sidebands(fit.a_red, fit.a_blue),
        }
    elif "sideband_csv" in keys:
        fit = fit_lorentzian(read_spectrum_csv(keys["sideband_csv"]))
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
