"""Traced replay: all four workload pipelines in one process, with a span
around every call into a noisebudget module.

    python3 benchmarks/replay.py --plans PLANS.json --workload NAME --spans OUT.json

The replay calls each workload's public functions in the order its CLI
command does.  Work that sits behind a private function (the limits row
building in cli._cmd_limits, the three passes inside run_sweep) is spanned at
the nearest public call, and the public calls it wraps are timed again
separately on inputs of the same size ("probe" spans).  Spans stay in memory
and are written to OUT.json when the replay ends.  Nothing heavier than the
standard library is imported before the import span, so that span covers
numpy, scipy and the package.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

PARSE_CONFIG_CALLS = 200
SQL_QL_CALLS = 50


class Tracer:
    """Spans in memory: name, start, end, parent span id and workload id."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, workload=None, calls: int = 1):
        span = {
            "id": len(self.spans), "name": name, "workload": workload, "calls": calls,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(span)
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def _emit_like_cli(emit_table, tables: dict, out: Path):
    """Write tables with the CLI's --out naming: one table to out itself,
    several to out.<curve><suffix>."""
    if len(tables) == 1:
        emit_table(next(iter(tables.values())), "csv", out)
        return
    for name, table in tables.items():
        emit_table(table, "csv", out.with_name(f"{out.stem}.{name}{out.suffix}"))


def replay_sweep(tr, nb, plan, keep):
    w = plan["workload"]
    text = Path(plan["config"]).read_text()
    with tr.span("sweep.parse_config", w):
        spec = nb.sweep.parse_config(text)
    with tr.span("sweep.run_sweep", w):
        table = nb.sweep.run_sweep(spec)
    with tr.span("sweep.emit_table", w):
        nb.sweep.emit_table(table, "csv", plan["out"])


def replay_limits(tr, nb, plan, keep):
    ((_, argv),) = plan["commands"]
    with tr.span("cli.main", plan["workload"]):
        keep["limits_exit"] = nb.cli.main(argv)


def replay_figures(tr, nb, plan, keep):
    w = plan["workload"]
    for fig_id, argv in plan["commands"]:
        with tr.span("figures.reproduce_figure", w):
            tables = nb.figures.reproduce_figure(fig_id)
        with tr.span("sweep.emit_table", w):
            _emit_like_cli(nb.sweep.emit_table, tables, Path(argv[1]))


def replay_calibrate(tr, nb, plan, keep):
    w = plan["workload"]
    cal = nb.calibration
    with tr.span("calibration.read_spectrum_csv", w):
        red = cal.read_spectrum_csv(plan["red"])
    with tr.span("calibration.read_spectrum_csv", w):
        blue = cal.read_spectrum_csv(plan["blue"])
    with tr.span("calibration.fit_sidebands", w):
        fit = cal.fit_sidebands(red, blue)
    with tr.span("calibration.n_th_from_sidebands", w):
        n_th = cal.n_th_from_sidebands(fit.a_red, fit.a_blue)
    keep["calibrate"] = {"n_th": n_th, "gamma_fit_hz": fit.gamma_fit}


REPLAYS = {
    "sweep-stitched": replay_sweep,
    "limits-jsonl": replay_limits,
    "figures-cli": replay_figures,
    "calibrate-sidebands": replay_calibrate,
}


def probes(tr, nb, np, plans, workload):
    """The public calls behind private work, timed on the workloads' sizes,
    plus in-process cli.main for the traced workload's command."""
    if not any(s["name"] == "cli.main" and s["workload"] == workload for s in tr.spans):
        for _, argv in plans[workload]["commands"]:
            with tr.span("cli.main", workload):
                nb.cli.main(argv)

    st = plans["sweep-stitched"]
    w = st["workload"]
    text = Path(st["config"]).read_text()
    with tr.span("sweep.parse_config", w, calls=PARSE_CONFIG_CALLS):
        for _ in range(PARSE_CONFIG_CALLS):
            nb.sweep.parse_config(text)
    # the three passes of the stitched sweep, on its own grid and powers
    cfg = st["grid"]
    grid = np.linspace(cfg["rho_min"], cfg["rho_max"], cfg["rho_count"])
    det = nb.Detection(cfg["epsilon"])
    mode = nb.MechanicalMode(omega_m=1.0, gamma=1e-6, n_th=cfg["n_th"])
    angles = [math.radians(a) for a in cfg["stitch_angles_deg"]]
    for p in cfg["powers"]:
        with tr.span("limits.fixed_angle_spectrum", w, calls=len(angles) * grid.size):
            curves = [nb.limits.fixed_angle_spectrum(grid, p, a, det, mode) for a in angles]
        with tr.span("limits.stitch_quadratures", w, calls=grid.size):
            chosen = nb.limits.stitch_quadratures(curves).chosen_phi
        with tr.span("spectra.displacement_psd", w, calls=grid.size):
            for rho, phi in zip(grid.tolist(), chosen.tolist()):
                nb.spectra.displacement_psd(rho, p, phi, det, mode)

    lim = plans["limits-jsonl"]
    w = lim["workload"]
    cfg = lim["grid"]
    grid = np.linspace(cfg["rho_min"], cfg["rho_max"], cfg["rho_count"])
    det = nb.Detection(cfg["epsilon"])
    with tr.span("limits.sql_ql", w, calls=SQL_QL_CALLS * grid.size):
        for _ in range(SQL_QL_CALLS):
            nb.limits.sql_psd(grid)
            nb.limits.ql_added_noise(grid, det)
    # the limits tables themselves, rebuilt through the public CSV round trip,
    # for the JSON-lines serialization that cli.main wraps
    out = Path(lim["dir"]) / "probe.csv"
    nb.cli.main(["--config", lim["config"], "--out", str(out), "limits"])
    tables = [nb.sweep.load_table_csv(out.with_name(f"probe.{c}.csv")) for c in ("sql", "ql")]
    paths = [out.with_name(f"probe.{c}.jsonl") for c in ("sql", "ql")]
    with tr.span("sweep.emit_table_jsonl", w, calls=lim["rows"]) as span:
        for table, path in zip(tables, paths):
            nb.sweep.emit_table(table, "jsonl", path)
    span["bytes"] = sum(path.stat().st_size for path in paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plans", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=tuple(REPLAYS))
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)
    plans = json.loads(args.plans.read_text())

    tr = Tracer()
    with tr.span("import.noisebudget"):
        import numpy as np

        import noisebudget as nb
        from noisebudget import calibration, cli, figures, limits, spectra, sweep  # noqa: F401
    keep = {}
    for workload, replay in REPLAYS.items():
        with tr.span("replay", workload):
            replay(tr, nb, plans[workload], keep)
    with tr.span("probes", args.workload):
        probes(tr, nb, np, plans, args.workload)
    args.spans.write_text(json.dumps({
        "spans": tr.spans,
        "limits_exit": keep["limits_exit"],
        "calibrate": keep["calibrate"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
