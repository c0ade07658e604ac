"""Output checker for the benchmark workloads.

Every check compares numbers within a stated tolerance and never compares
bytes, so a change that moves values at the ulp level (a vectorized
evaluation, say) still passes while a wrong table fails.  Each function
returns a list of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

import numpy as np

from noisebudget import Detection, MechanicalMode, displacement_psd

from workloads import FIGURE_ROWS, LIMITS, SIDEBANDS, STITCHED

COLUMNS = (
    "rho", "phi_used", "p", "s_m", "s_ii", "s_ff", "s_corr", "s_ln", "total",
    "total_over_sql",
)
RHO, PHI, P, TERMS, TOTAL, OVER_SQL = 0, 1, 2, slice(3, 8), 8, 9

# total = sum of the five terms and total_over_sql = total * sqrt(1 + rho^2),
# relative to the sum of the terms' magnitudes: a few ulp of float64
RTOL_IDENTITY = 1e-12
# spot rows against noisebudget.displacement_psd, relative to the sum of the
# terms' magnitudes: loose enough for a reordered evaluation, tight enough
# that any wrong term fails
RTOL_SPOT = 1e-9
# calibrate results against the generated truth; the fit's scatter over seeds
# is 0.24% (n_th) and 0.11% (gamma) at the generated noise level
RTOL_N_TH = 0.02
RTOL_GAMMA = 0.01
# a stitch angle is one of the candidates to within this many degrees
ANGLE_ATOL_DEG = 1e-9
SPOT_ROWS_PER_FIGURE_CURVE = 4


def read_csv_table(path) -> tuple:
    """(metadata, rows x 10 array) of a CSV table written by the CLI."""
    meta, n = {}, 0
    lines = Path(path).read_text().splitlines()
    while n < len(lines) and lines[n].startswith("# "):
        key, _, value = lines[n][2:].partition(": ")
        meta[key] = json.loads(value)
        n += 1
    if n == len(lines) or lines[n] != ",".join(COLUMNS):
        raise ValueError("missing or unexpected header row")
    data = [line for line in lines[n + 1:] if line]
    table = np.loadtxt(data, delimiter=",", ndmin=2) if data else np.empty((0, 10))
    return meta, table


def read_jsonl_table(path) -> tuple:
    """(metadata, rows x 10 array) of a JSON-lines table written by the CLI."""
    with open(path) as fh:
        meta = json.loads(fh.readline())["metadata"]
        rows = json.loads("[" + ",".join(fh) + "]")
    get = operator.itemgetter(*COLUMNS)
    return meta, np.array([get(row) for row in rows], dtype=float).reshape(-1, len(COLUMNS))


def homodyne_totals(rho, p, phi_deg, epsilon, n_th):
    """Total displacement PSD of fixed-angle homodyne readout, computed here
    from the model's formulas rather than by the package."""
    chim2 = 1.0 / (1.0 + rho**2)
    cot = 1.0 / np.tan(np.radians(phi_deg))
    return (
        2.0 * (n_th + 0.5) * chim2
        + (1.0 + cot**2) / (2.0 * epsilon * p)
        + 0.5 * p * chim2
        - cot * rho * chim2
    )


def table_failures(name: str, table: np.ndarray, rows: int) -> list:
    """Row count, finiteness and the two identities every table row obeys."""
    if len(table) != rows:
        return [f"{name}: {len(table)} rows, expected {rows}"]
    if not np.isfinite(table).all():
        return [f"{name}: non-finite cell"]
    fails = []
    terms, total, rho = table[:, TERMS], table[:, TOTAL], table[:, RHO]
    scale = np.abs(terms).sum(axis=1)
    bad = np.abs(terms.sum(axis=1) - total) > RTOL_IDENTITY * scale
    if bad.any():
        fails.append(f"{name}: total != sum of terms on {bad.sum()} rows")
    over_sql = total * np.sqrt(1.0 + rho**2)
    bad = np.abs(table[:, OVER_SQL] - over_sql) > RTOL_IDENTITY * np.abs(over_sql)
    if bad.any():
        fails.append(f"{name}: total_over_sql != total*sqrt(1+rho^2) on {bad.sum()} rows")
    return fails


def stitch_failures(name, table, angles_deg, epsilon, n_th) -> list:
    """Every row uses a candidate angle and its total is <= each candidate's."""
    angles = np.asarray(angles_deg, dtype=float)
    off = np.abs(table[:, PHI, None] - angles).min(axis=1) > ANGLE_ATOL_DEG
    fails = [f"{name}: stitch angle not a candidate on {off.sum()} rows"] if off.any() else []
    rho, p = table[:, RHO], table[:, P]
    best = np.min([homodyne_totals(rho, p, a, epsilon, n_th) for a in angles], axis=0)
    worse = table[:, TOTAL] > best * (1.0 + RTOL_IDENTITY)
    if worse.any():
        fails.append(f"{name}: stitched total above a candidate angle's on {worse.sum()} rows")
    return fails


def _terms(comps) -> np.ndarray:
    return np.array([comps.s_m, comps.s_ii, comps.s_ff, comps.s_corr, comps.s_ln])


def _mismatch(got, comps) -> bool:
    ref = _terms(comps)
    tol = RTOL_SPOT * np.abs(ref).sum()
    return bool(np.any(np.abs(got[TERMS] - ref) > tol) or abs(got[TOTAL] - ref.sum()) > tol)


def spot_failures(name, table, indices, epsilon, n_th) -> list:
    """Chosen rows against noisebudget.displacement_psd at the row's own
    rho, power and angle."""
    det = Detection(epsilon)
    mode = MechanicalMode(omega_m=1.0, gamma=1e-6, n_th=n_th)
    bad = [
        int(i) for i in indices
        if _mismatch(table[i], displacement_psd(
            float(table[i, RHO]), float(table[i, P]),
            math.radians(table[i, PHI]), det, mode,
        ))
    ]
    return [f"{name}: rows {bad} differ from displacement_psd"] if bad else []


def check_sweep(plan) -> list:
    try:
        _, table = read_csv_table(plan["out"])
    except (OSError, ValueError) as exc:
        return [f"spectrum: unreadable output ({exc})"]
    fails = table_failures("spectrum", table, plan["rows"])
    if fails:
        return fails
    cfg = STITCHED
    grid = np.repeat(np.linspace(cfg["rho_min"], cfg["rho_max"], cfg["rho_count"]), 2)
    powers = np.tile(cfg["powers"], cfg["rho_count"])
    if np.any(np.abs(table[:, RHO] - grid) > 1e-12 * cfg["rho_max"]) or np.any(
        table[:, P] != powers
    ):
        fails.append("spectrum: rows are not the rho-major grid x powers")
    args = (cfg["epsilon"], cfg["n_th"])
    fails += stitch_failures("spectrum", table, cfg["stitch_angles_deg"], *args)
    return fails + spot_failures("spectrum", table, plan["spot"], *args)


def check_limits(plan) -> list:
    out = Path(plan["out"])
    tables = {}
    for curve in ("sql", "ql"):
        path = out.with_name(f"{out.stem}.{curve}{out.suffix}")
        try:
            tables[curve] = read_jsonl_table(path)[1]
        except (OSError, ValueError, KeyError) as exc:
            return [f"limits.{curve}: unreadable output ({exc})"]
    fails = []
    for curve, table in tables.items():
        fails += table_failures(f"limits.{curve}", table, plan["rows"] // 2)
    if fails:
        return fails
    eps, n_th = LIMITS["epsilon"], LIMITS["n_th"]
    for i in plan["spot"]:
        rho = float(tables["sql"][i, RHO])
        # the SQL is the phase-quadrature added noise at its optimal power
        # 1/|chi_m|; the QL is the full PSD at the optimal power and angle
        sql = displacement_psd(
            rho, math.sqrt(1.0 + rho**2), math.pi / 2, Detection(1.0),
            MechanicalMode(omega_m=1.0, gamma=1e-6),
        )
        chim2 = 1.0 / (1.0 + rho**2)
        p = 1.0 / (math.sqrt(eps * (1.0 + (1.0 - eps) * rho**2)) * chim2)
        phi = math.atan2(1.0, eps * p * rho * chim2)
        ql = _terms(displacement_psd(
            rho, p, phi, Detection(eps), MechanicalMode(omega_m=1.0, gamma=1e-6, n_th=n_th)
        ))
        for curve, got, want, scale in (
            ("sql", tables["sql"][i, TOTAL], sql.s_ii + sql.s_ff, sql.s_ii + sql.s_ff),
            ("ql", tables["ql"][i, TOTAL], ql.sum(), np.abs(ql).sum()),
            ("ql", tables["ql"][i, 3], ql[0], ql[0]),
        ):
            if abs(got - want) > RTOL_SPOT * scale:
                fails.append(f"limits.{curve}: row {i} differs from displacement_psd")
    return fails


def check_figure(plan, fig_id: str) -> list:
    out_dir = Path(plan["out_dir"])
    paths = sorted(out_dir.glob(f"fig-{fig_id}.*csv"))
    rng = np.random.default_rng([plan["spot_seed"], list(FIGURE_ROWS).index(fig_id)])
    fails, total_rows = [], 0
    for path in paths:
        name = f"{fig_id}:{path.name}"
        try:
            meta, table = read_csv_table(path)
        except (OSError, ValueError) as exc:
            fails.append(f"{name}: unreadable output ({exc})")
            continue
        total_rows += len(table)
        file_fails = table_failures(name, table, len(table))
        if file_fails:
            fails += file_fails
            continue
        curve, params = meta.get("curve", ""), meta.get("params", {})
        if curve == "stitched":
            fails += stitch_failures(
                name, table, params["angles_deg"], params["epsilon"], params["n_th"]
            )
        homodyne = curve not in ("sql", "ql", "light_psd") and not curve.startswith("synodyne")
        if homodyne and "epsilon" in params and "n_th" in params:
            spot = rng.choice(len(table), min(SPOT_ROWS_PER_FIGURE_CURVE, len(table)), replace=False)
            fails += spot_failures(name, table, spot, params["epsilon"], params["n_th"])
    if total_rows != FIGURE_ROWS[fig_id]:
        fails.append(f"{fig_id}: {total_rows} rows, expected {FIGURE_ROWS[fig_id]}")
    return fails


def count_figure_rows(plan) -> int:
    """Data rows in all figure outputs of the plan."""
    return sum(
        len(read_csv_table(path)[1]) for path in Path(plan["out_dir"]).glob("fig-*.csv")
    )


def check_calibrate(plan) -> list:
    try:
        result = json.loads(Path(plan["out"]).read_text())["sidebands"]
        n_th, gamma_hz = result["n_th"], result["gamma_fit_hz"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"calibrate: unreadable output ({exc})"]
    if not all(math.isfinite(v) for v in result.values()):
        return ["calibrate: non-finite value"]
    return calibrate_failures(n_th, gamma_hz)


def calibrate_failures(n_th, gamma_hz) -> list:
    fails = []
    for name, got, truth, rtol in (
        ("n_th", n_th, SIDEBANDS["n_th"], RTOL_N_TH),
        ("gamma_fit_hz", gamma_hz, SIDEBANDS["gamma_hz"], RTOL_GAMMA),
    ):
        if not (math.isfinite(got) and abs(got / truth - 1.0) <= rtol):
            fails.append(f"calibrate: {name} = {got}, truth {truth} (rtol {rtol})")
    return fails


def check_operation(plan: dict, operation: str) -> list:
    """Failures of one CLI operation of the plan's workload."""
    workload = plan["workload"]
    if workload == "sweep-stitched":
        return check_sweep(plan)
    if workload == "limits-jsonl":
        return check_limits(plan)
    if workload == "figures-cli":
        return check_figure(plan, operation)
    return check_calibrate(plan)
