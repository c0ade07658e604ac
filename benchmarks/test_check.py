"""Tests of the benchmark's output checker.

    python3 -m pytest benchmarks -q

Clean CLI output for every workload must pass; each corruption must fail.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from noisebudget import Detection, MechanicalMode, displacement_psd  # noqa: E402
from noisebudget.cli import main as cli_main  # noqa: E402


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """Every workload generated for seed 0 and run through the CLI in process."""
    base = tmp_path_factory.mktemp("outputs")
    out = {}
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, 0, base / name)
        for _, argv in workloads.commands(plan):
            assert cli_main(argv) == 0
        out[name] = plan
    return out


def _copy_plan(plan, tmp_path) -> dict:
    """The plan with its directory copied, so a test can corrupt outputs."""
    directory = tmp_path / plan["workload"]
    shutil.copytree(plan["dir"], directory)
    return {
        key: value.replace(plan["dir"], str(directory)) if isinstance(value, str) else value
        for key, value in plan.items()
    }


def _edit_csv_row(path, index: int, edit):
    """Replace data row index of a CLI CSV table by edit(its values)."""
    lines = Path(path).read_text().splitlines()
    start = lines.index(",".join(check.COLUMNS)) + 1
    values = [float(v) for v in lines[start + index].split(",")]
    lines[start + index] = ",".join(repr(float(x)) for x in edit(values))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_clean_output_passes(plans, workload):
    plan = plans[workload]
    for operation, _ in workloads.commands(plan):
        assert check.check_operation(plan, operation) == []


def test_nan_cell_fails(plans, tmp_path):
    plan = _copy_plan(plans["sweep-stitched"], tmp_path)
    _edit_csv_row(plan["out"], 1234, lambda v: v[:4] + [math.nan] + v[5:])
    assert any("non-finite" in f for f in check.check_sweep(plan))


def test_dropped_row_fails(plans, tmp_path):
    plan = _copy_plan(plans["limits-jsonl"], tmp_path)
    path = Path(plan["dir"]) / "limits.ql.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:100] + lines[101:]))
    assert any("rows, expected" in f for f in check.check_limits(plan))


def test_dropped_figure_curve_fails(plans, tmp_path):
    plan = _copy_plan(plans["figures-cli"], tmp_path)
    (Path(plan["out_dir"]) / "fig-3b-model.stitched.csv").unlink()
    assert any("rows, expected" in f for f in check.check_figure(plan, "3b-model"))


def test_broken_additivity_fails(plans, tmp_path):
    plan = _copy_plan(plans["sweep-stitched"], tmp_path)
    _edit_csv_row(plan["out"], 777, lambda v: v[:3] + [v[3] * (1 + 1e-9)] + v[4:])
    assert any("sum of terms" in f for f in check.check_sweep(plan))


def test_wrong_stitch_angle_fails(plans, tmp_path):
    """A row moved to another candidate angle, with every column consistent
    at that angle, is caught only by the stitch check."""
    plan = _copy_plan(plans["sweep-stitched"], tmp_path)
    _, table = check.read_csv_table(plan["out"])
    cfg = workloads.STITCHED
    index = int(next(i for i in range(len(table)) if table[i, check.PHI] > 80))
    rho, p = float(table[index, check.RHO]), float(table[index, check.P])
    comps = displacement_psd(
        rho, p, math.radians(45.0), Detection(cfg["epsilon"]),
        MechanicalMode(omega_m=1.0, gamma=1e-6, n_th=cfg["n_th"]),
    )
    total = comps.s_m + comps.s_ii + comps.s_ff + comps.s_corr + comps.s_ln
    assert total > table[index, check.TOTAL]
    row = [rho, 45.0, p, comps.s_m, comps.s_ii, comps.s_ff, comps.s_corr, comps.s_ln,
           total, total * math.sqrt(1 + rho**2)]
    _edit_csv_row(plan["out"], index, lambda v: row)
    fails = check.check_sweep(plan)
    assert fails and all("stitched total above a candidate" in f for f in fails)


def test_wrong_n_th_fails(plans, tmp_path):
    plan = _copy_plan(plans["calibrate-sidebands"], tmp_path)
    path = Path(plan["out"])
    result = json.loads(path.read_text())
    result["sidebands"]["n_th"] *= 1.5
    path.write_text(json.dumps(result))
    assert any("n_th" in f for f in check.check_calibrate(plan))


def test_benchmark_refuses_checkout_without_package(tmp_path):
    """Given only the benchmark's own files, the run fails without a result."""
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep-stitched",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
