"""The four benchmark workloads: seeded inputs and the CLI commands run on them.

Inputs are written by this module's own numpy code, never by noisebudget's
writers, so a change to the package cannot change what it is fed.  The seed
picks the spot-check rows and draws the sideband noise; the sweep, limits
and figure configs are fixed so every seed does the same amount of work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-stitched", "limits-jsonl", "figures-cli", "calibrate-sidebands")

# rows each reproduce-figure id writes, summed over its curve files
FIGURE_ROWS = {
    "1a": 2005,
    "1b": 365,
    "1d": 179,
    "2a-model": 484,
    "2b-model": 1286,
    "3a-model": 968,
    "3b-model": 2406,
    "S2a": 1203,
    "S2b": 1604,
}

STITCHED = {
    "rho_min": -20.0,
    "rho_max": 20.0,
    "rho_count": 20001,
    "powers": (14.0, 28.0),
    "epsilon": 0.35,
    "n_th": 1.29,
    "stitch_angles_deg": (45.0, 60.0, 75.0, 90.0),
}

LIMITS = {
    "rho_min": -50.0,
    "rho_max": 50.0,
    "rho_count": 50001,
    "powers": (14.0,),
    "angles_deg": (90.0,),
    "epsilon": 0.35,
    "n_th": 1.29,
}

# offset-Lorentzian sideband pair in shot-noise units; a_red / a_blue = 1 + 1/n_th
SIDEBANDS = {
    "center_hz": 1.596e6,
    "gamma_hz": 340.0,
    "n_th": 1.29,
    "a_blue": 0.5,
    "offset": 1.0,
    "span_hz": 50e3,
    "samples": 100001,
    "noise_sigma": 0.01,
}

SPOT_ROWS = 32


def _config_text(values: dict, readout: str) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines.append(f"readout = {readout}")
    return "\n".join(lines) + "\n"


def _sideband_samples(amplitude: float, rng) -> np.ndarray:
    sb = SIDEBANDS
    f = np.linspace(
        sb["center_hz"] - sb["span_hz"] / 2, sb["center_hz"] + sb["span_hz"] / 2,
        sb["samples"],
    )
    hw2 = (sb["gamma_hz"] / 2) ** 2
    psd = sb["offset"] + amplitude * hw2 / (hw2 + (f - sb["center_hz"]) ** 2)
    psd += rng.normal(0.0, sb["noise_sigma"], f.size)
    return np.column_stack([f, psd])


def generate(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's inputs under directory; return the plan that the
    runner, the checker and the traced replay share."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    directory.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed, "dir": str(directory)}
    if workload == "sweep-stitched":
        cfg = directory / "stitched.cfg"
        cfg.write_text(_config_text(STITCHED, "stitched"))
        rows = STITCHED["rho_count"] * len(STITCHED["powers"])
        plan.update(config=str(cfg), rows=rows, out=str(directory / "sweep.csv"), grid=STITCHED)
        plan["spot"] = sorted(rng.choice(rows, SPOT_ROWS, replace=False).tolist())
    elif workload == "limits-jsonl":
        cfg = directory / "limits.cfg"
        cfg.write_text(_config_text(LIMITS, "homodyne"))
        rows = LIMITS["rho_count"]
        plan.update(config=str(cfg), rows=2 * rows, out=str(directory / "limits.jsonl"), grid=LIMITS)
        plan["spot"] = sorted(rng.choice(rows, SPOT_ROWS, replace=False).tolist())
    elif workload == "figures-cli":
        plan.update(rows=sum(FIGURE_ROWS.values()), out_dir=str(directory))
        plan["spot_seed"] = int(rng.integers(2**31))
    elif workload == "calibrate-sidebands":
        sb = SIDEBANDS
        a_red = sb["a_blue"] * (1.0 + 1.0 / sb["n_th"])
        paths = {}
        for name, amplitude in (("red", a_red), ("blue", sb["a_blue"])):
            path = directory / f"{name}.csv"
            np.savetxt(
                path, _sideband_samples(amplitude, rng), fmt="%.17g", delimiter=",",
                header="frequency_hz,psd_shotnoise_units", comments="",
            )
            paths[name] = str(path)
        cfg = directory / "calibrate.cfg"
        cfg.write_text(f"red_csv = {paths['red']}\nblue_csv = {paths['blue']}\n")
        plan.update(
            config=str(cfg), red=paths["red"], blue=paths["blue"],
            rows=2 * sb["samples"], out=str(directory / "calibrate.json"),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def commands(plan: dict) -> list:
    """(operation name, CLI argv) pairs, run one after another."""
    workload = plan["workload"]
    if workload == "sweep-stitched":
        return [("spectrum", ["--config", plan["config"], "--out", plan["out"], "spectrum"])]
    if workload == "limits-jsonl":
        argv = ["--config", plan["config"], "--format", "jsonl", "--out", plan["out"], "limits"]
        return [("limits", argv)]
    if workload == "figures-cli":
        out_dir = Path(plan["out_dir"])
        return [
            (fig_id, ["--out", str(out_dir / f"fig-{fig_id}.csv"), "reproduce-figure", fig_id])
            for fig_id in FIGURE_ROWS
        ]
    return [("calibrate", ["--config", plan["config"], "--out", plan["out"], "calibrate"])]
