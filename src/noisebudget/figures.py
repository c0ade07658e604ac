"""Figure-data reproduction: model curves at the reference parameter sets.

Each figure id maps to one or more SpectrumTables (data only, never images).
Experimental data points cannot be regenerated, so the 2/3-series ids carry a
'-model' suffix and emit theory curves only.  Each curve is one
sweep.curve_columns call, whose docstring gives the column conventions of
each kind of curve.
"""

from __future__ import annotations

import copy
from typing import Dict

import numpy as np

from .errors import ParameterError
from .sweep import NORMALIZATION_STATEMENT, SpectrumTable, curve_columns
from . import __version__

# reference parameter sets for the figure data
_IDEAL = {"epsilon": 1.0, "n_th": 0.0}
_EXP = {"epsilon": 0.35, "n_th": 1.29}  # the experiment's efficiency and occupation
_STITCH_ANGLES = (45.0, 60.0, 75.0, 90.0)
_GRID = np.linspace(-20.0, 20.0, 401)  # rho
_P_GRID = np.logspace(-1.0, 3.0, 121)
_PHI_GRID_DEG = np.linspace(1.0, 179.0, 179)


def _power_sweeps(rhos, angles, key="rho{rho:g}_phi{phi:g}") -> list:
    """Fixed-angle power sweeps at the experiment's efficiency and occupation."""
    return [
        (key.format(rho=rho, phi=phi), "homodyne", (rho, _P_GRID, phi),
         dict(_EXP, rho=rho, phi_deg=phi))
        for rho in rhos for phi in angles
    ]


def _insets(p: float, angles, **extra) -> list:
    """Fixed-angle spectra over the figure grid at power p."""
    return [
        (f"inset_phi{phi:g}", "homodyne", (_GRID, p, phi),
         dict(_EXP, p=p, phi_deg=phi, **extra))
        for phi in angles
    ]


# power-optimized SQL (plus zero point) and ideal-detector QL over the grid
_BROADBAND_LIMITS = [
    ("sql", "sql_zpm", (_GRID, 0.0, 90.0), {"power_optimized": True, "include_zpm": True}),
    ("ql", "ql", (_GRID, 0.0, 0.0), dict(_IDEAL, power_optimized=True)),
]

# Per figure id, its curves in output order as (name, kind, inputs, metadata
# params).  inputs are curve_columns' (rho, p, phi_deg[, beta]); epsilon and
# n_th come from params, so the metadata names what was evaluated, and default
# to an ideal detector in the ground state where params name neither (the SQL).
_FIGURES = {
    "1a": [
        ("phi90", "homodyne", (_GRID, 50.0, 90.0), dict(_IDEAL, p=50.0)),
        ("phi25", "homodyne", (_GRID, 50.0, 25.0), dict(_IDEAL, p=50.0)),
        ("variational", "variational", (_GRID, 50.0, None), dict(_IDEAL, p=50.0)),
        *_BROADBAND_LIMITS,
    ],
    "1b": [
        ("phi90", "homodyne", (5.0, _P_GRID, 90.0), dict(_IDEAL, rho=5.0)),
        ("phi25", "homodyne", (5.0, _P_GRID, 25.0), dict(_IDEAL, rho=5.0)),
        ("variational", "variational", (5.0, _P_GRID, None), dict(_IDEAL, rho=5.0)),
        ("ql", "ql", (5.0, 0.0, 0.0), dict(_IDEAL, rho=5.0)),
        ("sql", "sql_zpm", (5.0, 0.0, 90.0), dict(rho=5.0, include_zpm=True)),
    ],
    "1d": [
        ("light_psd", "light", (5.0, 6.0, _PHI_GRID_DEG),
         dict(_IDEAL, rho=5.0, p=6.0, units="shot-noise")),
    ],
    "2a-model": _power_sweeps((0.0, 2.5, 5.0, 10.0), (90.0,), key="rho{rho:g}"),
    "2b-model": _power_sweeps((5.0, -5.0), (90.0, 45.0)) + _insets(14.0, (90.0, 45.0)),
    "3a-model": _power_sweeps((5.0, -5.0), _STITCH_ANGLES),
    "3b-model": [
        ("stitched", "stitched", (_GRID[:, None], 14.0, _STITCH_ANGLES),
         dict(_EXP, p=14.0, angles_deg=list(_STITCH_ANGLES))),
        ("phi90", "homodyne", (_GRID, 14.0, 90.0), dict(_EXP, p=14.0)),
        *_insets(28.0, _STITCH_ANGLES,
                 note="total_over_sql column is the inset normalization"),
    ],
    "S2a": [
        ("synodyne_beta1.02", "synodyne", (_GRID, 100.0, 0.0, 1.02),
         dict(_IDEAL, p=100.0, beta=1.02, phi_deg=0.0)),
        ("homodyne_phi5.8", "homodyne", (_GRID, 100.0, 5.8),
         dict(_IDEAL, p=100.0, phi_deg=5.8)),
        ("homodyne_phi90", "homodyne", (_GRID, 100.0, 90.0),
         dict(_IDEAL, p=100.0, phi_deg=90.0)),
    ],
    "S2b": [
        ("homodyne_variational", "variational", (_GRID, 100.0, None), dict(_IDEAL, p=100.0)),
        ("synodyne_variational", "synodyne_variational", (_GRID, 100.0, 0.0),
         dict(_IDEAL, p=100.0)),
        *_BROADBAND_LIMITS,
    ],
}
FIGURE_IDS = tuple(_FIGURES)


def reproduce_figure(fig_id: str) -> Dict[str, SpectrumTable]:
    """Model curves for a reference figure id, keyed by curve name."""
    if fig_id not in _FIGURES:
        raise ParameterError(
            f"unknown figure id {fig_id!r}; supported: {', '.join(FIGURE_IDS)}"
        )
    meta = {"artifact_version": __version__, "normalization": NORMALIZATION_STATEMENT}
    return {
        curve: SpectrumTable(
            dict(meta, figure=fig_id, curve=curve, params=copy.deepcopy(params)),
            curve_columns(
                kind, rho, p, phi_deg, params.get("epsilon", 1.0), params.get("n_th", 0.0), *beta
            ),
        )
        for curve, kind, (rho, p, phi_deg, *beta), params in _FIGURES[fig_id]
    }
