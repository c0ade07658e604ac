"""Figure-data reproduction: model curves at the reference parameter sets.

Each figure id maps to one or more SpectrumTables (data only, never images).
Experimental data points cannot be regenerated, so the 2/3-series ids carry a
'-model' suffix and emit theory curves only.

Column conventions for non-sweep curves: limit curves (SQL/QL) report the
probe-added noise in the s_ii column and the thermal + zero-point part in
s_m; light-PSD curves (id 1d) report the shot-noise floor of 1 in s_ii and
the mechanically induced terms scaled into light units.  In all cases
total = sum of the components, so every row re-validates the additivity
invariant on re-ingestion.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from .core import Detection, chi_m_dimensionless
from .errors import ParameterError
from .limits import phi_opt, ql_added_noise, sql_psd
from .spectra import homodyne_terms, light_terms
from .sweep import (
    NORMALIZATION_STATEMENT,
    SpectrumTable,
    SweepSpec,
    limit_columns,
    run_sweep,
    spectrum_columns,
)
from .synodyne import SynodyneLO, synodyne_added_noise, synodyne_terms
from . import __version__

FIGURE_IDS = (
    "1a",
    "1b",
    "1d",
    "2a-model",
    "2b-model",
    "3a-model",
    "3b-model",
    "S2a",
    "S2b",
)

# reference parameter sets for the figure data
_P_FIG1 = 50.0
_RHO_SLICE = 5.0
_P_FIG1D = 6.0
_EPS_EXP = 0.35
_NTH_EXP = 1.29
_P_FIG3B = 14.0
_P_FIG3B_INSET = 28.0
_P_S2 = 100.0
_BETA_S2 = 1.02
_PHI_S2_DEG = 5.8

_RHO_GRID = np.linspace(-20.0, 20.0, 401)
_P_GRID = np.logspace(-1.0, 3.0, 121)
_PHI_GRID_DEG = np.linspace(1.0, 179.0, 179)


def _meta(fig_id: str, curve: str, **params) -> dict:
    return {
        "artifact_version": __version__,
        "normalization": NORMALIZATION_STATEMENT,
        "figure": fig_id,
        "curve": curve,
        "params": params,
    }


def _fixed_phi(rho, p, phi_deg: float, epsilon: float, n_th: float) -> dict:
    """Fixed-angle homodyne columns; rho or p may be a grid."""
    comps = homodyne_terms(rho, p, math.radians(phi_deg), epsilon, n_th)
    return spectrum_columns(rho, phi_deg, p, comps)


def _variational(rho, p, epsilon: float, n_th: float) -> dict:
    """Columns at the correlation-optimal angle; rho or p may be a grid."""
    phi = phi_opt(rho, p, Detection(epsilon))
    comps = homodyne_terms(rho, p, phi, epsilon, n_th)
    return spectrum_columns(rho, np.degrees(phi), p, comps)


def _zpm(rho):
    return np.abs(chi_m_dimensionless(rho)) ** 2


def _broadband_limits(fig_id: str) -> Dict[str, SpectrumTable]:
    """SQL (power-optimized, plus zero point) and ideal-detector QL curves."""
    grid, zpm = _RHO_GRID, _zpm(_RHO_GRID)
    return {
        "sql": SpectrumTable(
            _meta(fig_id, "sql", power_optimized=True, include_zpm=True),
            limit_columns(grid, sql_psd(grid), zpm, 90.0, 0.0),
        ),
        "ql": SpectrumTable(
            _meta(fig_id, "ql", power_optimized=True, epsilon=1.0, n_th=0.0),
            limit_columns(grid, ql_added_noise(grid, Detection(1.0)), zpm, 0.0, 0.0),
        ),
    }


def _fig_1a() -> Dict[str, SpectrumTable]:
    grid = _RHO_GRID
    out = {}
    for phi_deg in (90.0, 25.0):
        out[f"phi{phi_deg:g}"] = SpectrumTable(
            _meta("1a", f"phi{phi_deg:g}", p=_P_FIG1, epsilon=1.0, n_th=0.0),
            _fixed_phi(grid, _P_FIG1, phi_deg, 1.0, 0.0),
        )
    out["variational"] = SpectrumTable(
        _meta("1a", "variational", p=_P_FIG1, epsilon=1.0, n_th=0.0),
        _variational(grid, _P_FIG1, 1.0, 0.0),
    )
    out.update(_broadband_limits("1a"))
    return out


def _fig_1b() -> Dict[str, SpectrumTable]:
    rho = _RHO_SLICE
    zpm = _zpm(rho)
    out = {}
    for phi_deg in (90.0, 25.0):
        out[f"phi{phi_deg:g}"] = SpectrumTable(
            _meta("1b", f"phi{phi_deg:g}", rho=rho, epsilon=1.0, n_th=0.0),
            _fixed_phi(rho, _P_GRID, phi_deg, 1.0, 0.0),
        )
    out["variational"] = SpectrumTable(
        _meta("1b", "variational", rho=rho, epsilon=1.0, n_th=0.0),
        _variational(rho, _P_GRID, 1.0, 0.0),
    )
    out["ql"] = SpectrumTable(
        _meta("1b", "ql", rho=rho, epsilon=1.0, n_th=0.0),
        limit_columns(rho, ql_added_noise(rho, Detection(1.0)), zpm, 0.0, 0.0),
    )
    out["sql"] = SpectrumTable(
        _meta("1b", "sql", rho=rho, include_zpm=True),
        limit_columns(rho, sql_psd(rho), zpm, 90.0, 0.0),
    )
    return out


def _fig_1d() -> Dict[str, SpectrumTable]:
    comps = light_terms(_RHO_SLICE, np.radians(_PHI_GRID_DEG), _P_FIG1D, 1.0, 0.0)
    return {
        "light_psd": SpectrumTable(
            _meta("1d", "light_psd", rho=_RHO_SLICE, p=_P_FIG1D,
                  epsilon=1.0, n_th=0.0, units="shot-noise"),
            spectrum_columns(_RHO_SLICE, _PHI_GRID_DEG, _P_FIG1D, comps),
        )
    }


def _power_sweeps(fig_id: str, rhos, angles, key="rho{rho:g}_phi{phi:g}"):
    """Fixed-angle power sweeps at the experiment's efficiency and occupation."""
    out = {}
    for rho in rhos:
        for phi_deg in angles:
            name = key.format(rho=rho, phi=phi_deg)
            out[name] = SpectrumTable(
                _meta(fig_id, name, rho=rho, phi_deg=phi_deg,
                      epsilon=_EPS_EXP, n_th=_NTH_EXP),
                _fixed_phi(rho, _P_GRID, phi_deg, _EPS_EXP, _NTH_EXP),
            )
    return out


def _insets(fig_id: str, p: float, angles, **extra) -> Dict[str, SpectrumTable]:
    """Fixed-angle spectra over the figure grid at power p."""
    out = {}
    for phi_deg in angles:
        name = f"inset_phi{phi_deg:g}"
        out[name] = SpectrumTable(
            _meta(fig_id, name, p=p, phi_deg=phi_deg, epsilon=_EPS_EXP,
                  n_th=_NTH_EXP, **extra),
            _fixed_phi(_RHO_GRID, p, phi_deg, _EPS_EXP, _NTH_EXP),
        )
    return out


def _fig_2a() -> Dict[str, SpectrumTable]:
    return _power_sweeps("2a-model", (0.0, 2.5, 5.0, 10.0), (90.0,), key="rho{rho:g}")


def _fig_2b() -> Dict[str, SpectrumTable]:
    out = _power_sweeps("2b-model", (_RHO_SLICE, -_RHO_SLICE), (90.0, 45.0))
    out.update(_insets("2b-model", _P_FIG3B, (90.0, 45.0)))
    return out


def _fig_3a() -> Dict[str, SpectrumTable]:
    return _power_sweeps("3a-model", (_RHO_SLICE, -_RHO_SLICE), (45.0, 60.0, 75.0, 90.0))


def _fig_3b() -> Dict[str, SpectrumTable]:
    angles = (45.0, 60.0, 75.0, 90.0)
    stitched = SweepSpec(
        rho_min=float(_RHO_GRID[0]), rho_max=float(_RHO_GRID[-1]),
        rho_count=_RHO_GRID.size, powers=(_P_FIG3B,), epsilon=_EPS_EXP,
        n_th=_NTH_EXP, readout="stitched", stitch_angles_deg=angles,
    )
    out = {
        "stitched": SpectrumTable(
            _meta("3b-model", "stitched", p=_P_FIG3B, epsilon=_EPS_EXP,
                  n_th=_NTH_EXP, angles_deg=list(angles)),
            run_sweep(stitched).columns,
        ),
        "phi90": SpectrumTable(
            _meta("3b-model", "phi90", p=_P_FIG3B, epsilon=_EPS_EXP,
                  n_th=_NTH_EXP),
            _fixed_phi(_RHO_GRID, _P_FIG3B, 90.0, _EPS_EXP, _NTH_EXP),
        ),
    }
    out.update(_insets("3b-model", _P_FIG3B_INSET, angles,
                       note="total_over_sql column is the inset normalization"))
    return out


def _fig_s2a() -> Dict[str, SpectrumTable]:
    lo = SynodyneLO(_BETA_S2, 0.0)
    syn = synodyne_terms(_RHO_GRID, _P_S2, lo, 1.0, 0.0)
    return {
        "synodyne_beta1.02": SpectrumTable(
            _meta("S2a", "synodyne_beta1.02", p=_P_S2, beta=_BETA_S2,
                  phi_deg=0.0, epsilon=1.0, n_th=0.0),
            spectrum_columns(_RHO_GRID, 0.0, _P_S2, syn),
        ),
        "homodyne_phi5.8": SpectrumTable(
            _meta("S2a", "homodyne_phi5.8", p=_P_S2, phi_deg=_PHI_S2_DEG,
                  epsilon=1.0, n_th=0.0),
            _fixed_phi(_RHO_GRID, _P_S2, _PHI_S2_DEG, 1.0, 0.0),
        ),
        "homodyne_phi90": SpectrumTable(
            _meta("S2a", "homodyne_phi90", p=_P_S2, phi_deg=90.0,
                  epsilon=1.0, n_th=0.0),
            _fixed_phi(_RHO_GRID, _P_S2, 90.0, 1.0, 0.0),
        ),
    }


def _fig_s2b() -> Dict[str, SpectrumTable]:
    grid = _RHO_GRID
    return {
        "homodyne_variational": SpectrumTable(
            _meta("S2b", "homodyne_variational", p=_P_S2, epsilon=1.0, n_th=0.0),
            _variational(grid, _P_S2, 1.0, 0.0),
        ),
        "synodyne_variational": SpectrumTable(
            _meta("S2b", "synodyne_variational", p=_P_S2, epsilon=1.0, n_th=0.0),
            limit_columns(grid, synodyne_added_noise(grid, _P_S2, Detection(1.0)),
                          _zpm(grid), 0.0, _P_S2),
        ),
        **_broadband_limits("S2b"),
    }


_DISPATCH = {
    "1a": _fig_1a,
    "1b": _fig_1b,
    "1d": _fig_1d,
    "2a-model": _fig_2a,
    "2b-model": _fig_2b,
    "3a-model": _fig_3a,
    "3b-model": _fig_3b,
    "S2a": _fig_s2a,
    "S2b": _fig_s2b,
}


def reproduce_figure(fig_id: str) -> Dict[str, SpectrumTable]:
    """Model curves for a reference figure id, keyed by curve name."""
    if fig_id not in _DISPATCH:
        raise ParameterError(
            f"unknown figure id {fig_id!r}; supported: {', '.join(FIGURE_IDS)}"
        )
    return _DISPATCH[fig_id]()
