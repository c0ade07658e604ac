"""Sweep configuration, deterministic evaluation, and table serialization.

The config format is a flat key = value text document (UTF-8, '#' comments).
The keys are the fields of SweepSpec, each parsed by its declared type:

    rho_min, rho_max      grid bounds (log-symmetric: bounds on |rho|, > 0)
    rho_count             number of grid points (>= 2)
    powers                comma-separated normalized powers, each > 0
    rho_spacing           linear (default) | log-symmetric
    angles_deg            comma-separated homodyne angles in degrees
    epsilon               quantum efficiency (default 1)
    n_th                  thermal occupation (default 0)
    readout               homodyne (default) | synodyne | variational | stitched
    beta, synodyne_phi_deg   synodyne LO ratio and phase
    stitch_angles_deg     candidate angles for stitched readout
    c_aa, c_pp            fractional classical noise (default 0)
    kappa_hz, omega_m_hz, gamma_hz   cavity/mode frequencies in Hz (> 0),
                          required only when classical noise is nonzero;
                          gamma_hz / omega_m_hz must stay below the high-Q
                          threshold the dimensionless spectra assume

rho_min, rho_max, rho_count and powers are required.  Every other key, a
value that does not parse, a non-finite number and a repeated list value is
a ParameterError naming the key (CLI exit code 2).

Angles and ordinary frequencies (Hz) are converted to radians and rad/s at
this boundary; everything below works in angular units.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import (
    Dict, List, NamedTuple, Optional, Tuple, get_args, get_origin, get_type_hints,
)

import numpy as np

from . import __version__
from .core import (
    HIGH_Q_THRESHOLD, Detection, MechanicalMode, OpticalCavity, check_finite_fields,
    omega_from_rho,
)
from .errors import DivergenceError, ParameterError
from .limits import phi_opt, pick_quadrature, sql_psd
from .spectra import (
    ClassicalNoise,
    SpectrumComponents,
    classical_noise_displacement,
    homodyne_terms,
)
from .synodyne import SynodyneLO, synodyne_terms

NORMALIZATION_STATEMENT = (
    "dimensionless displacement PSD: zero-point motion contributes 1 on "
    "mechanical resonance; probe power p is normalized to the on-resonance "
    "SQL power; total_over_sql divides by the SQL added noise "
    "1/sqrt(1+rho^2)"
)

COLUMNS = (
    "rho",
    "phi_used",
    "p",
    "s_m",
    "s_ii",
    "s_ff",
    "s_corr",
    "s_ln",
    "total",
    "total_over_sql",
)

READOUTS = ("homodyne", "synodyne", "variational", "stitched")
SPACINGS = ("linear", "log-symmetric")
BLOCK_ROWS = 4096  # rows emit_table formats per writelines call


@dataclass(frozen=True)
class SweepSpec:
    """Sweep description, checked on construction: an invalid value raises
    ParameterError naming its key.  See the module docstring for the schema."""

    rho_min: float
    rho_max: float
    rho_count: int
    powers: Tuple[float, ...]
    rho_spacing: str = "linear"
    angles_deg: Tuple[float, ...] = ()
    epsilon: float = 1.0
    n_th: float = 0.0
    readout: str = "homodyne"
    beta: Optional[float] = None
    synodyne_phi_deg: float = 0.0
    stitch_angles_deg: Tuple[float, ...] = ()
    c_aa: float = 0.0
    c_pp: float = 0.0
    kappa_hz: Optional[float] = None
    omega_m_hz: Optional[float] = None
    gamma_hz: Optional[float] = None

    def __post_init__(self):
        check_finite_fields(self)
        for key, value in self.__dict__.items():
            if isinstance(value, tuple) and len(set(value)) < len(value):
                raise ParameterError(f"{key} must not repeat a value, got {value}")
        if self.rho_count < 2:
            raise ParameterError(f"rho_count must be >= 2, got {self.rho_count}")
        if self.rho_spacing not in SPACINGS:
            raise ParameterError(
                f"rho_spacing must be one of {SPACINGS}, got {self.rho_spacing!r}"
            )
        if self.rho_spacing == "linear" and not self.rho_min < self.rho_max:
            raise ParameterError("rho_min must be < rho_max")
        if self.rho_spacing == "log-symmetric" and not 0 < self.rho_min < self.rho_max:
            raise ParameterError(
                "log-symmetric grids need 0 < rho_min < rho_max (bounds on |rho|)"
            )
        if not self.powers:
            raise ParameterError("powers must list at least one value")
        if any(p <= 0 for p in self.powers):
            raise ParameterError("all powers must be > 0")
        Detection(self.epsilon)  # checks 0 < epsilon <= 1, naming the key
        if self.n_th < 0:
            raise ParameterError(f"n_th must be >= 0, got {self.n_th}")
        if self.readout not in READOUTS:
            raise ParameterError(
                f"readout must be one of {READOUTS}, got {self.readout!r}"
            )
        if self.readout == "homodyne" and not self.angles_deg:
            raise ParameterError("homodyne readout needs a non-empty angles_deg")
        if self.readout == "synodyne" and self.beta is None:
            raise ParameterError("synodyne readout needs beta")
        if self.readout == "stitched" and len(self.stitch_angles_deg) < 2:
            raise ParameterError("stitched readout needs >= 2 stitch_angles_deg")
        for key in ("kappa_hz", "omega_m_hz", "gamma_hz"):
            value = getattr(self, key)
            if value is not None and not value > 0:
                raise ParameterError(f"{key} must be > 0, got {value}")
        mode = self.mode()
        if mode is not None and not mode.is_high_q:
            raise ParameterError(
                f"gamma_hz / omega_m_hz must be < {HIGH_Q_THRESHOLD:g} (the "
                f"high-Q regime the spectra assume), got {self.gamma_hz} / "
                f"{self.omega_m_hz}"
            )
        if ClassicalNoise(self.c_aa, self.c_pp).is_zero:
            return
        if mode is None or self.kappa_hz is None:
            raise ParameterError(
                "classical noise needs kappa_hz, omega_m_hz and gamma_hz"
            )
        if self.readout == "synodyne":
            raise ParameterError(
                "synodyne readout does not model classical noise; "
                "set c_aa and c_pp to 0"
            )

    def mode(self) -> Optional[MechanicalMode]:
        """The mechanical mode in angular units, or None unless omega_m_hz
        and gamma_hz are both set."""
        if self.omega_m_hz is None or self.gamma_hz is None:
            return None
        return MechanicalMode(
            omega_m=2 * math.pi * self.omega_m_hz,
            gamma=2 * math.pi * self.gamma_hz,
            n_th=self.n_th,
        )

    def rho_grid(self) -> np.ndarray:
        if self.rho_spacing == "linear":
            return np.linspace(self.rho_min, self.rho_max, self.rho_count)
        half = self.rho_count // 2
        pos = np.logspace(
            math.log10(self.rho_min), math.log10(self.rho_max), half
        )
        parts = [-pos[::-1], pos]
        if self.rho_count % 2:
            parts.insert(1, np.zeros(1))
        return np.concatenate(parts)

    def to_text(self) -> str:
        """Serialize back to the flat key = value format (round-trips
        through parse_config); unset keys are left out."""
        lines = []
        for key, value in self.__dict__.items():
            if value is None or value == ():
                continue
            values = value if isinstance(value, tuple) else (value,)
            text = ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in values)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    def metadata(self) -> dict:
        return {
            "artifact_version": __version__,
            "normalization": NORMALIZATION_STATEMENT,
            "spec": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.__dict__.items()
            },
        }


def _parser(hint):
    """The parser of a config value of field type hint: Tuple[float, ...]
    is a comma-separated list, Optional[float] a float."""
    kind = get_args(hint)[0] if get_args(hint) else hint
    if get_origin(hint) is tuple:
        return lambda text: tuple(kind(v) for v in text.split(",") if v.strip())
    return kind


_PARSERS = {key: _parser(hint) for key, hint in get_type_hints(SweepSpec).items()}
_REQUIRED = [f.name for f in fields(SweepSpec) if f.default is MISSING]


def read_key_values(text: str, keys) -> dict:
    """Parse 'key = value' lines; '#' starts a comment.  Returns key ->
    (value, line_number); a key not in keys is rejected with its line."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParameterError(f"line {lineno}: empty key")
        if key not in keys:
            raise ParameterError(
                f"line {lineno}: unknown key {key!r}; known keys: {', '.join(keys)}"
            )
        if key in out:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        out[key] = (value, lineno)
    return out


def parse_config(text: str) -> SweepSpec:
    """Parse a sweep config document into a checked SweepSpec."""
    values = {}
    for key, (value, lineno) in read_key_values(text, _PARSERS).items():
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ParameterError(
                f"line {lineno}: bad value for {key!r}: {value!r} ({exc})"
            ) from None
    for key in _REQUIRED:
        if key not in values:
            raise ParameterError(f"missing required key {key!r}")
    return SweepSpec(**values)


class Row(NamedTuple):
    rho: float
    phi_used: float  # degrees, matching the config boundary convention
    p: float
    s_m: float
    s_ii: float
    s_ff: float
    s_corr: float
    s_ln: float
    total: float
    total_over_sql: float


@dataclass(eq=False)
class SpectrumTable:
    """Evaluated spectrum, stored by column.

    columns maps each name in COLUMNS to a finite 1-D float64 array, all of
    one length; rows is a read-only view that materialises one Row per index.
    """

    metadata: dict
    columns: Dict[str, np.ndarray]

    def __post_init__(self):
        self.columns = {c: np.asarray(self.columns[c], dtype=float) for c in COLUMNS}
        if {col.shape for col in self.columns.values()} != {self.columns["rho"].shape[:1]}:
            raise ParameterError("table columns must be 1-D arrays of one length")
        for name, values in self.columns.items():
            if not np.isfinite(values).all():
                raise DivergenceError(f"column {name} overflows float64 for this config")

    @property
    def rows(self) -> List[Row]:
        values = zip(*(col.tolist() for col in self.columns.values()))
        return list(map(Row._make, values))


def spectrum_columns(rho, phi_used, p, comps: SpectrumComponents) -> dict:
    """Table columns from arrays that broadcast together, flattened in C
    order; total and total_over_sql are derived from the five terms."""
    parts = np.broadcast_arrays(rho, phi_used, p, *comps.terms)
    columns = dict(zip(COLUMNS, (np.array(a, dtype=float).ravel() for a in parts)))
    total = SpectrumComponents(*(columns[c] for c in COLUMNS[3:8])).total
    columns["total"] = total
    columns["total_over_sql"] = total / sql_psd(columns["rho"])
    return columns


def limit_columns(rho, added, thermal, phi_deg: float, p: float) -> dict:
    """Columns of a reference curve: probe-added noise in s_ii, thermal +
    zero-point motion in s_m, the other terms zero."""
    comps = SpectrumComponents(thermal, added, 0.0, 0.0)
    return spectrum_columns(rho, phi_deg, p, comps)


def run_sweep(spec: SweepSpec) -> SpectrumTable:
    """Evaluate the sweep, rho-major then power then angle, deterministically.

    Each readout is one vectorized pass over the broadcast (rho, power,
    angle) grid.  Stitched readout keeps, per (rho, power), the candidate
    angle with the lowest total, classical noise included, as chosen by
    pick_quadrature: ties go to the angle nearest phase quadrature.
    """
    eps, n_th = spec.epsilon, spec.n_th
    rho = spec.rho_grid()[:, None, None]
    p = np.array(spec.powers)[None, :, None]
    noise = ClassicalNoise(spec.c_aa, spec.c_pp)

    def s_ln(phi):
        if noise.is_zero:
            return 0.0
        cav = OpticalCavity(kappa=2 * math.pi * spec.kappa_hz)
        omega = omega_from_rho(rho, spec.mode())
        return classical_noise_displacement(omega, phi, p, Detection(eps), cav, noise)

    if spec.readout == "synodyne":
        lo = SynodyneLO(spec.beta, math.radians(spec.synodyne_phi_deg))
        phi_deg = spec.synodyne_phi_deg
        comps = synodyne_terms(rho, p, lo, eps, n_th)
    elif spec.readout == "variational":
        phi = phi_opt(rho, p, Detection(eps))
        phi_deg = np.degrees(phi)
        comps = homodyne_terms(rho, p, phi, eps, n_th, s_ln(phi))
    else:  # homodyne, or stitched: one candidate angle kept per point
        stitched = spec.readout == "stitched"
        phi_deg = np.array(spec.stitch_angles_deg if stitched else spec.angles_deg)
        phi = np.radians(phi_deg)
        comps = homodyne_terms(rho, p, phi, eps, n_th, s_ln(phi))
        if stitched:
            pick = pick_quadrature(phi, comps.total)[..., None]
            comps = SpectrumComponents(*(np.take_along_axis(t, pick, 2) for t in comps.terms))
            phi_deg = phi_deg[pick]

    return SpectrumTable(spec.metadata(), spectrum_columns(rho, phi_deg, p, comps))


def emit_table(table: SpectrumTable, fmt: str, destination):
    """Serialize a table as CSV or JSON-lines.

    destination is a path or a text file object.  CSV carries the metadata
    as '# key: json' comment lines before the header; floats use 17
    significant digits so a re-ingested table is bit-identical.  JSON lines
    are always standard JSON with finite numbers, keys sorted; each float is
    its repr, which is what json.dumps writes for a finite float.

    A column whose values all share one bit pattern is formatted once, into
    the row template; the other columns are formatted BLOCK_ROWS rows at a
    time, so the writer's memory does not grow with the table's length.
    """
    if fmt not in ("csv", "jsonl"):
        raise ParameterError(f"format must be csv or jsonl, got {fmt!r}")
    own = isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")
    fh = open(destination, "w", newline="") if own else destination
    keys = COLUMNS if fmt == "csv" else sorted(COLUMNS)
    spec = "%.17g" if fmt == "csv" else "%r"
    cols = [table.columns[c] for c in keys]
    n = len(cols[0])
    same = [n > 0 and (c.view(np.uint64) == c.view(np.uint64)[0]).all() for c in cols]
    cells = [spec % c[0].item() if k else spec for c, k in zip(cols, same)]
    varying = [c for c, k in zip(cols, same) if not k]
    try:
        if fmt == "csv":
            for key, value in table.metadata.items():
                fh.write(f"# {key}: {json.dumps(value, sort_keys=True)}\n")
            fh.write(",".join(COLUMNS) + "\n")
            line = ",".join(cells) + "\n"
        else:
            fh.write(json.dumps({"metadata": table.metadata}, sort_keys=True) + "\n")
            line = "{%s}\n" % ", ".join(f"{json.dumps(k)}: {c}" for k, c in zip(keys, cells))
        for start in range(0, n, BLOCK_ROWS):
            block = [col[start:start + BLOCK_ROWS].tolist() for col in varying]
            rows = zip(*block) if block else [()] * min(BLOCK_ROWS, n - start)
            fh.writelines([line % row for row in rows])
    finally:
        if own:
            fh.close()


def table_to_string(table: SpectrumTable, fmt: str) -> str:
    buf = io.StringIO()
    emit_table(table, fmt, buf)
    return buf.getvalue()


def _metadata_item(path, lineno: int, line: str) -> tuple:
    """(key, value) of a '# key: <json>' metadata line; any other comment
    line is a ParameterError naming the line."""
    key, sep, value = line[2:].partition(": ")
    if line.startswith("# ") and sep:
        try:
            return key, json.loads(value)
        except ValueError:
            pass
    raise ParameterError(
        f"{path}: line {lineno}: expected a '# key: <json>' metadata line, got "
        f"{line!r}; stdout separates tables with '# --- <curve> ---' lines, so "
        "write a table to load with --out"
    )


def load_table_csv(path) -> SpectrumTable:
    """Re-ingest a CSV table written by emit_table (values bit-identical).

    Comment lines must be '# key: <json>' metadata, so a command's stdout,
    which starts each table with a '# --- <curve> ---' line, does not load:
    write the table with --out.  Blank lines are skipped; a malformed line
    is a ParameterError naming the path and line.
    """
    metadata = {}
    rows = []
    header_seen = False
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, value = _metadata_item(path, lineno, line)
                metadata[key] = value
                continue
            if not header_seen:
                if line != ",".join(COLUMNS):
                    raise ParameterError(f"{path}: unexpected header {line!r}")
                header_seen = True
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                rows.append([])
            if len(rows[-1]) != len(COLUMNS):
                raise ParameterError(
                    f"{path}: line {lineno}: expected {len(COLUMNS)} numbers, got {line!r}"
                )
    if not header_seen:
        raise ParameterError(f"{path}: missing header row")
    data = np.array(rows, dtype=float).reshape(-1, len(COLUMNS))
    try:
        return SpectrumTable(metadata, dict(zip(COLUMNS, data.T.copy())))
    except DivergenceError as exc:
        raise ParameterError(f"{path}: {exc}") from None
