"""Sweep configuration, deterministic evaluation, and table serialization.

The config format is a flat key = value text document (UTF-8, '#' comments).
The keys are the fields of SweepSpec, each parsed by its declared type.
Every readout reads COMMON_KEYS; READOUTS gives the keys each reads besides
them, the key it needs and the key of its candidate angles (in degrees).

    rho_min, rho_max      grid bounds (log-symmetric: bounds on |rho|, > 0,
                          whose grid end point 10**log10(rho_max) must not
                          overflow; linear: rho_max - rho_min must not)
    rho_count             number of grid points (>= 2); times the number of
                          powers and of candidate angles, <= MAX_GRID_POINTS
    powers                comma-separated normalized powers, each > 0
    rho_spacing           linear (default) | log-symmetric
    epsilon, n_th         quantum efficiency (1), thermal occupation (0)
    readout               homodyne (default) | synodyne | variational | stitched
    angles_deg, stitch_angles_deg   comma-separated angles in degrees
    beta, synodyne_phi_deg   synodyne LO ratio and phase
    c_aa, c_pp            fractional classical noise (default 0)
    kappa_hz, omega_m_hz, gamma_hz   cavity/mode frequencies in Hz (> 0),
                          needed for nonzero classical noise; gamma_hz /
                          omega_m_hz must stay below HIGH_Q_THRESHOLD

rho_min, rho_max, rho_count and powers are required.  Every other key, a
value that does not parse, a non-finite number, a repeated list value and
an angle not strictly between 0 and 180 is a ParameterError naming the key
(CLI exit code 2), and parse_config prefixes the line of a key the config
sets ("line N: "; a rule on two keys names the line of the key it reports);
once every value is checked, so is a key the readout does not read.

Angles and ordinary frequencies (Hz) are converted to radians and rad/s at
this boundary; everything below works in angular units.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields
from typing import Dict, List, Optional, Tuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import (
    HIGH_Q_THRESHOLD, Detection, MechanicalMode, OpticalCavity, check_angle,
    check_finite_fields, check_positive, omega_from_rho, read_csv_body,
)
from .errors import DivergenceError, ParameterError
from .limits import phi_opt, ql_added_noise, quadrature_order, sql_psd
from .spectra import (
    ClassicalNoise,
    SpectrumComponents,
    classical_noise_displacement,
    homodyne_terms,
    light_terms,
    thermal_term,
)
from .synodyne import SynodyneLO, synodyne_added_noise, synodyne_terms

NORMALIZATION_STATEMENT = (
    "dimensionless displacement PSD: zero-point motion contributes 1 on "
    "mechanical resonance; probe power p is normalized to the on-resonance "
    "SQL power; total_over_sql divides by the SQL added noise "
    "1/sqrt(1+rho^2)"
)

COLUMNS = (
    "rho",
    "phi_used",  # degrees, matching the config boundary convention
    "p",
    "s_m",
    "s_ii",
    "s_ff",
    "s_corr",
    "s_ln",
    "total",
    "total_over_sql",
)

COMMON_KEYS = (
    "rho_min", "rho_max", "rho_count", "powers", "rho_spacing", "epsilon", "n_th", "readout"
)
CLASSICAL_KEYS = ("c_aa", "c_pp", "kappa_hz", "omega_m_hz", "gamma_hz")
# per readout: the keys it reads besides COMMON_KEYS, the key it needs with
# the least number of values it takes, and the key of its angles in degrees
Readout = namedtuple("Readout", "reads needs least angles")
READOUTS = {
    "homodyne": Readout(("angles_deg", *CLASSICAL_KEYS), "angles_deg", 1, "angles_deg"),
    "synodyne": Readout(("beta", "synodyne_phi_deg"), "beta", 1, "synodyne_phi_deg"),
    "variational": Readout(CLASSICAL_KEYS, None, 0, None),  # at phi_opt per point
    "stitched": Readout(
        ("stitch_angles_deg", *CLASSICAL_KEYS), "stitch_angles_deg", 2, "stitch_angles_deg"
    ),
}
SPACINGS = ("linear", "log-symmetric")
BLOCK_ROWS = 1024  # rows emit_table formats per writelines call
# rho_count * powers * candidate angles a sweep may evaluate: about 0.5 GB of
# float64 working arrays at the cap
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class SweepSpec:
    """Sweep description, checked on construction: an invalid value raises
    ParameterError naming its key (schema: the module docstring).  A field its
    readout does not read is ignored by run_sweep and echoed by metadata(), as
    test_sweep_evaluates_what_its_readout_reads pins; parse_config rejects it."""

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
                raise ParameterError(f"{key} must not repeat a value, got {value}", key)
        if self.rho_count < 2:
            raise ParameterError(f"rho_count must be >= 2, got {self.rho_count}", "rho_count")
        if self.rho_spacing not in SPACINGS:
            raise ParameterError(
                f"rho_spacing must be one of {SPACINGS}, got {self.rho_spacing!r}", "rho_spacing"
            )
        if self.rho_spacing == "linear" and not self.rho_min < self.rho_max:
            raise ParameterError("rho_min must be < rho_max", "rho_min")
        if self.rho_spacing == "linear" and math.isinf(self.rho_max - self.rho_min):
            raise ParameterError(
                f"rho_max - rho_min overflows float64 (rho_min = {self.rho_min}, "
                f"rho_max = {self.rho_max}); narrow the span", "rho_max"
            )
        if self.rho_spacing == "log-symmetric":
            if not 0 < self.rho_min < self.rho_max:
                raise ParameterError(
                    "log-symmetric grids need 0 < rho_min < rho_max (bounds on |rho|)", "rho_min"
                )
            # the grid's largest |rho|, 10**log10(bound) as rho_grid computes
            # it; a grid of one point a side stops at rho_min
            key = "rho_max" if self.rho_count > 3 else "rho_min"
            with np.errstate(over="ignore"):
                end = np.power(10.0, math.log10(getattr(self, key)))
            if math.isinf(end):
                raise ParameterError(
                    f"{key} = {getattr(self, key)} puts the log-symmetric grid's end "
                    f"point past float64; lower {key}", key
                )
        if not self.powers:
            raise ParameterError("powers must list at least one value", "powers")
        check_positive("powers", self.powers)
        Detection(self.epsilon)  # checks 0 < epsilon <= 1, naming the key
        if self.n_th < 0:
            raise ParameterError(f"n_th must be >= 0, got {self.n_th}", "n_th")
        row = READOUTS.get(self.readout)
        if row is None:
            raise ParameterError(
                f"readout must be one of {tuple(READOUTS)}, got {self.readout!r}", "readout"
            )
        if row.needs and _count(getattr(self, row.needs)) < row.least:
            at_least = f">= {row.least} " if row.least > 1 else ""
            raise ParameterError(f"{self.readout} readout needs {at_least}{row.needs}", row.needs)
        for key in ("angles_deg", "stitch_angles_deg"):
            for angle in getattr(self, key):
                if not 0 < angle < 180:
                    raise ParameterError(
                        f"{key} must lie strictly between 0 and 180 degrees, got {angle}", key
                    )
        candidates = _count(self.angles()) or 1  # variational: phi_opt, one a point
        points = self.rho_count * len(self.powers) * candidates
        if points > MAX_GRID_POINTS:
            raise ParameterError(
                f"rho_count * powers * candidate angles = {self.rho_count} * "
                f"{len(self.powers)} * {candidates} = {points} grid points, above "
                f"MAX_GRID_POINTS = {MAX_GRID_POINTS}; lower rho_count", "rho_count"
            )
        for key in ("kappa_hz", "omega_m_hz", "gamma_hz"):
            if getattr(self, key) is not None:
                check_positive(key, getattr(self, key))
        mode = self.mode()
        if mode is not None and not mode.is_high_q:
            raise ParameterError(
                f"gamma_hz / omega_m_hz must be < {HIGH_Q_THRESHOLD:g} (the "
                f"high-Q regime the spectra assume), got {self.gamma_hz} / "
                f"{self.omega_m_hz}", "gamma_hz"
            )
        noisy = not ClassicalNoise(self.c_aa, self.c_pp).is_zero
        if noisy and "c_aa" in row.reads and (mode is None or self.kappa_hz is None):
            key = "c_aa" if self.c_aa else "c_pp"  # the key that asks for noise
            raise ParameterError("classical noise needs kappa_hz, omega_m_hz and gamma_hz", key)

    def angles(self):
        """The readout's angles in degrees: its angle key's value, or None."""
        key = READOUTS[self.readout].angles
        return None if key is None else getattr(self, key)

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


def _count(value) -> int:  # the values a field holds: 0 for None, a tuple's length
    return 0 if value is None else len(value) if isinstance(value, tuple) else 1


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


def parse_config(text: str, readout: Optional[str] = None) -> SweepSpec:
    """A checked SweepSpec from a config document.  readout, if given, runs, and
    a readout line must name it; a key the readout does not read is an error.
    Every error names the line of the key it reports, if the document sets it."""
    lines = read_key_values(text, _PARSERS)
    values = {}
    for key, (value, lineno) in lines.items():
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ParameterError(
                f"line {lineno}: bad value for {key!r}: {value!r} ({exc})"
            ) from None
    if readout is not None and values.setdefault("readout", readout) != readout:
        n, named = lines["readout"][1], values["readout"]
        raise ParameterError(f"line {n}: the {readout} command does not run {named} readout")
    for key in _REQUIRED:
        if key not in values:
            raise ParameterError(f"missing required key {key!r}")
    try:
        spec = SweepSpec(**values)
    except ParameterError as exc:
        if exc.key not in lines:  # a key left out, or not a config key
            raise
        raise ParameterError(f"line {lines[exc.key][1]}: {exc}", exc.key) from None
    for key, (_, lineno) in lines.items():
        if key not in COMMON_KEYS + READOUTS[spec.readout].reads:
            raise ParameterError(f"line {lineno}: {spec.readout} readout does not read {key!r}")
    return spec


Row = namedtuple("Row", COLUMNS)


@dataclass(eq=False)
class SpectrumTable:
    """Evaluated spectrum, stored by column.

    columns maps each name in COLUMNS to a read-only view of a finite 1-D
    float64 array, all of one length; a column may share its memory with
    another table's (limits' rho), with the array it was evaluated in, or
    with one value (a zero-stride constant).  rows is a read-only view that
    materialises one Row per index.
    """

    metadata: dict
    columns: Dict[str, np.ndarray]

    def __post_init__(self):
        self.columns = {c: np.asarray(self.columns[c], dtype=float).view() for c in COLUMNS}
        for values in self.columns.values():
            values.flags.writeable = False
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
    order; total and total_over_sql are derived from the five terms.  A
    value that already holds one float64 per row in C order becomes its
    column as a view: a scalar as a zero-stride view, a contiguous array of
    the table's length on its own memory.  Only broadcast values are copied out."""
    values = [np.asarray(v, dtype=float) for v in (rho, phi_used, p, *comps.terms)]
    shape = np.broadcast_shapes(*(v.shape for v in values))
    n = math.prod(shape)
    columns = {
        name: np.broadcast_to(v, (n,)) if v.ndim == 0
        else np.broadcast_to(v, shape).ravel()
        for name, v in zip(COLUMNS, values)
    }
    total = SpectrumComponents(*(columns[c] for c in COLUMNS[3:8])).total
    columns["total"] = total
    columns["total_over_sql"] = total / sql_psd(columns["rho"])
    return columns


@np.errstate(all="ignore")
def curve_columns(kind, rho, p, phi_deg, epsilon, n_th, beta=None, s_ln=None) -> dict:
    """Table columns of one curve of kind, through spectrum_columns; rho, p
    and phi_deg broadcast together.  The kinds:

      homodyne at the angles phi_deg; variational at phi_opt per point,
        which fills the angle column (phi_deg is not read); stitched, per
        point the candidate on the last axis of the 1-D phi_deg with the
        lowest total, searched in quadrature_order, so a tie goes to the
        angle nearest 90 degrees.  These three add s_ln, None or a function
        from an angle in radians to the classical-noise term; with None the
        s_ln column is the one value 0.0.
      synodyne: a two-tone LO of sideband ratio beta and phase phi_deg.
      light: the shot-noise-normalized light PSD at phi_deg, with the
        shot-noise floor of 1 in s_ii and the mechanical terms in light units.
      sql, sql_zpm, ql, synodyne_variational: reference curves, with the
        probe-added noise (SQL, SQL, QL, synodyne at the optimal ratio and
        power p) in s_ii and the thermal + zero-point term in s_m, which sql
        leaves 0 (as limits writes it) and sql_zpm keeps (the figures'
        include_zpm).  phi_deg only fills their angle column, and p, but for
        synodyne_variational, their power column.

    total is the sum of the five terms; load_table_csv checks that on reading
    a table back.  The inputs come checked by SweepSpec, or are the figures'
    constants; only the angle handed to the homodyne budget is checked here.
    Float64 warnings are off: a value that overflows on the way is a
    DivergenceError from SpectrumTable's finite check.
    """
    det = Detection(epsilon)
    if kind in ("homodyne", "variational", "stitched"):
        if kind == "stitched":  # candidates in the order np.argmin searches them
            phi_deg = np.asarray(phi_deg, dtype=float)
            phi_deg = phi_deg[..., quadrature_order(np.radians(phi_deg))]
        if kind == "variational":
            phi = phi_opt(rho, p, det)
            phi_deg = np.degrees(phi)
        else:
            phi = np.radians(phi_deg)
        check_angle(phi)
        comps = homodyne_terms(rho, p, phi, epsilon, n_th, 0.0 if s_ln is None else s_ln(phi))
        if s_ln is None:  # 0.0 itself, not the broadcast zeros: a zero-stride column
            comps = SpectrumComponents(*comps.terms[:4])
        if kind == "stitched":
            totals = comps.s_m + comps.s_ii  # one buffer, added in comps.total's order
            for term in comps.terms[2:]:
                totals += term
            pick = np.argmin(totals, axis=-1)[..., None]
            del totals
            # only the angle-dependent terms are gathered; without noise s_ln stays 0.0
            s_ii, s_corr = (np.take_along_axis(t, pick, -1) for t in (comps.s_ii, comps.s_corr))
            ln = 0.0 if s_ln is None else np.take_along_axis(comps.s_ln, pick, -1)
            comps = SpectrumComponents(comps.s_m[..., :1], s_ii, comps.s_ff[..., :1], s_corr, ln)
            phi_deg = phi_deg[pick]
            del pick  # not held while the columns are built
    elif kind == "synodyne":
        comps = synodyne_terms(rho, p, SynodyneLO(beta, np.radians(phi_deg)), epsilon, n_th)
    elif kind == "light":
        comps = light_terms(rho, np.radians(phi_deg), p, epsilon, n_th)
    elif kind in ("sql", "sql_zpm", "ql", "synodyne_variational"):
        added = (
            ql_added_noise(rho, det) if kind == "ql"
            else synodyne_added_noise(rho, p, det) if kind == "synodyne_variational"
            else sql_psd(rho)
        )
        thermal = 0.0 if kind == "sql" else thermal_term(rho, n_th)
        comps = SpectrumComponents(thermal, added, 0.0, 0.0)
    else:
        raise ParameterError(f"unknown curve kind {kind!r}")
    return spectrum_columns(rho, phi_deg, p, comps)


def run_sweep(spec: SweepSpec) -> SpectrumTable:
    """Evaluate the sweep, rho-major then power then angle, deterministically:
    one curve_columns call over the broadcast (rho, power, angle) grid."""
    rho = spec.rho_grid()[:, None, None]
    p = np.array(spec.powers)[None, :, None]
    noise, s_ln = ClassicalNoise(spec.c_aa, spec.c_pp), None
    if not noise.is_zero and "c_aa" in READOUTS[spec.readout].reads:  # synodyne reads none
        det, mode = Detection(spec.epsilon), spec.mode()
        cav = OpticalCavity(kappa=2 * math.pi * spec.kappa_hz)

        def s_ln(phi):  # omega may overflow: called under curve_columns' errstate
            omega = omega_from_rho(rho, mode)
            return classical_noise_displacement(omega, phi, p, det, cav, noise)

    angles = spec.angles()  # in degrees
    columns = curve_columns(spec.readout, rho, p, angles, spec.epsilon, spec.n_th, spec.beta, s_ln)
    return SpectrumTable(spec.metadata(), columns)


def emit_table(table: SpectrumTable, fmt: str, destination, rows: Optional[range] = None):
    """Serialize a table as CSV or JSON-lines.

    destination is a path or a text file object.  CSV carries the metadata
    as '# key: json' comment lines before the header; floats use 17
    significant digits so a re-ingested table is bit-identical.  JSON lines
    are always standard JSON with finite numbers, keys sorted; each float is
    its repr, which is what json.dumps writes for a finite float.

    rows, a range of row indices with step 1, writes only those rows, and
    the metadata and header only if it starts at row 0: the contiguous
    ranges of a table, written one after another, give the table's bytes.

    A column whose values all share one bit pattern is formatted once, into
    the row template; the other columns are formatted BLOCK_ROWS rows at a
    time, so the writer's memory does not grow with the table's length.
    """
    if fmt not in ("csv", "jsonl"):
        raise ParameterError(f"format must be csv or jsonl, got {fmt!r}")
    rows = range(len(table.columns["rho"])) if rows is None else rows
    own = isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")
    fh = open(destination, "w", newline="") if own else destination
    keys = COLUMNS if fmt == "csv" else sorted(COLUMNS)
    spec = "%.17g" if fmt == "csv" else "%r"
    cols = [table.columns[c][rows.start:rows.stop] for c in keys]
    n = len(cols[0])
    same = [n > 0 and (c.view(np.uint64) == c.view(np.uint64)[0]).all() for c in cols]
    cells = [spec % c[0].item() if k else spec for c, k in zip(cols, same)]
    varying = [c for c, k in zip(cols, same) if not k]
    try:
        if fmt == "csv":
            head = "".join(
                f"# {key}: {json.dumps(value, sort_keys=True)}\n"
                for key, value in table.metadata.items()
            ) + ",".join(COLUMNS) + "\n"
            line = ",".join(cells) + "\n"
        else:
            head = json.dumps({"metadata": table.metadata}, sort_keys=True) + "\n"
            line = "{%s}\n" % ", ".join(f"{json.dumps(k)}: {c}" for k, c in zip(keys, cells))
        if rows.start == 0:
            fh.write(head)
        for start in range(0, n, BLOCK_ROWS):
            block = [col[start:start + BLOCK_ROWS].tolist() for col in varying]
            values = zip(*block) if block else [()] * min(BLOCK_ROWS, n - start)
            fh.writelines([line % row for row in values])
    finally:
        if own:
            fh.close()


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

    The head is '# key: <json>' metadata lines, then the header row; any
    other line there is a ParameterError naming it, so a command's stdout,
    which starts each table with a '# --- <curve> ---' line, does not load:
    write the table with --out.  core.read_csv_body reads the rows; the first
    whose total or total_over_sql differs from what spectrum_columns derives
    from its other columns is a ParameterError naming the line and column.
    """
    metadata, head = {}, []

    def read_head(fh):
        for lineno, raw in enumerate(iter(fh.readline, ""), start=1):
            line = raw.rstrip("\r\n")
            if not line.startswith("#"):
                if line != ",".join(COLUMNS):
                    raise ParameterError(f"{path}: unexpected header {line!r}")
                head.append(lineno)
                return lineno
            key, value = _metadata_item(path, lineno, line)
            metadata[key] = value
        raise ParameterError(f"{path}: missing header row")

    data = read_csv_body(path, len(COLUMNS), read_head).T.copy()
    with np.errstate(over="ignore"):  # an overflowing sum differs from the file's
        derived = spectrum_columns(*data[:3], SpectrumComponents(*data[3:8]))
    want = np.stack([derived[c] for c in COLUMNS[8:]])
    differs = (want != data[8:]).T  # row by row, total before total_over_sql
    if differs.any():
        row, i = divmod(int(np.argmax(differs)), 2)
        raise ParameterError(
            f"{path}: line {head[0] + 1 + row}: {COLUMNS[8 + i]} is {data[8 + i][row]}, but "
            f"the row's other columns give {want[i][row]}"
        )
    return SpectrumTable(metadata, dict(zip(COLUMNS, data)))
