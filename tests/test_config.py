"""The config schema: SweepSpec checks itself, its fields are the keys, and
every rejected config is exit code 2 with the offending key in stderr."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_spectrum_csv
from noisebudget import (
    LorentzianFit,
    ParameterError,
    SweepSpec,
    parse_config,
    synth_sideband_spectrum,
)
from noisebudget.sweep import COMMON_KEYS, MAX_GRID_POINTS, READOUTS
from noisebudget.cli import main as cli_main

MINIMAL = "rho_min = -10\nrho_max = 10\nrho_count = 21\npowers = 14\nangles_deg = 90\n"
CAVITY = "kappa_hz = 2.5e6\nomega_m_hz = 1.596e6\ngamma_hz = 340\n"
README = Path(__file__).resolve().parents[1] / "README.md"


def _exit_and_stderr(tmp_path, capsys, text, command="spectrum"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = cli_main(["--config", str(cfg), "--out", str(tmp_path / "out.csv"), command])
    return code, capsys.readouterr().err


def test_spec_checks_itself_on_construction():
    with pytest.raises(ParameterError, match="rho_count"):
        SweepSpec(rho_min=-1.0, rho_max=1.0, rho_count=1, powers=(1.0,), angles_deg=(90.0,))
    spec = parse_config(MINIMAL)
    with pytest.raises(ParameterError, match="synodyne readout needs beta"):
        dataclasses.replace(spec, readout="synodyne")
    with pytest.raises(ParameterError, match="epsilon"):
        dataclasses.replace(spec, epsilon=0.0)
    with pytest.raises(ParameterError, match="c_pp must be >= 0"):
        dataclasses.replace(spec, c_pp=-1.0)


def test_misspelt_key_is_rejected(tmp_path, capsys):
    code, err = _exit_and_stderr(
        tmp_path, capsys, MINIMAL.replace("rho_count = 21", "rho_cuont = 7")
    )
    assert code == 2
    assert "line 3: unknown key 'rho_cuont'" in err


GRID = MINIMAL.replace("angles_deg = 90\n", "")  # the four required keys


@pytest.mark.parametrize(
    "command, text",
    [("variational", GRID), ("synodyne", GRID + "beta = 1.02\n")],
    ids=("variational", "synodyne"),
)
def test_command_checks_the_config_against_its_own_readout(tmp_path, capsys, command, text):
    # both used to be checked as homodyne first: "needs a non-empty angles_deg"
    assert _exit_and_stderr(tmp_path, capsys, text, command) == (0, "")


def test_key_the_readout_does_not_read_is_rejected(tmp_path, capsys):
    # it used to run, the three keys only echoed into the metadata
    text = GRID + "readout = variational\nangles_deg = 45\nbeta = 7\nstitch_angles_deg = 30\n"
    for command in ("spectrum", "variational"):
        code, err = _exit_and_stderr(tmp_path, capsys, text, command)
        assert code == 2
        assert err == "error: line 6: variational readout does not read 'angles_deg'\n"


def test_readout_line_naming_another_readout_is_rejected(tmp_path, capsys):
    text = GRID + "readout = stitched\nstitch_angles_deg = 45,90\n"
    assert _exit_and_stderr(tmp_path, capsys, text)[0] == 0
    code, err = _exit_and_stderr(tmp_path, capsys, text, "variational")
    assert code == 2
    assert err == "error: line 5: the variational command does not run stitched readout\n"


# a value each key takes whatever the readout, for the keys some readout does not read
UNREAD_VALUES = {
    "angles_deg": st.lists(st.floats(1.0, 179.0), min_size=1, max_size=3, unique=True),
    "stitch_angles_deg": st.lists(st.floats(1.0, 179.0), min_size=1, max_size=3, unique=True),
    "beta": st.floats(0.01, 10.0),
    "synodyne_phi_deg": st.floats(-180.0, 180.0),
    "c_aa": st.floats(0.0, 1.0),
    "c_pp": st.floats(0.0, 1.0),
    "kappa_hz": st.floats(1e3, 1e8),
    "omega_m_hz": st.floats(1e5, 1e8),
    "gamma_hz": st.floats(1.0, 100.0),
}
# the key each readout needs, set
NEEDED = {"homodyne": "angles_deg = 90\n", "synodyne": "beta = 1.02\n", "variational": "",
          "stitched": "stitch_angles_deg = 45,90\n"}


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data(), st.sampled_from(tuple(READOUTS)))
def test_every_key_outside_the_readouts_row_is_rejected_by_line(tmp_path, capsys, data, readout):
    assert set(UNREAD_VALUES) == {f.name for f in dataclasses.fields(SweepSpec)} - set(COMMON_KEYS)
    key = data.draw(st.sampled_from(sorted(set(UNREAD_VALUES) - set(READOUTS[readout].reads))))
    value = data.draw(UNREAD_VALUES[key])
    value = value if isinstance(value, list) else [value]
    lines = (GRID + NEEDED[readout]).splitlines()
    command = "spectrum" if readout in ("homodyne", "stitched") else readout
    if command == "spectrum" or data.draw(st.booleans()):
        lines.append(f"readout = {readout}")
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, f"{key} = " + ",".join(map(repr, value)))
    code, err = _exit_and_stderr(tmp_path, capsys, "\n".join(lines) + "\n", command)
    assert (code, err) == (2, f"error: line {at + 1}: {readout} readout does not read {key!r}\n")


def _text(value) -> str:  # a config value: a tuple as a comma-separated list
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


NEGATIVE = st.floats(-1e3, 0.0)  # -0.0 and 0.0 included
# per key: values that the variational GRID config rejects for that key alone,
# and the message of the rule, which names the key (rho_min's and c_pp's
# rules are on two keys and more)
BAD_VALUES = {
    "rho_min": (st.floats(10.0, 1e3), lambda v: "rho_min must be < rho_max"),
    "rho_count": (st.integers(-5, 1), lambda v: f"rho_count must be >= 2, got {v}"),
    "powers": (
        st.lists(NEGATIVE, min_size=1, max_size=3, unique=True).map(tuple),
        lambda v: f"powers must be > 0 and finite, got {v[0]}",
    ),
    "epsilon": (
        NEGATIVE | st.floats(1.0, 1e3, exclude_min=True),
        lambda v: f"epsilon must be in (0, 1], got {v}",
    ),
    "n_th": (st.floats(-1e3, -1e-300), lambda v: f"n_th must be >= 0, got {v}"),
    "angles_deg": (
        st.tuples(NEGATIVE | st.floats(180.0, 1e3)),
        lambda v: f"angles_deg must lie strictly between 0 and 180 degrees, got {v[0]}",
    ),
    "c_pp": (
        st.floats(1e-3, 1.0), lambda v: "classical noise needs kappa_hz, omega_m_hz and gamma_hz"
    ),
    "kappa_hz": (NEGATIVE, lambda v: f"kappa_hz must be > 0 and finite, got {v}"),
    "omega_m_hz": (st.just(math.inf), lambda v: f"omega_m_hz must be finite, got {v}"),
}


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data(), st.sampled_from(sorted(BAD_VALUES)))
def test_every_value_error_names_its_line(tmp_path, capsys, data, key):
    strategy, message = BAD_VALUES[key]
    value = data.draw(strategy)
    good = {"rho_min": -10.0, "rho_max": 10.0, "rho_count": 21, "powers": (14.0,)}
    lines = [f"{k} = {_text(v)}" for k, v in good.items() if k != key]
    at = data.draw(st.integers(0, len(lines)))
    lines.insert(at, f"{key} = {_text(value)}")
    code, err = _exit_and_stderr(tmp_path, capsys, "\n".join(lines) + "\n", "variational")
    assert (code, err) == (2, f"error: line {at + 1}: {message(value)}\n")
    # built directly, the spec names the key, with no line
    with pytest.raises(ParameterError) as info:
        SweepSpec(**dict(good, readout="variational", **{key: value}))
    assert (str(info.value), info.value.key) == (message(value), key)


@pytest.mark.parametrize(
    "key, text",
    [
        ("powers", MINIMAL.replace("powers = 14", "powers = 14,14")),
        ("angles_deg", MINIMAL.replace("angles_deg = 90", "angles_deg = 90,45,90")),
        ("stitch_angles_deg",
         MINIMAL + "readout = stitched\nstitch_angles_deg = 45,90,45.0\n"),
    ],
    ids=("powers", "angles_deg", "stitch_angles_deg"),
)
def test_repeated_list_value_is_rejected(tmp_path, capsys, key, text):
    code, err = _exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert f"{key} must not repeat a value" in err


def test_low_q_mode_is_rejected(tmp_path, capsys):
    text = MINIMAL + "c_aa = 0.1\nkappa_hz = 2.5e6\nomega_m_hz = 1e6\ngamma_hz = 1e5\n"
    code, err = _exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert "gamma_hz / omega_m_hz must be < 0.001" in err
    # checked whenever omega_m_hz and gamma_hz are given, with or without noise
    for cavity in (CAVITY, CAVITY.replace("kappa_hz = 2.5e6\n", "")):
        code, err = _exit_and_stderr(
            tmp_path, capsys, MINIMAL + cavity.replace("gamma_hz = 340", "gamma_hz = 1600")
        )
        assert code == 2
        assert "gamma_hz" in err
    # just below the threshold is accepted
    code, _ = _exit_and_stderr(
        tmp_path, capsys, MINIMAL + CAVITY.replace("gamma_hz = 340", "gamma_hz = 1595")
    )
    assert code == 0


@pytest.mark.parametrize("key", ("kappa_hz", "omega_m_hz", "gamma_hz"))
@pytest.mark.parametrize("value", ("0", "-340"))
def test_non_positive_frequency_is_rejected(tmp_path, capsys, key, value):
    text = re.sub(rf"{key} = \S+", f"{key} = {value}", MINIMAL + CAVITY)
    code, err = _exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert f"{key} must be > 0" in err


@pytest.mark.parametrize(
    "key, text, value, lineno",
    [
        ("angles_deg", MINIMAL.replace("angles_deg = 90", "angles_deg = 45,221"), "221.0", 5),
        ("angles_deg", MINIMAL.replace("angles_deg = 90", "angles_deg = -30"), "-30.0", 5),
        ("angles_deg", MINIMAL.replace("angles_deg = 90", "angles_deg = 0"), "0.0", 5),
        ("stitch_angles_deg", MINIMAL + "stitch_angles_deg = 45,180\n", "180.0", 6),
        ("stitch_angles_deg", MINIMAL + "readout = stitched\nstitch_angles_deg = 1e200,90\n",
         "1e+200", 7),
    ],
    ids=("221", "negative", "zero", "180-unused", "huge"),
)
def test_angle_outside_0_to_180_degrees_is_rejected(tmp_path, capsys, key, text, value, lineno):
    # checked for every readout, whether it uses the key or not
    code, err = _exit_and_stderr(tmp_path, capsys, text)
    assert code == 2
    assert err == (
        f"error: line {lineno}: {key} must lie strictly between 0 and 180 degrees, got {value}\n"
    )


def test_angles_just_inside_0_and_180_degrees_are_accepted():
    spec = parse_config(MINIMAL.replace("angles_deg = 90", "angles_deg = 1e-300,179.99999999999997"))
    assert spec.angles_deg == (1e-300, 179.99999999999997)


@pytest.mark.parametrize(
    "readout, candidates",
    (("homodyne", 2), ("stitched", 4), ("variational", 1), ("synodyne", 1)),
)
def test_grid_is_capped_before_any_array_is_allocated(readout, candidates):
    spec = dict(
        rho_min=-1.0, rho_max=1.0, powers=(1.0, 2.0, 3.0), readout=readout, beta=1.0,
        angles_deg=(45.0, 90.0), stitch_angles_deg=(30.0, 60.0, 90.0, 120.0),
    )
    largest = MAX_GRID_POINTS // (3 * candidates)
    assert SweepSpec(rho_count=largest, **spec).rho_count == largest
    # 10**12 grid points would take 8 TB per array: the check must come first
    for count in (largest + 1, 10**12):
        points = count * 3 * candidates
        message = (
            f"rho_count * powers * candidate angles = {count} * 3 * {candidates} = "
            f"{points} grid points, above MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )
        with pytest.raises(ParameterError, match=re.escape(message)):
            SweepSpec(rho_count=count, **spec)


def test_linear_span_that_overflows_is_rejected_naming_both_bounds():
    spec = dict(rho_count=5, powers=(1.0,), angles_deg=(90.0,))
    # the widest span that fits float64 gives a finite grid
    widest = SweepSpec(rho_min=-8.9e307, rho_max=8.9e307, **spec)
    assert np.isfinite(widest.rho_grid()).all()
    with pytest.raises(ParameterError, match=r"rho_max - rho_min overflows .*rho_min = .*rho_max = "):
        SweepSpec(rho_min=-1e308, rho_max=1e308, **spec)
    # log-symmetric bounds are on |rho| and never subtracted
    log = SweepSpec(rho_min=1e-308, rho_max=1e308, rho_spacing="log-symmetric", **spec)
    assert np.isfinite(log.rho_grid()).all()


def _sideband_csvs(tmp_path) -> dict:
    grid = np.linspace(-1600.0, 1600.0, 400)
    paths = {}
    for name, amplitude in (("red", 1.35), ("blue", 0.78)):
        paths[name] = tmp_path / f"{name}.csv"
        truth = LorentzianFit(0.0, 325.0, amplitude, 1.0, 0.0)
        write_spectrum_csv(paths[name], synth_sideband_spectrum(truth, grid))
    return paths


def test_calibrate_rejects_unknown_key(tmp_path, capsys):
    paths = _sideband_csvs(tmp_path)
    text = f"sideband_csv = {paths['red']}\nred_cvs = {paths['red']}\n"
    code, err = _exit_and_stderr(tmp_path, capsys, text, "calibrate")
    assert code == 2
    assert "line 2: unknown key 'red_cvs'" in err


def test_calibrate_rejects_sideband_csv_next_to_pair(tmp_path, capsys):
    # sideband_csv next to a red/blue pair used to be dropped silently
    paths = _sideband_csvs(tmp_path)
    text = "".join(f"{key} = {paths[name]}\n" for key, name in
                   (("sideband_csv", "red"), ("red_csv", "red"), ("blue_csv", "blue")))
    code, err = _exit_and_stderr(tmp_path, capsys, text, "calibrate")
    assert code == 2
    assert "sideband_csv" in err


@pytest.mark.parametrize(
    "lines, lineno, key",
    ((("sideband_csv =",), 1, "sideband_csv"), (("blue_csv = {blue}", "red_csv = "), 2, "red_csv")),
    ids=("sideband_csv", "red_csv"),
)
def test_calibrate_rejects_an_empty_path(tmp_path, capsys, lines, lineno, key):
    # it used to be an i/o error, exit 4: No such file or directory: ''
    paths = _sideband_csvs(tmp_path)
    text = "".join(line.format(**paths) + "\n" for line in lines)
    code, err = _exit_and_stderr(tmp_path, capsys, text, "calibrate")
    assert code == 2
    assert f"line {lineno}: {key} is empty" in err


def _readme_schema() -> str:
    """The README's config section: its blocks and its table of readouts."""
    text = README.read_text(encoding="utf-8")
    start = text.index("Every readout reads the common keys:")
    end = text.index("`rho_min`, `rho_max`, `rho_count` and `powers` are required.", start)
    return text[start:end]


def _keys(block: str) -> set:
    return {line.split("=", 1)[0].strip() for line in block.splitlines()}


def test_readme_schema_block_parses_and_names_every_field():
    common, *blocks = re.findall(r"```\n(.*?)```", _readme_schema(), re.S)
    assert _keys(common) | {"readout"} == set(COMMON_KEYS)
    readouts, keys = [], set()
    for block in blocks:
        spec = parse_config(common + block)
        readouts.append(spec.readout)
        assert _keys(block) == {"readout", *READOUTS[spec.readout].reads}
        keys |= _keys(common + block)
        if spec.readout != "synodyne":
            assert spec.c_aa == 0.004 and spec.gamma_hz == 340.0
    assert readouts == list(READOUTS)
    assert keys == {f.name for f in dataclasses.fields(SweepSpec)}
    # the table of readouts: what each reads besides the common keys, and needs
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", _readme_schema(), re.M)
    assert [readout for readout, _, _ in rows] == list(READOUTS)
    for readout, reads, needs in rows:
        row = READOUTS[readout]
        assert re.findall(r"`(\w+)`", reads) == list(row.reads)
        need = re.fullmatch(r"nothing|`(\w+)`(?:, (\d+) or more)?", needs)
        assert need, needs
        least = 0 if need[1] is None else int(need[2] or 1)
        assert (need[1], least) == (row.needs, row.least)
