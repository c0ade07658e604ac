"""Figure-data reproduction tables."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import column_lists
from noisebudget import ParameterError, chi_m_dimensionless, reproduce_figure
from noisebudget.cli import main as cli_main
from noisebudget.figures import FIGURE_IDS
from noisebudget.limits import sql_psd

README = Path(__file__).resolve().parents[1] / "README.md"


def _at(table, rho):
    """The columns of the table's row nearest rho, by name."""
    c = column_lists(table)
    i = min(range(len(c["rho"])), key=lambda i: abs(c["rho"][i] - rho))
    return {name: values[i] for name, values in c.items()}


def _by_rho(table):
    """rho -> total, over the table's rows."""
    c = column_lists(table)
    return dict(zip(c["rho"], c["total"]))


def test_unknown_id_rejected():
    with pytest.raises(ParameterError, match="1a"):
        reproduce_figure("nope")


def test_all_ids_produce_tables():
    for fig_id in FIGURE_IDS:
        tables = reproduce_figure(fig_id)
        assert tables
        for name, table in tables.items():
            assert table.rows, f"{fig_id}/{name} is empty"
            assert table.metadata["figure"] == fig_id
            assert table.metadata["curve"] == name


def test_rows_satisfy_additivity_everywhere():
    for fig_id in FIGURE_IDS:
        for name, table in reproduce_figure(fig_id).items():
            c = column_lists(table)
            for i, rho in enumerate(c["rho"]):
                parts = c["s_m"][i] + c["s_ii"][i] + c["s_ff"][i] + c["s_corr"][i] + c["s_ln"][i]
                assert c["total"][i] == pytest.approx(parts, rel=1e-12), (fig_id, name)
                assert c["total_over_sql"][i] == pytest.approx(
                    c["total"][i] / float(sql_psd(rho)), rel=1e-12
                )


def test_broadband_ql_column_identity():
    # ideal detector, ground state: the QL added noise is |chi_m|^2 and the
    # total carries exactly one more zero-point unit
    tables = reproduce_figure("1a")
    ql = column_lists(tables["ql"])
    for rho, s_ii, total in zip(ql["rho"], ql["s_ii"], ql["total"]):
        chim2 = abs(chi_m_dimensionless(rho)) ** 2
        assert s_ii == pytest.approx(chim2, rel=1e-12)
        assert total == pytest.approx(2.0 * chim2, rel=1e-12)


def test_sql_curve_envelope():
    tables = reproduce_figure("1a")
    sql = _by_rho(tables["sql"])
    # fixed-power phase-quadrature readout never beats SQL + zpm
    phi90 = column_lists(tables["phi90"])
    for rho, total in zip(phi90["rho"], phi90["total"]):
        assert total >= sql[rho] - 1e-12
    # the variational curve dips below the SQL + zpm total off resonance
    var = _by_rho(tables["variational"])
    assert any(var[rho] < sql[rho] for rho in var if abs(rho) > 3)


def test_two_tone_comparison_curves_present():
    tables = reproduce_figure("S2a")
    assert "synodyne_beta1.02" in tables
    assert "homodyne_phi5.8" in tables
    assert "homodyne_phi90" in tables
    syn = _at(tables["synodyne_beta1.02"], 0.0)
    phase = _at(tables["homodyne_phi90"], 0.0)
    # near resonance the slightly imbalanced two-tone readout wins big
    assert syn["total"] < 0.05 * phase["total"]
    assert syn["total"] == pytest.approx(1.01, rel=1e-6)


def test_stitched_envelope_and_inset():
    tables = reproduce_figure("3b-model")
    stitched = _by_rho(tables["stitched"])
    phase = _by_rho(tables["phi90"])
    for rho, total in stitched.items():
        assert total <= phase[rho] + 1e-12
    r45 = _at(tables["inset_phi45"], 12.0)
    r90 = _at(tables["inset_phi90"], 12.0)
    assert r45["total"] < r90["total"]
    assert 1.3 < r45["total_over_sql"] < 1.9
    assert r90["total_over_sql"] == pytest.approx(2.07, abs=0.01)


def test_light_psd_figure_dips_below_shot_noise():
    c = reproduce_figure("1d")["light_psd"].columns
    totals = c["total"]
    assert totals.min() < 1.0
    # at the phase quadrature the light PSD sits above shot noise
    at_90 = totals[c["phi_used"] == 90.0][0]
    assert at_90 > 1.0


def test_power_axis_figures_have_power_minimum():
    tables = reproduce_figure("2a-model")
    totals = tables["rho0"].columns["total"].tolist()
    i_min = int(np.argmin(totals))
    assert 0 < i_min < len(totals) - 1  # interior optimum in power
    assert min(totals) == pytest.approx(2.0 * 1.79 + 1.0 / np.sqrt(0.35), rel=0.01)


# sha256 of `noisebudget --format <fmt> reproduce-figure <id>` on stdout,
# recorded once every |chi_m|^2 term was built from core.chi_m_parts.  The
# stdout text carries a `# --- <curve> ---` line before each table, so the
# hashes also pin the curve names and their order.
FIGURE_SHA256 = {
    ("1a", "csv"): "3dae6c825fdc8d2104b53ed139418cf3d423ebe3c59512c383de4dfef24932df",
    ("1a", "jsonl"): "87ecb2422e88ff10e7965edafe92fbebf061239b296ed476537fbce79ffa406d",
    ("1b", "csv"): "70f6230ed1ec6136b7c7dd7b2fcf5ec88af67870a1785c0bdfb3ccbd0a72edc2",
    ("1b", "jsonl"): "43ddac9c84aafec9b42991b6697b97f54eccba4094bcc63d7c721576df943aac",
    ("1d", "csv"): "38e411047c57daf93aa4824ae7c4655a4f572b773b667138de9c63943a254171",
    ("1d", "jsonl"): "46cd765acd79cfc166d9efa53e069567e636707cea1deba0d4c0524cdc7a27fd",
    ("2a-model", "csv"): "a6ee91939c7376d14ad905ce7138e5b4ae71458fbd5d979cf02391a6f1ac57f9",
    ("2a-model", "jsonl"): "9f43a75b492ac6e6fbb26f21ea89a67ba69b5e0214f3ac6133884e0e246a4071",
    ("2b-model", "csv"): "cacb458245ac850e4fe6d9f586cb77fa662da3e420b06837222f69d0f8f49703",
    ("2b-model", "jsonl"): "aa674d6b750c7dc54843b00f42fcd75d1bbd7c087734cef9bc0cba74a9e5035d",
    ("3a-model", "csv"): "a882e1ad5a8e2a7c2949201c8099635cb0fe35072cd9577e3a2e283c60a320a8",
    ("3a-model", "jsonl"): "8690f7547aff763aed6992dc2a1198b45938881a618d92fb8653d08bf40c3f19",
    ("3b-model", "csv"): "9f1b3c86ea2f77e90612e154674aa4c49e069e7e0c2e0ee4117e7135fc7bfe51",
    ("3b-model", "jsonl"): "04801fe75e9b2af5bd66d49227d41c389701aeca40fc59ed5f963cab050e756d",
    ("S2a", "csv"): "f8a66919400173c56d052642aeef48379f1cc2f05e9b141d9a7ff269d0d69e6a",
    ("S2a", "jsonl"): "4855d0c934de74c6c4d0b124c92182c35e633dfb0f4ea0a02b27713b964ba988",
    ("S2b", "csv"): "80a85e91d3c49cdce3d514f662c55c2cd96c4f1e41993ee951d6c4f1d05f1142",
    ("S2b", "jsonl"): "14cf7cb1dfce054615edf6c641025b84879103c82f14c3e652148e70d0bb2092",
}


def _figure_stdout(capsys, fig_id, fmt):
    assert cli_main(["--format", fmt, "reproduce-figure", fig_id]) == 0
    return capsys.readouterr().out


def test_figure_ids_are_the_hashed_ids():
    assert tuple(dict.fromkeys(fig_id for fig_id, _ in FIGURE_SHA256)) == FIGURE_IDS


@pytest.mark.parametrize("fig_id, fmt", sorted(FIGURE_SHA256))
def test_figure_stdout_golden_sha256(capsys, fig_id, fmt):
    out = _figure_stdout(capsys, fig_id, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_SHA256[fig_id, fmt]


@pytest.mark.parametrize("fig_id, fmt", sorted(FIGURE_SHA256))
def test_figure_out_files_join_to_stdout(tmp_path, capsys, fig_id, fmt):
    # --out base.<ext> writes base.<curve>.<ext> per curve, or base.<ext>
    # alone for a one-curve figure; with the stdout separators put back,
    # the files are the stdout text
    out = _figure_stdout(capsys, fig_id, fmt)
    names = re.findall(r"^# --- (.+) ---$", out, re.M)
    base = tmp_path / f"base.{fmt}"
    argv = ["--format", fmt, "--out", str(base), "reproduce-figure", fig_id]
    assert cli_main(argv) == 0
    if len(names) == 1:
        paths = [base]
    else:
        paths = [tmp_path / f"base.{name}.{fmt}" for name in names]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    joined = "".join(
        f"# --- {name} ---\n" + path.read_bytes().decode()
        for name, path in zip(names, paths)
    )
    assert joined == out


def test_readme_lists_every_figure_curve_in_order():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Figure ids for `reproduce-figure`.*?\n\n(.*?)\n\n", text, re.S)
    assert match, "README has no figure list"
    items = re.findall(r"^- `([^`]+)`: (.*?)(?=^- |\Z)", match.group(1), re.S | re.M)
    listed = {fig_id: re.findall(r"`([^`]+)`", curves) for fig_id, curves in items}
    assert tuple(listed) == FIGURE_IDS
    for fig_id, curves in listed.items():
        assert curves == list(reproduce_figure(fig_id)), fig_id
