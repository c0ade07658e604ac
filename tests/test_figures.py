"""Figure-data reproduction tables."""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from noisebudget import ParameterError, chi_m_dimensionless, reproduce_figure
from noisebudget.cli import main as cli_main
from noisebudget.figures import FIGURE_IDS
from noisebudget.limits import sql_psd

README = Path(__file__).resolve().parents[1] / "README.md"


def _at(rows, rho):
    return min(rows, key=lambda r: abs(r.rho - rho))


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
            for r in table.rows:
                parts = r.s_m + r.s_ii + r.s_ff + r.s_corr + r.s_ln
                assert r.total == pytest.approx(parts, rel=1e-12), (fig_id, name)
                assert r.total_over_sql == pytest.approx(
                    r.total / float(sql_psd(r.rho)), rel=1e-12
                )


def test_broadband_ql_column_identity():
    # ideal detector, ground state: the QL added noise is |chi_m|^2 and the
    # total carries exactly one more zero-point unit
    tables = reproduce_figure("1a")
    ql = tables["ql"]
    for r in ql.rows:
        chim2 = abs(chi_m_dimensionless(r.rho)) ** 2
        assert r.s_ii == pytest.approx(chim2, rel=1e-12)
        assert r.total == pytest.approx(2.0 * chim2, rel=1e-12)


def test_sql_curve_envelope():
    tables = reproduce_figure("1a")
    sql_rows = {r.rho: r for r in tables["sql"].rows}
    # fixed-power phase-quadrature readout never beats SQL + zpm
    for r in tables["phi90"].rows:
        assert r.total >= sql_rows[r.rho].total - 1e-12
    # the variational curve dips below the SQL + zpm total off resonance
    var = {r.rho: r for r in tables["variational"].rows}
    assert any(
        var[rho].total < sql_rows[rho].total for rho in var if abs(rho) > 3
    )


def test_two_tone_comparison_curves_present():
    tables = reproduce_figure("S2a")
    assert "synodyne_beta1.02" in tables
    assert "homodyne_phi5.8" in tables
    assert "homodyne_phi90" in tables
    syn = _at(tables["synodyne_beta1.02"].rows, 0.0)
    phase = _at(tables["homodyne_phi90"].rows, 0.0)
    # near resonance the slightly imbalanced two-tone readout wins big
    assert syn.total < 0.05 * phase.total
    assert syn.total == pytest.approx(1.01, rel=1e-6)


def test_stitched_envelope_and_inset():
    tables = reproduce_figure("3b-model")
    stitched = {r.rho: r for r in tables["stitched"].rows}
    phase = {r.rho: r for r in tables["phi90"].rows}
    for rho, r in stitched.items():
        assert r.total <= phase[rho].total + 1e-12
    r45 = _at(tables["inset_phi45"].rows, 12.0)
    r90 = _at(tables["inset_phi90"].rows, 12.0)
    assert r45.total < r90.total
    assert 1.3 < r45.total_over_sql < 1.9
    assert r90.total_over_sql == pytest.approx(2.07, abs=0.01)


def test_light_psd_figure_dips_below_shot_noise():
    rows = reproduce_figure("1d")["light_psd"].rows
    totals = np.array([r.total for r in rows])
    assert totals.min() < 1.0
    # at the phase quadrature the light PSD sits above shot noise
    at_90 = [r for r in rows if r.phi_used == 90.0][0]
    assert at_90.total > 1.0


def test_power_axis_figures_have_power_minimum():
    tables = reproduce_figure("2a-model")
    rows = tables["rho0"].rows
    totals = [r.total for r in rows]
    i_min = int(np.argmin(totals))
    assert 0 < i_min < len(rows) - 1  # interior optimum in power
    assert min(totals) == pytest.approx(2.0 * 1.79 + 1.0 / np.sqrt(0.35), rel=0.01)


# sha256 of `noisebudget --format <fmt> reproduce-figure <id>` on stdout,
# recorded from the hand-written figure builders.  The stdout text carries a
# `# --- <curve> ---` line before each table, so the hashes also pin the
# curve names and their order.
FIGURE_SHA256 = {
    ("1a", "csv"): "5a52510bed1d6bf2851d94b4274f13fb8b6985dca9c00e6e8458779e067e5e6b",
    ("1a", "jsonl"): "da19b7c1366dbe8306b378bc3c5b8adc5bd95848cfd81ca5787a7c71b01372dd",
    ("1b", "csv"): "02eae22ae22bacd25b619abb620fcf20bab0f6618f36d30bc9df3553d4963c81",
    ("1b", "jsonl"): "00285b9d4e90ccb8515c8f6fb2ee2f487cfc5cdfd3bf9c9c074c29f7f419ea64",
    ("1d", "csv"): "47f92e92c3423509d8408e915f5e2af9d68f36f4ef060ef24502bf63104d52fa",
    ("1d", "jsonl"): "a7f5f436bdc0786818a3f5780d562e3a098eaf9133b18ea9ecdea1348d97684c",
    ("2a-model", "csv"): "10c5ecd692713239a42dd6dc0f96bb7561681ac0a6f9ae7e828a3f2ebcd0f06b",
    ("2a-model", "jsonl"): "c2f591b96350f1076ea51604188eb6c70caafc9175bad11f9b4035fdd08b8fbe",
    ("2b-model", "csv"): "afae45fc5dfb287135f2aaa1b14f940d866ef4aef10e43a8ba8d6e80de4386d7",
    ("2b-model", "jsonl"): "24898eeda7457a5c9aaf7f5e57d7b9a1476e9ebd426e132a6a325c43a9328037",
    ("3a-model", "csv"): "5d3c50c221cc9d3735ef1b3e3a62a470dfb833c66f9a7b1856de2f7c257d3b35",
    ("3a-model", "jsonl"): "b75f9f522aae36a59b88cb5d6036b47fe78bd34d1bbf290bbbae98b44254efca",
    ("3b-model", "csv"): "7eff388bf47ba95eec768cdf8ef96c892d52405c9621c3f3055ca02941370145",
    ("3b-model", "jsonl"): "c51941b33dcaa27cb8e29d8ae217dd4d069428fd282f3236dbc5bc7324737f67",
    ("S2a", "csv"): "61658583cee47836ce1b9e25d9d923a1ca20512627167e3c5b72cbaac767a09f",
    ("S2a", "jsonl"): "f5df195f5170173cab5f234e56ba3d08da029be50b5170229af7a04b8d5ef24c",
    ("S2b", "csv"): "85525db0bbc78cc352850ffd31ef00c6506f9d3dd762410d7f059225fd917e37",
    ("S2b", "jsonl"): "45faac95dd81d036bdf4c5a3df3971bb5221990ca2ad3e9b23fc2930df39efd9",
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
