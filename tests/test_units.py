"""Every written column carries exactly one unit, the laws in ``compare`` are
the library's, and the public names are the package's imports."""

import json
import types

import pytest

import cbcnoise
from cbcnoise.cli import format_csv, main

AMPLITUDE = "field amplitude, sqrt(photons)"

# (name, command without --out/--format, plan file text or None)
COMMANDS = [
    ("predict", ["predict", "-N", "4", "-n", "1000"], None),
    ("compare", ["compare", "--N-min", "2", "--N-max", "4", "-n", "1000", "--xi", "1,3"], None),
    ("cbc", ["simulate", "cbc", "-N", "2", "-n", "1000", "--trials", "2000"], None),
    ("cbc_phase_var", ["simulate", "cbc", "-N", "2", "-n", "1000", "--phase-var", "0.001",
                       "--trials", "2000"], None),
    ("amp_n_cl", ["simulate"],
     "experiment = amp\ntrials = 2000\ngrid.G = 4\ngrid.n_cl = 0, 0.3\n"),
    ("cascade", ["simulate", "cascade", "-G", "4", "--stages", "2", "--trials", "2000"], None),
    ("gamma", ["simulate", "gamma", "-N", "4", "--phase-var", "0.01", "--trials", "2000"], None),
    ("lock", ["simulate", "lock", "-N", "2", "-n", "10000", "--intervals", "20",
              "--init-spread", "0.05"], None),
]

# labels that were once wrong or missing, by command
PINNED = {
    "cbc": {"predicted_mean_x": AMPLITUDE, "se_mean_x": AMPLITUDE,
            "se_var_p": "absolute quadrature variance (vacuum = 0.25)", "experiment": "name"},
    "amp_n_cl": {"predicted_mean_x": AMPLITUDE, "n_cl": "photons, input-referred",
                 "experiment": "name"},
    "cascade": {"predicted_mean_x": AMPLITUDE},
    "gamma": {"measured_mean": "rad^2", "predicted_mean": "rad^2", "se_mean": "rad^2",
              "measured_variance": "rad^4", "predicted_variance": "rad^4",
              "se_variance": "rad^4", "z_mean": "standard errors"},
    "lock": {"measured_final_var": "rad^2", "measured_steady_ratio":
             "Var(psi) over the quantum limit", "measured_clicks": "photon count",
             "predicted_sql": "rad^2", "experiment": "name"},
    "predict": {"G": "intensity gain", "var_units": "quadrature variance, multiples of 0.25",
                "xi_star": "multiples of the quantum-limit phase variance", "kind": "name"},
}

PARENT_PUBLIC_NAMES = [
    "VAR_COH", "QuadratureStats", "RngStream", "estimate_stats", "merge_stats",
    "photon_number", "quadratures", "sample_coherent", "CbcConfig", "CbcPrediction",
    "SmallAngleWarning", "combine_port_amplitude", "dft", "error_photon_number",
    "error_signals", "gamma_sum_statistics", "inverse_dft", "predict_output",
    "simulate_cbc", "sql_phase_variance", "xi_threshold", "AmplifierSpec", "NoiseBudget",
    "amplify_classical_input", "amplify_sample", "cascade", "predict_variance",
    "simulate_amplifier", "simulate_cascade", "FeedbackConfig", "LockState",
    "min_detectable_phase_var", "run_feedback", "simulate_two_beam_clicks",
    "two_beam_click_rate", "ExperimentPlan", "ExperimentResult", "PointResult",
    "load_plan", "run_plan",
]


def run_command(tmp_path, name, fmt):
    command, plan_text = next((c, p) for n, c, p in COMMANDS if n == name)
    if plan_text is not None:
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(plan_text)
        command = command + ["--plan", str(plan_path)]
    out_path = tmp_path / f"out.{fmt}"
    assert main(command + ["--format", fmt, "--out", str(out_path)]) in (0, 1)
    return out_path.read_text()


def csv_units(text):
    """Header columns and the (column, unit) pairs of the ``#`` unit lines."""
    lines = text.splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")][1:]  # after the title
    header = next(line for line in lines if not line.startswith("#"))
    return header.split(","), [tuple(c.split(": ", 1)) for c in comments]


@pytest.mark.parametrize("name", [n for n, _, _ in COMMANDS])
def test_every_csv_column_has_one_unit_line(tmp_path, name):
    columns, pairs = csv_units(run_command(tmp_path, name, "csv"))
    assert [col for col, _ in pairs] == columns
    units = dict(pairs)
    for column, unit in PINNED.get(name, {}).items():
        assert units[column] == unit


@pytest.mark.parametrize("name", [n for n, _, _ in COMMANDS])
def test_every_json_column_has_one_unit(tmp_path, name):
    doc = json.loads(run_command(tmp_path, name, "json"))
    columns = list(dict.fromkeys(col for rec in doc["records"] for col in rec))
    assert list(doc["units"]) == columns
    for column, unit in PINNED.get(name, {}).items():
        assert doc["units"][column] == unit


def test_predict_json_units_cover_every_section(tmp_path):
    doc = json.loads(run_command(tmp_path, "predict", "json"))
    assert [rec["kind"] for rec in doc["records"]] == ["cbc", "amp", "threshold"]
    assert {"G", "var", "var_units", "xi_star"} <= set(doc["units"])


def test_unknown_column_has_no_unit():
    with pytest.raises(KeyError):
        format_csv([{"bogus": 1.0}], "no such column")


def json_records(tmp_path, command):
    out_path = tmp_path / "out.json"
    assert main(command + ["--format", "json", "--out", str(out_path)]) == 0
    return json.loads(out_path.read_text())["records"]


def test_compare_matches_predict_bit_for_bit(tmp_path):
    rows = json_records(tmp_path, ["compare", "--N-min", "2", "--N-max", "9", "-n", "2500",
                                   "--xi", "1,2.5,40"])
    assert len(rows) == 8 * 3
    for row in rows:
        amp, = json_records(tmp_path, ["predict", "--amp", "-G", str(row["N"])])
        cbc, = json_records(tmp_path, ["predict", "--cbc", "-N", str(row["N"]), "-n", "2500",
                                       "--xi", str(row["xi"])])
        assert row["amp_var_units"] == amp["var_units"]
        assert row["cbc_var_p_units"] == cbc["var_p_units"]
        assert row["cbc_worse"] == (row["cbc_var_p_units"] > row["amp_var_units"])


@pytest.mark.parametrize("gain", ["1", "2.5", "64"])
def test_the_amplifier_figure_is_the_amp_rows_prediction(tmp_path, gain):
    amp, = json_records(tmp_path, ["predict", "--amp", "-G", gain])
    row, = json_records(tmp_path, ["simulate", "amp", "-G", gain, "--trials", "1000"])
    assert amp["var"] == row["predicted_var_x"]
    if gain == "64":  # compare takes whole beam counts of at least 2
        point, = json_records(tmp_path, ["compare", "--N-min", gain, "--N-max", gain])
        assert point["amp_var_units"] == amp["var_units"] == row["predicted_var_x"] / 0.25


def test_public_names_are_the_imports():
    names = cbcnoise.__all__
    assert not any(name.startswith("_") for name in names)
    assert not any(isinstance(getattr(cbcnoise, name), types.ModuleType) for name in names)
    assert names == PARENT_PUBLIC_NAMES
