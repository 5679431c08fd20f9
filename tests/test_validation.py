"""Records, plans and flags reject non-finite, non-numeric, non-whole and repeated values."""

import math

import pytest

from cbcnoise import AmplifierSpec, CbcConfig, ExperimentPlan, FeedbackConfig, RngStream
from cbcnoise import gamma_sum_statistics, run_feedback
from cbcnoise.amplifier import equal_stages
from cbcnoise.cli import main
from cbcnoise.engine import EXPERIMENTS

CBC_XI = {"n_beams": 2, "photons": 100.0, "xi": 1.0}
CBC_VAR = {"n_beams": 2, "photons": 100.0, "phase_var": 0.01}
AMP = {"g": 2.0, "n_cl": 0.1}
LOCK = {"n_beams": 2, "photons": 100.0, "drift_var": 1e-4, "controller_gain": 0.4}

# (record type, valid keyword arguments, float field to spoil)
FLOAT_FIELDS = [
    (CbcConfig, CBC_XI, "photons"),
    (CbcConfig, CBC_XI, "xi"),
    (CbcConfig, CBC_VAR, "phase_var"),
    (AmplifierSpec, AMP, "g"),
    (AmplifierSpec, AMP, "n_cl"),
    (FeedbackConfig, LOCK, "photons"),
    (FeedbackConfig, LOCK, "drift_var"),
    (FeedbackConfig, LOCK, "controller_gain"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls,kwargs,name", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{n}" for c, _, n in FLOAT_FIELDS])
def test_non_finite_field_rejected(cls, kwargs, name, bad):
    cls(**kwargs)  # the unspoiled record is valid
    with pytest.raises(ValueError, match="finite"):
        cls(**{**kwargs, name: bad})


def test_cli_rejects_nan_xi(capsys):
    assert main(["predict", "--cbc", "-N", "2", "-n", "100", "--xi", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_plan_rejects_non_finite_tolerance(bad):
    ExperimentPlan("cbc", ({"N": 2, "n": 100, "xi": 1.0},), 1000, 0, tolerance_k=5.0)
    with pytest.raises(ValueError, match="finite"):
        ExperimentPlan("cbc", ({"N": 2, "n": 100, "xi": 1.0},), 1000, 0, tolerance_k=bad)


def test_cli_rejects_nan_tolerance(capsys):
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1000",
                 "--tolerance-k", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("name, bad", [("trials", 2.9), ("trials", math.inf), ("trials", math.nan),
                                       ("trials", "100"), ("master_seed", 1.5),
                                       ("master_seed", math.inf)])
def test_plan_rejects_non_whole_counts(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        ExperimentPlan("cbc", ({"N": 2, "n": 100},), **{name: bad})


def test_plan_takes_whole_floats_as_ints():
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 100},), 1e5, 7.0)
    assert (plan.trials, plan.master_seed) == (100_000, 7)
    assert type(plan.trials) is int and type(plan.master_seed) is int


@pytest.mark.parametrize("trials", ["2.9", "inf"])
def test_cli_rejects_non_whole_trials(tmp_path, capsys, trials):
    # once from the flag, once from a plan file; neither truncates nor crashes
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", trials]) == 2
    plan = tmp_path / "plan.txt"
    plan.write_text(f"experiment = cbc\ntrials = {trials}\ngrid.N = 2\ngrid.n = 100\n")
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert capsys.readouterr().err.count("trials must be a whole number") == 2


@pytest.mark.parametrize("experiment, grid, key, bad", [
    ("cbc", "grid.n = 100", "N", "2.5"),
    ("cbc", "grid.n = 100", "N", "inf"),
    ("gamma", "grid.phase_var = 0.01", "N", "2.5"),
    ("lock", "grid.N = 2\ngrid.n = 1000", "intervals", "2.7"),
    ("cascade", "grid.G = 4", "stages", "1.9"),
], ids=["cbc-N", "cbc-N-inf", "gamma-N", "lock-intervals", "cascade-stages"])
def test_plan_rejects_non_whole_count_keys(tmp_path, capsys, experiment, grid, key, bad):
    # a count key is neither truncated (2.5 beams ran as 2) nor left to crash (inf)
    plan = tmp_path / "plan.txt"
    plan.write_text(f"experiment = {experiment}\ntrials = 1000\n{grid}\ngrid.{key} = {bad}\n")
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert f"{key} must be a whole number, got {float(bad)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, grid, key", [
    ("cbc", "grid.N = 2", "n"),
    ("cbc", "grid.N = 2\ngrid.n = 100", "xi"),
    ("cbc", "grid.N = 2\ngrid.n = 100", "phase_var"),
    ("amp", "grid.G = 2", "n_cl"),
    ("amp", "", "G"),
    ("cascade", "", "G"),
    ("gamma", "grid.N = 2", "phase_var"),
    ("lock", "grid.N = 2\ngrid.n = 1000", "drift_var"),
    ("lock", "grid.N = 2\ngrid.n = 1000", "gain"),
    ("lock", "grid.N = 2\ngrid.n = 1000", "init_spread"),
    ("lock", "grid.N = 2", "n"),
])
def test_plan_names_a_non_numeric_float_key(tmp_path, capsys, experiment, grid, key):
    plan = tmp_path / "plan.txt"
    plan.write_text(f"experiment = {experiment}\ntrials = 1000\n{grid}\ngrid.{key} = abc\n")
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert f"{key} must be a number, got 'abc'" in capsys.readouterr().err


def test_plan_names_a_non_numeric_tolerance(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("experiment = cbc\ntolerance_k = wide\ngrid.N = 2\ngrid.n = 100\n")
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert "tolerance_k must be a number, got 'wide'" in capsys.readouterr().err


def test_count_keys_take_whole_floats_as_ints():
    cbc = EXPERIMENTS["cbc"].config({"N": 4.0, "n": 100, "xi": 1.0})
    lock, _ = EXPERIMENTS["lock"].config({**EXPERIMENTS["lock"].options,
                                          "N": 3.0, "n": 100, "intervals": 5.0})
    _, stages = EXPERIMENTS["cascade"].config({"G": 8, "stages": 3.0})
    assert (cbc.n_beams, lock.n_beams, lock.intervals, len(stages)) == (4, 3, 5, 3)
    assert type(cbc.n_beams) is int and type(lock.intervals) is int


def test_negative_seed_is_named(capsys):
    with pytest.raises(ValueError, match="master_seed must be nonnegative, got -1"):
        ExperimentPlan("cbc", ({"N": 2, "n": 100},), master_seed=-1)
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1000",
                 "--seed", "-1"]) == 2
    assert "master_seed must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_gamma_rejects_non_finite_phase_var(bad):
    with pytest.raises(ValueError, match="finite"):
        gamma_sum_statistics(4, bad, 1000, RngStream(0))


def test_cli_rejects_nan_gamma_phase_var(capsys):
    assert main(["simulate", "gamma", "-N", "4", "--phase-var", "nan", "--trials", "1000"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("xi,message", [("0.5", "quantum limit"), ("nan", "finite")])
def test_compare_rejects_unphysical_xi(capsys, xi, message):
    assert main(["compare", "--N-min", "2", "--N-max", "4", "-n", "1000", "--xi", xi]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_compare_rejects_one_beam(capsys):
    assert main(["compare", "--N-min", "1", "--N-max", "3"]) == 2
    assert "two beams" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "cascade", "-G", "-1"],
    ["simulate", "cascade", "-G", "0", "--stages", "2"],
    ["simulate", "amp", "-G", "-1"],
    ["simulate", "amp", "-G", "0", "--kind", "phase_sensitive"],
    ["predict", "--amp", "-G", "-1"],
    ["predict", "--amp", "-G", "0"],
], ids=lambda argv: " ".join(argv))
def test_non_positive_gain_is_a_named_usage_error(capsys, argv):
    assert main(argv + (["--trials", "1000"] if argv[0] == "simulate" else [])) == 2
    assert " G " in capsys.readouterr().err


def test_equal_stages_reject_a_total_gain_below_one():
    with pytest.raises(ValueError, match="G >= 1, got 0.5"):
        equal_stages(0.5, 2)


@pytest.mark.parametrize("text, key", [
    ("experiment = cbc\ntrials = 1000\ngrid.N = 2\ngrid.N = 4\ngrid.n = 100\n", "grid.N"),
    ("experiment = cbc\ntrials = 1000\ngrid.N = 2\ntrials = 2000\ngrid.n = 100\n", "trials"),
], ids=["grid.N", "trials"])
def test_plan_rejects_a_key_given_twice(tmp_path, capsys, text, key):
    # neither line may win silently: grid.N = 2 then grid.N = 4 would run only N = 4
    plan = tmp_path / "plan.txt"
    plan.write_text(text)
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert f"{plan}:4: {key} is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("make, key", [
    (lambda: CbcConfig(2.5, 100, xi=1.0), "N"),
    (lambda: FeedbackConfig(2.5, 100), "N"),
    (lambda: FeedbackConfig(2, 100, intervals=2.5), "intervals"),
    (lambda: equal_stages(4.0, 1.5), "stages"),
    (lambda: gamma_sum_statistics(2.5, 0.01, 1000, RngStream(0)), "N"),
], ids=["CbcConfig.N", "FeedbackConfig.N", "FeedbackConfig.intervals", "equal_stages", "gamma"])
def test_records_reject_fractional_counts(make, key):
    with pytest.raises(ValueError, match=f"{key} must be a whole number, got [12].5"):
        make()


def test_records_take_whole_floats_as_ints():
    cbc = CbcConfig(4.0, 100, xi=1.0)
    lock = FeedbackConfig(3.0, 100, intervals=5.0)
    assert (cbc.n_beams, lock.n_beams, lock.intervals, len(equal_stages(8, 3.0))) == (4, 3, 5, 3)
    assert type(cbc.n_beams) is int and type(lock.n_beams) is int and type(lock.intervals) is int


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_feedback_rejects_non_finite_initial_phases(bad):
    with pytest.raises(ValueError, match="initial phases must be finite"):
        run_feedback(FeedbackConfig(2, 100), RngStream(0), initial_phases=[bad, 0.0])


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_lock_rejects_a_non_finite_init_spread(tmp_path, capsys, bad):
    # once from the flag, once from a plan file
    assert main(["simulate", "lock", "-N", "2", "-n", "100", "--init-spread", bad]) == 2
    plan = tmp_path / "plan.txt"
    plan.write_text(f"experiment = lock\ngrid.N = 2\ngrid.n = 100\ngrid.init_spread = {bad}\n")
    assert main(["simulate", "--plan", str(plan)]) == 2
    assert capsys.readouterr().err.count("initial phases must be finite") == 2


@pytest.mark.parametrize("xi", ["1,,2", "abc"])
def test_compare_names_xi_in_a_parse_error(capsys, xi):
    assert main(["compare", "--N-min", "2", "--N-max", "4", "--xi", xi]) == 2
    assert f"--xi must be a comma list of numbers, got {xi!r}" in capsys.readouterr().err
