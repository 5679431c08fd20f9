"""Records, plans and flags reject non-finite, non-numeric, non-whole and repeated values."""

import json
import math
import warnings

import pytest

from cbcnoise import AmplifierSpec, CbcConfig, ExperimentPlan, FeedbackConfig, NoiseBudget
from cbcnoise import RngStream, amplify_classical_input, gamma_sum_statistics, run_feedback
from cbcnoise import predict_output, simulate_two_beam_clicks, two_beam_click_rate, xi_threshold
from cbcnoise import SmallAngleWarning, combine_port_amplitude, dft, error_photon_number
from cbcnoise import error_signals, inverse_dft, run_plan, sample_coherent, simulate_amplifier
from cbcnoise import simulate_cascade, simulate_cbc
from cbcnoise import cli, engine
from cbcnoise.amplifier import equal_stages
from cbcnoise.cli import main
from cbcnoise.engine import EXPERIMENTS

CBC_XI = {"n_beams": 2, "photons": 100.0, "xi": 1.0}
CBC_VAR = {"n_beams": 2, "photons": 100.0, "phase_var": 0.01}
AMP = {"g": 2.0, "n_cl": 0.1}
LOCK = {"n_beams": 2, "photons": 100.0, "drift_var": 1e-4, "controller_gain": 0.4}
BUDGET = {"quantum_units": 1.0, "classical_units": 2.0}

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
    (NoiseBudget, BUDGET, "quantum_units"),
    (NoiseBudget, BUDGET, "classical_units"),
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


@pytest.mark.parametrize("flags, plan", [
    (["cbc", "-N", "2.5", "-n", "100"], "cbc\ngrid.N = 2.5\ngrid.n = 100"),
    (["cbc", "-N", "abc", "-n", "100"], "cbc\ngrid.N = abc\ngrid.n = 100"),
    (["cascade", "-G", "4", "--stages", "2.5"], "cascade\ngrid.G = 4\ngrid.stages = 2.5"),
    (["lock", "-N", "2", "-n", "100", "--intervals", "2.5"],
     "lock\ngrid.N = 2\ngrid.n = 100\ngrid.intervals = 2.5"),
    (["cbc", "-N", "2", "-n", "100", "--seed", "2.5"], "cbc\nseed = 2.5\ngrid.N = 2\ngrid.n = 100"),
    (["cbc", "-N", "2", "-n", "100", "--trials", "abc"],
     "cbc\ntrials = abc\ngrid.N = 2\ngrid.n = 100"),
], ids=["N-fraction", "N-text", "stages", "intervals", "seed", "trials"])
def test_a_count_flag_reads_as_its_plan_line(tmp_path, capsys, flags, plan):
    path = tmp_path / "plan.txt"
    path.write_text(f"experiment = {plan}\n")
    assert main(["simulate", *flags]) == 2
    from_flag = capsys.readouterr().err
    assert main(["simulate", "--plan", str(path)]) == 2
    assert from_flag.startswith("error: ") and capsys.readouterr().err == from_flag


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


@pytest.mark.parametrize("argv", [
    ["compare", "-n", "1e-320", "--N-max", "3"],
    ["predict", "-N", "2", "-n", "1e-320", "--cbc"],
    ["simulate", "lock", "-N", "2", "-n", "1e-320", "--intervals", "3"],
    ["predict", "-N", "3", "-n", "1e308", "--cbc", "--phase-var", "0.01"],
], ids=lambda argv: " ".join(argv))
def test_a_quantum_limit_that_overflows_is_a_usage_error(capsys, argv):
    # 1/((N-1)*n) is inf for a subnormal n and 0 when (N-1)*n overflows
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "quantum limit 1/((N-1)*n)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("phase_var", ["1e200", "1e-170"])
def test_gamma_rejects_a_law_variance_out_of_range(capsys, phase_var):
    # 2*N*phase_var^2 overflows at 1e200 and underflows to zero at 1e-170
    assert main(["simulate", "gamma", "-N", "2", "--phase-var", phase_var,
                 "--trials", "1000"]) == 2
    assert f"phase variance {float(phase_var)!r}" in capsys.readouterr().err


def test_compare_rejects_one_beam(capsys):
    assert main(["compare", "--N-min", "1", "--N-max", "3"]) == 2
    assert "two beams" in capsys.readouterr().err


def test_compare_rejects_a_table_past_its_row_cap_before_building_a_row(monkeypatch, capsys):
    # 10^7 beam counts at two xi would take about 20 GiB of rows
    def no_row(*args):
        raise AssertionError("a row was built")
    monkeypatch.setattr(cli, "xi_threshold", no_row)
    assert main(["compare", "--N-max", "10000000", "--xi", "1,5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --N-max 10000000 gives 19999998 rows")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "cascade", "-G", "-1"],
    ["simulate", "cascade", "-G", "0", "--stages", "2"],
    ["simulate", "amp", "-G", "-1"],
    ["simulate", "amp", "-G", "0", "--kind", "phase_sensitive"],
    ["predict", "--amp", "-G", "-1"],
    ["predict", "--amp", "-G", "0"],
    ["simulate", "amp", "-G", "0.5"],
    ["simulate", "amp", "-G", "inf"],
    ["simulate", "amp", "-G", "nan"],
    ["simulate", "cascade", "-G", "inf"],
    ["predict", "--amp", "-G", "inf"],
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


@pytest.mark.parametrize("argv, key", [
    (["predict", "--amp", "-G", "1e308"], "G"),
    (["simulate", "amp", "-G", "1e-320", "--kind", "phase_sensitive", "--trials", "1000"], "G"),
    (["simulate", "amp", "-G", "1e305", "--trials", "100000"], "G"),
    (["simulate", "cascade", "-G", "1e305", "--stages", "2", "--trials", "100000"], "G"),
    (["simulate", "amp", "-G", "1e-305", "--kind", "phase_sensitive", "--trials", "100000"], "G"),
    (["simulate", "--plan", "{plan}"], "n_cl"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_an_amplifier_out_of_float_range_is_a_named_usage_error(tmp_path, capsys, argv, key):
    # the predicted variance, times or over the trials, leaves float range: no sample is drawn
    plan = tmp_path / "plan.txt"
    plan.write_text("experiment = amp\ntrials = 100000\ngrid.G = 4\ngrid.n_cl = 1e305\n")
    assert main([arg.format(plan=plan) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert f"error: {key} " in captured.err
    assert captured.out == ""


def test_an_amplifier_near_the_float_range_still_runs(capsys):
    # the classical input's and the excess's deviations, 1e150 and ~1e145, are beyond float32
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "amp", "-G", "1e300", "--trials", "100000"]) == 0
        assert "1 point(s), 0 outside" in capsys.readouterr().out
        runs = [amplify_classical_input(AmplifierSpec(2.0), 1e300, 100000, RngStream(0))]
        runs += [simulate_amplifier(AmplifierSpec(2.0, kind, 1e290), 100000, RngStream(0))
                 for kind in ("quantum_limited", "measure_prepare", "phase_sensitive")]
    for stats in runs:
        assert all(map(math.isfinite, (stats.mean_x, stats.mean_p, stats.var_x, stats.var_p)))


@pytest.mark.parametrize("make, message", [
    (lambda: xi_threshold(2.5), "N must be a whole number, got 2.5"),
    (lambda: amplify_classical_input(AmplifierSpec(2.0), math.nan, 1000, RngStream(0)),
     "input_var must be finite"),
    (lambda: two_beam_click_rate(100.0, math.inf), "dpsi must be finite"),
], ids=["xi_threshold", "amplify_classical_input", "two_beam_click_rate"])
def test_entry_points_taking_bare_numbers_follow_the_records_rules(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make, key", [
    (lambda: simulate_amplifier(AmplifierSpec(1e152), 100000, RngStream(0)), "G"),
    (lambda: simulate_cascade(1e305, 2, 100000, RngStream(0)), "G"),
    (lambda: amplify_classical_input(AmplifierSpec(2.0), 1e305, 100000, RngStream(0)), "input_var"),
    (lambda: gamma_sum_statistics(8, 1e152, 100000, RngStream(0)), "phase variance"),
    (lambda: simulate_cbc(CbcConfig(2, 1e306, phase_var=0.01), 100000, RngStream(0)), "n"),
], ids=["simulate_amplifier", "simulate_cascade", "amplify_classical_input", "gamma",
        "simulate_cbc"])
def test_a_library_ensemble_out_of_float_range_draws_nothing(monkeypatch, make, key):
    # the predicted variance times the trials is inf: rejected before the first generator
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew a sample"))
    with pytest.raises(ValueError, match=f"^{key} .* out of float range at 100000 trials"):
        make()


def test_a_cbc_variance_out_of_float_range_is_a_named_usage_error(capsys):
    # the exact var_p, about n*v = 1e304, is finite, but not once multiplied by 100000 trials
    assert main(["simulate", "cbc", "-N", "2", "-n", "1e306", "--phase-var", "0.01",
                 "--trials", "100000"]) == 2
    captured = capsys.readouterr()
    assert "error: n 1e+306 " in captured.err
    assert captured.out == ""


def test_a_cbc_ensemble_near_the_float_range_still_runs():
    stats = simulate_cbc(CbcConfig(2, 1e300, phase_var=0.01), 100000, RngStream(0))
    assert all(map(math.isfinite, (stats.mean_x, stats.var_x, stats.var_p)))


def test_a_cbc_phase_spread_near_the_float32_range_still_runs():
    # phase_var 1e72 is inside cbc_kernel's float32 rule (below ~2.8e73); its -2*sigma^2,
    # 2e72, is not a float32, so the sampler may scale its phases by sigma only
    with pytest.warns(SmallAngleWarning):
        config = CbcConfig(2, 1.0, phase_var=1e72)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stats = simulate_cbc(config, 1000, RngStream(3))
    assert all(map(math.isfinite, (stats.mean_x, stats.var_x, stats.var_p)))


def test_a_gamma_phase_var_beyond_the_float32_range_still_runs():
    # float32 holds the unit terms only; phase_var 1e40 (not a float32) scales their float64 sums
    n_terms, phase_var, trials = 2, 1e40, 100_000
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mean, _ = gamma_sum_statistics(n_terms, phase_var, trials, RngStream(0))
    se_mean = math.sqrt(2 * n_terms * phase_var ** 2 / trials)
    assert math.isfinite(mean) and abs(mean - n_terms * phase_var) < 5 * se_mean


def test_an_input_var_beyond_float_range_in_vacuum_units_draws_nothing(monkeypatch):
    # 5e307 is finite, but 5e307 / 0.25 vacuum units is not
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew a sample"))
    with pytest.raises(ValueError, match=r"^input_var 5e\+307 ") as excinfo:
        amplify_classical_input(AmplifierSpec(1.0), 5e307, 2, RngStream(0))
    assert "finite" not in str(excinfo.value)


@pytest.mark.parametrize("workers, message", [
    (0, "workers must be at least 1, got 0"),
    (-1, "workers must be at least 1, got -1"),
    (2.5, "workers must be a whole number, got 2.5"),
])
def test_a_worker_count_below_one_or_fractional_is_named(monkeypatch, capsys, workers, message):
    # rejected before a pool is started
    monkeypatch.setattr(engine, "ThreadPoolExecutor", lambda **_: pytest.fail("started a pool"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_plan(ExperimentPlan("cbc", ({"N": 2, "n": 100},), 1000), workers=workers)
    argv = ["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1000",
            "--workers", str(workers)]
    if workers == 2.5:  # --workers is parsed as an int, so argparse names the flag
        with pytest.raises(SystemExit, match="2"):
            main(argv)
        assert "argument --workers: invalid int value: '2.5'" in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_a_gamma_law_variance_times_the_trials_out_of_range_is_a_usage_error(capsys):
    # 2*N*v^2 = 1.6e305 is finite, but not once multiplied by 100000 trials
    assert main(["simulate", "gamma", "-N", "8", "--phase-var", "1e152",
                 "--trials", "100000"]) == 2
    captured = capsys.readouterr()
    assert "error: phase variance 1e+152 " in captured.err
    assert captured.out == ""


BIG = "1" + "0" * 400  # a whole number no float can hold


@pytest.mark.parametrize("argv, plan, message", [
    (["predict", "--threshold", "-N", BIG], "", "N is too large"),
    (["predict", "--threshold", "-N", "1.4e154"], "",
     "N = 1.4e+154 puts (N-1)^2/2 out of float range"),
    (["predict", "-N", "1e200", "-n", "1000"], "", "N = 1e+200 puts (N-1)^2/2 out of float range"),
    (["predict", "--amp", "-N", BIG], "", "N is too large for a float"),
    (["predict", "--amp", "-G", "1e400"], "", "G must be positive and finite"),
    (["simulate", "cbc", "-N", BIG, "-n", "100"], "", "N is too large"),
    (["simulate", "lock", "-N", BIG, "-n", "100"], "", "N is too large"),
    (["simulate", "gamma", "-N", BIG, "--phase-var", "0.01", "--trials", "1000"], "",
     "N is too large"),
    (["simulate", "cascade", "-G", "4", "--stages", BIG, "--trials", "1000"], "",
     "stages is too large"),
    (["compare", "--N-min", BIG, "--N-max", BIG], "", "N is too large"),
    (["simulate", "--plan", "{plan}"], f"cbc\ngrid.N = {BIG}\ngrid.n = 100", "N is too large"),
    (["simulate", "--plan", "{plan}"], f"cbc\ngrid.N = 2\ngrid.n = {BIG}", "n is too large"),
    (["simulate", "--plan", "{plan}"], f"amp\ngrid.G = {BIG}", "G is too large"),
], ids=["threshold", "threshold-square", "predict-all", "predict-amp", "predict-amp-G", "cbc",
        "lock", "gamma", "cascade", "compare", "plan-N", "plan-n", "plan-G"])
def test_a_count_or_gain_beyond_float_range_is_a_usage_error(tmp_path, capsys, argv, plan,
                                                             message):
    path = tmp_path / "plan.txt"
    path.write_text(f"experiment = {plan}\ntrials = 1000\n")
    assert main([arg.format(plan=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_a_seed_beyond_float_range_still_runs():
    # numpy's SeedSequence takes any nonnegative whole number
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 100},), 1000, int(BIG))
    assert plan.master_seed == int(BIG) and len(run_plan(plan).points) == 1


def test_the_combiner_takes_a_scalar_as_one_beam():
    for transform in (dft, inverse_dft):
        assert transform(1.0).tolist() == [1.0 + 0j]
    assert error_signals(1.0).tolist() == [0j]
    assert combine_port_amplitude(1.0) == 1.0 + 0j


@pytest.mark.parametrize("phases, photons, message", [
    ([0.1, 0.2], -1.0, "photon number must be positive"),
    ([0.1, math.nan], 100.0, "phases must be finite"),
    ([0.1, math.inf], 100.0, "phases must be finite"),
], ids=["negative-n", "nan-phase", "inf-phase"])
def test_error_photon_number_follows_the_records_rules(phases, photons, message):
    with pytest.raises(ValueError, match=message):
        error_photon_number(phases, photons)


def test_cbc_phases_beyond_float32_are_a_usage_error(capsys):
    # a float32 phase past 3.4e38 is inf, and every measured column would read nan
    with pytest.warns(SmallAngleWarning):
        assert main(["simulate", "cbc", "-N", "2", "-n", "1", "--phase-var", "1e78",
                     "--trials", "1000"]) == 2
    assert "error: phase_var 1e+78 " in capsys.readouterr().err


@pytest.mark.parametrize("make, error, message", [
    (lambda: AmplifierSpec(0.0, "phase_sensitive"), ValueError, "gain must be positive"),
    (lambda: equal_stages(4.0, 0), ValueError, "at least one stage"),
    (lambda: sample_coherent(0.0, 42), TypeError, "expected RngStream or numpy Generator"),
    (lambda: CbcConfig(2, 100.0, phase_var=-0.1), ValueError, "must be nonnegative"),
    (lambda: error_photon_number([], 100.0), ValueError, "empty input"),
    (lambda: gamma_sum_statistics(0, 0.01, 1000, RngStream(0)), ValueError, "at least one term"),
], ids=["phase-sensitive-g", "stages", "generator", "phase_var", "no-phases", "no-terms"])
def test_each_library_rejection_names_its_cause(make, error, message):
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("argv, message", [
    (["predict", "--amp"], "amplifier prediction needs -G"),
    (["predict", "--threshold"], "threshold prediction needs -N"),
    (["simulate", "cbc", "--plan", "{plan}"], "give either an experiment name or --plan"),
    (["compare", "--N-min", "5", "--N-max", "3"], "empty N range"),
    (["predict", "--amp", "-N", "abc"], "N must be a number, got 'abc'"),
    (["predict", "--cbc", "-N", "abc", "-n", "10"], "N must be a number, got 'abc'"),
    (["predict", "--threshold", "-N", "abc"], "N must be a number, got 'abc'"),
    (["simulate", "cbc", "-N", "abc", "-n", "10"], "N must be a number, got 'abc'"),
], ids=["predict-amp", "predict-threshold", "name-and-plan", "compare", "predict-amp-N-text",
        "predict-cbc-N-text", "predict-threshold-N-text", "simulate-cbc-N-text"])
def test_each_usage_rejection_names_its_cause(tmp_path, capsys, argv, message):
    plan = tmp_path / "plan.txt"
    plan.write_text("experiment = cbc\ntrials = 1000\ngrid.N = 2\ngrid.n = 100\n")
    assert main([arg.format(plan=plan) for arg in argv]) == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("make, message", [
    (lambda: simulate_two_beam_clicks(1e20, 0.5, 10, RngStream(0)), r"n 1e\+20 "),
    (lambda: FeedbackConfig(2, 1e20), r"n 1e\+20 "),
    (lambda: FeedbackConfig(2, 1e19, drift_var=1e-3, intervals=3), r"n 1e\+19 "),
    (lambda: FeedbackConfig(16, 3e18), r"n 3e\+18 "),
    (lambda: FeedbackConfig(2, 1000, drift_var=1e306, intervals=3), r"drift_var 1e\+306 "),
    (lambda: run_feedback(FeedbackConfig(2, 1000, intervals=3), RngStream(0), [1e153, -1e153]),
     "initial phases must be finite and keep Var"),
    (lambda: CbcConfig(2, 100, phase_var=1e200), r"phase_var 1e\+200 puts var_x"),
    (lambda: CbcConfig(2, 1e300, phase_var=1e10), "xi must be finite"),
    (lambda: CbcConfig(2, 1e-300, xi=1e10), "phase_var must be finite"),
], ids=["clicks", "lock-n", "lock-n-dim", "lock-n-sum", "drift_var", "initial-phases",
        "cbc-var_x", "cbc-xi", "cbc-phase_var"])
def test_a_lock_or_cbc_input_past_its_range_draws_nothing(monkeypatch, make, message):
    # a Poisson mean past numpy's limit, a Var(psi)/SQL or a prediction past float range
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew a sample"))
    with pytest.raises(ValueError, match=f"^{message}"):
        make()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "lock", "-N", "2", "-n", "1e20", "--init-spread", "1"], "n 1e+20 "),
    (["simulate", "lock", "-N", "2", "-n", "1e19", "--drift-var", "1e-3"], "n 1e+19 "),
    # each port's mean fits numpy's Poisson limit, but their int64 sum over 16 ports would wrap
    (["simulate", "lock", "-N", "16", "-n", "3e18", "--init-spread", "1.5707963"], "n 3e+18 "),
    (["simulate", "lock", "-N", "2", "-n", "1000", "--init-spread", "1e153"], "initial phases"),
    (["simulate", "lock", "-N", "2", "-n", "1000", "--drift-var", "1e306"], "drift_var 1e+306 "),
    (["predict", "--cbc", "-N", "2", "-n", "100", "--phase-var", "1e200"], "phase_var 1e+200 "),
    (["predict", "--cbc", "-N", "2", "-n", "1e300", "--phase-var", "1e10"], "xi must be finite"),
    (["compare", "-n", "1e-300", "--xi", "1e10", "--N-max", "3"], "phase_var must be finite"),
    (["simulate", "cbc", "-N", "2", "-n", "1e200", "--phase-var", "1e70"], "phase_var 1e+70 "),
], ids=["lock-n", "lock-n-dim", "lock-n-sum", "init-spread", "drift_var", "predict-var_x",
        "predict-xi", "compare-phase_var", "simulate-var_x"])
def test_a_lock_or_cbc_input_past_its_range_is_a_usage_error(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(RngStream, "generator", lambda self: pytest.fail("drew a sample"))
    assert main(argv + (["--intervals", "3"] if "lock" in argv else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("argv, status", [
    (["simulate", "lock", "-N", "2", "-n", "3e18", "--init-spread", "1"], 1),
    (["simulate", "lock", "-N", "2", "-n", "1000", "--init-spread", "1e152"], 1),
    (["simulate", "lock", "-N", "2", "-n", "1000", "--drift-var", "1e290"], 0),
], ids=["n", "init-spread", "drift_var"])
def test_a_lock_near_its_range_still_runs(tmp_path, argv, status):
    # the loop runs to the end and reports a finite Var(psi)/SQL, failed or not
    out = tmp_path / "lock.json"
    assert main(argv + ["--intervals", "3", "--format", "json", "--out", str(out)]) == status
    record, = json.loads(out.read_text())["records"]
    assert math.isfinite(record["measured_steady_ratio"])


def test_clicks_and_predictions_near_their_range_still_run():
    # a click rate of 2n = 9.2e18 sits just inside numpy's Poisson limit
    assert math.isfinite(simulate_two_beam_clicks(4.6e18, math.pi, 10, RngStream(0))[0])
    with pytest.warns(SmallAngleWarning):
        assert math.isfinite(predict_output(CbcConfig(2, 1.0, phase_var=1e78)).var_x)
