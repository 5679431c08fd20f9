"""Tests for plan files, the experiment runner, and its tolerance bands."""

import math

import numpy as np
import pytest

from cbcnoise import (
    VAR_COH,
    AmplifierSpec,
    CbcConfig,
    ExperimentPlan,
    RngStream,
    load_plan,
    run_plan,
    simulate_cbc,
)
from cbcnoise.amplifier import KINDS
from cbcnoise.combining import predict_output


def write_plan(tmp_path, text):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    return path


def test_load_plan_parses_grid_and_defaults(tmp_path):
    path = write_plan(tmp_path, """
# comment line
experiment = cbc
trials = 5000
grid.N = 2, 4
grid.n = 100   # trailing comment
grid.xi = 1
""")
    plan = load_plan(path)
    assert plan.experiment == "cbc"
    assert plan.trials == 5000
    assert plan.master_seed == 0
    assert plan.tolerance_k == 5.0
    # cross product in axis order, first axis slowest
    assert plan.grid == (
        {"N": 2, "n": 100, "xi": 1},
        {"N": 4, "n": 100, "xi": 1},
    )


def test_load_plan_rejects_malformed_input(tmp_path):
    with pytest.raises(ValueError):
        load_plan(write_plan(tmp_path, "experiment = cbc\njust some words\n"))
    with pytest.raises(ValueError):
        load_plan(write_plan(tmp_path, "grid.N = 2\n"))  # no experiment
    with pytest.raises(ValueError):
        load_plan(write_plan(tmp_path, "experiment = cbc\ntrials = 100\n"))  # no grid
    with pytest.raises(ValueError, match="unknown key"):
        load_plan(write_plan(tmp_path, "experiment = cbc\ntrails = 99\ngrid.N = 2\n"))
    with pytest.raises(OSError):
        load_plan(tmp_path / "missing.txt")


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan("teleportation", ({"N": 2},), 1000, 0)
    with pytest.raises(ValueError, match="missing key 'n'"):
        ExperimentPlan("cbc", ({"N": 2},), 1, 0)
    with pytest.raises(ValueError):
        ExperimentPlan("cbc", (), 1000, 0)


def test_run_plan_cbc_point():
    plan = ExperimentPlan("cbc", ({"N": 4, "n": 1000, "xi": 1.0},), 40_000, 11)
    result = run_plan(plan)
    point = result.points[0]
    assert result.all_passed
    assert set(point.z) == {"mean_x", "var_x", "var_p"}
    pred = predict_output(CbcConfig(n_beams=4, photons=1000, xi=1.0))
    assert point.predicted["var_p"] == pytest.approx(pred.var_p, rel=1e-12)
    assert point.measured["var_p"] == pytest.approx(pred.var_p, rel=0.05)


def test_run_plan_matches_direct_simulation():
    # the runner must reproduce simulate_cbc bit for bit when fed the same
    # stream: point index 0, chunks merged in order
    record = {"N": 2, "n": 1000.0, "xi": 1.0}
    plan = ExperimentPlan("cbc", (record,), 30_000, 5)
    result = run_plan(plan)
    direct = simulate_cbc(CbcConfig(n_beams=2, photons=1000, xi=1.0), 30_000,
                          RngStream(5).substream(0))
    assert result.points[0].stats == direct


@pytest.mark.parametrize("experiment,record", [
    ("amp", {"G": 4.0, "kind": "quantum_limited"}),
    ("amp", {"G": 4.0, "kind": "measure_prepare"}),
    ("amp", {"G": 4.0, "kind": "phase_sensitive"}),
    ("cascade", {"G": 4.0, "stages": 2}),
    ("gamma", {"N": 10, "phase_var": 0.01}),
])
def test_run_plan_other_experiments_pass(experiment, record):
    plan = ExperimentPlan(experiment, (record,), 60_000, 29)
    assert run_plan(plan).all_passed


def test_amp_plan_passes_every_kind_with_and_without_excess():
    # a phase-sensitive stage adds its 2*G*n_cl excess to both quadratures too
    grid = tuple({"G": big_g, "kind": kind, "n_cl": n_cl} for big_g in (1.0, 2.5, 4.0)
                 for kind in KINDS for n_cl in (0.0, 0.3))
    result = run_plan(ExperimentPlan("amp", grid, 200_000, 5))
    assert result.all_passed, [point.z for point in result.points if not point.passed]
    for point in result.points:
        if point.config["kind"] == "phase_sensitive" and point.config["n_cl"] == 0.0:
            big_g = AmplifierSpec(math.sqrt(point.config["G"])).gain
            assert point.predicted == {"mean_x": math.sqrt(point.config["G"]),
                                       "var_x": big_g * VAR_COH, "var_p": VAR_COH / big_g}


def test_run_plan_lock_experiments():
    drift_free = {"N": 2, "n": 10_000.0, "intervals": 60, "init_spread": 0.05}
    sql = 1.0 / 10_000
    drifting = {"N": 4, "n": 10_000.0, "intervals": 300, "drift_var": sql / 10}
    # trials is unused by the lock runner
    plan = ExperimentPlan("lock", (drift_free, drifting), 100, 8)
    result = run_plan(plan)
    assert result.all_passed
    free_point, drift_point = result.points
    assert free_point.measured["final_var"] <= 10 * sql
    assert drift_point.measured["steady_ratio"] >= 1.0


@pytest.mark.parametrize("experiment,record", [
    ("cbc", {"N": 2, "n": 100}),
    ("amp", {"G": 4}),
    ("cascade", {"G": 4}),
    ("gamma", {"N": 2, "phase_var": 0.01}),
])
def test_run_plan_rejects_too_few_trials(experiment, record):
    plan = ExperimentPlan(experiment, (record,), 1, 0)
    with pytest.raises(ValueError, match="at least 2 trials"):
        run_plan(plan)


def test_lock_plan_ignores_trials():
    record = {"N": 2, "n": 10_000.0, "intervals": 30, "init_spread": 0.05}
    one, many = (run_plan(ExperimentPlan("lock", (record,), trials, 8)).points[0]
                 for trials in (1, 100_000))
    assert one.passed
    assert one.measured == many.measured


@pytest.mark.parametrize("workers", [2, 4])
def test_worker_count_does_not_change_results(workers):
    grid = (
        {"N": 2, "n": 1000, "xi": 1.0},
        {"N": 4, "n": 100, "xi": 2.0},
    )
    plan = ExperimentPlan("cbc", grid, 150_000, 13)
    serial = run_plan(plan, workers=1)
    parallel = run_plan(plan, workers=workers)
    for a, b in zip(serial.points, parallel.points):
        assert a.measured == b.measured  # exact float equality, no tolerance
        assert a.z == b.z


def test_biased_point_fails_the_band():
    # at N=2, n=100, xi=5 the quadratic prediction underestimates how much
    # the exact moments bend over, so the z gate must reject it
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 100, "xi": 5.0},), 100_000, 31)
    result = run_plan(plan)
    assert not result.all_passed
    assert result.points[0].z["var_p"] < -5.0


def test_tolerance_calibration_over_seeds():
    """About 99 of 100 reruns should land inside the 5 SE band on every score."""
    config = CbcConfig(n_beams=4, photons=1000, xi=1.0)
    pred = predict_output(config)
    within = {"mean_x": 0, "var_x": 0, "var_p": 0}
    z_sum = {"mean_x": 0.0, "var_x": 0.0, "var_p": 0.0}
    seeds = 100
    for seed in range(seeds):
        stats = simulate_cbc(config, 20_000, RngStream(900 + seed))
        scores = {
            "mean_x": (stats.mean_x - pred.mean_amplitude) / stats.se_mean_x,
            "var_x": (stats.var_x - pred.var_x) / stats.se_var_x,
            "var_p": (stats.var_p - pred.var_p) / stats.se_var_p,
        }
        for name, z in scores.items():
            z_sum[name] += z
            within[name] += abs(z) <= 5.0
    for name in within:
        assert within[name] >= 99, f"{name}: only {within[name]} of {seeds} inside the band"
        # mean z stays near zero when the standard errors are honest
        assert abs(z_sum[name] / seeds) <= 0.5, f"{name}: biased z"


@pytest.mark.parametrize("experiment,record", [
    ("amp", {"G": 4.0, "kind": "quantum_limited"}),
    ("amp", {"G": 4.0, "kind": "measure_prepare"}),
    ("amp", {"G": 4.0, "kind": "phase_sensitive"}),
    ("cascade", {"G": 16.0, "stages": 4}),
    ("gamma", {"N": 10, "phase_var": 0.01}),
])
def test_run_plan_matches_library(experiment, record):
    # each kernel states its chunk width once, so the runner and the
    # library function lay out the same chunks on substream(0)
    from cbcnoise import AmplifierSpec, gamma_sum_statistics, simulate_amplifier, simulate_cascade

    trials, stream = 70_001, RngStream(5).substream(0)
    point = run_plan(ExperimentPlan(experiment, (record,), trials, 5)).points[0]
    if experiment == "amp":
        spec = AmplifierSpec(g=math.sqrt(record["G"]), kind=record["kind"])
        assert point.stats == simulate_amplifier(spec, trials, stream)
    elif experiment == "cascade":
        assert point.stats == simulate_cascade(record["G"], record["stages"], trials, stream)
    else:
        direct = gamma_sum_statistics(record["N"], record["phase_var"], trials, stream)
        assert (point.measured["mean"], point.measured["variance"]) == direct


@pytest.mark.parametrize("experiment,record,message", [
    ("cbc", {"n": 100, "xi": 1.0}, "missing key 'N'"),
    ("gamma", {"N": 4}, "missing key 'phase_var'"),
    ("lock", {"N": 2, "n": 100.0, "intervls": 5}, "unknown key 'intervls'"),
    ("amp", {"G": 4.0, "stages": 2}, "unknown key 'stages'"),
], ids=["cbc-without-N", "gamma-without-phase_var", "lock-typo", "amp-with-stages"])
def test_plan_records_checked_against_the_table(experiment, record, message):
    with pytest.raises(ValueError, match=message):
        ExperimentPlan(experiment, (record,), 1000, 0)


def test_plan_options_take_their_defaults():
    # a record without options runs as the one that spells the defaults out
    from cbcnoise import FeedbackConfig

    lock = {"N": 3, "n": 1000.0}
    spelled = {**lock, "drift_var": 0.0, "gain": FeedbackConfig.controller_gain,
               "intervals": 100, "init_spread": 0.0}
    for experiment, short, full in [("cbc", {"N": 4, "n": 100}, {"N": 4, "n": 100, "xi": 1.0}),
                                    ("amp", {"G": 3.0}, {"G": 3.0, "kind": "quantum_limited",
                                                         "n_cl": 0.0}),
                                    ("cascade", {"G": 4.0}, {"G": 4.0, "stages": 1}),
                                    ("lock", lock, spelled)]:
        a = run_plan(ExperimentPlan(experiment, (short,), 5000, 3)).points[0]
        b = run_plan(ExperimentPlan(experiment, (full,), 5000, 3)).points[0]
        assert a.config == short  # the record keeps exactly the keys it was given
        assert (a.stats, a.measured) == (b.stats, b.measured)


def test_run_plan_needs_a_worker():
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 100, "xi": 1.0},), 1000, 0)
    with pytest.raises(ValueError):
        run_plan(plan, workers=0)
