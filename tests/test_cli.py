"""End-to-end tests for the command line interface."""

import csv
import json
import os

import pytest

from cbcnoise import CbcConfig, ExperimentPlan, RngStream, run_plan, simulate_cbc
from cbcnoise.cli import build_parser, main


def read_csv(path):
    comments, rows = [], []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line)
    return comments, list(csv.DictReader(rows))


def test_predict_prints_cbc_numbers(capsys):
    rc = main(["predict", "--cbc", "-N", "2", "-n", "1000", "--xi", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "44.6989988702208" in out
    assert "var_p_units" in out


def test_predict_default_prints_all_sections(capsys):
    rc = main(["predict", "-N", "3", "-n", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    for token in ("cbc", "amp", "threshold"):
        assert token in out


def test_predict_threshold_value(capsys):
    main(["predict", "--threshold", "-N", "3"])
    assert "2.0" in capsys.readouterr().out


def test_simulate_within_band_exits_zero(capsys):
    rc = main(["simulate", "cbc", "-N", "2", "-n", "1000", "--xi", "1",
               "--trials", "30000", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 outside" in out


def test_simulate_biased_point_exits_one(capsys):
    # the quadratic prediction is visibly wrong for xi = 5 at n = 100, so
    # an honest band check has to flag it
    rc = main(["simulate", "cbc", "-N", "2", "-n", "100", "--xi", "5",
               "--trials", "200000", "--seed", "3"])
    assert rc == 1
    assert "outside" in capsys.readouterr().out


def test_simulate_lock(capsys):
    rc = main(["simulate", "lock", "-N", "2", "-n", "10000", "--intervals", "60",
               "--init-spread", "0.05", "--seed", "5"])
    assert rc == 0


def test_simulate_lock_summary_has_no_band(capsys):
    # lock points carry no standard errors, so the summary only counts failures
    rc = main(["simulate", "lock", "-N", "2", "-n", "10000", "--intervals", "10",
               "--tolerance-k", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "1 point(s), 0 failed (seed 0)"
    assert "standard error" not in out


def test_usage_errors_exit_two(capsys):
    assert main(["simulate", "cbc", "-n", "100", "--xi", "1"]) == 2  # missing -N
    assert main(["simulate", "--plan", "/no/such/plan.txt"]) == 2
    assert main(["simulate"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_plan_file_drives_simulate(tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(
        "experiment = amp\n"
        "trials = 50000\n"
        "seed = 21\n"
        "grid.G = 1, 4\n"
    )
    rc = main(["simulate", "--plan", str(plan_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 point(s)" in out


def test_csv_output_round_trips_exactly(tmp_path):
    out_path = tmp_path / "cbc.csv"
    rc = main(["simulate", "cbc", "-N", "2", "-n", "1000", "--xi", "1",
               "--trials", "30000", "--seed", "9", "--out", str(out_path)])
    assert rc == 0
    comments, rows = read_csv(out_path)
    assert comments and comments[0].startswith("#")
    assert any(": photons" in c for c in comments)  # unit annotations
    assert len(rows) == 1
    # the same experiment through the library gives bit-identical floats
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 1000.0, "xi": 1.0},), 30_000, 9)
    point = run_plan(plan).points[0]
    row = rows[0]
    assert float(row["measured_var_p"]) == point.measured["var_p"]
    assert float(row["measured_mean_x"]) == point.measured["mean_x"]
    assert float(row["z_var_p"]) == point.z["var_p"]
    assert row["passed"] == "1"


def test_json_output_structure(tmp_path):
    out_path = tmp_path / "amp.json"
    rc = main(["simulate", "amp", "-G", "4", "--trials", "40000", "--seed", "2",
               "--format", "json", "--out", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"title", "units", "records"}
    record = doc["records"][0]
    assert record["passed"] is True
    assert record["measured_var_x"] == pytest.approx(1.75, rel=0.05)


def test_same_seed_same_file(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "gamma", "-N", "10", "--phase-var", "0.01",
            "--trials", "50000", "--seed", "17"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_table(capsys):
    rc = main(["compare", "--N-min", "2", "--N-max", "3", "-n", "100", "--xi", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    header, first, second = lines[0], lines[1], lines[2]
    assert "cbc_worse" in header
    # two beams at xi = 1: combining noise 5 units vs 3 for the amplifier
    assert first.split()[:1] == ["2"]
    assert "5.0" in first and "3.0" in first
    # three beams: the ordering flips
    assert second.split()[0] == "3"


def test_compare_csv(tmp_path):
    out_path = tmp_path / "cmp.csv"
    rc = main(["compare", "--N-min", "2", "--N-max", "8", "-n", "1000",
               "--xi", "1,4", "--out", str(out_path)])
    assert rc == 0
    _, rows = read_csv(out_path)
    assert len(rows) == 14  # 7 beam counts, two xi values
    worse = {(r["N"], r["xi"]): r["cbc_worse"] for r in rows}
    assert worse[("2", "1.0")] == "1"
    assert worse[("8", "1.0")] == "0"


DRIFT_FREE_LOCK = ["simulate", "lock", "-N", "2", "-n", "10000", "--intervals", "60",
                   "--init-spread", "0.05", "--seed", "5"]


def test_simulate_lock_json(tmp_path):
    out_path = tmp_path / "lock.json"
    assert main(DRIFT_FREE_LOCK + ["--format", "json", "--out", str(out_path)]) == 0
    record = json.loads(out_path.read_text())["records"][0]
    assert record["passed"] is True
    assert isinstance(record["measured_final_var"], float)
    assert record["measured_final_var"] <= 10 * record["predicted_sql"]


def test_simulate_lock_csv(tmp_path):
    out_path = tmp_path / "lock.csv"
    assert main(DRIFT_FREE_LOCK + ["--out", str(out_path)]) == 0
    _, rows = read_csv(out_path)
    row = rows[0]
    assert row["passed"] == "1"
    assert float(row["measured_final_var"]) <= 10 * float(row["predicted_sql"])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_lock_records_carry_no_trial_settings(tmp_path, fmt):
    # a lock point runs no ensemble, so it writes neither trials nor tolerance_k
    out_path = tmp_path / f"lock.{fmt}"
    assert main(DRIFT_FREE_LOCK + ["--trials", "1", "--format", fmt, "--out", str(out_path)]) == 0
    if fmt == "json":
        doc = json.loads(out_path.read_text())
        columns = set(doc["units"]) | set(doc["records"][0])
    else:
        comments, rows = read_csv(out_path)
        columns = set(rows[0]) | {line[2:].split(":")[0] for line in comments[1:]}
    assert {"experiment", "seed", "N", "passed"} <= columns
    assert not columns & {"trials", "tolerance_k"}


def test_simulate_too_few_trials_exits_two(capsys):
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1"]) == 2
    assert "at least 2 trials" in capsys.readouterr().err


def test_simulate_lock_default_gain_matches_library(tmp_path):
    from cbcnoise import FeedbackConfig

    out_path = tmp_path / "lock.csv"
    main(DRIFT_FREE_LOCK + ["--out", str(out_path)])
    _, rows = read_csv(out_path)
    assert float(rows[0]["gain"]) == FeedbackConfig.controller_gain == 0.4


def test_simulate_choices_are_the_experiment_table():
    # every key and option of every row is a flag, spelled as in plans with _ as -; it has no
    # argparse default, so only a typed flag reaches the namespace, and its help quotes the
    # table's default; a text option takes its choices, and counts parse as plan lines, as ints
    import argparse

    from cbcnoise.engine import EXPERIMENTS

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    actions = {a.dest: a for a in sub.choices["simulate"]._actions}
    assert tuple(actions["experiment"].choices) == tuple(EXPERIMENTS)
    fields = [(name, row, key) for name, row in EXPERIMENTS.items()
              for key in (*row.keys, *row.options)]
    assert {key for _, _, key in fields} <= set(actions)
    for name, row, key in fields:
        action = actions[key]
        assert action.option_strings == [("-" if len(key) == 1 else "--") + key.replace("_", "-")]
        assert action.default is argparse.SUPPRESS
        if row.options.get(key) is not None:
            assert f"{name}: {row.help[key]} (default {row.options[key]})" in action.help
        if key in row.choices:
            assert tuple(action.choices) == tuple(row.choices[key])
        else:
            parsed = action.type("3")
            assert type(parsed) is (int if key in ("N", "stages", "intervals") else float)


def test_simulate_rejects_nan_xi(capsys):
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--xi", "nan",
                 "--trials", "1000"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags,column,value", [
    ([], "xi", "1.0"),
    (["--xi", "2"], "xi", "2.0"),
    (["--phase-var", "0.001"], "phase_var", "0.001"),
    (["--xi", "2", "--phase-var", "0.001"], "phase_var", "0.001"),
])
def test_simulate_cbc_columns(tmp_path, flags, column, value):
    # one phase column: xi (default 1), or phase_var, which overrides --xi
    out_path = tmp_path / "cbc.csv"
    main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1000",
          "--out", str(out_path)] + flags)
    _, rows = read_csv(out_path)
    assert list(rows[0])[:7] == ["experiment", "seed", "trials", "tolerance_k", "N", "n", column]
    assert list(rows[0])[7] == "measured_mean_x"
    assert rows[0][column] == value


def write_plan(tmp_path, text):
    path = tmp_path / "plan.txt"
    path.write_text(text)
    return path


def test_plan_missing_grid_key_exits_two(tmp_path, capsys):
    path = write_plan(tmp_path, "experiment = cbc\ntrials = 1000\ngrid.n = 100\n")
    assert main(["simulate", "--plan", str(path)]) == 2
    assert "missing key 'N'" in capsys.readouterr().err


def test_plan_unknown_grid_key_exits_two(tmp_path, capsys):
    path = write_plan(tmp_path, "experiment = lock\ngrid.N = 2\ngrid.n = 1000\ngrid.intervls = 5\n")
    assert main(["simulate", "--plan", str(path)]) == 2
    assert "unknown key 'intervls'" in capsys.readouterr().err


@pytest.mark.parametrize("plan_text,flags", [
    ("experiment = cbc\ngrid.N = 2\ngrid.n = 1000\n", ["cbc", "-N", "2", "-n", "1000"]),
    ("experiment = cascade\ngrid.G = 16\n", ["cascade", "-G", "16"]),
    ("experiment = amp\ngrid.G = 4\ngrid.n_cl = 1\n", ["amp", "-G", "4", "--n-cl", "1"]),
], ids=["cbc-without-xi", "cascade-without-stages", "amp-without-kind"])
def test_plan_without_options_runs_as_the_flags(tmp_path, plan_text, flags):
    # the plan leaves out cbc's xi, cascade's stages or amp's kind; each takes the
    # default the flags take, and amp's n_cl runs as its flag does
    common = ["--trials", "20000", "--seed", "4", "--format", "json"]
    path = write_plan(tmp_path, plan_text + "trials = 20000\nseed = 4\n")
    plan_out, flag_out = tmp_path / "plan.json", tmp_path / "flags.json"
    assert main(["simulate", "--plan", str(path), "--format", "json", "--out", str(plan_out)]) == 0
    assert main(["simulate", *flags, *common, "--out", str(flag_out)]) == 0
    plan_rec = json.loads(plan_out.read_text())["records"][0]
    flag_rec = json.loads(flag_out.read_text())["records"][0]
    measured = [k for k in flag_rec if k.startswith(("measured_", "predicted_", "se_", "z_"))]
    assert measured
    assert {k: plan_rec[k] for k in measured} == {k: flag_rec[k] for k in measured}


def test_amp_without_n_cl_writes_no_n_cl_column(tmp_path):
    # a flag whose table default is None writes no column when it is not given
    out = tmp_path / "amp.csv"
    assert main(["simulate", "amp", "-G", "4", "--trials", "2000", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert list(rows[0])[:6] == ["experiment", "seed", "trials", "tolerance_k", "G", "kind"]
    assert "n_cl" not in rows[0]


@pytest.mark.parametrize("argv, message", [
    (["cbc", "-N", "2", "-n", "100", "--stages", "4", "--n-cl", "3"],
     "cbc takes no --n-cl, --stages"),
    (["lock", "-N", "2", "-n", "100", "--phase-var", "0.1"], "lock takes no --phase-var"),
    (["gamma", "-N", "8", "--phase-var", "0.01", "--kind", "phase_sensitive"],
     "gamma takes no --kind"),
    (["--plan", "{plan}", "-N", "8"], "--plan takes no -N"),
    (["--plan", "{plan}", "--xi", "2", "--drift-var", "0.1"], "--plan takes no --xi, --drift-var"),
    (["--plan", "{plan}", "--phase-var", "0.01"], "--plan takes no --phase-var"),
    (["cbc", "-N", "2", "-n", "100", "--stages", "1"], "cbc takes no --stages"),
    (["gamma", "-N", "8", "--phase-var", "0.01", "--kind", "quantum_limited"],
     "gamma takes no --kind"),
    (["gamma", "-N", "8", "--phase-var", "0.01", "--xi", "3"], "gamma takes no --xi"),
    (["--plan", "{plan}", "--xi", "1"], "--plan takes no --xi"),
    (["--plan", "{plan}", "--trials", "1000", "--seed", "9"], "--plan takes no --trials, --seed"),
    (["--plan", "{plan}", "--tolerance-k", "3"], "--plan takes no --tolerance-k"),
], ids=["cbc-stages-n-cl", "lock-phase-var", "gamma-kind", "plan-N", "plan-xi-drift-var",
        "plan-phase-var", "cbc-default-stages", "gamma-default-kind", "gamma-phase-var-xi",
        "plan-default-xi", "plan-trials-seed", "plan-tolerance-k"])
def test_simulate_rejects_point_flags_it_does_not_take(tmp_path, capsys, argv, message):
    # an experiment takes its own keys and options, a plan none and no run setting; a flag
    # counts when it is typed, even at its default, and each stray flag is named
    plan = write_plan(tmp_path, "experiment = cbc\ngrid.N = 2\ngrid.n = 100\n")
    argv = ["simulate", *(arg.format(plan=plan) for arg in argv)]
    if "--plan" not in argv:
        argv += ["--trials", "1000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--threshold", "-N", "3", "--xi", "7", "-n", "5"], "predict --threshold takes no -n, --xi"),
    (["--cbc", "-N", "2", "-n", "100", "-G", "4"], "predict --cbc takes no -G"),
    (["--amp", "-G", "4", "-n", "5"], "predict --amp takes no -n"),
    (["-N", "4", "-n", "1000", "--xi", "1", "-G", "2"], None),
], ids=["threshold", "cbc", "amp", "all-sections"])
def test_predict_rejects_flags_its_sections_do_not_read(capsys, argv, message):
    # cbc reads its keys and options, amp -G and -N (G's fallback), threshold -N; all
    # sections together read every flag, so a bare predict refuses none
    rc = main(["predict", *argv])
    err = capsys.readouterr().err
    assert (rc, err) == ((2, f"error: {message}\n") if message else (0, ""))


def test_phase_var_unsets_xi_without_making_it_stray(tmp_path):
    # --phase-var sets xi to None, which gamma does not take; the run goes ahead
    out = tmp_path / "gamma.csv"
    assert main(["simulate", "gamma", "-N", "8", "--phase-var", "0.01", "--trials", "2000",
                 "--out", str(out)]) == 0
    assert "xi" not in read_csv(out)[1][0]


def test_a_whole_float_count_flag_runs_as_the_int(tmp_path):
    # -N reads as a plan line does: 4.0 is the count 4, printed as spelled
    records = []
    for beams in ("4", "4.0"):
        out = tmp_path / f"N{beams}.json"
        assert main(["simulate", "cbc", "-N", beams, "-n", "1000", "--trials", "20000",
                     "--format", "json", "--out", str(out)]) == 0
        records.append(json.loads(out.read_text())["records"][0])
    measured = [k for k in records[0] if k.startswith(("measured_", "predicted_", "se_", "z_"))]
    assert measured and [rec["N"] for rec in records] == [4, 4.0]
    first, second = ({k: rec[k] for k in measured} for rec in records)
    assert first == second


def test_workers_default_to_the_usable_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert build_parser().parse_args(["simulate", "cbc"]).workers == cpus


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags", [
    ["cbc", "-N", "4", "-n", "1000", "--xi", "1", "--trials", "200000", "--seed", "7"],
    ["amp", "-G", "4", "--kind", "measure_prepare", "--trials", "200000"],
    ["gamma", "-N", "8", "--phase-var", "0.01", "--trials", "200000", "--seed", "3"],
], ids=["cbc", "amp", "gamma"])
def test_the_default_workers_write_the_bytes_of_one_worker(tmp_path, capsys, flags, fmt):
    # a 200000-trial point is several chunks, so the default pool splits it
    paths = [tmp_path / f"{name}.{fmt}" for name in ("default", "one")]
    for path, workers in zip(paths, ([], ["--workers", "1"])):
        assert main(["simulate", *flags, *workers, "--format", fmt, "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_workers_below_one_exit_two(capsys):
    assert main(["simulate", "cbc", "-N", "2", "-n", "100", "--trials", "1000",
                 "--workers", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_predict_csv_pads_missing_columns(tmp_path):
    out_path = tmp_path / "pred.csv"
    assert main(["predict", "-N", "3", "-n", "100", "--out", str(out_path)]) == 0
    _, rows = read_csv(out_path)
    assert [r["kind"] for r in rows] == ["cbc", "amp", "threshold"]
    assert rows[0]["G"] == "" and rows[1]["G"] == "3.0" and rows[2]["xi_star"] == "2.0"
