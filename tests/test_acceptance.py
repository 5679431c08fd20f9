"""Acceptance suite: twelve numbered end-to-end checks at fixed seeds.

Each test prints one PASS or FAIL line for its criterion.  Monte Carlo
checks use 5 SE tolerance bands; closed-form checks use exact or 1e-12
comparisons.  All randomness derives from master seed 7 (standalone
checks) or from per-plan seeds fixed below, chosen before the first run.
"""

import math

import numpy as np
import pytest

from cbcnoise import (
    AmplifierSpec,
    CbcConfig,
    ExperimentPlan,
    FeedbackConfig,
    NoiseBudget,
    RngStream,
    VAR_COH,
    amplify_classical_input,
    cascade,
    dft,
    error_photon_number,
    error_signals,
    gamma_sum_statistics,
    inverse_dft,
    min_detectable_phase_var,
    predict_output,
    run_feedback,
    run_plan,
    simulate_two_beam_clicks,
    sql_phase_variance,
    two_beam_click_rate,
    xi_threshold,
)
from cbcnoise.cli import main as cli_main

MASTER = RngStream(7)

GRID = tuple(
    {"N": n_beams, "n": photons, "xi": xi}
    for n_beams in (2, 4, 8, 32)
    for photons in (100, 1000)
    for xi in (1.0, 5.0)
)


def report(number, ok, detail=""):
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def cbc_grid_result():
    plan = ExperimentPlan("cbc", GRID, 1_000_000, master_seed=7)
    return run_plan(plan, workers=2)  # same points for any worker count (criterion 12)


def test_criterion_01_dft_identities():
    gen = np.random.default_rng(7)
    worst = 0.0
    for n in (1, 2, 3, 4, 8, 17, 64, 257, 1024):
        a = gen.normal(size=n) + 1j * gen.normal(size=n)
        f = dft(a)
        energy_gap = abs(np.sum(np.abs(f) ** 2) - np.sum(np.abs(a) ** 2)) / np.sum(np.abs(a) ** 2)
        round_trip = np.max(np.abs(inverse_dft(f) - a))
        mean_gap = np.max(np.abs(error_signals(a) - (a - a.mean())))
        worst = max(worst, energy_gap, round_trip, mean_gap)
    report(1, worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_02_sql_formulas():
    ok = all(sql_phase_variance(2, n) == 1.0 / n for n in (10, 100, 1000, 12345))
    ok = ok and xi_threshold(2) == 0.5 and xi_threshold(3) == 2.0
    report(2, ok)


def test_criterion_03_cbc_grid_variances(cbc_grid_result):
    failures = []
    for point in cbc_grid_result.points:
        for name in ("var_x", "var_p"):
            if abs(point.z[name]) > 5.0:
                cfg = point.config
                failures.append(
                    f"N={cfg['N']} n={cfg['n']} xi={cfg['xi']} {name} z={point.z[name]:+.1f}")
    # pinned low-noise point: variance against 0.30 in absolute units
    plan = ExperimentPlan("cbc", ({"N": 2, "n": 1000.0, "phase_var": 0.01},), 1_000_000, 73)
    pinned = run_plan(plan).points[0]
    if abs(pinned.measured["var_x"] - 0.30) > 5.0 * pinned.se["var_x"]:
        failures.append(f"pinned var_x {pinned.measured['var_x']:.5f} vs 0.30")
    report(3, not failures, "; ".join(failures))


def test_criterion_04_amplitude_reduction(cbc_grid_result):
    failures = []
    for point in cbc_grid_result.points:
        if abs(point.z["mean_x"]) > 5.0:
            cfg = point.config
            failures.append(f"N={cfg['N']} n={cfg['n']} xi={cfg['xi']} z={point.z['mean_x']:+.1f}")
    report(4, not failures, "; ".join(failures))


def test_criterion_05_error_photon_budget():
    n_beams, photons, trials = 4, 1000.0, 100_000
    var_psi = sql_phase_variance(n_beams, photons)
    gen = MASTER.substream(5).generator()
    psi = gen.normal(scale=math.sqrt(var_psi), size=(trials, n_beams))
    centered = psi - psi.mean(axis=1, keepdims=True)
    budgets = photons * np.sum(centered ** 2, axis=1)
    # spot check the vectorization against the scalar function
    for row in range(50):
        assert budgets[row] == pytest.approx(error_photon_number(psi[row], photons), rel=1e-12)
    mean = budgets.mean()
    se = budgets.std(ddof=1) / math.sqrt(trials)
    report(5, abs(mean - 1.0) <= 5 * se, f"mean {mean:.4f} se {se:.4f}")


def test_criterion_06_gamma_statistics():
    n_terms, var_psi, trials = 10, 0.01, 1_000_000
    mean, variance = gamma_sum_statistics(n_terms, var_psi, trials, MASTER.substream(6))
    target_mean = n_terms * var_psi
    target_var = 2 * n_terms * var_psi ** 2
    se_mean = math.sqrt(target_var / trials)
    se_var = target_var * math.sqrt((2 + 12 / n_terms) / trials)
    ok = abs(mean - target_mean) <= 5 * se_mean and abs(variance - target_var) <= 5 * se_var
    report(6, ok, f"mean {mean:.6f} variance {variance:.6e}")


def test_criterion_07_amplifier_law():
    grid = tuple({"G": big_g} for big_g in (1.0, 2.0, 4.0, 16.0))
    result = run_plan(ExperimentPlan("amp", grid, 1_000_000, master_seed=707))
    failures = []
    for point in result.points:
        big_g = point.config["G"]
        target = (2 * big_g - 1) * VAR_COH
        assert point.predicted["var_x"] == pytest.approx(target, rel=1e-12)
        for name in ("var_x", "var_p"):
            if abs(point.z[name]) > 5.0:
                failures.append(f"G={big_g} {name} z={point.z[name]:+.1f}")
        gap = abs(point.measured["var_x"] - point.measured["var_p"])
        gap_se = math.hypot(point.se["var_x"], point.se["var_p"])
        if gap > 5 * gap_se:
            failures.append(f"G={big_g} quadrature asymmetry {gap:.2e}")
    report(7, not failures, "; ".join(failures))


def test_criterion_08_cascade_equivalence():
    worst = 0.0
    for stages in (1, 2, 4):
        g_stage = 4.0 ** (1.0 / (2 * stages))
        out = cascade([AmplifierSpec(g_stage)] * stages, NoiseBudget(1.0))
        worst = max(worst, abs(out.total_units - 7.0) / 7.0)
    fold_ok = worst <= 1e-12
    mc = run_plan(ExperimentPlan("cascade", ({"G": 4.0, "stages": 2},), 1_000_000,
                                 master_seed=708))
    report(8, fold_ok and mc.all_passed,
           f"fold deviation {worst:.2e}, MC z_var_x {mc.points[0].z['var_x']:+.1f}")


def test_criterion_09_classical_input_noise_figure():
    big_g, input_var = 100.0, 100 * VAR_COH
    target_nf = (big_g * input_var + (big_g - 1) * VAR_COH) / (big_g * input_var)
    stats = amplify_classical_input(AmplifierSpec(math.sqrt(big_g)), input_var,
                                    1_000_000, MASTER.substream(9))
    nf_x = stats.var_x / (big_g * input_var)
    nf_p = stats.var_p / (big_g * input_var)
    se_nf = stats.se_var_x / (big_g * input_var)
    ok = abs(nf_x - target_nf) <= 5 * se_nf and abs(nf_p - target_nf) <= 5 * se_nf
    report(9, ok, f"NF {nf_x:.5f}/{nf_p:.5f} vs {target_nf:.5f}")


def test_criterion_10_phase_lock_sensing():
    photons, dpsi = 100.0, 0.2
    rate_ok = two_beam_click_rate(photons, dpsi) == photons * (1 - math.cos(dpsi))
    mean, se = simulate_two_beam_clicks(photons, dpsi, 200_000, MASTER.substream(10))
    sim_ok = abs(mean - two_beam_click_rate(photons, dpsi)) <= 5 * se
    floor_ok = all(min_detectable_phase_var(n) == 2.0 / n for n in (10, 100, 1e4))
    report(10, rate_ok and sim_ok and floor_ok, f"clicks {mean:.4f} se {se:.4f}")


def test_criterion_11_feedback_property():
    n_beams, photons, seeds = 2, 10_000.0, 100
    sql = sql_phase_variance(n_beams, photons)
    config = FeedbackConfig(n_beams=n_beams, photons=photons, controller_gain=0.4,
                            intervals=60)
    tracks = []
    reached = 0
    for seed in range(seeds):
        state = run_feedback(config, MASTER.substream(11, seed),
                             initial_phases=[0.05, -0.05])
        track = state.history
        tracks.append(track)
        reached += track[-1] <= 10 * sql
    tracks = np.array(tracks)
    avg = tracks.mean(axis=0)
    diffs = np.diff(tracks, axis=1)
    avg_diff = diffs.mean(axis=0)
    # the seed average estimates an expectation, so each step is allowed its
    # own shot noise; a genuinely rising expectation would blow through this
    diff_se = diffs.std(axis=0, ddof=1) / math.sqrt(seeds)
    monotone = bool(np.all(avg_diff <= 5 * diff_se))
    with np.errstate(divide="ignore", invalid="ignore"):
        step_z = np.where(diff_se > 0, avg_diff / diff_se, np.where(avg_diff > 0, np.inf, 0.0))
    ok = reached == seeds and monotone
    report(11, ok,
           f"{reached}/{seeds} reached 10x SQL, final avg {avg[-1] / sql:.2f} SQL, "
           f"worst step z {np.max(step_z):+.1f}")


def test_criterion_12_determinism_across_workers(tmp_path):
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(
        "experiment = cbc\n"
        "trials = 200000\n"
        "seed = 712\n"
        "grid.N = 2, 4\n"
        "grid.n = 1000\n"
        "grid.xi = 1\n"
    )
    out_a = tmp_path / "serial.csv"
    out_b = tmp_path / "parallel.csv"
    rc_a = cli_main(["simulate", "--plan", str(plan_path), "--workers", "1",
                     "--out", str(out_a)])
    rc_b = cli_main(["simulate", "--plan", str(plan_path), "--workers", "4",
                     "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    report(12, rc_a == 0 and rc_b == 0 and identical,
           f"exit codes {rc_a}/{rc_b}, files identical: {identical}")
