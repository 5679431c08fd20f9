"""Tests for click-rate sensing and the probe-and-verify lock loop."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from cbcnoise import (
    FeedbackConfig,
    RngStream,
    min_detectable_phase_var,
    run_feedback,
    simulate_two_beam_clicks,
    sql_phase_variance,
    two_beam_click_rate,
)
from cbcnoise import phaselock
from cbcnoise.engine import EXPERIMENTS, ExperimentPlan, _lock_config, run_plan
from cbcnoise.phaselock import LockState


def test_click_rate_values():
    assert two_beam_click_rate(8, 0.5) == pytest.approx(0.9793395048770179, rel=1e-12)
    assert two_beam_click_rate(100, 0.2) == pytest.approx(1.9933422158758374, rel=1e-12)
    assert two_beam_click_rate(100, 0.0) == 0.0


def test_click_rate_vectorized():
    rates = two_beam_click_rate(10, np.array([0.0, np.pi]))
    np.testing.assert_allclose(rates, [0.0, 20.0], atol=1e-12)


def test_click_rate_rejects_bad_photons():
    with pytest.raises(ValueError):
        two_beam_click_rate(0, 0.1)


def test_min_detectable_phase_var():
    assert min_detectable_phase_var(100) == pytest.approx(0.02)
    assert min_detectable_phase_var(100, symmetrized=True) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        min_detectable_phase_var(-5)


def test_simulated_clicks_match_rate():
    photons, dpsi = 50, 0.3
    mean, se = simulate_two_beam_clicks(photons, dpsi, 50_000, RngStream(71))
    assert abs(mean - two_beam_click_rate(photons, dpsi)) < 5 * se


def test_simulated_clicks_deterministic():
    a = simulate_two_beam_clicks(20, 0.1, 5000, RngStream(3))
    b = simulate_two_beam_clicks(20, 0.1, 5000, RngStream(3))
    assert a == b


def test_simulated_clicks_need_two_trials():
    with pytest.raises(ValueError, match="at least 2 trials"):
        simulate_two_beam_clicks(20, 0.1, 1, RngStream(3))


def test_the_poisson_limit_is_numpys():
    gen = np.random.default_rng(0)
    gen.poisson(phaselock._POISSON_MAX)
    with pytest.raises(ValueError, match="lam value too large"):
        gen.poisson(np.nextafter(phaselock._POISSON_MAX, np.inf))


def test_feedback_config_validation():
    with pytest.raises(ValueError):
        FeedbackConfig(n_beams=1, photons=100)
    with pytest.raises(ValueError):
        FeedbackConfig(n_beams=2, photons=0)
    with pytest.raises(ValueError):
        FeedbackConfig(n_beams=2, photons=100, drift_var=-1e-3)
    with pytest.raises(ValueError):
        FeedbackConfig(n_beams=2, photons=100, controller_gain=1.5)
    with pytest.raises(ValueError):
        FeedbackConfig(n_beams=2, photons=100, intervals=0)


def test_steady_state_ratio_arithmetic():
    cfg = FeedbackConfig(n_beams=2, photons=100, intervals=2)
    state = LockState(phases=np.zeros(2), clicks_total=0, history=np.array([0.04, 0.02]))
    # tail of the last half is just the final entry; SQL here is 0.01
    assert state.steady_state_ratio(cfg) == pytest.approx(2.0)


def test_run_feedback_initial_phase_shape():
    cfg = FeedbackConfig(n_beams=3, photons=1000)
    with pytest.raises(ValueError):
        run_feedback(cfg, RngStream(0), initial_phases=[0.1, -0.1])


def test_run_feedback_deterministic():
    cfg = FeedbackConfig(n_beams=2, photons=5000, intervals=40)
    a = run_feedback(cfg, RngStream(17), initial_phases=[0.05, -0.05])
    b = run_feedback(cfg, RngStream(17), initial_phases=[0.05, -0.05])
    assert a.history.tobytes() == b.history.tobytes()
    assert np.array_equal(a.phases, b.phases)


def test_locked_start_stays_locked():
    # with no offset and no drift the error ports are dark, so the
    # controller never fires and the phases never move
    cfg = FeedbackConfig(n_beams=4, photons=10_000, intervals=50)
    state = run_feedback(cfg, RngStream(19))
    assert np.array_equal(state.phases, np.zeros(4))
    assert state.clicks_total == 0


def test_corrections_are_zero_sum():
    cfg = FeedbackConfig(n_beams=4, photons=10_000, intervals=60)
    init = np.array([0.06, -0.02, -0.03, -0.01])
    init = init - init.mean()
    state = run_feedback(cfg, RngStream(23), initial_phases=init)
    # the common phase is untouched by the controller
    assert abs(state.phases.mean()) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_lock_acquisition_two_beams(seed):
    cfg = FeedbackConfig(n_beams=2, photons=10_000, intervals=60)
    state = run_feedback(cfg, RngStream(101 + seed), initial_phases=[0.05, -0.05])
    track = state.history
    sql = sql_phase_variance(2, 10_000)
    assert track[-1] <= 10 * sql
    assert track[-1] < track[0]
    assert state.clicks_total > 0


@pytest.mark.parametrize("seed", range(5))
def test_drifting_lock_sits_above_the_quantum_floor(seed):
    # with drift at a tenth of the SQL the loop settles, but never below
    # the single-interval quantum limit
    sql = sql_phase_variance(4, 10_000)
    cfg = FeedbackConfig(n_beams=4, photons=10_000, drift_var=sql / 10, intervals=300)
    state = run_feedback(cfg, RngStream(4000 + seed))
    ratio = state.steady_state_ratio(cfg)
    assert np.isfinite(ratio)
    assert ratio >= 1.0
    assert ratio < 50.0


# Recorded outputs of run_feedback on fixed seeds: any edit to the loop that
# changes a draw, a comparison or a floating-point step shows up here.
PINNED_LOCK_RUNS = [
    (2, 5000, 0.0, 60, 17, [0.05, -0.05], 244,
     [0.008067955854707133, -0.008067955854707133],
     "5a22d1a303aa2639e0f5d8a9a3e3a004be0380ce7c1224fb6132d4dad7ed31c4"),
    (4, 10_000, 1.0, 120, 29, None, 411,
     [-0.007979728651684292, -0.01879353219468832, -0.0004580551243031259,
      -0.002826971892167787],
     "c8df896c313fe4f2dd179bd06b0210f814192c17a0a12839880c4368f3d2855f"),
    (16, 1000, 1.0, 80, 31, None, 1254,
     [0.02676933208038344, 0.025372652074952425, -0.01046312049245687,
      0.011088132860952823, 0.06629457811248336, 0.036516441655866115,
      0.02168851550830556, -0.11776542318089456, 0.07245823081227871,
      -0.030157698036182682, 0.012439229858849845, 0.0771128832125656,
      -0.07466792731622415, -0.010621470190361991, -0.03661286213336686,
      0.0028864725599373284],
     "0cc41ba35a5fa88f1b7c69765a413722baa773cac97142bd231f5dd1c7f8a451"),
    # N = 15 and 17 sit on either side of the scalar/array Poisson crossover
    (15, 2000, 1.0, 100, 37, None, 797,
     [0.0051927402535902785, 0.022331766637444846, -0.004896918005595172,
      -0.020957386268165356, 0.04785421710851274, 0.02952333568863328,
      0.011040529517959832, 0.027480334389467974, 0.0010031363159526013,
      0.011465577386218583, 0.03745969001535532, -0.028331863310449654,
      0.013355781699407649, 0.0026546072043263902, -0.05377615364112703],
     "e45bba5dc03e204f6cf6379c6542f6f11c6212f21be70bc4bcea9766075981ab"),
    (17, 2000, 1.0, 100, 41, None, 1216,
     [0.04544052062857034, -0.04005065471088312, 0.04555323066769899,
      -0.07294823312707807, 0.02579524815132766, -0.001384599039384999,
      0.0221017953175386, 0.017017491579519775, -0.04488844854354747,
      0.037315633691757576, -0.0001458722890952729, -0.05058538507991081,
      0.018179447928279184, 0.0009349509199074548, 0.00981156357898345,
      0.015280310183590285, -0.03263318423194725],
     "cd50991151fe14158fa5633ca2cfda88d4a7747ed21a0d6acaf207619d6e2672"),
    # 300 intervals of N = 512 fill the history block (128 rows) twice and part of a third;
    # its phases are pinned by the sha256 of their repr
    (512, 1000, 1.0, 300, 43, None, 24387,
     "836606c8e9a8e556975846783d58457ed66eb69c004d349dd0494657d56d7b86",
     "c96df93fdbd9c30a163195f1bf6a9a35f173ff286b133f34b9d31fb09d8c9dda"),
]


@pytest.mark.parametrize("n_beams, photons, drift_sqls, intervals, seed, init, "
                         "clicks, phases, history_sha256", PINNED_LOCK_RUNS)
def test_run_feedback_is_pinned(n_beams, photons, drift_sqls, intervals, seed, init,
                                clicks, phases, history_sha256):
    drift_var = drift_sqls * sql_phase_variance(n_beams, photons) if drift_sqls else 0.0
    cfg = FeedbackConfig(n_beams=n_beams, photons=photons, drift_var=drift_var,
                         intervals=intervals)
    state = run_feedback(cfg, RngStream(seed), initial_phases=init)
    assert state.clicks_total == clicks
    if isinstance(phases, str):
        assert hashlib.sha256(repr(state.phases.tolist()).encode()).hexdigest() == phases
    else:
        assert state.phases.tolist() == phases
    # the repr of the (interval, variance) pairs the history once was, so the pins still hold
    history = repr(tuple(enumerate(state.history.tolist())))
    assert hashlib.sha256(history.encode()).hexdigest() == history_sha256


def _cos_sin_is_exp(sigma):
    psi = np.random.default_rng(3).normal(scale=sigma, size=1 << 18)
    unit = np.empty(psi.size, complex)
    np.cos(psi, out=unit.real)
    np.sin(psi, out=unit.imag)
    return unit.tobytes() == np.exp(1j * psi).tobytes()


def _scalar_poisson_is_array_poisson(lam):
    means = lam * np.linspace(0.5, 1.5, 9)
    one, each = RngStream(5).generator(), RngStream(5).generator()
    counts = one.poisson(means).tolist()
    return ([each.poisson(m) for m in means.tolist()] == counts
            and one.bit_generator.random_raw() == each.bit_generator.random_raw())


def _block_variances_are_row_variances(n_beams):
    rows = max(1, phaselock._BLOCK // n_beams)  # a full block, as in run_feedback
    block = np.random.default_rng(n_beams).normal(0.01, 0.05, size=(rows, n_beams))
    expected = []
    for phases in block:
        d = phases - phases.sum() / n_beams
        expected.append(float((d * d).sum() / (n_beams - 1)))
    return phaselock._row_variances(block).tolist() == expected


# What run_feedback's byte-identity rests on: cos and sin written into a complex buffer are
# exp(1j*psi); per-beam scalar Poisson draws are one array draw, counts and stream position;
# a block's row variances are each row's own.  A numpy that breaks one fails here by name.
@pytest.mark.parametrize("premise, arg", [
    *((_cos_sin_is_exp, sigma) for sigma in (1e-3, 1.0, 1e3)),
    *((_scalar_poisson_is_array_poisson, lam) for lam in (0.0, 1e-9, 3.2, 40.0)),
    *((_block_variances_are_row_variances, n) for n in (2, 3, 7, 8, 9, 16, 512)),
], ids=lambda v: v.__name__.strip("_") if callable(v) else repr(v))
def test_lock_loop_premises(premise, arg):
    assert premise(arg)


@pytest.mark.parametrize("workers", [1, 2])
def test_lock_plan_point_is_pinned(workers):
    # odd N: the alternating start pattern is not zero-mean before centring
    record = {"N": 3, "n": 10000, "init_spread": 0.05, "intervals": 60}
    result = run_plan(ExperimentPlan("lock", (record,), master_seed=5), workers=workers)
    assert result.points[0].measured == {
        "steady_ratio": 2.3911995635633656, "final_var": 0.00011955997817816829, "clicks": 195}


def test_history_is_one_float64_array():
    # one variance per interval, also where N = 512 spreads 300 intervals over three blocks
    for n_beams, intervals in ((2, 7), (512, 300)):
        cfg = FeedbackConfig(n_beams=n_beams, photons=1000,
                             drift_var=sql_phase_variance(n_beams, 1000), intervals=intervals)
        history = run_feedback(cfg, RngStream(43)).history
        assert isinstance(history, np.ndarray) and history.dtype == np.float64
        assert history.shape == (intervals,)
    # a lock point's final_var is the last entry of its loop's history
    record = {"N": 3, "n": 10000, "init_spread": 0.05, "intervals": 60}
    result = run_plan(ExperimentPlan("lock", (record,), master_seed=5))
    config, init = _lock_config({**EXPERIMENTS["lock"].options, **record})
    state = run_feedback(config, RngStream(5).substream(0), initial_phases=init)
    assert result.points[0].measured["final_var"] == state.history[-1]
    # 32 bytes an interval at N = 2 (the block's two phases, the block variances and the
    # joined array), against 132 for the (interval, variance) pairs the history once was
    cfg = FeedbackConfig(n_beams=2, photons=1000, intervals=10_000)
    run_feedback(FeedbackConfig(n_beams=2, photons=1000, intervals=10), RngStream(3))
    tracemalloc.start()
    try:
        run_feedback(cfg, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * cfg.intervals, peak


def test_min_detectable_phase_var_is_one_or_two_over_n_bit_for_bit():
    # the two-beam quantum limit 1/n, doubled when one beam carries the offset
    for photons in np.logspace(-6, 12, 100_001).tolist():
        assert min_detectable_phase_var(photons) == 2.0 / photons
        assert min_detectable_phase_var(photons, symmetrized=True) == 1.0 / photons
