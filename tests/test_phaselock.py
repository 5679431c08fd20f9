"""Tests for click-rate sensing and the probe-and-verify lock loop."""

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
    state = LockState(phases=np.zeros(2), clicks_total=0, history=((0, 0.04), (1, 0.02)))
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
    assert a.history == b.history
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
    track = state.variance_track()
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
