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
    (2, 5000, 0.0, 60, 17, [0.05, -0.05], 248,
     [0.009840080551169698, -0.009840080551169698],
     "155ccbbe04b17be45e34c644d5e1a372e2f824853d1cf11f92f37e261a7d7bfd"),
    (4, 10_000, 1.0, 120, 29, None, 656,
     [-0.055094621215347646, -0.05379942051874321, -0.05992217170539068,
      -0.04936944591195106],
     "c8dc3dcf51a2cc8c7ca38a034eebcfa5b25e8d1ef3dc865de2600ae3b28b562a"),
    (16, 1000, 1.0, 80, 31, None, 1460,
     [0.015495690489205639, -1.1204458775179016e-05, -0.08085058363371132,
      -0.006489836337681796, 0.06958912240922166, 0.06924619582675125,
      0.020511595767029468, 0.029415664189524668, 0.04095269960261873,
      -0.010068813761301258, -0.05457871488940322, -0.01133569191625118,
      -0.007039249867107198, 0.04035983157546859, -0.021027545896260096,
      -0.01890712662068851],
     "33ae3b4eefbc36656754f52406ed803c5f8ba7027bb2fabf56e697ad779db71d"),
    (15, 2000, 1.0, 100, 37, None, 1173,
     [-0.013230073268245648, 0.016820587824019604, 0.036281995970466656,
      -0.0151921443225774, -0.004934457267545839, 0.005410482886181256,
      -0.02944347977293672, -0.016812700436530693, -0.039724641788824594,
      -0.018280404681022044, -0.0014677826078567393, -0.060089492517384054,
      -0.010658528978462098, -0.053163041058529176, 0.03811120498907014],
     "073d2465852700f7766c8b3b184668965a8c323ccd5c93741327e0ee750a732d"),
    (17, 2000, 1.0, 100, 41, None, 1173,
     [-0.01084031688163603, -0.05741303905701502, -0.027279676662172257,
      -0.009052520776167838, 0.005881872697940521, -0.022344334374075035,
      0.0050463797236505355, 0.006914463439803214, 0.024831084817229267,
      -0.06835945139003194, 0.00433596567088957, -0.03390559737041793,
      -0.0231151135593726, -0.03421153819313405, 0.0058785418842480786,
      -0.03870788591235553, 0.04303243183736571],
     "a111d47444a47413683f13ea636be3bc2916a9e2bbbc6968a9b59ee5d8261795"),
    # 300 intervals of N = 512 fill the history block (128 rows) twice and part of a third;
    # its phases are pinned by the sha256 of their repr
    (512, 1000, 1.0, 300, 43, None, 21204,
     "fa21c8a2df3d4f9c9128d39b18e65829ba934f5b3124aec2a37c9ac78dce4e11",
     "232cbe1c73baebcd16593631334c7658c49efd5e66afe8b7d68f4d70a1109a4c"),
]


@pytest.mark.parametrize("n_beams, photons, drift_sqls, intervals, seed, init, "
                         "clicks, phases, history_sha256", PINNED_LOCK_RUNS,
                         ids=[f"N{run[0]}-seed{run[4]}" for run in PINNED_LOCK_RUNS])
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


def _block_variances_are_row_variances(n_beams):
    rows = max(1, phaselock._BLOCK // n_beams)  # a full block, as in run_feedback
    block = np.random.default_rng(n_beams).normal(0.01, 0.05, size=(rows, n_beams))
    expected = []
    for phases in block:
        d = phases - phases.sum() / n_beams
        expected.append(float((d * d).sum() / (n_beams - 1)))
    return phaselock._row_variances(block).tolist() == expected


# What run_feedback's byte-identity rests on: cos and sin written into a complex buffer are
# exp(1j*psi); a block's row variances are each row's own.  A numpy that breaks one fails here
# by name.
@pytest.mark.parametrize("premise, arg", [
    *((_cos_sin_is_exp, sigma) for sigma in (1e-3, 1.0, 1e3)),
    *((_block_variances_are_row_variances, n) for n in (2, 3, 7, 8, 9, 16, 512)),
], ids=lambda v: v.__name__.strip("_") if callable(v) else repr(v))
def test_lock_loop_premises(premise, arg):
    assert premise(arg)


class _NoSplit:
    """A generator whose multinomial fails, for draws that must not split their total."""

    def __init__(self, gen):
        self.poisson = gen.poisson

    def multinomial(self, *args):
        raise AssertionError("a split was drawn")


@pytest.mark.parametrize("lam", [(0.0, 0.3, 1.2, 4.0, 9.5), (0.0, 2e6, 7.5e6, 3e9)],
                         ids=["small", "large"])
def test_a_split_total_is_independent_poisson_counts(lam):
    # the loop's measurement draws the Poisson total and splits it only where it reads the
    # counts; split, those are independent Poisson(lam_j) counts (Kingman's splitting law)
    lam, draws = np.array(lam), 20_000
    gen = RngStream(11).generator()
    counts = np.zeros((draws, lam.size), dtype=np.int64)
    for row in counts:
        total, split = phaselock._clicks(gen, lam / 2, 2.0, lambda k: True)
        if total:
            assert split.sum() == total
            row[:] = split
    assert not counts[:, 0].any()  # a dark port never clicks
    tol = 5 / np.sqrt(draws)
    assert np.all(np.abs(counts.mean(axis=0) - lam) <= tol * np.sqrt(lam))
    assert np.all(np.abs(counts.var(axis=0, ddof=1) - lam) <= tol * np.sqrt(lam + 2 * lam ** 2))
    pairs = np.triu_indices(lam.size, 1)
    cov = np.cov(counts, rowvar=False)[pairs]
    assert np.all(np.abs(cov) <= tol * np.sqrt(np.outer(lam, lam)[pairs]))
    # no light is a total of 0 and no split; nor is a split drawn that is not read
    assert phaselock._clicks(_NoSplit(gen), np.zeros(4), 2.0, lambda k: True) == (0, None)
    assert phaselock._clicks(_NoSplit(gen), lam, 1.0, lambda k: False)[1] is None


@pytest.mark.parametrize("n_beams", [2, 4, 16, 64])
def test_the_largest_admitted_photon_number_stays_in_poisson_range(n_beams):
    # a measurement is one Poisson draw of mean 2n/3 * sum|eps|^2 <= 2nN/3, and an alternating
    # +-pi/2 start sends all the light into the error ports
    photons = 1.5 * phaselock._POISSON_MAX / max(4, n_beams)
    cfg = FeedbackConfig(n_beams=n_beams, photons=photons, intervals=3)
    with pytest.raises(ValueError, match="Poisson limit"):
        FeedbackConfig(n_beams=n_beams, photons=np.nextafter(photons, np.inf), intervals=3)
    init = np.where(np.arange(n_beams) % 2, -np.pi / 2, np.pi / 2)
    assert run_feedback(cfg, RngStream(9), initial_phases=init).clicks_total >= 0


@pytest.mark.parametrize("workers", [1, 2])
def test_lock_plan_point_is_pinned(workers):
    # odd N: the alternating start pattern is not zero-mean before centring
    record = {"N": 3, "n": 10000, "init_spread": 0.05, "intervals": 60}
    result = run_plan(ExperimentPlan("lock", (record,), master_seed=5), workers=workers)
    assert result.points[0].measured == {
        "steady_ratio": 5.074826215452408, "final_var": 0.0002537413107726204, "clicks": 352}


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
