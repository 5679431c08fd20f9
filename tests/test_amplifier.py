"""Tests for the linear amplifier noise models."""

import math

import numpy as np
import pytest

from cbcnoise import (
    AmplifierSpec,
    NoiseBudget,
    RngStream,
    VAR_COH,
    amplify_classical_input,
    amplify_sample,
    cascade,
    predict_variance,
    simulate_amplifier,
    simulate_cascade,
)
from cbcnoise.amplifier import KINDS

VACUUM = NoiseBudget(1.0)


def test_amplifier_spec_validation():
    assert AmplifierSpec(2.0).gain == pytest.approx(4.0)
    with pytest.raises(ValueError):
        AmplifierSpec(0.5)  # deamplification needs the phase-sensitive kind
    AmplifierSpec(0.5, kind="phase_sensitive")
    with pytest.raises(ValueError):
        AmplifierSpec(2.0, kind="parametric_oscillator")
    with pytest.raises(ValueError):
        AmplifierSpec(2.0, n_cl=-1.0)


def test_budget_validation():
    b = NoiseBudget(1.0, 6.0)
    assert b.total_units == pytest.approx(7.0)
    assert b.total_variance == pytest.approx(1.75)
    with pytest.raises(ValueError):
        NoiseBudget(0.0)
    with pytest.raises(ValueError):
        NoiseBudget(1.0, -0.5)


@pytest.mark.parametrize("big_g,total_units", [(1, 1.0), (2, 3.0), (4, 7.0), (16, 31.0)])
def test_quantum_limited_added_noise(big_g, total_units):
    # 2G - 1 units of shot noise out of a pure input
    out = predict_variance(AmplifierSpec(math.sqrt(big_g)), VACUUM)
    assert out.total_units == pytest.approx(total_units, rel=1e-12)
    assert out.quantum_units == 1.0


@pytest.mark.parametrize("big_g,total_units", [(1, 3.0), (4, 9.0), (16, 33.0)])
def test_measure_prepare_added_noise(big_g, total_units):
    # the measurement step costs two extra units: 2G + 1 in total
    spec = AmplifierSpec(math.sqrt(big_g), kind="measure_prepare")
    out = predict_variance(spec, VACUUM)
    assert out.total_units == pytest.approx(total_units, rel=1e-12)


def test_phase_sensitive_budget_scales_with_gain():
    out = predict_variance(AmplifierSpec(2.0, kind="phase_sensitive"), VACUUM)
    assert out.quantum_units == pytest.approx(4.0)
    assert out.classical_units == 0.0


def test_classical_background_adds_2gn():
    spec = AmplifierSpec(math.sqrt(2.0), n_cl=1.5)
    out = predict_variance(spec, VACUUM)
    assert out.total_units == pytest.approx(3.0 + 2 * 2.0 * 1.5, rel=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_adds_its_classical_excess(kind):
    clean = predict_variance(AmplifierSpec(2.0, kind=kind), VACUUM)
    noisy = predict_variance(AmplifierSpec(2.0, kind=kind, n_cl=1.5), VACUUM)
    assert noisy.quantum_units == clean.quantum_units
    assert noisy.classical_units - clean.classical_units == pytest.approx(2 * 4.0 * 1.5)


def test_predict_variance_rejects_subvacuum_input():
    with pytest.raises(ValueError):
        predict_variance(AmplifierSpec(2.0), NoiseBudget(0.9))


@pytest.mark.parametrize("stages", [1, 2, 4])
def test_cascade_fold_depends_only_on_total_gain(stages):
    # splitting G=4 into equal quantum-limited stages always lands on 7 units
    g_stage = 4.0 ** (1.0 / (2 * stages))
    out = cascade([AmplifierSpec(g_stage)] * stages, VACUUM)
    assert out.total_units == pytest.approx(7.0, rel=1e-12)


def test_cascade_empty_is_identity():
    b = NoiseBudget(1.0, 2.5)
    assert cascade([], b) == b


def test_cascade_folds_every_kind_over_all_noise_above_the_floor():
    # a phase-sensitive G = 4 stage leaves 4 quantum units; G = 2 then gives 2*4 + 1 = 9
    stages = [AmplifierSpec(2.0, kind="phase_sensitive"), AmplifierSpec(math.sqrt(2.0))]
    by_hand = predict_variance(stages[1], predict_variance(stages[0], VACUUM))
    assert by_hand.total_units == pytest.approx(9.0, rel=1e-12)
    assert cascade(stages, VACUUM) == by_hand
    # 3 units in fold alike however they split between floor and excess
    for kind, total_units in (("quantum_limited", 7.0), ("measure_prepare", 9.0)):
        spec = AmplifierSpec(math.sqrt(2.0), kind)
        outs = [predict_variance(spec, budget).total_units
                for budget in (NoiseBudget(3.0), NoiseBudget(1.0, 2.0))]
        assert outs == pytest.approx([total_units] * 2, rel=1e-12) and outs[0] == outs[1]
    # squeezing below the floor and amplifying again stays an error, not a number
    with pytest.raises(ValueError, match="below the Heisenberg floor"):
        cascade([AmplifierSpec(0.5, kind="phase_sensitive"), AmplifierSpec(2.0)], VACUUM)
    # a unit-floor input keeps its bits: G*excess + 2*(G-1)
    out = predict_variance(AmplifierSpec(2.0), NoiseBudget(1.0, 2.5))
    assert out.classical_units == 4.0 * 2.5 + 2.0 * 3.0


@pytest.mark.parametrize("kind", KINDS)
def test_amplify_sample_returns_a_python_complex_for_a_scalar(kind):
    spec = AmplifierSpec(2.0, kind, n_cl=0.1)
    assert type(amplify_sample(1 + 0j, spec, RngStream(1))) is complex
    assert type(amplify_sample(np.array([1 + 0j, 2j]), spec, RngStream(1))) is np.ndarray
    assert type(amplify_sample(1 + 0j, spec, RngStream(1), size=3)) is np.ndarray


def test_amplify_sample_deterministic():
    spec = AmplifierSpec(2.0)
    a = amplify_sample(1 + 0j, spec, RngStream(6), size=128)
    b = amplify_sample(1 + 0j, spec, RngStream(6), size=128)
    assert np.array_equal(a, b)
    assert a.shape == (128,)


def test_simulate_quantum_limited():
    spec = AmplifierSpec(2.0)  # G = 4
    stats = simulate_amplifier(spec, 300_000, RngStream(41))
    assert abs(stats.mean_x - 2.0) < 5 * stats.se_mean_x
    assert abs(stats.var_x - 1.75) < 5 * stats.se_var_x
    assert abs(stats.var_p - 1.75) < 5 * stats.se_var_p
    # the added noise is phase insensitive, so both quadratures agree
    gap_se = math.hypot(stats.se_var_x, stats.se_var_p)
    assert abs(stats.var_x - stats.var_p) < 5 * gap_se


def test_simulate_measure_prepare():
    spec = AmplifierSpec(2.0, kind="measure_prepare")
    stats = simulate_amplifier(spec, 300_000, RngStream(43))
    assert abs(stats.var_x - 2.25) < 5 * stats.se_var_x
    assert abs(stats.var_p - 2.25) < 5 * stats.se_var_p


def test_simulate_phase_sensitive():
    spec = AmplifierSpec(2.0, kind="phase_sensitive")
    stats = simulate_amplifier(spec, 300_000, RngStream(47))
    assert abs(stats.mean_x - 2.0) < 5 * stats.se_mean_x
    assert abs(stats.var_x - 4 * VAR_COH) < 5 * stats.se_var_x
    assert abs(stats.var_p - VAR_COH / 4) < 5 * stats.se_var_p


def test_simulate_with_classical_background():
    spec = AmplifierSpec(math.sqrt(2.0), n_cl=1.5)
    predicted = predict_variance(spec, VACUUM).total_variance
    stats = simulate_amplifier(spec, 300_000, RngStream(53))
    assert abs(stats.var_x - predicted) < 5 * stats.se_var_x
    assert abs(stats.var_p - predicted) < 5 * stats.se_var_p


def test_output_variance_linear_in_gain():
    """Fit measured output variance against G: slope 1/2, intercept -1/4."""
    gains = np.array([1.0, 2.0, 4.0, 8.0])
    measured = []
    for i, big_g in enumerate(gains):
        stats = simulate_amplifier(AmplifierSpec(math.sqrt(big_g)), 200_000, RngStream(59).substream(i))
        measured.append(0.5 * (stats.var_x + stats.var_p))
    slope, intercept = np.polyfit(gains, measured, 1)
    assert slope == pytest.approx(0.5, rel=0.02)
    assert intercept == pytest.approx(-0.25, abs=0.02)


def test_classical_input_noise_figure():
    # noisy input, 100 units of variance: the amplifier penalty nearly vanishes
    big_g, input_var = 100.0, 100 * VAR_COH
    spec = AmplifierSpec(math.sqrt(big_g))
    stats = amplify_classical_input(spec, input_var, 200_000, RngStream(61))
    predicted = big_g * input_var + (big_g - 1) * VAR_COH
    assert abs(stats.var_x - predicted) < 5 * stats.se_var_x
    nf = stats.var_x / (big_g * input_var)
    assert nf == pytest.approx(1.0099, abs=5 * stats.se_var_x / (big_g * input_var))


def test_classical_input_rejects_subvacuum_variance():
    with pytest.raises(ValueError):
        amplify_classical_input(AmplifierSpec(2.0), 0.1, 1000, RngStream(0))


def test_simulate_cascade_matches_fold():
    stats = simulate_cascade(4.0, 2, 300_000, RngStream(67))
    assert abs(stats.var_x - 1.75) < 5 * stats.se_var_x
    assert abs(stats.var_p - 1.75) < 5 * stats.se_var_p
    # total amplitude gain is sqrt(4) regardless of the split
    assert abs(stats.mean_x - 2.0) < 5 * stats.se_mean_x
