"""Tests for coherent-state sampling and the streaming statistics helpers."""

import math

import numpy as np
import pytest

from cbcnoise import (
    VAR_COH,
    AmplifierSpec,
    CbcConfig,
    RngStream,
    amplify_classical_input,
    estimate_stats,
    merge_stats,
    sample_coherent,
    simulate_amplifier,
    simulate_cascade,
    simulate_cbc,
)
from cbcnoise.coherent import as_generator, gaussian_field, photon_number, quadratures


def test_var_coh_value():
    assert VAR_COH == 0.25


def test_photon_number_and_quadratures():
    assert photon_number(3 + 4j) == pytest.approx(25.0)
    x, p = quadratures(3 + 4j)
    assert x == 3.0 and p == 4.0
    # vectorized path
    x, p = quadratures(np.array([1 + 2j, -0.5j]))
    assert np.allclose(x, [1.0, 0.0])
    assert np.allclose(p, [2.0, -0.5])


def test_scalar_inputs_return_python_scalars():
    # numpy's complex128 and float64 subclass complex and float, so check the exact type
    assert type(sample_coherent(0.5, RngStream(1))) is complex
    assert type(photon_number(3 + 4j)) is float
    assert [type(q) for q in quadratures(3 + 4j)] == [float, float]
    assert type(sample_coherent(np.array([0.5, 1.0]), RngStream(1))) is np.ndarray
    assert type(sample_coherent(0.5, RngStream(1), size=3)) is np.ndarray
    assert type(photon_number(np.array([3 + 4j]))) is np.ndarray


def test_sample_coherent_moments():
    rng = RngStream(11)
    samples = sample_coherent(2 + 1j, rng, size=200_000)
    stats = estimate_stats(samples)
    # 5 SE bands around the coherent-state moments
    assert abs(stats.mean_x - 2.0) < 5 * stats.se_mean_x
    assert abs(stats.mean_p - 1.0) < 5 * stats.se_mean_p
    assert abs(stats.var_x - VAR_COH) < 5 * stats.se_var_x
    assert abs(stats.var_p - VAR_COH) < 5 * stats.se_var_p


def test_sample_coherent_is_deterministic():
    a = sample_coherent(0.5, RngStream(42), size=64)
    b = sample_coherent(0.5, RngStream(42), size=64)
    assert np.array_equal(a, b)


def test_gaussian_field_draws_x_then_p():
    gen, ref = np.random.default_rng(9), np.random.default_rng(9)
    z = gaussian_field(1.5 - 2j, gen, 3.0, (2, 4))
    x, p = ref.normal(scale=3.0, size=(2, 4)), ref.normal(scale=3.0, size=(2, 4))
    assert np.array_equal(z, 1.5 - 2j + x + 1j * p)
    # the shape defaults to the mean's
    assert gaussian_field(np.zeros(5), gen).shape == (5,)


# (mean_x, mean_p, var_x, var_p, trials) of 5,001 trials on RngStream(606).
# They pin the draw order of every sampler built on gaussian_field: a change
# in the order of phases, x and p blocks, or stages changes them.
PINNED_STATS = {
    "cbc": (19.838165152804482, -0.020539907838261304, 0.2684660863108584,
            1.893790500805356, 5001),
    "amp_quantum_limited_0.0": (1.9597072276390743, 0.002474849422789023, 1.732145373948987,
                                1.7108630862742529, 5001),
    "amp_quantum_limited_0.3": (1.967595198215889, 0.002581452384303224, 2.372173262677027,
                                2.3023529354304553, 5001),
    "amp_measure_prepare_0.0": (1.959813123408459, 0.013152798786134418, 2.2576908234736757,
                                2.336609926471636, 5001),
    "amp_measure_prepare_0.3": (1.9349357328139893, 0.0016888049671412767, 2.9058661015306892,
                                2.8912662993679303, 5001),
    "amp_phase_sensitive_0.0": (1.9919357343791215, 0.0018496418118571683, 0.9988680948710232,
                                0.06243244572346827, 5001),
    "amp_phase_sensitive_0.3": (1.9631096816254994, 0.006253548915025826, 1.5833328900522914,
                                0.6833080152773662, 5001),
    "cascade": (3.928233474485286, 0.004830513111303756, 7.761265024551448,
                7.5922805175659045, 5001),
    "classical": (-0.07682172798594514, 0.014155304203743661, 10.894225553464787,
                  10.776868295776081, 5001),
}


def pinned_case(name):
    stream = RngStream(606)
    if name == "cbc":
        return simulate_cbc(CbcConfig(4, 100.0, xi=5.0), 5001, stream)
    if name == "cascade":
        return simulate_cascade(16.0, 2, 5001, stream)
    if name == "classical":
        return amplify_classical_input(AmplifierSpec(3.0), 1.0, 5001, stream)
    kind, n_cl = name[len("amp_"):].rsplit("_", 1)
    return simulate_amplifier(AmplifierSpec(2.0, kind, float(n_cl)), 5001, stream)


@pytest.mark.parametrize("name", list(PINNED_STATS))
def test_draw_order_is_pinned(name):
    stats = pinned_case(name)
    fields = (stats.mean_x, stats.mean_p, stats.var_x, stats.var_p, stats.trials)
    assert repr(fields) == repr(PINNED_STATS[name])


def test_substreams_are_distinct():
    base = RngStream(7)
    a = sample_coherent(0.0, base.substream(0), size=32)
    b = sample_coherent(0.0, base.substream(1), size=32)
    c = sample_coherent(0.0, base.substream(0, 1), size=32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # substream derivation is pure: same indices, same draws
    assert np.array_equal(a, sample_coherent(0.0, base.substream(0), size=32))


def test_as_generator_accepts_both_kinds():
    direct = RngStream(5).generator().normal(size=8)
    via_helper = as_generator(RngStream(5)).normal(size=8)
    assert np.array_equal(direct, via_helper)
    gen = np.random.default_rng(3)
    assert as_generator(gen) is gen


def test_estimate_stats_against_numpy():
    gen = np.random.default_rng(99)
    z = gen.normal(size=1000) + 1j * gen.normal(size=1000)
    stats = estimate_stats(z)
    assert stats.mean_x == pytest.approx(z.real.mean(), rel=1e-12)
    assert stats.mean_p == pytest.approx(z.imag.mean(), rel=1e-12)
    assert stats.var_x == pytest.approx(z.real.var(ddof=1), rel=1e-12)
    assert stats.var_p == pytest.approx(z.imag.var(ddof=1), rel=1e-12)
    assert stats.trials == 1000
    # standard error of a variance estimate for Gaussian data
    assert stats.se_var_x == pytest.approx(stats.var_x * math.sqrt(2 / 999), rel=1e-12)
    assert stats.se_mean_x == pytest.approx(math.sqrt(stats.var_x / 1000), rel=1e-12)


@pytest.mark.parametrize("size", [2, 3, 8191, 8192, 65536])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_estimate_stats_is_numpy_mean_and_var_bit_for_bit(kind, size):
    gen = np.random.default_rng(size)
    z = gen.normal(3.0, 2.0, size) + (1j * gen.normal(-1.0, 0.5, size) if kind == "complex" else 0)
    stats = estimate_stats(z)
    a = np.asarray(z, dtype=complex)
    assert (stats.mean_x, stats.mean_p) == (np.mean(a.real), np.mean(a.imag))
    assert (stats.var_x, stats.var_p) == (np.var(a.real, ddof=1), np.var(a.imag, ddof=1))


def test_standard_errors_are_derived_not_stored():
    from dataclasses import fields

    from cbcnoise import QuadratureStats

    names = [f.name for f in fields(QuadratureStats)]
    assert names == ["mean_x", "mean_p", "var_x", "var_p", "trials"]
    stats = QuadratureStats(0.0, 0.0, 2.0, 0.5, 9)
    assert stats.se_var_x == 2.0 * math.sqrt(2 / 8)
    assert stats.se_var_p == 0.5 * math.sqrt(2 / 8)


def test_estimate_stats_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_stats(np.array([1 + 1j]))


def test_merge_stats_hand_case():
    # halves of 1..6: merged mean and variance are 3.5 and 3.5
    a = estimate_stats(np.array([1, 2, 3], dtype=complex))
    b = estimate_stats(np.array([4, 5, 6], dtype=complex))
    m = merge_stats(a, b)
    assert m.trials == 6
    assert m.mean_x == pytest.approx(3.5, abs=1e-14)
    assert m.var_x == pytest.approx(3.5, abs=1e-14)


@pytest.mark.parametrize("split", [2, 100, 500, 998])
def test_merge_matches_whole_array(split):
    gen = np.random.default_rng(7)
    z = gen.normal(size=1000) + 1j * gen.normal(size=1000)
    merged = merge_stats(estimate_stats(z[:split]), estimate_stats(z[split:]))
    whole = estimate_stats(z)
    assert merged.trials == whole.trials
    assert merged.mean_x == pytest.approx(whole.mean_x, abs=1e-12)
    assert merged.mean_p == pytest.approx(whole.mean_p, abs=1e-12)
    assert merged.var_x == pytest.approx(whole.var_x, rel=1e-10)
    assert merged.var_p == pytest.approx(whole.var_p, rel=1e-10)


def test_merge_fold_over_many_chunks():
    gen = np.random.default_rng(13)
    z = gen.normal(size=4096) + 1j * gen.normal(size=4096)
    acc = None
    for chunk in np.split(z, 16):
        part = estimate_stats(chunk)
        acc = part if acc is None else merge_stats(acc, part)
    whole = estimate_stats(z)
    assert acc.var_x == pytest.approx(whole.var_x, rel=1e-10)
    assert acc.var_p == pytest.approx(whole.var_p, rel=1e-10)


def test_merge_rejects_missing_side():
    stats = estimate_stats(np.array([0j, 1j, 2j]))
    with pytest.raises(ValueError):
        merge_stats(None, stats)


def test_run_chunks_layout():
    from cbcnoise.coherent import chunk_jobs, chunk_trials, run_chunks

    def kernel(count, gen):
        return sample_coherent(0.5, gen, size=count)

    # 3 full chunks and a remainder, each on its own substream of the base
    trials = 3 * chunk_trials(1) + 500
    assert len(chunk_jobs(kernel, 1, trials, RngStream(8))) == 4
    serial = run_chunks(kernel, 1, trials, RngStream(8))
    acc = None
    for idx, count in enumerate([chunk_trials(1)] * 3 + [500]):
        part = estimate_stats(kernel(count, RngStream(8).substream(idx).generator()))
        acc = part if acc is None else merge_stats(acc, part)
    assert serial == acc
    with pytest.raises(ValueError, match="at least 2 trials"):
        run_chunks(kernel, 1, 1, RngStream(8))


def test_run_chunks_merges_a_one_trial_last_chunk():
    from cbcnoise.coherent import chunk_trials, run_chunks

    def kernel(count, gen):
        return sample_coherent(0.5, gen, size=count)

    size = chunk_trials(1)
    stats = run_chunks(kernel, 1, size + 1, RngStream(4))
    z = np.concatenate([kernel(size, RngStream(4).substream(0).generator()),
                        kernel(1, RngStream(4).substream(1).generator())])
    assert stats.trials == size + 1
    assert stats.mean_x == pytest.approx(z.real.mean(), rel=1e-12)
    assert stats.mean_p == pytest.approx(z.imag.mean(), rel=1e-12)
    assert stats.var_x == pytest.approx(z.real.var(ddof=1), rel=1e-12)
    assert stats.var_p == pytest.approx(z.imag.var(ddof=1), rel=1e-12)
