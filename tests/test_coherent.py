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
from cbcnoise import coherent
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


def _field_by_hand(gen, mean, sigma, shape):
    # word j gives sample j of the flattened field: float32 r*cos and r*sin, times sigma in float64
    words, ulp = gen.bit_generator.random_raw(math.prod(shape)), np.float32(2.0 ** -32)
    u1 = (words >> np.uint64(32)).astype(np.float32) * ulp + ulp
    angle = (words & np.uint64(2 ** 32 - 1)).astype(np.float32) * np.float32(2 * math.pi) * ulp
    r = np.sqrt(np.float32(-2) * np.log(u1))
    field = np.full(shape, mean, complex)
    field.real += ((r * np.cos(angle)).astype(np.float64) * sigma).reshape(shape)
    field.imag += ((r * np.sin(angle)).astype(np.float64) * sigma).reshape(shape)
    return field


def test_gaussian_field_reads_one_word_per_sample(monkeypatch):
    # 6-element blocks of width-2 rows split the 8 samples 3 + 3 + 2; sigma 1e200 is beyond float32
    for block in (6, coherent._BLOCK):
        monkeypatch.setattr(coherent, "_BLOCK", block)
        for sigma in (3.0, 1e200):
            gen, ref = RngStream(9).generator(), RngStream(9).generator()
            z = gaussian_field(1.5 - 2j, gen, sigma, (2, 4))
            assert z.tobytes() == _field_by_hand(ref, 1.5 - 2j, sigma, (2, 4)).tobytes()
            assert np.array_equal(gen.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))
    # the shape defaults to the mean's
    assert gaussian_field(np.zeros(5), gen).shape == (5,)


@pytest.mark.parametrize("mean, shape", [
    (0.0, (2, 4)),
    (-0.0, (2, 4)),
    (np.linspace(-1, 1, 8, dtype=np.float32).reshape(2, 4), None),
    (np.arange(-4, 4).reshape(2, 4), None),
    (np.array([[1.5 - 2j], [-0.0 + 3j]]), (2, 3)),
    (math.inf, (2, 4)),
    (math.nan, (2, 4)),
], ids=["zero", "negative-zero", "float32", "int", "broadcast-complex", "inf", "nan"])
def test_gaussian_field_adds_the_mean_to_the_noise(mean, shape):
    # the noise is drawn first and the mean added after; IEEE addition commutes, so the bytes
    # are those of the noise added to the mean, signed zeros, inf and nan included
    gen, ref = RngStream(9).generator(), RngStream(9).generator()
    z = gaussian_field(mean, gen, 3.0, shape)
    assert z.tobytes() == _field_by_hand(ref, mean, 3.0, z.shape).tobytes()


def test_gaussian_field_is_normal():
    # 2^21 samples; the SEs of the mean, mean square and mean fourth power of x/sigma and p/sigma
    # and of the mean of their product come from N(0, 1)'s own moments: Var(z) = 1,
    # Var(z^2) = 2, Var(z^4) = 105 - 9 = 96 and, for independent x and p, Var(x*p) = 1
    sigma, n = 0.5, 1 << 21
    z = gaussian_field(0.0, RngStream(43).generator(), sigma, n) / sigma
    x, p = z.real, z.imag
    for q in (x, p):
        assert abs(q.mean()) < 5 * math.sqrt(1 / n)
        assert abs(np.mean(q ** 2) - 1) < 5 * math.sqrt(2 / n)
        assert abs(np.mean(q ** 4) - 3) < 5 * math.sqrt(96 / n)
    assert abs(np.mean(x * p)) < 5 * math.sqrt(1 / n)


def test_every_element_of_a_broadcast_field_has_its_own_noise():
    # a size that does not cover the mean's shape still draws the whole (2, 3) field
    mean = np.array([[0.0], [10.0]])
    z = sample_coherent(mean, RngStream(1), size=(3,))
    assert z.tobytes() == sample_coherent(np.repeat(mean, 3, axis=1), RngStream(1)).tobytes()
    assert not np.allclose(z[1] - 10.0, z[0])


# (mean_x, mean_p, var_x, var_p, trials) of 5,001 trials on RngStream(606).
# They pin the stream layout of every sampler built on gaussian_field: one
# Philox word per field sample, the cbc phases first, the stages in order.
# A change in that layout changes them; so may numpy's SIMD dispatch level,
# since every draw takes numpy's float32 log, cos and sin.
PINNED_STATS = {
    "cbc": (19.82554339389416, -0.0008086389587664896, 0.2669788799648675,
            1.9657636900855338, 5001),
    "amp_quantum_limited_0.0": (2.0118942673038904, -0.01579419906746123, 1.712049910727922,
                                1.7309482902363136, 5001),
    "amp_quantum_limited_0.3": (1.9973346763415016, -0.015443372076607354, 2.354107396283357,
                                2.3611613797352575, 5001),
    "amp_measure_prepare_0.0": (2.005657384944723, -0.015024915066821574, 2.225477898106178,
                                2.248438255678591, 5001),
    "amp_measure_prepare_0.3": (2.0101737901112267, -0.03371893379694307, 2.827242212735704,
                                2.86978112707806, 5001),
    "amp_phase_sensitive_0.0": (1.9914593468562556, -0.003885568143416785, 1.014768740106239,
                                0.06189252986099594, 5001),
    "amp_phase_sensitive_0.3": (2.0097368953505406, -0.003660238237234074, 1.5693471763629778,
                                0.6674636236923873, 5001),
    "cascade": (4.007510417049534, -0.03198063463486795, 7.6817515887929035,
                7.64515579588208, 5001),
    "classical": (0.007748125922814694, -0.04703821196265743, 10.915585992872412,
                  10.859207321169524, 5001),
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
