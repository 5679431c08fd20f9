"""Tests for the DFT combiner, noise predictions, and the CBC Monte Carlo."""

import math
import tracemalloc

import numpy as np
import pytest

from cbcnoise import (
    CbcConfig,
    RngStream,
    SmallAngleWarning,
    dft,
    error_photon_number,
    error_signals,
    gamma_sum_statistics,
    inverse_dft,
    predict_output,
    simulate_cbc,
    sql_phase_variance,
    xi_threshold,
)
from cbcnoise import coherent
from cbcnoise.amplifier import KINDS, AmplifierSpec, chain_kernel
from cbcnoise.coherent import gaussian_field
from cbcnoise.combining import (chunk_trials, combine_port_amplitude, gamma_sum_kernel,
                                sample_cbc_outputs)

# Forward transform of [1+2j, -1, 0.5j, 2-1j], computed from the O(N^2)
# definition sum_j a_j exp(-2 pi i j k / N) / sqrt(N) with plain cmath.
_DFT4_IN = np.array([1 + 2j, -1 + 0j, 0.5j, 2 - 1j])
_DFT4_OUT = np.array([1 + 0.75j, 1 + 2.25j, 1.75j, -0.75j])


def test_dft_frozen_reference():
    np.testing.assert_allclose(dft(_DFT4_IN), _DFT4_OUT, atol=1e-14)


def test_dft_matches_numpy_fft_convention():
    gen = np.random.default_rng(21)
    for n in (2, 5, 16):
        a = gen.normal(size=n) + 1j * gen.normal(size=n)
        np.testing.assert_allclose(dft(a), np.fft.fft(a) / math.sqrt(n), atol=1e-12)
        np.testing.assert_allclose(inverse_dft(a), np.fft.ifft(a) * math.sqrt(n), atol=1e-12)


def test_dft_hand_values():
    np.testing.assert_allclose(dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-14)
    np.testing.assert_allclose(dft([1, -1]), [0, math.sqrt(2)], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
def test_dft_unitarity(n):
    gen = np.random.default_rng(n)
    a = gen.normal(size=n) + 1j * gen.normal(size=n)
    f = dft(a)
    assert np.sum(np.abs(f) ** 2) == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-13)
    np.testing.assert_allclose(inverse_dft(f), a, atol=1e-12)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        dft([])


def test_combine_port_amplitude():
    # matched beams put sqrt(N) times the common amplitude into port zero
    a = np.full(4, 3.0 + 0j)
    assert combine_port_amplitude(a) == pytest.approx(6.0)
    gen = np.random.default_rng(2)
    b = gen.normal(size=8) + 1j * gen.normal(size=8)
    assert combine_port_amplitude(b) == pytest.approx(math.sqrt(8) * b.mean(), rel=1e-12)


def test_error_signals_hand_case():
    np.testing.assert_allclose(error_signals([1, 1j]), [0.5 - 0.5j, -0.5 + 0.5j], atol=1e-14)


def test_error_signals_subtract_the_mean():
    gen = np.random.default_rng(31)
    a = gen.normal(size=17) + 1j * gen.normal(size=17)
    np.testing.assert_allclose(error_signals(a), a - a.mean(), atol=1e-12)
    # single beam has no relative error
    np.testing.assert_allclose(error_signals([2 + 3j]), [0], atol=1e-14)


def test_error_photon_number_two_beam():
    # quadratic budget for two beams at +-0.1 is n * (0.1^2 + 0.1^2)
    value = error_photon_number([0.1, -0.1], 100.0)
    assert value == pytest.approx(2.0, rel=1e-12)
    # and it tracks the true error-port intensity 2 n sin^2(0.1) to quartic order
    exact = np.sum(np.abs(error_signals(10.0 * np.exp(1j * np.array([0.1, -0.1])))) ** 2)
    assert exact == pytest.approx(1.9933422158758374, rel=1e-12)
    assert value == pytest.approx(exact, rel=5e-3)


def test_sql_and_threshold_values():
    assert sql_phase_variance(2, 100) == pytest.approx(0.01)
    assert sql_phase_variance(2, 1000) == pytest.approx(1e-3)
    assert sql_phase_variance(5, 1000) == pytest.approx(2.5e-4)
    assert xi_threshold(2) == 0.5
    assert xi_threshold(3) == 2.0
    assert xi_threshold(11) == 50.0
    with pytest.raises(ValueError):
        sql_phase_variance(1, 100)


def test_config_resolves_xi_and_phase_var():
    c = CbcConfig(n_beams=4, photons=1000, xi=3.0)
    assert c.phase_var == pytest.approx(3.0 * sql_phase_variance(4, 1000))
    d = CbcConfig(n_beams=4, photons=1000, phase_var=c.phase_var)
    assert d.xi == pytest.approx(3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        CbcConfig(n_beams=2, photons=100)  # neither given
    with pytest.raises(ValueError):
        CbcConfig(n_beams=2, photons=100, phase_var=0.01, xi=1.0)  # both given
    with pytest.raises(ValueError):
        CbcConfig(n_beams=2, photons=100, xi=0.5)  # below the quantum limit


def test_large_phase_variance_warns():
    with pytest.warns(SmallAngleWarning):
        CbcConfig(n_beams=2, photons=100, phase_var=0.2)


def test_small_angle_warning_names_the_caller():
    with pytest.warns(SmallAngleWarning) as caught:
        CbcConfig(n_beams=2, photons=100, phase_var=0.2)
    assert caught[0].filename == __file__


def test_small_phase_variance_does_not_warn():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CbcConfig(n_beams=2, photons=100, phase_var=0.01)


def test_predict_output_hand_point():
    # N=2, n=4, xi=1 puts Var(psi) at 0.25, far outside the small-angle
    # regime, which is exactly why it makes a good arithmetic check
    with pytest.warns(SmallAngleWarning):
        cfg = CbcConfig(n_beams=2, photons=4, xi=1.0)
    pred = predict_output(cfg)
    assert pred.mean_amplitude == pytest.approx(2.4748737341529163, rel=1e-12)
    assert pred.var_x == pytest.approx(0.375, rel=1e-12)
    assert pred.var_p == pytest.approx(1.25, rel=1e-12)
    assert pred.excess_x == pytest.approx(0.125, rel=1e-12)
    assert pred.excess_p == pytest.approx(1.0, rel=1e-12)
    assert pred.var_x_units == pytest.approx(1.5, rel=1e-12)
    assert pred.var_p_units == pytest.approx(5.0, rel=1e-12)


def test_simulator_matches_exact_gaussian_moments():
    """Check the Monte Carlo against closed-form moments with no small-angle step.

    For iid Gaussian phases the output moments fold exactly:
    mean_x = sqrt(N n) exp(-V/2), var_x = 1/4 + n ((1 + exp(-2V))/2 - exp(-V)),
    var_p = 1/4 + n (1 - exp(-2V))/2.  At V = 0.05 the quadratic expansion is
    visibly off, so this pins down the sampler rather than the expansion.
    """
    cfg = CbcConfig(n_beams=2, photons=100, phase_var=0.05)
    stats = simulate_cbc(cfg, 400_000, RngStream(19))
    exact_mean = 13.792965051073782
    exact_var_x = 0.3689284517265743
    exact_var_p = 5.008129098202025
    assert abs(stats.mean_x - exact_mean) < 5 * stats.se_mean_x
    assert abs(stats.var_x - exact_var_x) < 5 * stats.se_var_x
    assert abs(stats.var_p - exact_var_p) < 5 * stats.se_var_p
    assert abs(stats.mean_p) < 5 * stats.se_mean_p
    # N = 32: the mean grows as sqrt(N), the variances do not depend on N, so
    # the one port vacuum standing in for 32 beam vacua must give the same floor
    stats = simulate_cbc(CbcConfig(n_beams=32, photons=100, phase_var=0.05), 400_000,
                         RngStream(19))
    assert abs(stats.mean_x - math.sqrt(32 * 100) * math.exp(-0.05 / 2)) < 5 * stats.se_mean_x
    assert abs(stats.var_x - exact_var_x) < 5 * stats.se_var_x
    assert abs(stats.var_p - exact_var_p) < 5 * stats.se_var_p
    assert abs(stats.mean_p) < 5 * stats.se_mean_p


@pytest.mark.parametrize("n_beams", [2, 4])
def test_simulator_matches_prediction_in_small_angle_regime(n_beams):
    # at xi = 1 and n = 1000 the phase variance is small enough that the
    # quadratic prediction and the exact moments agree to well under 1 SE
    cfg = CbcConfig(n_beams=n_beams, photons=1000, xi=1.0)
    pred = predict_output(cfg)
    stats = simulate_cbc(cfg, 100_000, RngStream(23))
    assert abs(stats.mean_x - pred.mean_amplitude) < 5 * stats.se_mean_x
    assert abs(stats.var_x - pred.var_x) < 5 * stats.se_var_x
    assert abs(stats.var_p - pred.var_p) < 5 * stats.se_var_p


def test_simulate_cbc_deterministic():
    cfg = CbcConfig(n_beams=3, photons=50, xi=2.0)
    a = simulate_cbc(cfg, 30_000, RngStream(4))
    b = simulate_cbc(cfg, 30_000, RngStream(4))
    assert a == b


def _box_muller_by_hand(gen, sigma, beams, count):
    # row k holds words [k*h, (k+1)*h); word j gives phases j (cos) and j + h (sin) of beam k
    h = (count + 1) // 2
    words, ulp = gen.bit_generator.random_raw(beams * h).reshape(beams, h), np.float32(2.0 ** -32)
    u1 = (words >> np.uint64(32)).astype(np.float32) * ulp + ulp
    angle = (words & np.uint64(2 ** 32 - 1)).astype(np.float32) * np.float32(2 * math.pi) * ulp
    r = np.sqrt(np.float32(-2) * np.log(u1)) * np.float32(sigma)
    return np.concatenate([r * np.cos(angle), (r * np.sin(angle))[:, :count - h]], axis=1)


@pytest.mark.parametrize("beams, count", [(4, 7), (3, 8)])  # odd count: the last sin is unused
def test_box_muller_block_by_hand(beams, count):
    gen, ref = RngStream(8).generator(), RngStream(8).generator()
    block = next(coherent._box_muller_blocks(gen, 0.3, beams, count))
    assert block.dtype == np.float32 and block.shape == (beams, count)
    assert block.tobytes() == _box_muller_by_hand(ref, 0.3, beams, count).tobytes()
    assert np.array_equal(gen.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))


def test_box_muller_phases_are_normal():
    # 2^21 phases; the SEs of the sample mean, mean square and mean fourth power come from
    # N(0, 1)'s own moments: Var(z) = 1, Var(z^2) = 2, Var(z^4) = 105 - 9 = 96
    sigma, beams, count = 0.3, 32, 1 << 16
    gen = RngStream(41).generator()
    z = np.concatenate([b.astype(np.float64) for b in
                        coherent._box_muller_blocks(gen, sigma, beams, count)]) / sigma
    n = z.size
    assert n == 1 << 21
    assert abs(z.mean()) < 5 * math.sqrt(1 / n)
    assert abs(np.mean(z ** 2) - 1) < 5 * math.sqrt(2 / n)
    assert abs(np.mean(z ** 4) - 3) < 5 * math.sqrt(96 / n)
    assert np.abs(z).max() <= 6.66  # the tail ends at sqrt(64 ln 2) = 6.6604


# Fixed before the first run: float32 cos and sin err by ~3e-8 per beam, and
# the float64 sums keep that from growing with N, so a sample with n <= 1000
# is within a few 1e-6 of float64 trig; 1e-5 is far below one SE of any gated
# mean or variance (the vacuum alone has deviation 0.5 per quadrature).
FLOAT32_TRIG_ATOL = 1e-5


@pytest.mark.parametrize("photons", [100.0, 1000.0])
@pytest.mark.parametrize("n_beams", [2, 32])
def test_float32_trig_matches_float64_sum(n_beams, photons):
    cfg = CbcConfig(n_beams=n_beams, photons=photons, xi=5.0)
    count = chunk_trials(32)
    samples = sample_cbc_outputs(cfg, count, RngStream(31).generator())
    # the float64 path from the same float32 phases, then the port vacuum
    gen = RngStream(31).generator()
    psi = _box_muller_by_hand(gen, math.sqrt(cfg.phase_var), n_beams, count).astype(np.float64)
    port = math.sqrt(photons / n_beams) * np.exp(1j * psi).sum(axis=0)
    np.testing.assert_allclose(samples, gaussian_field(port, gen), rtol=0, atol=FLOAT32_TRIG_ATOL)


def _whole_chunk_cbc(cfg, count, gen):
    # the sampler with the chunk's phases in one (N, count) draw, summed over the beams in order
    psi = _box_muller_by_hand(gen, math.sqrt(cfg.phase_var), cfg.n_beams, count)
    x = np.sum(np.cos(psi) - 1, axis=0, dtype=np.float64, initial=cfg.n_beams)
    p = np.sum(np.sin(psi), axis=0, dtype=np.float64, initial=0.0)
    return gaussian_field(math.sqrt(cfg.photons / cfg.n_beams) * (x + 1j * p), gen)


def _whole_chunk_gamma(phase_var, count, n_terms, gen):
    # the kernel with the chunk's unit normals in one trial-major draw, squared in float32
    z = _box_muller_by_hand(gen, 1.0, count, n_terms)
    return np.square(z).astype(np.float64).sum(axis=1) * phase_var


@pytest.mark.parametrize("block", [7, coherent._BLOCK, 1 << 19])  # any block size, the same bits
@pytest.mark.parametrize("width", [2, 3, 32, 10_000, "above"])  # 10^4 > 8192, numpy's buffer
def test_blocked_phases_match_one_whole_draw(monkeypatch, block, width):
    # blocks of one stream, each row reduced alone: same bytes, same next draw
    monkeypatch.setattr(coherent, "_BLOCK", block)
    n_beams = block + 1 if width == "above" else width
    rows = max(1, block // n_beams)
    cfg = CbcConfig(n_beams=n_beams, photons=100.0, xi=5.0)
    gamma, _ = gamma_sum_kernel(n_beams, 0.01, 1000)
    pairs = [(lambda c, g: sample_cbc_outputs(cfg, c, g), lambda c, g: _whole_chunk_cbc(cfg, c, g)),
             (gamma, lambda c, g: _whole_chunk_gamma(0.01, c, n_beams, g))]
    for count in sorted({max(1, rows - 1), rows, rows + 1}):
        for draw, whole in pairs:
            gen, ref = RngStream(5).generator(), RngStream(5).generator()
            assert draw(count, gen).tobytes() == whole(count, ref).tobytes()
            assert np.array_equal(gen.bit_generator.random_raw(4), ref.bit_generator.random_raw(4))


def _traced_peak(draw):
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cbc_chunk_memory_is_bounded():
    # a full chunk holds 65536 trials; 3 MiB holds the sums x and p, the port and
    # gaussian_field's segment buffers (2.47 MiB), not those with the float32 phase
    # block and its cosines kept beside them (3.0 MiB at N = 2 and 32)
    for n_beams in (2, 32):
        cfg = CbcConfig(n_beams=n_beams, photons=1000.0, xi=5.0)
        gen = RngStream(3).generator()
        count = chunk_trials(n_beams)
        assert _traced_peak(lambda: sample_cbc_outputs(cfg, count, gen)) <= 3 * 2 ** 20, n_beams


def test_gamma_chunk_memory_is_bounded():
    # a full chunk holds 65536 trials; 2 MiB holds the sums and one 2^16-element block's
    # raw words, radii, angles, float32 normals and float64 squares (1.78 MiB at N = 2
    # and 32), not a 2^19-element block or the chunk's 2^21 float64 squares at N = 32
    for n_terms in (2, 32):
        kernel, width = gamma_sum_kernel(n_terms, 1e-3, chunk_trials(n_terms))
        gen = RngStream(3).generator()
        assert _traced_peak(lambda: kernel(chunk_trials(width), gen)) <= 2 * 2 ** 20, n_terms


def test_amp_chunk_memory_is_bounded():
    # measure_prepare nests two gaussian_field draws about a scaled field; each copies
    # its mean once and adds the noise in place (3.47 MiB), no sum temporaries (4.6 MiB);
    # quantum_limited scales its idler in place (3.0 MiB, 4.0 with a conjugated copy and
    # g*a beside it), and phase_sensitive writes x and p into one array (2.0 MiB, 2.63)
    for kind in KINDS:
        kernel, width = chain_kernel((4.0, [AmplifierSpec(2.0, kind=kind)]), 10 ** 6)
        gen = RngStream(3).generator()
        assert _traced_peak(lambda: kernel(chunk_trials(width), gen)) <= 4 * 2 ** 20, kind


def test_phase_noise_is_asymmetric_between_quadratures():
    # the p-quadrature excess is larger than the x excess by about 2/V;
    # a sizable V is needed to resolve the tiny x excess, hence the warning
    with pytest.warns(SmallAngleWarning):
        cfg = CbcConfig(n_beams=2, photons=10, xi=1.0)
    assert cfg.phase_var == pytest.approx(0.1)
    stats = simulate_cbc(cfg, 2_000_000, RngStream(29))
    ratio = (stats.var_p - 0.25) / (stats.var_x - 0.25)
    assert ratio == pytest.approx(2.0 / cfg.phase_var, rel=0.05)


def test_gamma_sum_statistics():
    n_terms, phase_var, trials = 10, 0.01, 200_000
    mean, var = gamma_sum_statistics(n_terms, phase_var, trials, RngStream(37))
    target_mean = n_terms * phase_var
    target_var = 2 * n_terms * phase_var ** 2
    se_mean = math.sqrt(target_var / trials)
    se_var = target_var * math.sqrt((2 + 12 / n_terms) / trials)
    assert abs(mean - target_mean) < 5 * se_mean
    assert abs(var - target_var) < 5 * se_var


def test_chunk_trials_bounds():
    # wide per-trial records get smaller chunks, down to one trial
    assert chunk_trials(1) == 65536
    assert chunk_trials(6) == 65536
    assert chunk_trials(100) == 2 ** 21 // 100
    assert chunk_trials(10_000) == 2 ** 21 // 10_000


@pytest.mark.parametrize("width", [1, 2048, 4096, 65536, 2 ** 21])
def test_chunk_trials_within_budget(width):
    from cbcnoise.coherent import _CHUNK_BUDGET

    assert 1 <= chunk_trials(width)
    assert chunk_trials(width) * width <= _CHUNK_BUDGET


def test_chunk_holds_one_trial_above_budget():
    from cbcnoise.coherent import _CHUNK_BUDGET

    assert chunk_trials(_CHUNK_BUDGET + 1) == 1
    assert chunk_trials(4 * _CHUNK_BUDGET) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 17, 64, 257, 1024])
def test_error_signals_equal_nulled_port_zero(n):
    # the physical definition: forward transform, null the coherent-sum
    # port, transform back; error_signals computes the projection instead
    gen = np.random.default_rng(100 + n)
    for a in (gen.normal(size=n) + 1j * gen.normal(size=n),
              gen.normal(size=(5, n)) + 1j * gen.normal(size=(5, n))):
        f = dft(a)
        f[..., 0] = 0.0
        assert np.max(np.abs(error_signals(a) - inverse_dft(f))) <= 1e-12
