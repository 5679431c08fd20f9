"""Coherent combining of N beams through a discrete-Fourier-transform coupler.

The combiner maps input amplitudes alpha_j to output ports
beta_k = (1/sqrt(N)) * sum_j alpha_j * exp(-2j*pi*j*k/N}.  Port k=0 carries
the coherent sum; for identical inputs every photon exits there.  Relative
phase errors psi_j scatter light into the remaining ports, and feeding those
ports back through the inverse transform yields per-beam error signals
epsilon_j = alpha_j - mean(alpha), the quantity a lock loop wants to null.

The closed-form predictors describe the combined output for independent
zero-mean Gaussian phase errors of variance phase_var on each beam: the mean
amplitude shrinks by (1 - phase_var/2), the phase quadrature picks up excess
noise n*phase_var, and the amplitude quadrature picks up (n/2)*phase_var^2.
These forms are second order in the phase spread; the Monte Carlo here sums
the full cos and sin of each phase, so at large phase_var the simulation is
the more accurate of the two.  It draws float32 Box-Muller phases, two per
Philox word.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coherent import (_SIGMA_COH, VAR_COH, QuadratureStats, RngStream, _box_muller_blocks,
                       _finite, _fits, _whole, run_chunks)
from .coherent import chunk_trials as chunk_trials  # perfbench/tracing.py calls it from here

# Phase variance (rad^2) beyond which the quadratic predictors degrade.
SMALL_ANGLE_LIMIT = 0.05


class SmallAngleWarning(UserWarning):
    """Raised when a configured phase variance exceeds the quadratic regime."""


def sql_phase_variance(n_beams: int, photons: float) -> float:
    """Lowest phase variance resolvable with n photons per beam per correction.

    Equals 1/((N-1)*n): each of the N-1 independent relative phases must
    scatter about one photon into the error ports to be detectable at all.
    An n that puts this at inf or 0 in floating point is rejected.
    """
    if n_beams < 2:
        raise ValueError("need at least two beams for a relative phase")
    if photons <= 0:
        raise ValueError("photon number must be positive")
    sql = 1.0 / ((n_beams - 1) * photons)
    if not 0.0 < sql < math.inf:
        raise ValueError(f"quantum limit 1/((N-1)*n) is {sql!r} at N = {n_beams}, n = {photons!r}")
    return sql


def xi_threshold(n_beams: int) -> float:
    """Phase accuracy factor above which combining is noisier than one amplifier.

    Solves 1 + 4*xi/(N-1) = 2N - 1 for xi, giving (N-1)^2 / 2.  A lock loop
    holding Var(psi) below xi_threshold * sql_phase_variance(N, n) keeps the
    combined beam quieter than a single quantum-limited amplifier of gain N.
    """
    sql_phase_variance(_whole("N", n_beams), 1.0)  # checks N is whole and >= 2
    try:
        return (n_beams - 1) ** 2 / 2.0
    except OverflowError:
        raise ValueError(f"N = {n_beams!r} puts (N-1)^2/2 out of float range") from None


@dataclass(frozen=True)
class CbcConfig:
    """Combining setup: N beams, n photons per beam, and a phase spread.

    The phase spread is given either directly as ``phase_var`` (rad^2) or as
    the accuracy factor ``xi`` in units of the standard quantum limit,
    phase_var = xi / ((N-1)*n).  Exactly one of the two must be supplied;
    both are available as attributes afterwards.
    """

    n_beams: int
    photons: float
    phase_var: float = None
    xi: float = None

    def __post_init__(self):
        object.__setattr__(self, "n_beams", _whole("N", self.n_beams))
        _finite(self, "photons", "phase_var", "xi")
        sql = sql_phase_variance(self.n_beams, self.photons)  # checks N >= 2 and n > 0
        given_var = self.phase_var is not None
        given_xi = self.xi is not None
        if given_var == given_xi:
            raise ValueError("give exactly one of phase_var or xi")
        if given_xi:
            if self.xi < 1.0:
                raise ValueError("xi below 1 would beat the quantum limit")
            object.__setattr__(self, "phase_var", self.xi * sql)
        else:
            if self.phase_var < 0.0:
                raise ValueError("phase variance must be nonnegative")
            object.__setattr__(self, "xi", self.phase_var / sql)
        _finite(self, "phase_var", "xi")  # the derived one may overflow
        if not math.isfinite(0.5 * self.photons * self.phase_var * self.phase_var):
            raise ValueError(f"phase_var {self.phase_var!r} puts var_x beyond float range")
        if self.phase_var > SMALL_ANGLE_LIMIT:
            warnings.warn(
                f"phase_var={self.phase_var:.4g} exceeds the small-angle regime "
                f"(> {SMALL_ANGLE_LIMIT}); quadratic predictors lose accuracy",
                SmallAngleWarning,
                stacklevel=3,  # the caller, past the dataclass-generated __init__
            )


def _beams(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim == 0:  # a scalar is one beam
        return a.reshape(1)
    if a.size == 0:
        raise ValueError("empty input")
    return a


def dft(amplitudes) -> np.ndarray:
    """Unitary forward transform of beam amplitudes to combiner ports."""
    return np.fft.fft(_beams(amplitudes), norm="ortho")


def inverse_dft(amplitudes) -> np.ndarray:
    """Unitary inverse transform, conjugate of ``dft``."""
    return np.fft.ifft(_beams(amplitudes), norm="ortho")


def combine_port_amplitude(amplitudes) -> complex:
    """Amplitude in the coherent-sum port, (1/sqrt(N)) * sum_j alpha_j."""
    a = _beams(amplitudes)
    return complex(a.sum() / np.sqrt(a.size))


def error_signals(amplitudes) -> np.ndarray:
    """Per-beam error amplitudes obtained by nulling the coherent-sum port.

    Transforming forward, zeroing port 0 and transforming back is exactly
    the projection alpha_j - mean(alpha), computed here directly along the
    last axis.  The signals sum to zero and vanish only for identical inputs.
    The result is always a new array: ``phaselock.run_feedback`` calls this once per
    measurement, on exp(1j*psi) in a buffer it reuses, and squares the result in place.
    """
    a = _beams(amplitudes)
    # sum / N is bit for bit a.mean(), without its overhead on the lock loop's path
    return a - a.sum(axis=-1, keepdims=True) / a.shape[-1]


def error_photon_number(phases, photons: float) -> float:
    """Photons diverted from the coherent sum by small phase errors.

    Quadratic form n * sum_j (psi_j - mean(psi))^2, the small-angle limit of
    the exact error-port intensity sum.
    """
    sql_phase_variance(2, photons)  # checks n > 0
    psi = np.asarray(phases, dtype=float)
    if psi.size == 0:
        raise ValueError("empty input")
    if not np.isfinite(psi).all():
        raise ValueError("phases must be finite")
    d = psi - psi.mean()
    return float(photons * np.dot(d, d))


@dataclass(frozen=True)
class CbcPrediction:
    """Closed-form output noise of the combined beam (absolute units)."""

    mean_amplitude: float
    var_x: float
    var_p: float
    excess_x: float
    excess_p: float

    @property
    def var_x_units(self) -> float:
        return self.var_x / VAR_COH

    @property
    def var_p_units(self) -> float:
        return self.var_p / VAR_COH


def predict_output(config: CbcConfig) -> CbcPrediction:
    """Second-order predictors for the combined output port.

    mean amplitude sqrt(N*n) * (1 - phase_var/2), amplitude-quadrature excess
    (n/2)*phase_var^2, phase-quadrature excess n*phase_var, both on top of
    the coherent-state floor VAR_COH.
    """
    v = config.phase_var
    n = config.photons
    mean_amplitude = math.sqrt(config.n_beams * n) * (1.0 - v / 2.0)
    excess_x = 0.5 * n * v * v
    excess_p = n * v
    return CbcPrediction(
        mean_amplitude=mean_amplitude,
        var_x=VAR_COH + excess_x,
        var_p=VAR_COH + excess_p,
        excess_x=excess_x,
        excess_p=excess_p,
    )


def sample_cbc_outputs(config: CbcConfig, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` combined-port field samples with one generator, as (2, count) x, p rows.

    Per trial: Gaussian phase errors psi_k on the N beams, the coherent sum
    sqrt(n/N) * sum_k (cos psi_k + 1j*sin psi_k), and one coherent-state vacuum: the combiner
    is unitary, so the N input vacua reaching port 0 add up to exactly one.  Draw order:
    ``_box_muller_blocks`` float32 phases, ceil(count/2) Philox words per beam, then the port
    vacuum, one word per trial, read as ``gaussian_field`` reads it, so a given stream always
    yields the same ensemble.  cos psi_k - 1 and sin psi_k, in float32, are added to N and 0 in
    float64 beam by beam: a sample is within ~1e-7*sqrt(n) of float64 trig's sum.  The rows are
    the chunk: no complex port is built, and ``coherent._run_chunk`` reduces them in place.
    """
    x, p = rows = np.full((2, count), [[config.n_beams], [0.0]])
    for psi in _box_muller_blocks(gen, math.sqrt(config.phase_var), config.n_beams, count):
        c = np.cos(psi)
        np.subtract(c, 1, out=c)
        np.sin(psi, out=psi)
        for k in range(len(psi)):  # one beam at a time, so any block size adds alike
            x += c[k]
            p += psi[k]
        del c  # before the next block's raw words come: see below
    del psi  # the phase buffers go before the vacuum's come
    rows *= math.sqrt(config.photons / config.n_beams)
    # gaussian_field's vacuum, sigma times float32 normals in float64 (addition commutes: its
    # port's parts bit for bit), a quadrature at a time; with c freed per block, at most 1.75 MiB
    # lives at once, below the heap top of twice the rows that glibc gives back at every chunk
    rest = rows
    for z in _box_muller_blocks(gen, 1.0, count, 2):
        for row, normals in zip(rest, z.T):
            row[:len(z)] += np.multiply(normals, _SIGMA_COH, dtype=np.float64)
        rest = rest[:, len(z):]  # the trials still to fill
    return rows


def cbc_kernel(config: CbcConfig, trials: int):
    """(kernel, width) for ``run_chunks``: combined-port samples of ``config``, N wide.

    The sampler's float32 phases end at sqrt(64 ln 2), about 6.66 standard deviations; 64 of
    them must fit float32 (phase_var below ~2.8e73), and the exact Gaussian-phase variances
    1/4 + n*(1-e^-v)^2/2 and 1/4 + n*(1-e^-2v)/2, not the unbounded quadratic ones, must fit
    floats at ``trials``, blaming n, before any draw.
    """
    v, n = config.phase_var, config.photons
    if not 64.0 * math.sqrt(v) < float(np.finfo(np.float32).max):
        raise ValueError(f"phase_var {v!r} puts the phases out of float32 range")
    _fits("n", n, [VAR_COH + n * math.expm1(-v) ** 2 / 2, VAR_COH - n * math.expm1(-2 * v) / 2],
          trials)
    return (lambda count, gen: sample_cbc_outputs(config, count, gen)), config.n_beams


def simulate_cbc(config: CbcConfig, trials: int, rng: RngStream) -> QuadratureStats:
    """Monte Carlo ensemble of the combined output port.

    Runs through ``run_chunks``, so the result is bit-identical for any
    degree of parallelism that respects its chunk layout.
    """
    return run_chunks(*cbc_kernel(config, trials), trials, rng)


def gamma_sum_kernel(n_terms: int, phase_var: float, trials: int):
    """(kernel, width) for ``run_chunks``: one sum(psi_k^2) over k = 1..N per trial, N wide.

    The phases are independent zero-mean Gaussians of variance phase_var;
    each sum is returned as a real sample, so it lands in the x quadrature
    of the chunk statistics.  Its law variance 2*N*phase_var^2 must fit
    floats at ``trials``.  Trial j's unit normals z_k are row j of ``_box_muller_blocks``,
    ceil(N/2) Philox words per trial; z_k^2 <= 64 ln 2 is squared in float32, summed over the
    row in float64 and only then scaled by phase_var, so float32 never holds phase_var.
    """
    n_terms = _whole("N", n_terms)
    if n_terms < 1:
        raise ValueError("need at least one term")
    if not 0.0 < phase_var < math.inf:
        raise ValueError(f"phase variance {phase_var!r} must be positive and finite")
    _fits("phase variance", phase_var, [2.0 * n_terms * phase_var * phase_var], trials)

    def kernel(count, gen):
        out, sq, start = np.empty(count), None, 0
        for z in _box_muller_blocks(gen, 1.0, count, n_terms):
            sq = np.empty(z.shape) if sq is None else sq[:len(z)]
            np.add.reduce(np.square(z, out=sq), axis=1, out=out[start:start + len(z)])
            start += len(z)
        out *= phase_var
        return out
    return kernel, n_terms


def gamma_sum_statistics(n_terms: int, phase_var: float, trials: int, rng: RngStream):
    """Sample mean and unbiased variance of sum(psi_k^2) over k = 1..N.

    For independent zero-mean Gaussian phases the sum is gamma distributed
    with shape N/2 and scale 2*phase_var, so the mean is N*phase_var and the
    variance 2*N*phase_var^2.  Returns (mean, variance).
    """
    stats = run_chunks(*gamma_sum_kernel(n_terms, phase_var, trials), trials, rng)
    return stats.mean_x, stats.var_x
