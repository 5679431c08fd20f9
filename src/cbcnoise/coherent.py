"""Semiclassical coherent-state sampling and quadrature statistics.

A coherent state with mean amplitude alpha is modeled as alpha plus complex
Gaussian noise: independent fluctuations of variance 1/4 on the real part
(x quadrature) and on the imaginary part (p quadrature).  In these units the
photon number of the mean field is |alpha|^2 and every coherent state, the
vacuum included, saturates the Heisenberg bound sqrt(var_x * var_p) = 1/4.

Random numbers come from counter-based Philox streams addressed by a master
seed plus an index tuple, so any (seed, index) pair reproduces the identical
sequence regardless of how work is scheduled across threads or processes.

Every Monte Carlo ensemble in the package runs through ``run_chunks``:
fixed-size chunks, one substream per chunk, statistics merged in chunk
order.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

# Per-quadrature variance of an ideal coherent state (vacuum noise level).
VAR_COH = 0.25

# Standard deviation matching VAR_COH, used for every Gaussian quadrature draw.
_SIGMA_COH = 0.5

# Target element count per Monte Carlo chunk.  Chunk size is a pure function
# of the per-trial width, so the stream layout (and therefore every sampled
# number) is independent of worker count.
_CHUNK_BUDGET = 1 << 21
_CHUNK_MAX = 1 << 16
_BLOCK = 1 << 16  # elements per ``normal_blocks`` block (512 KiB of float64)


def _whole(name: str, value, bound=sys.float_info.max) -> int:
    """``value`` as an int; 2.0 counts, while 2.5, nan, inf and any |value| > bound do not."""
    if not (isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if abs(value) > bound:  # by default, beyond float range
        raise ValueError(f"{name} is too large for a float")
    return int(value)


def _finite(record, *names):
    """Raise ValueError if a named field of ``record`` is nan or inf; None is skipped."""
    for name in names:
        if not math.isfinite(getattr(record, name) or 0.0):
            raise ValueError(f"{name} must be finite")


def _scalar(value, kind=float):
    """``value`` as a Python ``kind`` (float or complex) if it is a scalar; arrays pass through."""
    return value if getattr(value, "ndim", 0) else kind(value)


def photon_number(alpha):
    """Mean photon number |alpha|^2 of a mean amplitude (scalar or array)."""
    a = np.asarray(alpha)
    return _scalar(a.real ** 2 + a.imag ** 2)


def quadratures(alpha):
    """Split a complex amplitude into its (x, p) quadrature pair."""
    a = np.asarray(alpha)
    return _scalar(a.real), _scalar(a.imag)


@dataclass(frozen=True)
class RngStream:
    """Addressed random stream: a master seed plus an index tuple.

    Two streams with the same (master_seed, stream_index) yield identical
    sequences; distinct index tuples give statistically independent streams.
    ``substream`` extends the index, which is how per-point and per-chunk
    streams are derived without any coordination between workers.
    """

    master_seed: int
    stream_index: tuple = field(default=())

    def substream(self, *indices) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.stream_index)
        return np.random.Generator(np.random.Philox(seq))


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream or a ready numpy Generator and return a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng).__name__}")


def gaussian_field(mean, gen: np.random.Generator, sigma=_SIGMA_COH, shape=None):
    """``mean`` plus complex Gaussian noise of per-quadrature deviation ``sigma``.

    The package's one field draw: an x block, then a p block, each of ``shape``
    (default: the shape of ``mean``), so a stream always yields the same samples.
    """
    shape = np.shape(mean) if shape is None else shape
    field = np.empty(np.broadcast_shapes(np.shape(mean), shape), complex)
    field[...] = mean  # copied once; the x block, then the p block, are added in place
    noise = np.empty(shape)
    for part in (field.real, field.imag):
        part += np.multiply(gen.standard_normal(out=noise), sigma, out=noise)
    return field


def normal_blocks(gen: np.random.Generator, sigma: float, count: int, width: int):
    """Yield (row slice, block) pairs, in row order, holding gen.normal(scale=sigma, size=(count,
    width)) bit for bit: blocks of at most _BLOCK elements (one row at least), all in one reused
    float64 buffer, so each block is valid until the next one is drawn."""
    step = max(1, _BLOCK // width)
    buf = np.empty((min(step, count), width))
    for start in range(0, count, step):
        block = gen.standard_normal(out=buf[:count - start])  # the last block may be short
        block *= sigma
        yield slice(start, start + len(block)), block


def sample_coherent(mean, rng, size=None):
    """Draw coherent-state field samples about a mean amplitude.

    One ``gaussian_field`` draw at the vacuum level.  With ``size=None`` the
    output matches the shape of ``mean`` (a scalar mean gives a single
    complex number).
    """
    return _scalar(gaussian_field(np.asarray(mean), as_generator(rng), shape=size), complex)


@dataclass(frozen=True)
class QuadratureStats:
    """Ensemble mean and unbiased variance of both quadratures.

    ``se_var_x`` and ``se_var_p`` are the standard errors of the variance
    estimates, var * sqrt(2 / (trials - 1)), valid for near-Gaussian data.
    """

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    trials: int

    @property
    def se_mean_x(self) -> float:
        return math.sqrt(self.var_x / self.trials)

    @property
    def se_mean_p(self) -> float:
        return math.sqrt(self.var_p / self.trials)

    @property
    def se_var_x(self) -> float:
        return self.var_x * math.sqrt(2.0 / (self.trials - 1))

    @property
    def se_var_p(self) -> float:
        return self.var_p * math.sqrt(2.0 / (self.trials - 1))


def estimate_stats(samples) -> QuadratureStats:
    """Estimate QuadratureStats from an ensemble of complex field samples."""
    a = np.asarray(samples, dtype=complex).ravel()
    n = a.size
    if n < 2:
        raise ValueError("insufficient data: need at least 2 samples")
    buf = np.empty(n)
    moments = []
    for col in (a.real, a.imag):  # np.mean and np.var(ddof=1), bit for bit, in one buffer
        mean = col.sum() / n
        np.square(np.subtract(col, mean, out=buf), out=buf)
        moments += [float(mean), float(buf.sum() / (n - 1))]
    mean_x, var_x, mean_p, var_p = moments
    return QuadratureStats(mean_x, mean_p, var_x, var_p, n)


def merge_stats(a: QuadratureStats, b: QuadratureStats) -> QuadratureStats:
    """Combine two disjoint ensembles into the exact pooled statistics.

    Uses the pairwise update for mean and second moment, so a chunked or
    parallel run merged in a fixed order reproduces the whole-ensemble
    statistics to floating-point accuracy.  Merging is associative up to
    rounding; an empty side is an error because QuadratureStats cannot
    represent fewer than two samples.
    """
    if a is None or b is None:
        raise ValueError("cannot merge with an empty statistics object")
    na, nb = a.trials, b.trials
    n = na + nb

    def pooled(mean_a, var_a, mean_b, var_b):
        delta = mean_b - mean_a
        mean = mean_a + delta * nb / n
        m2 = var_a * (na - 1) + var_b * (nb - 1) + delta * delta * na * nb / n
        return mean, m2 / (n - 1)

    mean_x, var_x = pooled(a.mean_x, a.var_x, b.mean_x, b.var_x)
    mean_p, var_p = pooled(a.mean_p, a.var_p, b.mean_p, b.var_p)
    return QuadratureStats(mean_x, mean_p, var_x, var_p, n)


def chunk_trials(width: int) -> int:
    """Trials per chunk for ensembles whose trials each need ``width`` draws.

    At most _CHUNK_BUDGET elements, except that a chunk holds at least one trial.
    """
    return min(_CHUNK_MAX, max(1, _CHUNK_BUDGET // int(width)))


def _run_chunk(kernel, count, stream):
    samples = kernel(count, stream.generator())
    if count == 1:
        # a one-trial last chunk has no spread; merge_stats needs only its mean
        z = complex(np.ravel(samples)[0])
        return QuadratureStats(z.real, z.imag, 0.0, 0.0, 1)
    return estimate_stats(samples)


def _fits(name: str, value, variances, trials: int):
    """Raise ValueError naming ``name`` unless each variance v has 0 < v/trials, v*trials < inf."""
    # fewer than 2 trials are left for chunk_jobs to reject
    if trials >= 2 and not all(0 < v / trials and v * trials < math.inf for v in variances):
        raise ValueError(f"{name} {value!r} puts a variance out of float range at {trials} trials")


def chunk_jobs(kernel, width: int, trials: int, stream: RngStream) -> list:
    """One zero-argument job per chunk, in chunk order, returning its stats.

    Chunk i holds chunk_trials(width) trials (the last one the remainder),
    sampled by ``kernel(count, generator)`` from ``stream.substream(i)``.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    size = chunk_trials(width)
    return [functools.partial(_run_chunk, kernel, min(size, trials - start), stream.substream(idx))
            for idx, start in enumerate(range(0, trials, size))]


def run_chunks(kernel, width: int, trials: int, stream: RngStream) -> QuadratureStats:
    """Merged statistics of ``chunk_jobs``, run in chunk order."""
    jobs = chunk_jobs(kernel, width, trials, stream)
    return functools.reduce(merge_stats, (job() for job in jobs))
