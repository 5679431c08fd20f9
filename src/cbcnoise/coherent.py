"""Semiclassical coherent-state sampling and quadrature statistics.

A coherent state with mean amplitude alpha is modeled as alpha plus complex
Gaussian noise: independent fluctuations of variance 1/4 on the real part
(x quadrature) and on the imaginary part (p quadrature).  In these units the
photon number of the mean field is |alpha|^2 and every coherent state, the
vacuum included, saturates the Heisenberg bound sqrt(var_x * var_p) = 1/4.

Random numbers come from counter-based Philox streams addressed by a master
seed plus an index tuple, so any (seed, index) pair reproduces the identical
sequence regardless of how work is scheduled across threads or processes.
Field noise, cbc phases and gamma terms are float32 Box-Muller pairs of raw
Philox words: one word per complex field sample, two phases or terms per word.

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
_BLOCK = 1 << 16  # elements per ``_box_muller_blocks`` block, in rows of ``width``
_HIGH = int(sys.byteorder == "little")  # where a raw word's high half sits in its uint32 view


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


def _radius_angle(words, r, angle):
    """Box-Muller's float32 r = sqrt(-2 ln u1) and angle 2 pi u2 from raw Philox ``words`` (their
    uint32 view) into ``r`` and ``angle``: word j gives u1 = (high 32 bits + 1)*2^-32, in (0, 1],
    and u2 = (low 32 bits)*2^-32.  u1 >= 2^-32, so r <= sqrt(64 ln 2) ~ 6.66."""
    np.multiply(words[..., _HIGH::2], 2.0 ** -32, out=r, dtype=np.float32)
    r += 2.0 ** -32  # u1
    np.sqrt(np.multiply(np.log(r, out=r), -2, out=r), out=r)
    np.multiply(words[..., 1 - _HIGH::2], 2 * math.pi * 2.0 ** -32, out=angle, dtype=np.float32)


def _box_muller_blocks(gen: np.random.Generator, sigma: float, rows: int, width: int):
    """Yield (rows, width) float32 blocks of N(0, sigma^2) normals: whole rows in order, at most
    _BLOCK elements (one row at least), in one reused buffer valid until the next block.  Row k
    takes its own h = ceil(width/2) raw Philox words; word j's ``_radius_angle`` r and angle give
    normals j and j + h, (sigma*r)*cos(angle) and (sigma*r)*sin(angle), all in float32, so
    |normal| <= sqrt(64 ln 2)*sigma ~ 6.66 sigma."""
    half, step = (width + 1) // 2, max(1, _BLOCK // width)
    # the angles have their own buffer: numpy's float32 sin and cos go element by element when
    # input and output interleave in memory, as the halves of rows of width 2 would; those
    # halves, gaussian_field's x and p, are outputs only
    r, angle, buf = (np.empty((min(step, rows), size), np.float32) for size in (half, half, width))
    for start in range(0, rows, step):
        block, rb, ab = buf[:rows - start], r[:rows - start], angle[:rows - start]  # may be short
        cos, sin = block[:, :half], block[:, half:]
        _radius_angle(gen.bit_generator.random_raw(rb.shape).view(np.uint32), rb, ab)
        rb *= sigma  # after the root, so no float32 ever holds sigma^2
        np.multiply(np.sin(ab[:, :width - half], out=sin), rb[:, :width - half], out=sin)
        np.multiply(np.cos(ab, out=cos), rb, out=cos)
        yield block


def gaussian_field(mean, gen: np.random.Generator, sigma=_SIGMA_COH, shape=None):
    """``mean`` plus complex Gaussian noise of per-quadrature deviation ``sigma``.

    The package's one field draw, of ``mean``'s shape broadcast with ``shape`` (default: the
    mean's own).  Sample j of the flattened field is row j of a width-2 ``_box_muller_blocks``
    draw, so it reads raw Philox word j: its x and p are sigma times the float32 r*cos(angle)
    and r*sin(angle), taken in float64 so any finite sigma stays in range, plus the mean.
    """
    shape = np.shape(mean) if shape is None else shape
    field = np.empty(np.broadcast_shapes(np.shape(mean), shape), complex)
    xp = field.reshape(-1).view(float).reshape(-1, 2)  # row j: sample j's (x, p)
    for z in _box_muller_blocks(gen, 1.0, len(xp), 2):
        np.multiply(z, sigma, out=xp[:len(z)], dtype=np.float64)
        xp = xp[len(z):]  # the rows still to fill
    field += mean  # IEEE addition commutes: the bits of the mean plus the noise
    return field


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


def _row_moments(block: np.ndarray) -> tuple:
    """(means, unbiased variances) of the rows of a C-ordered float64 ``block``, in place (the
    block is spent): bit for bit each row's ``np.mean(row)`` and ``np.var(row, ddof=1)``, as
    numpy sums a row of a C-ordered block pairwise like a lone one."""
    n = block.shape[1]
    means = block.sum(axis=1) / n
    block -= means[:, None]
    block *= block
    return means, block.sum(axis=1) / (n - 1)


def estimate_stats(samples) -> QuadratureStats:
    """Estimate QuadratureStats from an ensemble of complex field samples."""
    a = np.asarray(samples).ravel()
    n = a.size
    if n < 2:
        raise ValueError("insufficient data: need at least 2 samples")
    (mean_x, mean_p), (var_x, var_p) = _row_moments(np.array([a.real, a.imag], float))
    return QuadratureStats(float(mean_x), float(mean_p), float(var_x), float(var_p), n)


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
