"""Phase locking from error-port photon counts.

Interfering two beams with relative phase offset dpsi sends
n * (1 - cos(dpsi)) photons into the dark port, about n*dpsi^2/2 for small
offsets.  Detection needs at least one photon, so one correction interval
with n photons per beam cannot resolve a phase variance below about 2/n
(1/n when the offset is split symmetrically over both beams).  The N-beam
generalization of that floor is sql_phase_variance in the combining module.

The feedback loop here drives the relative phases of N beams using Poisson
click counts on the N-1 error ports of the DFT combiner.  A click count
tells magnitude, not direction, so the controller probes: it spends part of
each interval's photon budget measuring, applies a tentative correction with
its remembered sign guess, verifies against the remaining budget, and keeps
the move only if the error light did not grow, flipping the remembered sign
otherwise.  Corrections are applied zero-sum across beams because a common
phase shift is unobservable.  Once the residual spread is small enough that
the error ports go dark, corrections stop on their own, which is the quantum
limit asserting itself: no clicks, no information.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import _BLOCK, RngStream, _finite, _scalar, _whole, run_chunks
from .combining import error_signals, sql_phase_variance

# Fraction of each interval's photons spent on the first (probe) measurement;
# the rest verifies the tentative correction.
_PROBE_FRACTION = 1.0 / 3.0

# Minimum click count before a correction is attempted.  Near lock the click
# rates are well below one per interval, and acting on the occasional one or
# two stray photons would mean stepping much farther than the true residual.
# Requiring four clicks makes a triggered correction evidence of a genuine
# offset, so kept moves essentially never push the loop away from lock.
_MIN_CLICKS = 4

# Subtracted from the click count before the magnitude estimate.  Poisson
# counts that clear _MIN_CLICKS sit above their rate more often than below,
# and sqrt((count - 1) / budget) cancels most of that upward bias.
_MAGNITUDE_SHRINK = 1.0

_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # numpy's, ~9.2e18


def two_beam_click_rate(photons: float, dpsi) -> float:
    """Mean dark-port photon number n * (1 - cos(dpsi)) for two beams."""
    sql_phase_variance(2, photons)  # checks n > 0
    if not np.isfinite(dpsi).all():
        raise ValueError("dpsi must be finite")
    return _scalar(photons * (1.0 - np.cos(dpsi)))


def min_detectable_phase_var(photons: float, symmetrized: bool = False) -> float:
    """Phase variance at which the dark port holds one photon on average.

    2/n when one beam carries the whole offset, 1/n when both beams share it
    symmetrically.
    """
    return (1.0 if symmetrized else 2.0) * sql_phase_variance(2, photons)


def simulate_two_beam_clicks(photons: float, dpsi: float, trials: int, rng: RngStream):
    """Mean and SE of Poisson click counts at the two-beam rate, one per ``run_chunks`` trial."""
    rate = two_beam_click_rate(photons, dpsi)
    if rate > _POISSON_MAX:
        raise ValueError(f"n {photons!r} puts the click rate past numpy's Poisson limit")
    stats = run_chunks(lambda count, gen: gen.poisson(rate, size=count), 1, trials, rng)
    return stats.mean_x, stats.se_mean_x


@dataclass(frozen=True)
class FeedbackConfig:
    """Lock-loop setup.

    ``photons`` is the per-beam photon budget of one correction interval,
    ``drift_var`` the per-interval variance of the random walk each phase
    undergoes, ``controller_gain`` the fraction of the estimated error
    removed per kept correction.
    """

    n_beams: int
    photons: float
    drift_var: float = 0.0
    controller_gain: float = 0.4
    intervals: int = 100

    def __post_init__(self):
        object.__setattr__(self, "n_beams", _whole("N", self.n_beams))
        object.__setattr__(self, "intervals", _whole("intervals", self.intervals))
        _finite(self, "photons", "drift_var", "controller_gain")
        sql_phase_variance(self.n_beams, self.photons)  # checks N >= 2 and n > 0
        if self.drift_var < 0:
            raise ValueError("drift variance must be nonnegative")
        if not 0.0 < self.controller_gain <= 1.0:
            raise ValueError("controller gain must be in (0, 1]")
        if self.intervals < 1:
            raise ValueError("need at least one interval")
        if self.photons * max(4, self.n_beams) > 1.5 * _POISSON_MAX:  # one draw, mean <= 2nN/3
            raise ValueError(f"n {self.photons!r} may put a click mean past numpy's Poisson limit")
        if not _spread_fits(self, 0.0):
            raise ValueError(f"drift_var {self.drift_var!r} may overflow Var(psi)/SQL")


def _spread_fits(config: FeedbackConfig, start: float) -> bool:
    """Whether phases within s = start + 64 drift deviations (``cbc_kernel``'s margin) stay finite
    in (psi - mean)^2 <= 4s^2, its sum over beams <= N s^2 and Var(psi)/SQL <= N n s^2."""
    bound = math.sqrt(sys.float_info.max / (2 * max(1.0, config.photons)) / config.n_beams)
    return start + 64.0 * math.sqrt(config.intervals * config.drift_var) < bound


@dataclass(frozen=True)
class LockState:
    """Result of a feedback run: the final phases, the click total, and ``history``, a float64
    array holding the unbiased sample Var(psi) after each interval, one entry per interval."""

    phases: np.ndarray
    clicks_total: int
    history: np.ndarray

    def steady_state_ratio(self, config: FeedbackConfig) -> float:
        """Var(psi) over the single-interval quantum limit, averaged over the last half."""
        tail = self.history[len(self.history) // 2:]
        sql = sql_phase_variance(config.n_beams, config.photons)
        return float(tail.mean() / sql)


def _row_variances(block: np.ndarray) -> np.ndarray:
    """Unbiased variance of each row of ``block``, in place (the block is spent): bit for bit
    each row's own ``d = row - row.sum() / N; (d * d).sum() / (N - 1)``, as numpy sums a row of
    a C-ordered block pairwise like a lone one."""
    n = block.shape[1]
    block -= (block.sum(axis=1) / n)[:, None]
    block *= block
    return block.sum(axis=1) / (n - 1)


def _clicks(gen, power: np.ndarray, budget: float, read) -> tuple:
    """(total, counts or None) of Poisson clicks at means budget * power: one draw of the total,
    split in power / power.sum() by a multinomial only if ``read(total)`` and the total is not 0.
    Independent Poisson counts are their total split so (Kingman, *Poisson Processes*, 1993)."""
    share = power.sum()  # numpy's own pairwise sum, not BLAS: positive wherever the total is
    total = int(gen.poisson(budget * share))
    return total, gen.multinomial(total, power / share) if total and read(total) else None


def run_feedback(config: FeedbackConfig, rng: RngStream, initial_phases=None) -> LockState:
    """Run the probe-and-verify lock loop for the configured intervals.

    Each interval: apply phase drift, count clicks on a probe measurement,
    tentatively correct the clicked beams by gain * estimated magnitude with
    the remembered sign (zero-sum across all beams), then verify with the
    rest of the photon budget.  Beams whose error light grew are reverted
    and their sign guess flipped.  ``history`` is a float64 array of the
    unbiased sample variance of the phases after each interval.

    Draw order per interval: N drift normals (with drift), the probe total, its per-beam split
    when the total is at least _MIN_CLICKS, then, when some beam is active, the verify total and
    its split when the total is high enough for some beam to be worse.  A measurement is one
    ``error_signals`` call on exp(1j*psi), its cos and sin written into one reused complex
    buffer, and ``_clicks`` of the click means budget * |eps|^2.  The variances are
    taken a block of intervals at a time (``_row_variances``), bit for bit the per-interval ones,
    and the block arrays are joined once at the end, so memory grows with completed intervals.
    """
    n_beams = config.n_beams
    if initial_phases is None:
        phases = np.zeros(n_beams)
    else:
        phases = np.array(initial_phases, dtype=float)
        if phases.shape != (n_beams,):
            raise ValueError("initial phases must match the beam count")
        if not _spread_fits(config, float(np.abs(phases).max())):  # False for nan and inf too
            raise ValueError("initial phases must be finite and keep Var(psi)/SQL in float range")
    gen = rng.generator()
    signs = np.ones(n_beams)
    n_probe = config.photons * _PROBE_FRACTION
    n_verify = config.photons - n_probe
    drift_sigma = math.sqrt(config.drift_var)
    unit = np.empty(n_beams, complex)  # exp(1j*psi) bit for bit: cos and sin into its parts
    unit_re, unit_im = unit.real, unit.imag

    def clicks(psi, budget, read):  # _clicks of the error light |eps|^2 of exp(1j*psi)
        np.cos(psi, out=unit_re)
        np.sin(psi, out=unit_im)
        eps = error_signals(unit).view(float)  # a fresh array: its (re, im) pairs are squared
        np.square(eps, out=eps)
        return _clicks(gen, eps[::2] + eps[1::2], budget, read)

    rows = min(config.intervals, max(1, _BLOCK // n_beams))
    block = np.empty((rows, n_beams))  # the phases after each of the last ``rows`` intervals
    clicks_total = 0
    history = []
    for t in range(config.intervals):
        if config.drift_var > 0:
            phases += gen.normal(scale=drift_sigma, size=n_beams)
        # a beam is active from _MIN_CLICKS clicks on, so a smaller total is never split
        total, probe = clicks(phases, n_probe, lambda k: k >= _MIN_CLICKS)
        clicks_total += total
        if probe is not None and (active := probe >= _MIN_CLICKS).any():
            magnitude = np.sqrt(np.maximum(probe - _MAGNITUDE_SHRINK, 0.0) / n_probe)
            move = np.where(active, signs * config.controller_gain * magnitude, 0.0)
            trial = phases - (move - move.sum() / n_beams)  # common phase is unobservable: zero-sum
            # compare click rates, not raw counts, across the unequal budgets; an active beam
            # has at least _MIN_CLICKS, so below this verify total no beam is worse: no split
            total, verify = clicks(trial, n_verify, lambda k: k * n_probe > _MIN_CLICKS * n_verify)
            clicks_total += total
            if verify is not None:
                worse = active & (verify * n_probe > probe * n_verify)
                if worse.any():
                    move[worse] = 0.0
                    signs[worse] *= -1.0
                    trial = phases - (move - move.sum() / n_beams)
            phases = trial
        row = t % rows
        block[row] = phases
        if row == rows - 1 or t == config.intervals - 1:
            history.append(_row_variances(block[:row + 1]))
    return LockState(phases=phases, clicks_total=clicks_total, history=np.concatenate(history))
