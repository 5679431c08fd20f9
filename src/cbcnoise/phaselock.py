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
from dataclasses import dataclass, field

import numpy as np

from .coherent import RngStream, _finite, _scalar, _whole, photon_number, run_chunks
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


@dataclass(frozen=True)
class LockState:
    """Result of a feedback run."""

    phases: np.ndarray
    clicks_total: int
    history: tuple = field(default=())  # (interval index, sample Var(psi)) pairs

    def variance_track(self) -> np.ndarray:
        return np.array([v for _, v in self.history])

    def steady_state_ratio(self, config: FeedbackConfig) -> float:
        """Var(psi) over the single-interval quantum limit, averaged over the last half."""
        track = self.variance_track()
        tail = track[len(track) // 2:]
        sql = sql_phase_variance(config.n_beams, config.photons)
        return float(tail.mean() / sql)


def _click_means(phases: np.ndarray, photons: float) -> np.ndarray:
    eps = error_signals(np.exp(1j * phases))
    return photons * photon_number(eps)


def run_feedback(config: FeedbackConfig, rng: RngStream, initial_phases=None) -> LockState:
    """Run the probe-and-verify lock loop for the configured intervals.

    Each interval: apply phase drift, count clicks on a probe measurement,
    tentatively correct the clicked beams by gain * estimated magnitude with
    the remembered sign (zero-sum across all beams), then verify with the
    rest of the photon budget.  Beams whose error light grew are reverted
    and their sign guess flipped.  History records the unbiased sample
    variance of the phases after each interval.
    """
    gen = rng.generator()
    n_beams = config.n_beams
    if initial_phases is None:
        phases = np.zeros(n_beams)
    else:
        phases = np.array(initial_phases, dtype=float)
        if phases.shape != (n_beams,):
            raise ValueError("initial phases must match the beam count")
        if not np.isfinite(phases).all():
            raise ValueError("initial phases must be finite")
    signs = np.ones(n_beams)
    n_probe = config.photons * _PROBE_FRACTION
    n_verify = config.photons - n_probe
    drift_sigma = math.sqrt(config.drift_var)
    clicks_total = 0
    history = []
    for t in range(config.intervals):
        if config.drift_var > 0:
            phases = phases + gen.normal(scale=drift_sigma, size=n_beams)
        probe = gen.poisson(_click_means(phases, n_probe))
        clicks_total += int(probe.sum())
        active = probe >= _MIN_CLICKS
        if active.any():
            magnitude = np.sqrt(np.maximum(probe - _MAGNITUDE_SHRINK, 0.0) / n_probe)
            move = np.where(active, signs * config.controller_gain * magnitude, 0.0)
            trial = phases - (move - move.mean())  # common phase is unobservable: zero-sum
            verify = gen.poisson(_click_means(trial, n_verify))
            clicks_total += int(verify.sum())
            # compare click rates, not raw counts, across the unequal budgets
            worse = active & (verify * n_probe > probe * n_verify)
            if worse.any():
                move[worse] = 0.0
                signs[worse] *= -1.0
                trial = phases - (move - move.mean())
            phases = trial
        history.append((t, float(np.var(phases, ddof=1))))
    return LockState(phases=phases, clicks_total=clicks_total, history=tuple(history))
