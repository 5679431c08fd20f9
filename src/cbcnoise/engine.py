"""Monte Carlo experiment runner with deterministic parallelism.

An ExperimentPlan names one experiment, a grid of configuration records, a
trial count, a master seed, and the width of the acceptance band in standard
errors.  ``run_plan`` executes every grid point, compares measurements with
the matching closed-form prediction, and flags each point pass or fail at
|z| <= tolerance_k.

``EXPERIMENTS`` is the one table of experiments.  A chunked experiment
splits each point into fixed-size chunks whose random streams are addressed
by (master seed, point index, chunk index); any other experiment runs each
point as one task on the (master seed, point index) stream.  Jobs depend
only on the plan, never on scheduling, and partial statistics merge in chunk
order, so one worker or many produce bit-identical results.

Plan files are flat key = value text, for example::

    # two-beam scan
    experiment = cbc
    seed = 7
    trials = 100000
    tolerance_k = 5
    grid.N = 2, 4, 8
    grid.n = 100
    grid.xi = 1, 5

Every ``grid.<name>`` key holds a comma-separated value list; the grid is
the cross product in key order.  Numbers are parsed as int when they look
like ints, float otherwise; anything else stays a string.  Each record must
give its experiment's keys and may give its options, which default as in
``EXPERIMENTS``; any other grid key is an error.  ``run_plan`` reads each
value of a completed record as a number once, except a text option such as
amp's ``kind``, so the table's adapters hand values straight to the records.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coherent import QuadratureStats, RngStream, _whole, chunk_jobs, merge_stats
# kept for perfbench/tracing.py, which wraps engine.estimate_stats; no src code calls it
from .coherent import estimate_stats as estimate_stats
from . import amplifier as amp_mod
from . import combining as cbc_mod
from . import phaselock as lock_mod


def _number(name: str, value) -> float:
    """``value`` as a float; text such as 'abc' is not a number, and an int must fit a float."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(_whole(name, value) if isinstance(value, numbers.Integral) else value)


@dataclass(frozen=True)
class ExperimentPlan:
    """An experiment, grid records that give its keys and options, and run settings."""

    experiment: str
    grid: tuple
    trials: int = 100_000
    master_seed: int = 0
    tolerance_k: float = 5.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        object.__setattr__(self, "trials", _whole("trials", self.trials))
        # the seed may be any nonnegative whole number, as for numpy's SeedSequence
        object.__setattr__(self, "master_seed", _whole("master_seed", self.master_seed, math.inf))
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed}")
        object.__setattr__(self, "tolerance_k", _number("tolerance_k", self.tolerance_k))
        if not 0.0 < self.tolerance_k < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if not self.grid:
            raise ValueError("empty grid")
        object.__setattr__(self, "grid", tuple(dict(g) for g in self.grid))
        experiment = EXPERIMENTS[self.experiment]
        for record in self.grid:
            problems = [f"missing key {key!r}" for key in experiment.keys if key not in record]
            problems += [f"unknown key {key!r}" for key in record
                         if key not in experiment.keys and key not in experiment.options]
            if problems:
                raise ValueError(f"{self.experiment} grid record {record}: {', '.join(problems)}")


@dataclass(frozen=True)
class PointResult:
    """One grid point: measurements, predictions, and z-scores by name."""

    config: dict
    stats: QuadratureStats | None
    measured: dict
    predicted: dict
    se: dict
    z: dict
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    plan: ExperimentPlan
    points: tuple

    @property
    def all_passed(self) -> bool:
        return all(p.passed for p in self.points)


def _parse_scalar(text: str):
    text = text.strip()
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load_plan(path) -> ExperimentPlan:
    """Read an ExperimentPlan from a flat key = value file."""
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ValueError(f"{path}:{lineno}: {key} is given twice")
            entries[key] = value
    grid_axes = {key[5:]: [_parse_scalar(v) for v in value.split(",")]
                 for key, value in entries.items() if key.startswith("grid.")}
    scalars = {key: _parse_scalar(value) for key, value in entries.items()
               if not key.startswith("grid.")}
    if "experiment" not in scalars:
        raise ValueError(f"{path}: missing experiment key")
    settings = {"trials": "trials", "seed": "master_seed", "tolerance_k": "tolerance_k"}
    unknown = set(scalars) - {"experiment", *settings}
    if unknown:
        raise ValueError(f"{path}: unknown key(s) {sorted(unknown)}; "
                         "per-point settings belong on grid.* axes")
    names = list(grid_axes)
    grid = [dict(zip(names, combo)) for combo in itertools.product(*grid_axes.values())]
    return ExperimentPlan(str(scalars.pop("experiment")), tuple(grid),
                          **{settings[key]: value for key, value in scalars.items()})


# ---------------------------------------------------------------------------
# the experiment table


class Experiment(NamedTuple):
    """One row of ``EXPERIMENTS``.

    A point's jobs run in any order; their outputs merge in job order into
    what ``score`` judges.
    """

    keys: tuple  # grid keys every point must give
    options: dict  # grid keys a point may give -> default, or None for none
    config: Callable  # grid record completed with the defaults -> configuration
    jobs: Callable  # (config, trials, stream) -> list of zero-argument jobs
    score: Callable  # (config, output, k) -> PointResult fields after config


def _chunked(factory):
    """Jobs of a Monte Carlo point: the chunks of the (kernel, width) of factory(config, trials)."""
    return lambda config, trials, stream: chunk_jobs(*factory(config, trials), trials, stream)


def _judged(stats, measured, predicted, se, k):
    z = {name: (measured[name] - predicted[name]) / se[name] for name in predicted}
    return stats, measured, predicted, se, z, all(abs(v) <= k for v in z.values())


def _score_stats(predict, config, stats, k):
    """Score of a chunked point: its merged stats against predict(config)."""
    measured = {name: getattr(stats, name) for name in ("mean_x", "mean_p", "var_x", "var_p")}
    se = {name: getattr(stats, "se_" + name) for name in ("mean_x", "var_x", "var_p")}
    return _judged(stats, measured, predict(config), se, k)


def _cbc_config(record) -> cbc_mod.CbcConfig:
    spread = "xi" if record.get("phase_var") is None else "phase_var"
    return cbc_mod.CbcConfig(record["N"], record["n"], **{spread: record[spread]})


def _cbc_predicted(config):
    pred = cbc_mod.predict_output(config)
    return {"mean_x": pred.mean_amplitude, "var_x": pred.var_x, "var_p": pred.var_p}


# amp and cascade points are (total gain, amplifier specs applied in order)


def _amp_config(record):
    return record["G"], [amp_mod._gain_spec(record["G"], str(record["kind"]), record["n_cl"])]


def _cascade_config(record):
    return record["G"], amp_mod.equal_stages(record["G"], record["stages"])


def _gamma_score(config, stats, k):
    n_terms, phase_var = config
    mean, variance = stats.mean_x, stats.var_x
    pred_mean = n_terms * phase_var
    pred_var = 2.0 * n_terms * phase_var ** 2
    # analytic standard errors from the gamma moments (excess kurtosis 12/N)
    se_mean = math.sqrt(pred_var / stats.trials)
    se_var = pred_var * math.sqrt((2.0 + 12.0 / n_terms) / stats.trials)
    measured = {"mean": mean, "variance": variance}
    predicted = {"mean": pred_mean, "variance": pred_var}
    se = {"mean": se_mean, "variance": se_var}
    return _judged(None, measured, predicted, se, k)


def _lock_config(record):
    """(FeedbackConfig, initial phases or None) for one lock point."""
    config = lock_mod.FeedbackConfig(record["N"], record["n"], drift_var=record["drift_var"],
                                     controller_gain=record["gain"], intervals=record["intervals"])
    spread = record["init_spread"]
    pattern = np.resize([1.0, -1.0], config.n_beams)  # +1, -1, +1, ...; centred below
    return config, spread * (pattern - pattern.mean()) if spread else None


def _lock_score(lock, state, k):
    config, _ = lock
    ratio = state.steady_state_ratio(config)
    sql = cbc_mod.sql_phase_variance(config.n_beams, config.photons)
    final_var = float(state.history[-1][1])
    measured = {"steady_ratio": ratio, "final_var": final_var, "clicks": state.clicks_total}
    if config.drift_var > 0:
        # drifting loop cannot hold below the single-interval quantum limit
        passed = math.isfinite(ratio) and ratio >= 1.0
    else:
        passed = final_var <= 10.0 * sql
    return None, measured, {"sql": sql}, {}, {}, bool(passed)


def _lock_jobs(lock, trials, stream):
    # one task on the point's stream; run_feedback is looked up when it runs
    return [lambda: lock_mod.run_feedback(lock[0], stream, initial_phases=lock[1])]


_chain = (_chunked(amp_mod.chain_kernel), functools.partial(_score_stats, amp_mod.predict_chain))

EXPERIMENTS = {
    "cbc": Experiment(("N", "n"), {"phase_var": None, "xi": 1.0}, _cbc_config,
                      _chunked(cbc_mod.cbc_kernel),
                      functools.partial(_score_stats, _cbc_predicted)),
    "amp": Experiment(("G",), {"kind": amp_mod.AmplifierSpec.kind,
                               "n_cl": amp_mod.AmplifierSpec.n_cl},
                      _amp_config, *_chain),
    "cascade": Experiment(("G",), {"stages": 1}, _cascade_config, *_chain),
    "lock": Experiment(("N", "n"), {"drift_var": lock_mod.FeedbackConfig.drift_var,
                                    "gain": lock_mod.FeedbackConfig.controller_gain,
                                    "intervals": lock_mod.FeedbackConfig.intervals,
                                    "init_spread": 0.0},
                       _lock_config, _lock_jobs, _lock_score),
    "gamma": Experiment(("N", "phase_var"), {}, lambda r: (r["N"], r["phase_var"]),
                        _chunked(lambda c, t: cbc_mod.gamma_sum_kernel(*c, t)), _gamma_score),
}


def run_plan(plan: ExperimentPlan, workers: int = 1) -> ExperimentResult:
    """Execute a plan and score every grid point.

    All points' jobs form one list, run on one pool of ``workers`` threads.
    ``workers`` only controls scheduling; streams and merge order are fixed
    by the plan, so results are identical for any worker count.
    """
    if _whole("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    experiment = EXPERIMENTS[plan.experiment]
    base = RngStream(plan.master_seed)
    texts = {key for key, default in experiment.options.items() if isinstance(default, str)}
    # an option a record leaves out takes its default, and each value but None or text is a number
    configs = [experiment.config({key: v if v is None or key in texts else _number(key, v)
                                  for key, v in {**experiment.options, **record}.items()})
               for record in plan.grid]
    point_jobs = [experiment.jobs(config, plan.trials, base.substream(p_idx))
                  for p_idx, config in enumerate(configs)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        outputs = pool.map(lambda job: job(), [job for jobs in point_jobs for job in jobs])
        points = []
        for record, config, jobs in zip(plan.grid, configs, point_jobs):
            # a point's outputs merge in job order; a lock point has one output
            output = functools.reduce(merge_stats, itertools.islice(outputs, len(jobs)))
            scored = experiment.score(config, output, plan.tolerance_k)
            points.append(PointResult(dict(record), *scored))
    return ExperimentResult(plan, tuple(points))
