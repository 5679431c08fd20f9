"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces module attributes with timing wrappers; the
package source is not edited.  Each span records name, start, end, thread
and parent.  Spans opened on an engine worker thread have no parent on
their own thread and are parented to the ``run_plan`` span that is open at
the time (the benchmark drives one plan at a time).  Spans stay in memory
until ``layer_metrics`` reads them after a pass.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from cbcnoise import amplifier, cli, coherent, combining, engine, phaselock

LOCK_RUNGS = (2, 16, 128, 512)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rng_words(gen) -> int:
    """Philox words drawn so far: 4 per counter step, less the unread buffer."""
    state = gen.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


# Per-function probes: pre(args, kwargs) runs before the call, post(pre,
# args, kwargs, result) after it, and returns the span's info dict.

def _cbc_pre(args, kwargs):
    return _rng_words(_arg(args, kwargs, 2, "gen"))


def _cbc_post(words, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return {"elements": int(_arg(args, kwargs, 1, "count")) * config.n_beams,
            "words": _rng_words(_arg(args, kwargs, 2, "gen")) - words}


def _size_post(_, args, kwargs, result):
    return {"elements": int(getattr(result, "size", 1))}


def _stats_post(_, args, kwargs, result):
    return {"elements": result.trials}


def _gamma_post(_, args, kwargs, result):
    n_terms = int(_arg(args, kwargs, 0, "n_terms"))
    trials = int(_arg(args, kwargs, 2, "trials"))
    return {"elements": min(trials, combining.chunk_trials(n_terms)) * n_terms}


def _error_signals_post(_, args, kwargs, result):
    return {"elements": int(result.size)}


def _feedback_post(_, args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    return {"N": config.n_beams, "intervals": config.intervals, "clicks": result.clicks_total}


def _run_plan_post(_, args, kwargs, result):
    return {"workers": int(_arg(args, kwargs, 1, "workers", 1))}


def _write_post(_, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 2, "path"))}


# (owner, attribute, span name, pre, post).  engine.run_plan is reached
# through both engine and cli, and error_signals through phaselock.
_TARGETS = (
    (coherent.RngStream, "generator", "coherent.generator", None, None),
    (engine, "estimate_stats", "coherent.estimate_stats", None, _stats_post),
    (engine, "merge_stats", "coherent.merge_stats", None, None),
    (engine, "run_plan", "engine.run_plan", None, _run_plan_post),
    (cli, "run_plan", "engine.run_plan", None, _run_plan_post),
    (combining, "sample_cbc_outputs", "combining.sample_cbc_outputs", _cbc_pre, _cbc_post),
    (combining, "gamma_sum_statistics", "combining.gamma_sum_statistics", None, _gamma_post),
    (amplifier, "amplify_sample", "amplifier.amplify_sample", None, _size_post),
    (phaselock, "run_feedback", "phaselock.run_feedback", None, _feedback_post),
    (phaselock, "error_signals", "combining.error_signals", None, _error_signals_post),
    (cli, "write_output", "cli.write_output", None, _write_post),
    (cli, "main", "cli.main", None, None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._plan_span = 0  # open run_plan span, parent of worker-thread spans
        self._saved = []

    def _wrap(self, fn, name, pre, post):
        tracer = self
        is_plan = name == "engine.run_plan"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._plan_span
            sid = next(tracer._ids)
            stack.append(sid)
            if is_plan:
                outer_plan, tracer._plan_span = tracer._plan_span, sid
            token = pre(args, kwargs) if pre else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_plan:
                    tracer._plan_span = outer_plan
            info = post(token, args, kwargs, result) if post else None
            tracer.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, info))
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for owner, attr, name, pre, post in _TARGETS:
            original = getattr(owner, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, name, pre, post)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, by name.

    A layer the pass never reached reports 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(name, key=None):
        group = by_name[name]
        return sum(s.info[key] for s in group) if key else sum(s.duration for s in group)

    m = {}
    gen = by_name["coherent.generator"]
    m["coherent.generator_us"] = _ratio(total("coherent.generator") * 1e6, len(gen))
    m["coherent.generator_calls"] = len(gen)
    m["coherent.estimate_stats_ns_per_trial"] = _ratio(
        total("coherent.estimate_stats") * 1e9, total("coherent.estimate_stats", "elements"))
    m["coherent.merge_stats_calls"] = len(by_name["coherent.merge_stats"])

    beam_trials = total("combining.sample_cbc_outputs", "elements")
    m["combining.sample_cbc_outputs_ns_per_beam_trial"] = _ratio(
        total("combining.sample_cbc_outputs") * 1e9, beam_trials)
    m["combining.rng_words_per_beam_trial"] = _ratio(
        total("combining.sample_cbc_outputs", "words"), beam_trials)

    for n_beams in LOCK_RUNGS:
        loops = [s for s in by_name["phaselock.run_feedback"] if s.info["N"] == n_beams]
        signals = [c for s in loops for c in children[s.sid]
                   if c.name == "combining.error_signals"]
        loop_s = sum(s.duration for s in loops)
        signal_s = sum(c.duration for c in signals)
        intervals = sum(s.info["intervals"] for s in loops)
        tag = f".N{n_beams}"
        m["combining.error_signals_us" + tag] = _ratio(signal_s * 1e6, len(signals))
        m["combining.error_signals_share" + tag] = _ratio(signal_s, loop_s)
        m["phaselock.self_us_per_interval" + tag] = _ratio((loop_s - signal_s) * 1e6, intervals)
        m["phaselock.clicks_per_interval" + tag] = _ratio(
            sum(s.info["clicks"] for s in loops), intervals)
        m["phaselock.verify_per_interval" + tag] = _ratio(len(signals) - intervals, intervals)

    amp = by_name["amplifier.amplify_sample"]
    m["amplifier.amplify_sample_ns_per_trial"] = _ratio(
        total("amplifier.amplify_sample") * 1e9, total("amplifier.amplify_sample", "elements"))
    m["amplifier.amplify_sample_calls"] = len(amp)

    plans = by_name["engine.run_plan"]
    engine_self = 0.0
    busy = 0.0
    capacity = 0.0
    for plan in plans:
        kids = children[plan.sid]
        engine_self += plan.duration - _covered((c.start, c.end) for c in kids)
        busy += sum(c.duration for c in kids)
        capacity += plan.duration * plan.info["workers"]
    m["engine.self_s"] = engine_self
    m["engine.worker_busy_frac"] = _ratio(busy, capacity)
    kernels = ("combining.sample_cbc_outputs", "combining.gamma_sum_statistics",
               "amplifier.amplify_sample", "combining.error_signals")
    m["engine.peak_chunk_elements"] = max(
        (s.info["elements"] for name in kernels for s in by_name[name]), default=0)

    mains = by_name["cli.main"]
    cli_self = sum(s.duration - _covered((c.start, c.end) for c in children[s.sid])
                   for s in mains)
    writes = by_name["cli.write_output"]
    m["cli.self_ms_per_call"] = _ratio(cli_self * 1e3, len(mains))
    m["cli.write_output_ms_per_call"] = _ratio(total("cli.write_output") * 1e3, len(writes))
    m["cli.bytes_written"] = total("cli.write_output", "bytes")
    return m


# Counts that must repeat exactly on every traced pass of one seed.
EXACT_COUNTS = (
    "coherent.generator_calls",
    "coherent.merge_stats_calls",
    "combining.rng_words_per_beam_trial",
    "amplifier.amplify_sample_calls",
    "engine.peak_chunk_elements",
    "cli.bytes_written",
    *(f"phaselock.{name}.N{n}" for name in ("clicks_per_interval", "verify_per_interval")
      for n in LOCK_RUNGS),
)
