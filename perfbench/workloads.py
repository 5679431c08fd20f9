"""The benchmark's three workloads.

Each is driven from one process by one client in a closed loop: the next
call starts when the previous one returns.  A workload builds its inputs
from the benchmark seed, runs identical passes over them, and checks every
pass's outputs against ``reference`` and against the first pass.

- cbc_grid: the acceptance CBC grid (N in 2, 4, 8, 32; n in 100, 1000;
  xi in 1, 5; 1M trials per point) through ``engine.run_plan`` at 2
  workers.  One operation is one grid point.
- lock_ladder: one drifting ``lock`` plan per rung N in 2, 16, 128, 512,
  with interval counts that give each rung a similar share of the pass.
  One operation is one rung.
- cli_session: in-process ``cli.main`` calls repeating the README commands
  at 200k trials.  One operation is one call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import time
import traceback

import numpy as np

from cbcnoise import cli, engine

import reference

# Every cbc_grid point is scored against the exact moments, not against
# the engine's quadratic-predictor ``passed`` flag.
CBC_GRID = tuple({"N": n_beams, "n": photons, "xi": xi}
                 for n_beams in (2, 4, 8, 32) for photons in (100, 1000) for xi in (1.0, 5.0))
CBC_TRIALS = 1_000_000

# Lock rungs: beam count and interval count.  The counts give each rung
# about 0.6 s on a 2-core x86 box, so no rung hides in another's noise.
LOCK_PHOTONS = 1000.0
LOCK_RUNGS = ((2, 30_000), (16, 26_000), (128, 13_000), (512, 2_000))

CLI_TRIALS = 200_000
CLI_ROUNDS = 16


def derive_seed(seed: int, *keys: int) -> int:
    """A plan master seed derived from the benchmark seed and a key path."""
    return int(np.random.SeedSequence(seed, spawn_key=keys).generate_state(1)[0])


class Pass:
    """One timed pass: its wall time, per-call latencies and raw outputs."""

    def __init__(self):
        self.wall_s = 0.0
        self.call_s = []
        self.outputs = []


class CbcGrid:
    name = "cbc_grid"
    workers = 2

    def __init__(self, seed: int, workdir: str):
        self.plan = engine.ExperimentPlan("cbc", CBC_GRID, CBC_TRIALS,
                                          master_seed=derive_seed(seed, 1))
        self.beam_trials = sum(r["N"] for r in CBC_GRID) * CBC_TRIALS

    def run_pass(self, index: int) -> Pass:
        p = Pass()
        start = time.perf_counter()
        result = engine.run_plan(self.plan, workers=self.workers)
        p.wall_s = time.perf_counter() - start
        p.call_s.append(p.wall_s)
        p.outputs = [point.stats for point in result.points]
        return p

    def check(self, passes) -> list:
        """One failure flag per grid point per pass."""
        first = passes[0].outputs
        failed = []
        for p in passes:
            for record, stats, stats0 in zip(CBC_GRID, p.outputs, first):
                ref = reference.stats_reference("cbc", record, stats.trials)
                measured = {"mean_x": stats.mean_x, "mean_p": stats.mean_p,
                            "var_x": stats.var_x, "var_p": stats.var_p}
                failed.append(reference.worst_z(ref, measured) > reference.K_SE
                              or stats != stats0)
        return failed


class LockLadder:
    name = "lock_ladder"

    def __init__(self, seed: int, workdir: str):
        self.plans = []
        for rung, (n_beams, intervals) in enumerate(LOCK_RUNGS):
            # drift of one quantum-limit variance per interval keeps every
            # rung's error ports lit, so the loop works on each interval
            drift = 1.0 / ((n_beams - 1) * LOCK_PHOTONS)
            record = {"N": n_beams, "n": LOCK_PHOTONS, "drift_var": drift,
                      "gain": 0.4, "intervals": intervals}
            self.plans.append(engine.ExperimentPlan(
                "lock", (record,), trials=2, master_seed=derive_seed(seed, 2, rung)))
        self.beam_trials = sum(n * k for n, k in LOCK_RUNGS)

    def run_pass(self, index: int) -> Pass:
        p = Pass()
        start = time.perf_counter()
        for plan in self.plans:
            t0 = time.perf_counter()
            result = engine.run_plan(plan, workers=1)
            p.call_s.append(time.perf_counter() - t0)
            p.outputs.append(result.points[0].measured)
        p.wall_s = time.perf_counter() - start
        return p

    def us_per_interval(self, passes) -> dict:
        """Median microseconds per interval of each rung, by rung name."""
        return {f"N{n}": float(np.median([p.call_s[i] for p in passes])) * 1e6 / k
                for i, (n, k) in enumerate(LOCK_RUNGS)}

    def check(self, passes) -> list:
        first = passes[0].outputs
        failed = []
        for p in passes:
            for plan, measured, measured0 in zip(self.plans, p.outputs, first):
                rec = plan.grid[0]
                ok = reference.lock_gate(rec["N"], rec["n"], rec["drift_var"],
                                         measured["steady_ratio"], measured["final_var"])
                failed.append(not ok or measured["clicks"] <= 0 or measured != measured0)
        return failed


class CliSession:
    """The README commands, CLI_ROUNDS rounds per pass, one seed per round.

    Every call writes ``--out`` to a path that does not exist yet.
    Overwriting a file truncates it, and on ext4 the close after a truncate
    waits for a delayed-allocation flush: about 100 ms per close against
    0.01 ms for a new file on a 2-vCPU VM.  That would measure the
    filesystem, not the CLI.
    """

    name = "cli_session"

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.calls = []  # (label, argv without --out, format, beam-trials, check)
        t = str(CLI_TRIALS)
        for r in range(CLI_ROUNDS):
            s = str(derive_seed(seed, 3, r))
            plan_path = os.path.join(workdir, f"plan{r}.txt")
            with open(plan_path, "w") as fh:
                fh.write(f"experiment = cbc\ntrials = {CLI_TRIALS}\nseed = {s}\n"
                         "grid.N = 2, 4\ngrid.n = 1000\ngrid.xi = 1\n")
            sim = ["simulate"]
            self.calls += [
                ("predict", ["predict", "-N", "4", "-n", "1000", "--xi", "1"], "csv", 0,
                 lambda recs: reference.predict_records_ok(recs, 4, 1000.0, 1.0)),
                ("cbc", sim + ["cbc", "-N", "2", "-n", "1000", "--xi", "1",
                               "--trials", t, "--seed", s], "json", 2 * CLI_TRIALS, _stats_ok),
                *((f"amp_{kind}", sim + ["amp", "-G", "4", "--kind", kind, "--trials", t,
                                         "--seed", s], fmt, CLI_TRIALS, _stats_ok)
                  for kind, fmt in (("quantum_limited", "csv"), ("measure_prepare", "json"),
                                    ("phase_sensitive", "csv"))),
                ("cascade", sim + ["cascade", "-G", "16", "--stages", "4", "--trials", t,
                                   "--seed", s], "json", 4 * CLI_TRIALS, _stats_ok),
                ("gamma", sim + ["gamma", "-N", "8", "--phase-var", "0.01", "--trials", t,
                                 "--seed", s], "csv", 8 * CLI_TRIALS, _gamma_ok),
                # With drift and JSON: at this revision a lock run without
                # drift crashes the JSON writer (its ``passed`` is a numpy
                # bool), and CSV writes final_var as "np.float64(...)".  The
                # gate is one run's tail average with no standard error; at
                # 10x the quantum-limit drift it is decisive, while at 1x it
                # fails on about 1 seed in 100.
                ("lock", sim + ["lock", "-N", "2", "-n", "10000", "--init-spread", "0.05",
                                "--intervals", "60", "--drift-var", "1e-3", "--seed", s],
                 "json", 2 * 60, _lock_ok),
                ("compare", ["compare", "--N-min", "2", "--N-max", "64", "-n", "1000",
                             "--xi", "3"], "csv", 0,
                 lambda recs: reference.compare_records_ok(recs, 2, 64, 1000.0, 3.0)),
                *((f"plan_w{w}", sim + ["--plan", plan_path, "--workers", str(w)], "json",
                   6 * CLI_TRIALS, _stats_ok) for w in (1, 2)),
            ]
        self.beam_trials = sum(c[3] for c in self.calls)

    def run_pass(self, index: int) -> Pass:
        p = Pass()
        out_dir = os.path.join(self.workdir, f"pass{index}")
        os.mkdir(out_dir)
        sink = io.StringIO()
        start = time.perf_counter()
        for k, (label, argv, fmt, _, _) in enumerate(self.calls):
            out = os.path.join(out_dir, f"{k}_{label}.{fmt}")
            argv = argv + ["--format", fmt, "--out", out]
            sink.seek(0)
            sink.truncate()
            with contextlib.redirect_stdout(sink):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # a crash is a failed call, not a benchmark error
                    traceback.print_exc(file=sys.stderr)
                    rc = None
                p.call_s.append(time.perf_counter() - t0)
            p.outputs.append((rc, out))
        p.wall_s = time.perf_counter() - start
        return p

    def check(self, passes) -> list:
        """A call fails on exit code 2 or a crash, on an output outside its
        reference, on a plan file whose --workers 1 and 2 outputs differ,
        or on output bytes that differ from the first pass."""
        first = [_read_bytes(out) for _, out in passes[0].outputs]
        failed = []
        for p in passes:
            data = [_read_bytes(out) for _, out in p.outputs]
            for k, ((label, _, fmt, _, ok), (rc, _)) in enumerate(zip(self.calls, p.outputs)):
                bad = rc not in (0, 1) or data[k] is None or data[k] != first[k]
                if not bad and label == "plan_w2":
                    bad = data[k] != data[k - 1]
                if not bad:
                    try:
                        bad = not ok(_parse(data[k], fmt))
                    except (ValueError, KeyError) as exc:
                        print(f"{label}: unreadable output: {exc}", file=sys.stderr)
                        bad = True
                failed.append(bad)
        return failed


def _read_bytes(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _scalar(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse(data: bytes, fmt: str) -> list:
    text = data.decode()
    if fmt == "json":
        return json.loads(text)["records"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [{k: _scalar(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _stats_ok(records) -> bool:
    for rec in records:
        measured = {name: rec[f"measured_{name}"]
                    for name in ("mean_x", "mean_p", "var_x", "var_p")}
        ref = reference.stats_reference(rec["experiment"], rec, int(rec["trials"]))
        if reference.worst_z(ref, measured) > reference.K_SE:
            return False
    return bool(records)


def _gamma_ok(records) -> bool:
    return bool(records) and all(
        reference.worst_z(
            reference.gamma_reference(int(r["N"]), float(r["phase_var"]), int(r["trials"])),
            {"mean": r["measured_mean"], "variance": r["measured_variance"]},
        ) <= reference.K_SE
        for r in records)


def _lock_ok(records) -> bool:
    return bool(records) and all(
        reference.lock_gate(int(r["N"]), float(r["n"]), float(r["drift_var"]),
                            float(r["measured_steady_ratio"]), float(r["measured_final_var"]))
        for r in records)


WORKLOADS = {w.name: w for w in (CbcGrid, LockLadder, CliSession)}
