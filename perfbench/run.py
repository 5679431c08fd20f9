"""cbcnoise benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload cbc_grid --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation.  ``--trace 1`` runs half the time untraced and half with
spans around the package's public functions, and reports the per-layer
metrics plus the tracing overhead.  Either way every output is checked
against the exact references in ``reference.py`` and against the run's
first pass.  A table for people goes to stdout first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh processes timed per run for setup_s; the reported value is their median.
SETUP_PROBES = 7

def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def import_package():
    """Import cbcnoise from this checkout's src, and nowhere else.

    BLAS runs on one thread: with two, the dense transforms in the lock
    loop flip between two speeds from pass to pass (a 2x swing at N=512).
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not os.path.isfile(os.path.join(SRC, "cbcnoise", "__init__.py")):
        sys.exit(f"error: no cbcnoise package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import cbcnoise
    if os.path.dirname(os.path.dirname(os.path.abspath(cbcnoise.__file__))) != SRC:
        sys.exit(f"error: cbcnoise imported from {cbcnoise.__file__}, not {SRC}")


def probe_setup(name, seed, workdir):
    """Child process: time importing the package and building the inputs."""
    start = time.perf_counter()
    import_package()
    import workloads
    workloads.WORKLOADS[name](seed, workdir)
    print(time.perf_counter() - start)


def measure_setup(name, seed, workdir) -> float:
    """Median set-up time over fresh processes, after one untimed warm-up
    that writes the byte-code caches where Python is allowed to."""
    times = []
    for k in range(SETUP_PROBES + 1):
        probe_dir = tempfile.mkdtemp(dir=workdir)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-probe", probe_dir],
            capture_output=True, text=True, timeout=120, check=True)
        shutil.rmtree(probe_dir)
        if k:
            times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_passes(workload, seconds, minimum, first_index):
    passes = []
    start = time.perf_counter()
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(first_index + len(passes)))
    return passes


def end_to_end(workload, passes, setup_s):
    """End-to-end metrics and their sample counts, by name."""
    calls = [c for p in passes for c in p.call_s]
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "beam_trials_per_s": workload.beam_trials / wall,
        "call_p50_ms": percentile(calls, 50) * 1e3,
        "call_p95_ms": percentile(calls, 95) * 1e3,
    }
    samples = {"setup_s": f"median of {SETUP_PROBES} processes",
               "wall_s": f"median of {len(passes)} passes", "peak_rss_mb": "1 process",
               "beam_trials_per_s": f"median of {len(passes)} passes",
               "call_p50_ms": f"{len(calls)} calls", "call_p95_ms": f"{len(calls)} calls"}
    return metrics, samples


def traced(workload, seconds, untraced_passes):
    """Traced passes after ``untraced_passes``.

    Returns the passes, the per-layer metrics with their sample counts,
    and the names of counts that differed between traced passes.
    """
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes, per_pass = [], []
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(1 + len(untraced_passes) + len(passes)))
            per_pass.append(tracing.layer_metrics(tracer.take()))
    finally:
        tracer.uninstall()
    mismatched = [name for name in tracing.EXACT_COUNTS
                  if len({m[name] for m in per_pass}) != 1]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    samples = dict.fromkeys(metrics, f"median of {len(passes)} traced passes")
    # untraced microseconds per lock interval per rung, 0 off the ladder
    rungs = (workload.us_per_interval(untraced_passes)
             if hasattr(workload, "us_per_interval") else {})
    for n in tracing.LOCK_RUNGS:
        metrics[f"lock_us_per_interval.N{n}"] = rungs.get(f"N{n}", 0.0)
        samples[f"lock_us_per_interval.N{n}"] = f"median of {len(untraced_passes)} untraced passes"
    untraced_wall = statistics.median(p.wall_s for p in untraced_passes)
    traced_wall = statistics.median(p.wall_s for p in passes)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    for name in ("trace.overhead_s", "trace.overhead_frac"):
        samples[name] = f"medians of {len(untraced_passes)} untraced and {len(passes)} traced passes"
    return passes, metrics, samples, mismatched


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        probe_setup(args.workload, args.seed, args.setup_probe)
        return 0

    import_package()
    import workloads

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = None if args.trace else measure_setup(args.workload, args.seed, workdir)
        # an untimed first pass fills caches; every pass is checked against it
        warmup = workload.run_pass(0)
        mismatched = []
        if args.trace:
            untraced = run_passes(workload, args.seconds / 2, 1, first_index=1)
            traced_passes, metrics, samples, mismatched = traced(
                workload, args.seconds / 2, untraced)
            timed = untraced + traced_passes
        else:
            timed = run_passes(workload, args.seconds, 2, first_index=1)
            metrics, samples = end_to_end(workload, timed, setup_s)
        failed_ops = workload.check([warmup] + timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)  # left in place while another run uses it

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit("error: measured metrics differ from BENCHMARK.json: "
                 + ", ".join(sorted(set(metrics) ^ set(units))))
    failed = sum(failed_ops)
    print(f"{args.workload}: seed {args.seed}, 1 warm-up and {len(timed)} timed passes, "
          f"{len(failed_ops)} operations checked, failed_frac {failed / len(failed_ops):.4g}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:16.6g} {units[name]:8s} {samples[name]}")
    if not args.trace and hasattr(workload, "us_per_interval"):
        for rung, us in workload.us_per_interval(timed).items():
            print(f"  {'lock_us_per_interval.' + rung:48s} {us:16.6g} {'us':8s} "
                  f"median of {len(timed)} passes")
    if mismatched:
        print("error: counts differ between traced passes of one seed: "
              + ", ".join(mismatched), file=sys.stderr)
    result = {
        "correct": failed == 0 and not mismatched,
        "attempted": len(failed_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
