"""Record the machine and one run of every workload in BASELINE.json.

    python3 perfbench/baseline.py [--seed 7]

Run from the root of a source checkout.  Each workload runs once untraced
and once traced, for the run length set in BENCHMARK.json, and the file
keeps every metric of both runs next to the machine they ran on.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    """The interpreter, numpy and BLAS the benchmark runs with."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as run.py sets it
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            threads = getter()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = {"machine": machine(), "seed": args.seed,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in bench["workloads"]:
        entry = {"why": workload["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[key + "_checks"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        record["workloads"][workload["name"]] = entry
        print(workload["name"], "done", file=sys.stderr)
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
