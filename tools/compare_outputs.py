"""Check that two source trees give byte-identical cbcnoise outputs.

    python tools/compare_outputs.py OLD_TREE NEW_TREE

Runs each command with PYTHONPATH=<tree>/src in one temporary directory per tree, writing csv
and json ``--out`` files, then each subcommand's ``--help`` and each demo once.  Prints one line
per run whose outputs differ, naming the fields (--out file, stdout, stderr with the tree's path
masked, exit code) and the command, and exits 1 if any run differs, 2 on bad arguments.
"""

import os
import pathlib
import subprocess
import sys
import tempfile

PLANS = {  # int-spelled values, read as numbers by run_plan
    "cbc": "grid.N = 2, 4\ngrid.n = 100\ngrid.xi = 1, 5",
    "amp": "grid.G = 4\ngrid.kind = quantum_limited, phase_sensitive\ngrid.n_cl = 0, 1",
    "cascade": "grid.G = 16\ngrid.stages = 1, 2",
    "gamma": "grid.N = 4\ngrid.phase_var = 1",
    "lock": "grid.N = 2\ngrid.n = 1000\ngrid.drift_var = 0\ngrid.gain = 1\ngrid.intervals = 20",
}
COMMANDS = [
    "predict -N 4 -n 1000 --xi 1",
    "simulate cbc -N 4 -n 1000 --xi 1 --trials 200000 --seed 7",
    "simulate amp -G 4 --kind measure_prepare --trials 200000",
    "simulate lock -N 2 -n 10000 --init-spread 0.05 --intervals 60",
    "compare --N-min 2 --N-max 64 -n 1000 --xi 3",
    *(f"simulate amp -G 4 --kind {kind} --trials 50000 --seed 3"
      for kind in ("quantum_limited", "measure_prepare", "phase_sensitive")),
    "simulate amp -G 1e300 --trials 100000",
    "simulate cascade -G 16 --stages 4 --trials 50000",
    "simulate gamma -N 10 --phase-var 0.01 --trials 50000",
    "simulate lock -N 4 -n 1000 --drift-var 1e-3 --intervals 40 --seed 3",
    "simulate lock -N 8 -n 100 --gain 1 --intervals 30",
    "compare --N-min 2 --N-max 8 -n 1000 --xi 1,5",
    "simulate cbc -N 4.0 -n 1000 --trials 20000",
    "simulate lock -N 2 -n 1e20 --init-spread 1 --intervals 3",
    "simulate lock -N 2 -n 1000 --init-spread 1e153 --intervals 3",
    "predict --cbc -N 2 -n 100 --phase-var 1e200",
    "simulate amp -G 4 --n-cl 1 --trials 50000 --seed 3",
    "simulate cbc -N 2 -n 100 --stages 4 --n-cl 3 --trials 1000",  # stray flags: exit 2
    "simulate --plan plan_cbc.txt -N 8",  # a plan takes no point flags: exit 2
    "simulate cbc -N 2 -n 100 --stages 1 --trials 1000",  # stray at its default: exit 2
    "simulate --plan plan_cbc.txt --trials 5000 --seed 9",  # a plan takes no run settings: exit 2
    "predict --threshold -N 3 --xi 7 -n 5",  # a flag its section does not read: exit 2
    "simulate cbc -N 8 -n 100 --xi 5 --trials 65537 --seed 5",  # a one-trial last chunk
    "simulate cbc -N 33 -n 100 --trials 63551 --seed 5",  # the same at the capped chunk size
    *(f"simulate --plan plan_{name}.txt --workers {w}" for name in PLANS for w in (1, 2)),
]
HELPS = ("predict", "simulate", "compare")
DEMOS = ("amplifier_noise_penalty", "cbc_vs_amplifier", "combining_noise_scaling",
         "phase_lock_feedback", "quantum_noise_basics")
RUNS = [(["-m", "cbcnoise.cli", *cmd.split(), *fmt], fmt[-1]) for cmd in COMMANDS
        for fmt in (["--out", "out.csv"], ["--format", "json", "--out", "out.json"])]
RUNS += [(["-m", "cbcnoise.cli", command, "--help"], None) for command in HELPS]
RUNS += [([os.path.join("{tree}", "demos", f"{demo}.py")], None) for demo in DEMOS]


def run(tree: str, workdir: str, argv: list, out) -> tuple:
    """(exit code, stdout, stderr, bytes written to ``out`` or None) of one run on ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run([sys.executable, *(a.format(tree=tree) for a in argv)], cwd=workdir,
                          env=env, capture_output=True)
    path = pathlib.Path(workdir, out or "no --out")
    written = path.read_bytes() if path.exists() else None
    path.unlink(missing_ok=True)
    masked = (stream.replace(tree.encode(), b"<tree>") for stream in (done.stdout, done.stderr))
    return (done.returncode, *masked, written)


def main() -> int:
    trees = [os.path.abspath(tree) for tree in sys.argv[1:]]
    if len(trees) != 2 or not all(os.path.isdir(os.path.join(tree, "src")) for tree in trees):
        print("usage: compare_outputs.py OLD_TREE NEW_TREE (each holding src/)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        for workdir in (old_dir, new_dir):
            for name, grid in PLANS.items():
                text = f"experiment = {name}\ntrials = 20000\nseed = 5\n{grid}\n"
                pathlib.Path(workdir, f"plan_{name}.txt").write_text(text)
        differing = 0
        for argv, out in RUNS:
            results = [run(tree, work, argv, out) for tree, work in zip(trees, (old_dir, new_dir))]
            fields = [field for field, old, new in zip(("exit code", "stdout", "stderr", out),
                                                       *results) if old != new]
            if fields:
                differing += 1
                print(f"differs: {', '.join(fields)} of {' '.join(argv)}")
    print(f"{len(RUNS) - differing} of {len(RUNS)} runs matched in --out, stdout, stderr and exit "
          f"code ({len(COMMANDS)} commands in csv and json, {len(HELPS)} help texts, "
          f"{len(DEMOS)} demos)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
