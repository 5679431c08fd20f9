"""Command line front end: predict, simulate, compare.

``predict`` evaluates the closed forms only.  ``simulate`` runs a Monte
Carlo experiment (directly from flags or from a plan file) and exits 1 when
any grid point falls outside the statistical acceptance band, so scripted
checks can rely on the exit code.  ``compare`` tabulates combined-beam
phase noise against a single quantum-limited amplifier of gain N over a
range of beam counts.

Output goes to stdout as a readable table and, with ``--out``, to CSV or
JSON.  CSV files start with ``#`` comment lines naming the units of every
column.  Floats are written with shortest round-trip precision, so parsing
a written file reproduces the computed values bit for bit.  Exit codes:
0 success, 1 statistical band violated, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coherent import VAR_COH
from .combining import CbcConfig, predict_output, xi_threshold
from .amplifier import KINDS, _gain_spec, predict_chain
from .engine import EXPERIMENTS, ExperimentPlan, _number, _parse_scalar, load_plan, run_plan

# Unit of every column the commands write, and of every quantity named
# after a measured_, predicted_ or se_ prefix; each text is written once.
_STANDARD_ERRORS = "standard errors"
_UNITS = {column: unit for unit, columns in (
    ("name", "experiment kind"),
    ("photons, input-referred", "n_cl"),
    ("beam count", "N"),
    ("photons per beam", "n"),
    ("intensity gain", "G"),
    ("stage count", "stages"),
    ("multiples of the quantum-limit phase variance", "xi xi_star"),
    ("rad", "init_spread"),
    ("rad^2", "phase_var final_var sql mean"),
    ("rad^4", "variance"),
    ("rad^2 per interval", "drift_var"),
    ("dimensionless controller gain", "gain"),
    ("count", "intervals trials"),
    ("master seed", "seed"),
    (_STANDARD_ERRORS, "tolerance_k"),
    ("1 = inside band", "passed"),
    ("photon count", "clicks"),
    ("Var(psi) over the quantum limit", "steady_ratio"),
    ("1 = combining noisier than one amplifier", "cbc_worse"),
    ("field amplitude, sqrt(photons)", "mean_amplitude mean_x mean_p"),
    (f"absolute quadrature variance (vacuum = {VAR_COH})", "var var_x var_p excess_x excess_p"),
    (f"quadrature variance, multiples of {VAR_COH}",
     "var_units var_x_units var_p_units cbc_var_p_units amp_var_units"),
) for column in columns.split()}


def _unit_for(column: str) -> str:
    """Unit of ``column``; a column missing from ``_UNITS`` raises KeyError."""
    prefix, _, quantity = column.partition("_")
    if prefix == "z":
        return _STANDARD_ERRORS
    return _UNITS[quantity if prefix in ("measured", "predicted", "se") else column]


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_csv(records, title: str) -> str:
    """CSV of the union of the records' columns in first-seen order; "" marks a gap."""
    columns = list(dict.fromkeys(col for rec in records for col in rec))
    lines = [f"# {title}"]
    for col in columns:
        lines.append(f"# {col}: {_unit_for(col)}")
    lines.append(",".join(columns))
    for rec in records:
        lines.append(",".join(_render_value(rec.get(col, "")) for col in columns))
    return "\n".join(lines) + "\n"


def format_json(records, title: str) -> str:
    payload = {
        "title": title,
        "units": {col: _unit_for(col) for rec in records for col in rec},
        "records": records,
    }
    return json.dumps(payload, indent=2) + "\n"


def write_output(records, title: str, path, fmt: str):
    text = format_csv(records, title) if fmt == "csv" else format_json(records, title)
    with open(path, "w") as fh:
        fh.write(text)


def _print_table(records):
    keys = list(records[0])
    rows = [[_render_value(rec.get(k, "")) for k in keys] for rec in records]
    widths = [max(len(k), *(len(r[i]) for r in rows)) for i, k in enumerate(keys)]
    print("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# predict


def cmd_predict(args) -> tuple:
    sections = ("cbc", "amp", "threshold")
    chosen = [name for name in sections if getattr(args, name)] or sections
    if args.N is not None:  # a -N that is text or beyond float range fails alike in every section
        _number("N", args.N)
    records = []
    if "cbc" in chosen:
        config = EXPERIMENTS["cbc"].config(_record("cbc", args, "prediction"))
        pred = predict_output(config)
        records.append({
            "kind": "cbc", "N": config.n_beams, "n": config.photons,
            "xi": config.xi, "phase_var": config.phase_var,
            "mean_amplitude": pred.mean_amplitude,
            "var_x": pred.var_x, "var_p": pred.var_p,
            "var_x_units": pred.var_x_units, "var_p_units": pred.var_p_units,
            "excess_x": pred.excess_x, "excess_p": pred.excess_p,
        })
    if "amp" in chosen:
        big_g = args.G if args.G is not None else args.N
        if big_g is None:
            raise ValueError("amplifier prediction needs -G (or -N to default to G = N)")
        var = predict_chain((big_g, [_gain_spec(big_g)]))["var_x"]
        records.append({"kind": "amp", "G": float(big_g), "var": var, "var_units": var / VAR_COH})
    if "threshold" in chosen:
        if args.N is None:
            raise ValueError("threshold prediction needs -N")
        records.append({"kind": "threshold", "N": args.N, "xi_star": xi_threshold(args.N)})
    for rec in records:
        _print_table([rec])
        print()
    return 0, records, "closed-form predictions"


# ---------------------------------------------------------------------------
# simulate


def _record(name: str, args, verb: str) -> dict:
    """Grid record of experiment ``name`` from the flags named like its keys and options."""
    experiment = EXPERIMENTS[name]
    if any(getattr(args, key) is None for key in experiment.keys):
        flags = (("-" if len(key) == 1 else "--") + key.replace("_", "-") for key in experiment.keys)
        raise ValueError(f"{name} {verb} needs {' and '.join(flags)}")
    return {key: getattr(args, key) for key in (*experiment.keys, *experiment.options)
            if getattr(args, key, None) is not None}


def _simulate_records(result) -> list:
    records = []
    plan = result.plan
    for point in result.points:
        rec = {"experiment": plan.experiment, "seed": plan.master_seed}
        if point.se:  # a point without standard errors ran no ensemble
            rec.update(trials=plan.trials, tolerance_k=plan.tolerance_k)
        rec.update(point.config)
        for prefix in ("measured", "predicted", "se", "z"):
            rec.update((f"{prefix}_{key}", value) for key, value in getattr(point, prefix).items())
        if point.stats is not None:
            rec["measured_var_x_units"] = point.stats.var_x / VAR_COH
            rec["measured_var_p_units"] = point.stats.var_p / VAR_COH
        rec["passed"] = point.passed
        records.append(rec)
    return records


def cmd_simulate(args) -> tuple:
    if args.plan:
        plan = load_plan(args.plan)
        if args.experiment is not None:
            raise ValueError("give either an experiment name or --plan, not both")
    else:
        if args.experiment is None:
            raise ValueError("name an experiment or give --plan")
        plan = ExperimentPlan(args.experiment, (_record(args.experiment, args, "simulation"),),
                              args.trials, args.seed, args.tolerance_k)
    result = run_plan(plan, workers=args.workers)
    records = _simulate_records(result)
    _print_table(records)
    n_failed = sum(1 for p in result.points if not p.passed)
    # lock points have no standard errors, so no band either
    band = f"outside the {plan.tolerance_k:g} standard error band"
    print(f"\n{len(result.points)} point(s), {n_failed} "
          f"{band if any(p.se for p in result.points) else 'failed'} (seed {plan.master_seed})")
    return 0 if result.all_passed else 1, records, f"{plan.experiment} simulation"


# ---------------------------------------------------------------------------
# compare

_COMPARE_MAX_ROWS = 100_000  # rows of about 1 KiB each, so a table holds ~100 MiB at most


def cmd_compare(args) -> tuple:
    try:
        xis = [float(x) for x in args.xi.split(",")]
    except ValueError:
        raise ValueError(f"--xi must be a comma list of numbers, got {args.xi!r}") from None
    if args.N_max < args.N_min:
        raise ValueError("empty N range")
    if (rows := (args.N_max - args.N_min + 1) * len(xis)) > _COMPARE_MAX_ROWS:
        raise ValueError(f"--N-max {args.N_max} gives {rows} rows from --N-min {args.N_min}, "
                         f"past the {_COMPARE_MAX_ROWS} a table may hold")
    records = []
    for n_beams in range(args.N_min, args.N_max + 1):
        xi_star = xi_threshold(n_beams)  # first, so N < 2 is named as too few beams
        amp_units = predict_chain((n_beams, [_gain_spec(n_beams)]))["var_x"] / VAR_COH
        for xi in xis:
            config = CbcConfig(n_beams, args.n, xi=xi)
            records.append({
                "N": n_beams,
                "xi": xi,
                "phase_var": config.phase_var,
                "cbc_var_p_units": predict_output(config).var_p_units,
                "amp_var_units": amp_units,
                "xi_star": xi_star,
                "cbc_worse": xi > xi_star,
            })
    _print_table(records)
    return 0, records, "combining versus one amplifier"


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbcnoise",
        description="Quantum noise of coherent beam combining: predictions, "
                    "Monte Carlo checks, amplifier comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point(p, beams_help, gain_help):
        p.add_argument("-N", type=_parse_scalar, help=beams_help)
        p.add_argument("-n", type=float, help="photons per beam")
        p.add_argument("--xi", type=float, default=EXPERIMENTS["cbc"].options["xi"],
                       help="phase accuracy factor in quantum-limit units (default %(default)s)")
        p.add_argument("--phase-var", type=float, dest="phase_var",
                       help="phase variance in rad^2 (overrides --xi)")
        p.add_argument("-G", type=float, help=gain_help)

    def add_common(p):
        p.add_argument("--out", help="write records to this file")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output file format (default csv)")

    p_predict = sub.add_parser("predict", help="evaluate the closed forms")
    p_predict.add_argument("--cbc", action="store_true", help="combined-beam prediction")
    p_predict.add_argument("--amp", action="store_true", help="single-amplifier prediction")
    p_predict.add_argument("--threshold", action="store_true", help="break-even accuracy factor")
    add_point(p_predict, "number of beams", "amplifier intensity gain (default N)")
    add_common(p_predict)
    p_predict.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("experiment", nargs="?", choices=tuple(EXPERIMENTS))
    p_sim.add_argument("--plan", help="run a key = value plan file instead of flags")
    add_point(p_sim, "number of beams (or gamma terms)", "amplifier intensity gain")
    p_sim.add_argument("--stages", type=_parse_scalar, default=EXPERIMENTS["cascade"].options["stages"],
                       help="cascade stage count (default %(default)s)")
    p_sim.add_argument("--kind", choices=KINDS, default=EXPERIMENTS["amp"].options["kind"],
                       help="amplifier model (default %(default)s)")
    lock = EXPERIMENTS["lock"].options
    p_sim.add_argument("--drift-var", type=float, dest="drift_var", default=lock["drift_var"],
                       help="lock: per-interval phase drift variance in rad^2")
    p_sim.add_argument("--gain", type=float, default=lock["gain"],
                       help="lock: controller gain")
    p_sim.add_argument("--intervals", type=_parse_scalar, default=lock["intervals"],
                       help="lock: correction intervals")
    p_sim.add_argument("--init-spread", type=float, dest="init_spread",
                       default=lock["init_spread"],
                       help="lock: initial alternating phase offset in rad")
    p_sim.add_argument("--trials", type=_parse_scalar, default=ExperimentPlan.trials,
                       help="Monte Carlo trials per point, unused by lock (default %(default)s)")
    p_sim.add_argument("--seed", type=_parse_scalar, default=ExperimentPlan.master_seed,
                       help="master seed (default %(default)s)")
    p_sim.add_argument("--tolerance-k", type=float, dest="tolerance_k",
                       default=ExperimentPlan.tolerance_k,
                       help="acceptance band half-width in standard errors (default %(default)s)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    p_sim.add_argument("--workers", type=int, default=cpus,
                       help="worker threads; outputs are the same for any count "
                            "(default: the usable CPUs, %(default)s here)")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="combined beam versus one amplifier")
    p_cmp.add_argument("--N-min", type=int, dest="N_min", default=2, help="first beam count")
    p_cmp.add_argument("--N-max", type=int, dest="N_max", default=16, help="last beam count")
    p_cmp.add_argument("-n", type=float, default=1000.0, help="photons per beam (default 1000)")
    p_cmp.add_argument("--xi", default="1", help="comma list of accuracy factors (default 1)")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "phase_var", None) is not None:
        args.xi = None  # --phase-var overrides --xi
    try:
        status, records, title = args.func(args)
        if args.out:
            write_output(records, title, args.out, args.format)
        return status
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
