"""Command-line interface.

Subcommands: ``simulate``, ``sweep``, ``metrics``, ``sor train|score|eval``,
and ``demo`` (writes the bundled case-study scenario files). Exit codes:
0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import casestudy, sor as sor_engine
from .config import load_scenario
from .harness import check_repair_values, emit_report, run_simulation, sweep_reports
from .metrics import LabeledScore, metric_report
from .tables import ValidationError, read_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngridsim")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo outage simulation")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--reps", type=int, default=None, help="override replication count")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--precharge", choices=["full", "sor"], default=None)
    sim.add_argument("--workers", type=int, default=None, help="ignored: replications run serially")

    swp = sub.add_parser("sweep", help="repair-time sensitivity sweep")
    swp.add_argument("--scenario", required=True)
    swp.add_argument("--repair", required=True, help="comma-separated hours, e.g. 1,2,3,4")
    swp.add_argument("--out", required=True)
    swp.add_argument("--workers", type=int, default=None, help="ignored: replications run serially")

    met = sub.add_parser("metrics", help="score a label,score CSV")
    met.add_argument("--scores", required=True)
    met.add_argument("--threshold", type=float, default=0.5)

    sor_cmd = sub.add_parser("sor", help="risk model training, scoring, evaluation")
    sor_sub = sor_cmd.add_subparsers(dest="sor_command", required=True)
    tr = sor_sub.add_parser("train")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--stumps", type=int, default=sor_engine.DEFAULT_N_STUMPS)
    tr.add_argument("--learning-rate", type=float, default=sor_engine.DEFAULT_LEARNING_RATE)
    tr.add_argument("--min-leaf", type=int, default=sor_engine.DEFAULT_MIN_LEAF_COUNT)
    sc = sor_sub.add_parser("score")
    sc.add_argument("--model", required=True)
    sc.add_argument("--data", required=True)
    sc.add_argument("--out", required=True)
    ev = sor_sub.add_parser("eval")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--threshold", type=float, default=0.5)

    demo = sub.add_parser("demo", help="write the bundled case-study scenario")
    demo.add_argument("--out", required=True)
    demo.add_argument("--reps", type=int, default=100)
    return parser


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.reps is not None:
        scenario.replications = args.reps
    if args.seed is not None:
        scenario.master_seed = args.seed
    if args.precharge is not None:
        scenario.precharge = args.precharge
    report = run_simulation(scenario)
    emit_report(report, None, args.out)
    print(f"replications: {scenario.replications}")
    print(f"total ENS: {report.total_ens_mwh:.6f} MWh")
    print(f"total spilled PV: {report.total_spilled_mwh:.6f} MWh")
    print(f"max total ramp-up: {report.max_ru_total_kw:.1f} kW")
    return 0


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    repair_values = [float(v) for v in args.repair.split(",") if v.strip()]
    check_repair_values(repair_values)
    # The series files describe the scenario's own repair time: sweep it too,
    # so every run shares one shadow, and report only the times asked for.
    runs = dict(sweep_reports(scenario, sorted({*repair_values, scenario.repair_hours})))
    rows = [(v, runs[v].total_ens_mwh, runs[v].total_spilled_mwh) for v in repair_values]
    emit_report(runs[scenario.repair_hours], rows, args.out)
    for repair, ens, spilled in rows:
        print(f"repair {repair:g} h: ENS {ens:.6f} MWh, spilled {spilled:.6f} MWh")
    return 0


def _print_metrics(rep) -> None:
    for name in ("roc_auc", "f1", "prc_auc", "fm"):
        print(f"{name + ':':8} {getattr(rep, name):.6f}")


def _cmd_metrics(args) -> int:
    samples = [LabeledScore(label=rec["label"], score=rec["score"])
               for rec in read_table(args.scores, ("label", "score"),
                                     {"label": int, "score": float}.get)]
    _print_metrics(metric_report(samples, args.threshold))
    return 0


def _cmd_sor(args) -> int:
    if args.sor_command == "train":
        rows = sor_engine.load_feature_rows(args.data, require_label=True)
        model = sor_engine.train(rows, n_stumps=args.stumps,
                                 learning_rate=args.learning_rate,
                                 min_leaf_count=args.min_leaf)
        sor_engine.save_model(model, args.out)
        print(f"trained {len(model.stumps)} stumps on {len(rows)} rows -> {args.out}")
    elif args.sor_command == "score":
        model = sor_engine.load_model(args.model)
        rows = sor_engine.load_feature_rows(args.data)
        sor_engine.check_columns(model, rows, args.data)
        table = sor_engine.build_sor_table(model, rows)
        sor_engine.save_sor_table(table, args.out)
        print(f"scored {len(rows)} feeder-hours -> {args.out}")
    else:
        model = sor_engine.load_model(args.model)
        rows = sor_engine.load_feature_rows(args.data, require_label=True)
        sor_engine.check_columns(model, rows, args.data)
        _print_metrics(sor_engine.evaluate(model, rows, args.threshold))
    return 0


def _cmd_demo(args) -> int:
    scenario = casestudy.build_case_study(replications=args.reps)
    path = casestudy.write_bundle(scenario, args.out)
    print(f"wrote case-study scenario to {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "metrics": _cmd_metrics,
                "sor": _cmd_sor, "demo": _cmd_demo}
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
