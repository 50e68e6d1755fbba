"""Command-line entry points; each subcommand wraps one module."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import ciflite, energetics, grpo, harness, metrics, rewards, traces, validity
from .structcore import Composition, reduced_formula
from .symmetry import DetectionError, detect_spacegroup


def _cmd_validate(args) -> int:
    text = Path(args.path).read_text(encoding="utf-8")
    table = validity.OxidationTable.load_default()
    target = Composition.from_formula(args.formula) if args.formula else None
    try:
        s = ciflite.parse_ciflite(text)
    except ciflite.ParseError as e:
        print(json.dumps({"parse": "failed", "error": str(e)}))
        return harness.EXIT_INPUT
    report = validity.build_report(s, target, table)
    print(json.dumps({
        "parse": "ok",
        "formula": reduced_formula(s.composition()),
        "structural": report.structural,
        "chemical": report.chemical,
        "composition_match": report.composition_match,
        "failed_checks": list(report.failed_checks),
    }))
    return harness.EXIT_OK


def _cmd_reward(args) -> int:
    print(rewards.stability_reward(args.ehull, args.e0))
    return harness.EXIT_OK


def _cmd_hull(args) -> int:
    candidate = energetics.PhaseEntry(
        Composition.from_formula(args.formula), args.energy, "candidate"
    )
    result = energetics.energy_above_hull(candidate, energetics.load_reference_phases())
    print(json.dumps({
        "e_hull": result.e_hull,
        "stable": energetics.is_stable(max(result.e_hull, 0.0)),
        "decomposition": [
            {"label": p.label, "weight": w} for p, w in result.decomposition
        ],
    }))
    return harness.EXIT_OK


def _cmd_symmetry(args) -> int:
    text = Path(args.path).read_text(encoding="utf-8")
    s = ciflite.parse_ciflite(text)
    result = detect_spacegroup(s, args.tol)
    print(json.dumps({
        "number": result.number,
        "symbol": result.symbol,
        "crystal_system": result.crystal_system,
        "n_operations": len(result.op_arrays[0]),
        "n_orbits": len(result.orbits),
        "ambiguous": result.ambiguous,
    }))
    return harness.EXIT_OK


def _cmd_trace(args) -> int:
    text = Path(args.path).read_text(encoding="utf-8")
    trace_text, cif_text = ciflite.extract_response_parts(text)
    if cif_text is None or trace_text is None:
        print("input needs both a trace and a CIF block", file=sys.stderr)
        return harness.EXIT_INPUT
    s = ciflite.parse_ciflite(cif_text)
    sym = detect_spacegroup(s)
    record = traces.parse_trace(trace_text)
    cons = traces.trace_consistency(record, s, sym)
    print(json.dumps({
        "site_match": cons.site_match,
        "volume_rel_diff": cons.volume_rel_diff,
        "bond_rel_diff": cons.bond_rel_diff,
    }))
    return harness.EXIT_OK


def _cmd_metrics(args) -> int:
    records = harness._load_reference(args.batch)
    if not records:
        print("no structures in batch file", file=sys.stderr)
        return harness.EXIT_INPUT
    reference = harness._load_reference(args.reference) if args.reference else []
    uniq, nov, _ = metrics.discovery_rates(records, [None] * len(records), reference)
    out = {"count": len(records), "uniqueness": uniq}
    if reference:
        out["novelty"] = nov
    print(json.dumps(out))
    return harness.EXIT_OK


def _cmd_grpo_demo(args) -> int:
    from .toytask import build_lattice_task

    if args.iterations < 1:
        print("--iterations must be >= 1", file=sys.stderr)
        return harness.EXIT_USAGE
    task = build_lattice_task()
    policy = grpo.ToyPolicy.uniform(*task.policy_shape)
    _, log = grpo.train_toy_policy(
        policy, task.reward, args.iterations, args.seed,
        learning_rate=args.learning_rate, log_path=args.out,
    )
    print(f"iterations={len(log)} first_reward={log[0].mean_reward:.4f} "
          f"last_reward={log[-1].mean_reward:.4f} log={args.out}")
    return harness.EXIT_OK


def _cmd_evaluate(args) -> int:
    overrides = {
        "samples_path": args.samples,
        "output_dir": args.out,
        "worker_count": args.workers,
    }
    if args.config:
        config = harness.load_config(args.config, overrides)
    elif args.samples:
        config = harness.RunConfig(**{k: v for k, v in overrides.items() if v is not None})
    else:
        print("either --config or --samples is required", file=sys.stderr)
        return harness.EXIT_USAGE
    try:
        report, rows = harness.run_evaluation(config)
        paths = harness.emit_report(report, rows, config.output_dir)
    except harness.InputError as e:
        print(str(e), file=sys.stderr)
        return harness.EXIT_INPUT
    except Exception as e:
        print(f"evaluation infrastructure failure: {e}", file=sys.stderr)
        return harness.EXIT_INFRA
    print(json.dumps({"rows": len(rows), "artifacts": paths}))
    return harness.EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crysalign",
        description="Evaluate, reward, and align crystal-structure generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validity checks for one CIF block")
    p.add_argument("path")
    p.add_argument("--formula", default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reward", help="stability reward for an e_hull value")
    p.add_argument("--ehull", type=float, required=True)
    p.add_argument("--e0", type=float, default=1.0)
    p.set_defaults(fn=_cmd_reward)

    p = sub.add_parser("hull", help="hull distance for a composition/energy")
    p.add_argument("--formula", required=True)
    p.add_argument("--energy", type=float, required=True)
    p.set_defaults(fn=_cmd_hull)

    p = sub.add_parser("symmetry", help="space-group detection for one CIF block")
    p.add_argument("path")
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(fn=_cmd_symmetry)

    p = sub.add_parser("trace", help="trace-vs-structure consistency")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("metrics", help="uniqueness/novelty for a batch file")
    p.add_argument("batch")
    p.add_argument("--reference", default=None)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("grpo-demo", help="train the toy lattice-constant policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--learning-rate", type=float, default=2.0)
    p.add_argument("--out", default="grpo_log.csv")
    p.set_defaults(fn=_cmd_grpo_demo)

    p = sub.add_parser("evaluate", help="full batch evaluation pipeline")
    p.add_argument("--config", default=None)
    p.add_argument("--samples", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return harness.EXIT_USAGE if e.code not in (0, None) else harness.EXIT_OK
    try:
        return args.fn(args)
    # ValueError covers ciflite.ParseError, harness.InputError,
    # energetics.CoverageError and malformed formulas or traces.
    except (OSError, ValueError, DetectionError) as e:
        print(str(e), file=sys.stderr)
        return harness.EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
