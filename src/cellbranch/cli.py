"""Command-line experiment runner.

Subcommands::

    cellbranch classify --config model.json
    cellbranch lineage  --config run.json [--seed N] [--workers W] [--out DIR]
    cellbranch tree     --config run.json [--seed N] [--workers W] [--out DIR]
    cellbranch oracle   --config run.json [--seed N] [--out DIR]
    cellbranch verify   --suite toy-renewal [--seed N] [--out DIR]

The output directory resolves as --out, then the CELLBRANCH_OUT environment
variable, then the config's output section.  Configuration problems exit
with status 2; simulation failures with 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .config import ConfigError, load_config
from .laws import DegenerateMarginal, classify_regime
from .experiments import run_experiment
from .runio import write_json
from .verify import DEFAULT_SEED, SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellbranch",
        description="Simulators and exact oracles for parasite spread in a dividing cell population",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")

    add_common(sub.add_parser("classify", help="report the growth regime of a model"))
    add_common(sub.add_parser("lineage", help="simulate the random cell line"))
    add_common(sub.add_parser("tree", help="simulate the full cell population"))
    add_common(sub.add_parser("oracle", help="exact kernel computations"))
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITES)}, all")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--out", default=None, help="directory for the JSON report")
    return parser


def _resolve_out(args, cfg_dir: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    if os.environ.get("CELLBRANCH_OUT"):
        return Path(os.environ["CELLBRANCH_OUT"])
    return Path(cfg_dir)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "verify":
        try:
            results = run_suite(args.suite, seed=args.seed)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        for result in results:
            print(result.line())
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        if args.out is not None:
            report = {
                "suite": args.suite,
                "seed": args.seed,
                "results": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "measured": r.measured,
                        "tolerance": r.tolerance,
                        "seconds": round(r.seconds, 3),
                    }
                    for r in results
                ],
            }
            write_json(Path(args.out) / f"verify_{args.suite}.json", report)
        return 0 if not failed else 1

    try:
        cfg = load_config(args.config)
    except FileNotFoundError as exc:
        raise ConfigError(exc) from exc
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out_dir = _resolve_out(args, cfg.output_dir)

    if args.command == "classify":
        try:
            report = classify_regime(cfg.env, cfg.imm)
        except DegenerateMarginal as exc:
            print(f"simulation error: {exc}", file=sys.stderr)
            return 1
        payload = {
            "log_mean": report.log_mean,
            "regime": report.regime.value,
            "log_immigration_finite": list(report.log_immigration_finite),
        }
        print(json.dumps(payload, indent=2))
        if args.out is not None or os.environ.get("CELLBRANCH_OUT"):
            write_json(out_dir / "classify.json", payload)
        return 0

    # lineage / tree / oracle share the config-driven experiment path
    experiment = dict(cfg.experiment)
    experiment.setdefault("kind", args.command)
    if experiment["kind"] != args.command:
        raise ConfigError(
            f"experiment kind {experiment['kind']!r} does not match subcommand {args.command!r}"
        )
    cfg = dataclasses.replace(cfg, experiment=experiment)
    try:
        started = time.time()
        outputs = run_experiment(cfg, out_dir, workers=args.workers)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - structured failure reporting
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(outputs)} artifacts to {out_dir} in {time.time() - started:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
