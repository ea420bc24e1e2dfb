"""Command-line entry point.

Subcommands mirror the pipeline stages; `run` chains all three. Every
stage reads and writes the configured output directory, so a failed run
can resume from the last completed stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

from .errors import CovbiasError, StageError
from .pipeline import (
    PipelineConfig,
    ingest_check,
    run_pipeline,
    run_stage,
    stage_analyze,
    stage_extract,
    stage_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covbias",
        description=(
            "Measure gendered personalization in dependency-parsed political "
            "news coverage."
        ),
    )
    parser.add_argument("--config", required=True, help="INI config with a [covbias] section")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="base random seed")
    parser.add_argument("--radius", type=int, help="neighborhood tree radius")
    parser.add_argument(
        "--rates-mode",
        choices=["ratio", "literal"],
        dest="rates_mode",
        help="adjusted incidence rate formula",
    )
    parser.add_argument("--window", type=int, dest="ma_window", help="moving-average window (days)")
    parser.add_argument("--jitter", type=float, help="sentiment jitter half-width")
    parser.add_argument("--bootstrap", type=int, help="bootstrap replicates")
    parser.add_argument(
        "command",
        choices=["ingest-check", "extract", "analyze", "report", "run"],
        help="pipeline stage to execute",
    )
    return parser


def load_config(args: argparse.Namespace) -> PipelineConfig:
    """The config file's settings, overridden by every flag given.

    Each override flag's `dest` is the name of a `PipelineConfig` field.
    """
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    overrides = {key: value for key, value in vars(args).items() if key in fields}
    return PipelineConfig.from_ini(args.config, **overrides)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "ingest-check":
            summary = run_stage("ingest-check", ingest_check, cfg)
            print(json.dumps(summary, indent=2, sort_keys=True))
        elif args.command == "extract":
            result = run_stage("extract", stage_extract, cfg)
            print(f"extracted {len(result.records)} records -> {cfg.out}")
        elif args.command == "analyze":
            run_stage("analyze", stage_analyze, cfg)
            print(f"analysis written -> {cfg.out}")
        elif args.command == "report":
            run_stage("report", stage_report, cfg)
            print(f"report written -> {cfg.out}")
        else:
            run_pipeline(cfg)
            print(f"report bundle complete -> {cfg.out}")
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CovbiasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
