"""Operator entry point: one config file, one command per stage.

Exit codes: 0 ok, 1 usage/config error, 2 data error, 3 backend error.
Human-readable summaries go to stdout; machine-readable reports are
written as JSON files under the work directory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, PipelineConfig, load_config
from .corpus import CorpusError
from .inference import AuthError, BackendError, CheckpointMismatchError
from .mixing import MixError
from .pipeline import (
    StageError,
    run_all,
    stage_filter,
    stage_mix,
    stage_postprocess,
    stage_preprocess,
    stage_rephrase,
    stage_score,
    stage_stats,
)
from .prompts import list_templates
from .quality import QualityError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


def _number(text: str) -> float:
    """A float argument other than NaN, which no threshold compares with."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the documented
    # contract reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rephrasing",
        description="Corpus rephrasing pipeline: split, rephrase, clean, score, filter, mix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, needs_config: bool = True) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        if needs_config:
            cmd.add_argument("--config", "-c", required=True, help="pipeline config file (YAML)")
        return cmd

    add("preprocess", "split the input corpus into passages")
    add("rephrase", "generate raw completions for every passage")
    add("postprocess", "clean completions and reassemble documents")

    score = add("score", "score documents with the quality prompt")
    score.add_argument("--input", help="manifest of the corpus to score (default: rephrased output)")

    filt = add("filter", "keep documents scoring strictly above the threshold")
    filt.add_argument("--input", help="manifest of the corpus to filter (default: rephrased output)")
    filt.add_argument("--threshold", type=_number, help="override the configured score threshold")

    add("mix", "compose the configured corpus mixture")
    add("stats", "emit the corpus overview table (text + JSON)")
    add("run-all", "run every stage in pipeline order")

    templates = add("templates", "list available prompt templates", needs_config=False)
    templates.add_argument("--config", "-c", help="config file (for custom templates)")
    templates.add_argument("--language", help="filter by language code")
    return parser


def _print_report(report: dict) -> None:
    table = report.pop("table", None)
    print(json.dumps(report, indent=2, ensure_ascii=False))
    if table:
        print()
        print(table)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "templates":
        cfg = load_config(args.config) if args.config else None
        registry = cfg.registry() if cfg else None
        for template_id, language, extraction in list_templates(registry, args.language):
            print(f"{template_id:16} {language:4} {extraction}")
        return EXIT_OK

    cfg: PipelineConfig = load_config(args.config)
    if args.command == "preprocess":
        report = stage_preprocess(cfg)
    elif args.command == "rephrase":
        report = stage_rephrase(cfg)
    elif args.command == "postprocess":
        report = stage_postprocess(cfg)
    elif args.command == "score":
        report = stage_score(cfg, Path(args.input) if args.input else None)
    elif args.command == "filter":
        report = stage_filter(
            cfg,
            Path(args.input) if args.input else None,
            threshold=args.threshold,
        )
    elif args.command == "mix":
        report = stage_mix(cfg)
    elif args.command == "stats":
        report = stage_stats(cfg)
    elif args.command == "run-all":
        reports = run_all(cfg)
        for name, stage_report in reports.items():
            print(f"== {name}")
            _print_report(stage_report)
        return EXIT_OK
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command!r}")
    _print_report(report)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AuthError, BackendError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (StageError, CorpusError, QualityError, MixError, CheckpointMismatchError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
