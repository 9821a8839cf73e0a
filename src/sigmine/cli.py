"""Command-line surface: `sigmine mine` and `sigmine validate`.

Exit codes: 0 success (even with an empty output set), 1 validation-band
violation, 2 configuration error (message names the flag), 3 ingestion or
schema error.  Data goes to --output or stdout; progress and diagnostics go
to stderr only, so equal seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import load_csv
# compute_bounds stays importable here for bench/layers.py, which wraps it
from .discovery import RunConfig, compute_bounds, significant_patterns, top_k_flags  # noqa: F401
from .errors import ConfigError, IngestionError, SchemaError, SigmineError
from .language import Form, LanguageConfig
from .report import (
    METHODS,
    records_from_discoveries,
    records_from_flags,
    records_json,
    records_tsv,
)
from .search import SearchContext
from .suites import SUITES

EXIT_OK = 0
EXIT_BAND = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sigmine")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine significant patterns from a CSV file")
    mine.add_argument("--input", required=True, help="CSV file with a header row")
    mine.add_argument("--schema", default="infer", help="sidecar schema file or 'infer'")
    mine.add_argument("--mode", default="conditional", choices=list(METHODS))
    mine.add_argument("--delta", type=float, default=0.05)
    mine.add_argument("--resamples", type=int, default=10)
    mine.add_argument("--permutations", type=int, default=1000)
    mine.add_argument("--depth", type=int, default=2, help="max selectors per pattern (z)")
    mine.add_argument("--bins", type=int, default=5)
    mine.add_argument(
        "--forms",
        default="equals,less_than,at_least",
        help="comma list of: equals,less_than,at_least,interval",
    )
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument("--top-k", type=int, default=None, dest="top_k")
    mine.add_argument("--output", default=None)
    mine.add_argument("--format", default="tsv", choices=["tsv", "json"])

    val = sub.add_parser("validate", help="run a statistical validation harness")
    val.add_argument("--suite", required=True, choices=["fwer", "power", "coupling", "oracle"])
    val.add_argument(
        "--trials",
        type=int,
        default=None,
        help="instances of the oracle suite, trials of fwer and power, samples of "
        "coupling (default: 200 instances or trials, 100000 samples)",
    )
    val.add_argument("--seed", type=int, default=0)
    return parser


def _parse_forms(text: str) -> frozenset[Form]:
    out = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.add(Form(token))
        except ValueError:
            raise ConfigError(f"--forms: unknown form {token!r}") from None
    if not out:
        raise ConfigError("--forms: at least one form is required")
    return frozenset(out)


def cmd_mine(args) -> int:
    try:
        if not 0.0 < args.delta < 1.0:
            raise ConfigError("--delta must lie in (0, 1)")
        if args.resamples < 1:
            raise ConfigError("--resamples must be >= 1")
        if args.permutations < 1:
            raise ConfigError("--permutations must be >= 1")
        if args.depth < 1:
            raise ConfigError("--depth must be >= 1")
        if args.bins < 1:
            raise ConfigError("--bins must be >= 1")
        if args.top_k is not None and args.top_k < 1:
            raise ConfigError("--top-k must be >= 1")
        language = LanguageConfig(z=args.depth, bins=args.bins, forms=_parse_forms(args.forms))
        cfg = RunConfig(
            delta=args.delta,
            c=args.resamples,
            seed=args.seed,
            language=language,
            top_k=args.top_k,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        dataset = load_csv(args.input, schema=args.schema)
    except (IngestionError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST

    try:
        ctx = SearchContext(dataset, language)
        report = METHODS[args.mode](ctx, cfg, args.permutations)
        if cfg.top_k is not None:
            result, flags = top_k_flags(ctx, report, cfg.top_k)
            records = records_from_flags(result.entries, flags, dataset, report)
        else:
            records = records_from_discoveries(significant_patterns(ctx, report), dataset)
    except SigmineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.format == "tsv":
        text = records_tsv(records) + "\n" + report.to_kv_block() + "\n"
    else:
        payload = {"records": records_json(records), report.key: report.to_dict()}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"patterns reported: {len(records)}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.trials is not None and args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    suite, count = SUITES[args.suite]
    sizes = {} if args.trials is None else {count: args.trials}
    outcome = suite(seed=args.seed, **sizes)
    for line in outcome.lines:
        print(line, file=sys.stderr)
    print(json.dumps({"suite": outcome.name, "ok": outcome.ok, **outcome.summary}, sort_keys=True))
    return EXIT_OK if outcome.ok else EXIT_BAND


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mine":
        return cmd_mine(args)
    return cmd_validate(args)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
