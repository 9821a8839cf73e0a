"""Command-line surface: `sigmine mine` and `sigmine validate`.

Exit codes: 0 success (even with an empty output set), 1 validation-band
violation, 2 configuration error (message names the flag), 3 ingestion or
schema error, or a file that cannot be read or written.  Data goes to
--output or stdout; progress and diagnostics go to stderr only, so equal
seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import load_csv
# bench/layers.py wraps compute_bounds and significant_patterns at these names
from .discovery import RunConfig, compute_bounds, mine, significant_patterns  # noqa: F401
from .errors import ConfigError, IngestionError, SchemaError, SigmineError
from .language import LanguageConfig
from .report import METHODS, records_from_discoveries, records_json, records_tsv
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
    mine.add_argument("--permutations", type=int, default=1000, help=(
        "wy's p: a pattern must strictly beat the ceil(delta*p)-th largest of p permutation "
        "suprema; at delta 0.05 the FWER can exceed delta for p <= 18, 21-38, 41-58, 61-78, "
        "81-98 and any larger p neither a multiple of 20 nor one below one (within delta at "
        "p = 20, 40, 100, 1000)"))
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


# the flag of each field a ConfigError can name
FLAGS = {
    "delta": "--delta", "c": "--resamples", "permutations": "--permutations",
    "z": "--depth", "bins": "--bins", "forms": "--forms", "top_k": "--top-k",
    "seed": "--seed", "trials": "--trials",
}


def _parse_forms(text: str) -> frozenset[str]:
    """The comma-separated form names of `--forms`; `LanguageConfig` maps
    them to forms and refuses an unknown one."""
    out = {token.strip() for token in text.split(",")} - {""}
    if not out:
        raise ConfigError("at least one form is required", "forms")
    return frozenset(out)


def cmd_mine(args) -> int:
    language = LanguageConfig(z=args.depth, bins=args.bins, forms=_parse_forms(args.forms))
    cfg = RunConfig(
        delta=args.delta,
        c=args.resamples,
        seed=args.seed,
        language=language,
        top_k=args.top_k,
        permutations=args.permutations,
    )
    dataset = load_csv(args.input, schema=args.schema)
    found, report = mine(SearchContext(dataset, language), cfg, METHODS[args.mode])
    records = records_from_discoveries(found, dataset)

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
    significant = sum(r.significant for r in records)
    print(f"patterns reported: {len(records)}, significant: {significant}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ConfigError("trials must be >= 1", "trials")
    suite, count = SUITES[args.suite]
    sizes = {} if args.trials is None else {count: args.trials}
    # a seed out of range, or one the suite derives from it, is refused by
    # the generator
    outcome = suite(seed=args.seed, **sizes)
    for line in outcome.lines:
        print(line, file=sys.stderr)
    print(json.dumps({"suite": outcome.name, "ok": outcome.ok, **outcome.summary}, sort_keys=True))
    return EXIT_OK if outcome.ok else EXIT_BAND


def main(argv=None) -> int:
    """Run one command; an error prints on stderr, led by the flag of the
    field a ConfigError names, and sets the exit code."""
    args = build_parser().parse_args(argv)
    try:
        return cmd_mine(args) if args.command == "mine" else cmd_validate(args)
    except (IngestionError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except SigmineError as exc:
        flag = isinstance(exc, ConfigError) and FLAGS.get(exc.field)
        print(f"error: {flag}: {exc}" if flag else f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
