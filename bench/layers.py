"""The layers the traced run times, and the metrics built from its spans.

A span is named "<module>.<function>"; the module is the layer.  Each
function is wrapped at the name its caller looks it up under, so a search
started by `estimate_deviation` is caught at `sigmine.resample.sup_quality`
and one started by `run_wy` at `sigmine.baselines.sup_quality`.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import defaultdict

import sigmine.baselines
import sigmine.cli
import sigmine.discovery
import sigmine.report
import sigmine.resample
from sigmine.bounds import BoundReport
from sigmine.search import SearchContext

from spans import Patcher, Span, Tracer, attribute


def _search_counts(args, result) -> tuple:
    return (result.nodes_visited, result.nodes_pruned)


def _hits(args, result) -> tuple:
    return (len(result),)


def _selectors(args, result) -> tuple:
    return (len(args[0].base),)


_BOUNDS = ["bound_target", "variance_factor", "variance_bracket",
           "bound_statistic_conditional", "bound_statistic_unconditional"]

# (owner, attribute, span name, counter)
WRAPPED = [
    (sigmine.cli, "main", "cli.main", None),
    (sigmine.cli, "load_csv", "data.load_csv", None),
    (sigmine.cli, "compute_bounds", "discovery.compute_bounds", None),
    (sigmine.cli, "significant_patterns", "discovery.significant_patterns", None),
    (sigmine.cli, "records_from_discoveries", "report.records_from_discoveries", None),
    (sigmine.cli, "records_tsv", "report.records_tsv", None),
    (BoundReport, "to_kv_block", "report.to_kv_block", None),
    (sigmine.report, "compare_methods", "report.compare_methods", None),
    (sigmine.report, "compute_bounds", "discovery.compute_bounds", None),
    (sigmine.report, "significant_patterns", "discovery.significant_patterns", None),
    (sigmine.report, "run_wy", "baselines.run_wy", None),
    (sigmine.report, "run_ub", "baselines.run_ub", None),
    (sigmine.discovery, "run_discovery", "discovery.run_discovery", None),
    (sigmine.discovery, "compute_bounds", "discovery.compute_bounds", None),
    (sigmine.discovery, "significant_patterns", "discovery.significant_patterns", None),
    (sigmine.discovery, "resample_target", "resample.resample_target", None),
    (sigmine.discovery, "estimate_deviation", "resample.estimate_deviation", None),
    (sigmine.discovery, "threshold_mine", "search.threshold_mine", _hits),
    *[(sigmine.discovery, f, f"bounds.{f}", None) for f in _BOUNDS],
    (sigmine.resample, "sup_quality", "search.sup_quality", _search_counts),
    (sigmine.baselines, "sup_quality", "search.sup_quality", _search_counts),
    (sigmine.baselines, "permuted_labels", "baselines.permuted_labels", None),
    (sigmine.baselines, "significant_patterns", "discovery.significant_patterns", None),
    (sigmine.baselines, "bound_target", "bounds.bound_target", None),
    (sigmine.baselines, "variance_bracket", "bounds.variance_bracket", None),
    (sigmine.baselines, "bound_statistic_ub", "bounds.bound_statistic_ub", None),
    (sigmine.baselines, "projection_bound_log", "language.projection_bound_log", None),
    (SearchContext, "__init__", "search.SearchContext", _selectors),
]

# the searches whose heap use `peak_alloc_mb` measures
SEARCHES = [
    (sigmine.resample, "sup_quality"),
    (sigmine.baselines, "sup_quality"),
    (sigmine.discovery, "threshold_mine"),
]

# per-layer metrics printed on every workload: name -> unit
PER_LAYER = {
    "search.sup_s": "s",
    "search.nodes_visited": "count",
    "search.nodes_pruned": "count",
    "search.ns_per_node": "ns",
    "search.prune_frac": "frac",
    "search.context_s": "s",
    "search.selectors": "count",
    "search.scan_s": "s",
    "search.scan_hits": "count",
    "search.peak_alloc_mb": "MB",
    "resample.draw_s": "s",
    "resample.estimate_s": "s",
    "discovery.compute_bounds_s": "s",
    "discovery.significant_patterns_s": "s",
    "bounds.s": "s",
    "trace.overhead_frac": "frac",
}

ROOT = "bench.op"


def install(tracer: Tracer) -> None:
    for owner, attr, name, counter in WRAPPED:
        tracer.wrap(owner, attr, name, counter)


def peak_alloc_mb(run_ops) -> float:
    """Largest heap growth during any one search while `run_ops()` runs.

    Under the CLI's worker threads two searches can overlap, and each one
    resets the shared peak, so the figure is then a close lower bound.
    """
    peaks: list[int] = []

    def make(original):
        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return measured

    patcher = Patcher()
    for owner, attr in SEARCHES:
        patcher.patch(owner, attr, make)
    tracemalloc.start()
    try:
        run_ops()
    finally:
        tracemalloc.stop()
        patcher.restore()
    return max(peaks) / 2**20


def summarize(spans: list[Span], roots: list[int], cycle: int, permutations: int | None):
    """Per-layer figures from the traced ops.

    Times are means per op of attributed (self) time.  Counts are per op over
    the first `cycle` traced ops, the ops after which the inputs repeat, so
    they are exact and repeat from run to run.
    """
    ops = [(r, spans[r:e]) for r, e in zip(roots, roots[1:] + [len(spans)])]
    n = len(ops)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for base, group in ops:
        for name, t in attribute(group, base).items():
            self_s[name] += t / n
        for s in group:
            inclusive[s.name] += (s.end - s.start) / n

    def counted(name: str, k: int, first_cycle: bool) -> float:
        picked = ops[:cycle] if first_cycle else ops
        total = sum(s.counts[k] for _, g in picked for s in g if s.name == name)
        return total / len(picked)

    sup_calls = sum(1 for _, g in ops for s in g if s.name == "search.sup_quality")
    visited = counted("search.sup_quality", 0, True)
    pruned = counted("search.sup_quality", 1, True)
    visited_all = counted("search.sup_quality", 0, False)
    layers: dict[str, float] = defaultdict(float)
    for name, t in self_s.items():
        layers[name.split(".")[0]] += t
    op_mean = statistics.fmean(g[0].end - g[0].start for _, g in ops)

    metrics = {
        "search.sup_s": self_s["search.sup_quality"] * n / sup_calls,
        "search.nodes_visited": visited,
        "search.nodes_pruned": pruned,
        "search.ns_per_node": self_s["search.sup_quality"] / visited_all * 1e9,
        "search.prune_frac": pruned / visited,
        "search.context_s": self_s["search.SearchContext"],
        "search.selectors": next(
            s.counts[0] for _, g in ops for s in g if s.name == "search.SearchContext"
        ),
        "search.scan_s": self_s["search.threshold_mine"],
        "search.scan_hits": counted("search.threshold_mine", 0, True),
        "resample.draw_s": self_s["resample.resample_target"],
        "resample.estimate_s": self_s["resample.estimate_deviation"],
        "discovery.compute_bounds_s": self_s["discovery.compute_bounds"],
        "discovery.significant_patterns_s": self_s["discovery.significant_patterns"],
        "bounds.s": layers["bounds"],
    }
    # layers that only some workloads exercise: printed, not in the JSON line
    extra = {}
    if inclusive["baselines.run_wy"]:
        extra["baselines.run_wy_s"] = inclusive["baselines.run_wy"]
        extra["baselines.permute_s"] = inclusive["baselines.permuted_labels"]
        extra["baselines.run_ub_s"] = inclusive["baselines.run_ub"]
        conditional = statistics.fmean(_conditional_seconds(g) for _, g in ops)
        extra["baselines.wy_per_1000_over_conditional (scaled)"] = (
            inclusive["baselines.run_wy"] * 1000 / permutations / conditional
        )
    if inclusive["cli.main"]:
        extra["data.load_csv_s"] = inclusive["data.load_csv"]
        extra["report.serialize_s"] = (
            self_s["report.records_from_discoveries"] + self_s["report.records_tsv"]
            + self_s["report.to_kv_block"]
        )
        extra["cli.main_self_s"] = self_s["cli.main"]
    return metrics, extra, dict(layers), op_mean


def _conditional_seconds(group: list[Span]) -> float:
    """compare_methods runs the conditional method first: its first
    compute_bounds and significant_patterns spans."""
    first: dict[str, float] = {}
    for s in group:
        if s.name in ("discovery.compute_bounds", "discovery.significant_patterns"):
            first.setdefault(s.name, s.end - s.start)
    return sum(first.values())
