"""The method table, result serialization and the desk-scale experiment
drivers.

`METHODS` maps each method name to its threshold, which `discovery.mine`
takes: every method then runs the same output scan or, with `cfg.top_k`
set, the same top-k mining.  Both give `Discovery` records, which
`records_from_discoveries` turns into output records, `significant` being
`threshold_margin >= 0` in both.  TSV and JSON renderings of output records
carry identical values; a method's report appends to TSV output as a
`# key=value` comment block.  The sweep driver measures how the threshold
reacts to the resample count, the comparison driver runs all four methods on
one dataset with shared search machinery so timings are comparable.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

# bench/layers.py wraps run_wy, run_ub and significant_patterns at these names
from .baselines import run_ub, run_wy, ub_report, wy_quantile  # noqa: F401
from .bounds import Mode
from .data import Dataset
from .discovery import Discovery, RunConfig, compute_bounds, mine, significant_patterns  # noqa: F401
from .search import SearchContext


def _resampled(mode: Mode):
    return lambda ctx, cfg: compute_bounds(ctx, replace(cfg, mode=mode))


# method name -> threshold(ctx, cfg) -> report, where a report has the
# `epsilon` and `eps_t` of the cutoff eps + eps_t * frequency
METHODS = {
    "conditional": _resampled(Mode.CONDITIONAL),
    "unconditional": _resampled(Mode.UNCONDITIONAL),
    "wy": wy_quantile,
    "ub": ub_report,
}


@dataclass(frozen=True)
class OutputRecord:
    rank: int
    pattern: str
    quality: float
    frequency: float
    threshold_margin: float
    significant: bool


TSV_COLUMNS = ("rank", "pattern", "quality", "frequency", "threshold_margin", "significant")
# a column name or category value may hold any character, so a pattern's
# backslashes, tabs and line breaks are escaped to keep each record one line
# of six fields
TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def records_from_discoveries(discoveries: list[Discovery], dataset: Dataset) -> list[OutputRecord]:
    return [
        OutputRecord(
            rank=i + 1,
            pattern=d.pattern.describe(dataset),
            quality=d.quality,
            frequency=d.frequency,
            threshold_margin=d.threshold_margin,
            significant=d.significant,
        )
        for i, d in enumerate(discoveries)
    ]


def records_tsv(records: list[OutputRecord]) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.rank}\t{r.pattern.translate(TSV_ESCAPES)}\t{r.quality!r}\t{r.frequency!r}"
            f"\t{r.threshold_margin!r}\t{int(r.significant)}"
        )
    return "\n".join(lines)


def records_json(records: list[OutputRecord]) -> list[dict]:
    return [asdict(r) for r in records]


@dataclass
class SweepResult:
    cells: dict[tuple[int, str], tuple[float, float]]  # (c, mode) -> (epsilon, seconds)

    def epsilon(self, c: int, mode: str | Mode = Mode.CONDITIONAL) -> float:
        mode = Mode(mode).value
        return self.cells[(c, mode)][0]


def sweep_c(
    dataset: Dataset,
    cfg: RunConfig,
    c_values: list[int],
    modes: tuple[Mode, ...] = (Mode.CONDITIONAL,),
) -> SweepResult:
    """Threshold and wall time per (c, mode) cell.

    Cells run sequentially over a shared search context; timing covers the
    bound-computation phase only (resampling, the per-resample searches and
    the threshold arithmetic), not ingestion or selector-cover setup.
    Resamples are keyed (seed, j), so growing c extends the same sequence.
    """
    if not c_values:
        raise ValueError("c_values must be non-empty")
    ctx = SearchContext(dataset, cfg.language)
    cells = {}
    for mode in modes:
        for c in c_values:
            t0 = time.perf_counter()
            report = compute_bounds(ctx, replace(cfg, mode=mode, c=c))
            cells[(c, mode.value)] = (report.epsilon, time.perf_counter() - t0)
    return SweepResult(cells)


@dataclass
class MethodRow:
    method: str
    threshold: float
    outputs: int
    seconds: float


def compare_methods(
    dataset: Dataset, cfg: RunConfig, permutations: int | None = None
) -> list[MethodRow]:
    """All four methods on one dataset with shared search machinery; WY
    takes `permutations` permutations, `cfg.permutations` when None.

    Per-method timing covers that method's own threshold computation and
    output scan; the shared selector-cover setup is excluded from all rows
    so ratios reflect the methods, not the plumbing.  Each row counts the
    method's scan, whatever `cfg.top_k`.
    """
    if permutations is None:
        permutations = cfg.permutations
    cfg = replace(cfg, top_k=None, permutations=permutations)
    ctx = SearchContext(dataset, cfg.language)
    rows = []
    for method, threshold in METHODS.items():
        t0 = time.perf_counter()
        found, report = mine(ctx, cfg, threshold)
        # the WY row shows the quantile itself, not the next float up
        cut = getattr(report, "delta_quantile", report.epsilon)
        rows.append(MethodRow(method, cut, len(found), time.perf_counter() - t0))
    return rows


def method_table(rows: list[MethodRow]) -> str:
    header = f"{'method':<14}{'threshold':>12}{'outputs':>9}{'seconds':>10}"
    body = [
        f"{r.method:<14}{r.threshold:>12.6f}{r.outputs:>9}{r.seconds:>10.3f}"
        for r in rows
    ]
    return "\n".join([header, *body])
