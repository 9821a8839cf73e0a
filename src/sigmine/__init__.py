"""Significant pattern mining with family-wise error rate control.

Discovers subgroups or itemsets whose association with a binary target is
statistically significant, using a small number of label resamples to bound
the supremum deviation of pattern qualities under the null hypothesis of
independence.  Both conditional (fixed label counts) and unconditional
(i.i.d. sampling) null models are supported, alongside permutation-quantile
and distinct-projection union-bound baselines.
"""

from .baselines import QuantileEstimate, run_ub, run_wy
from .bounds import (
    BoundReport,
    Mode,
    bound_statistic_conditional,
    bound_statistic_ub,
    bound_statistic_unconditional,
    bound_target,
    variance_bracket,
    variance_factor,
)
from .data import ColumnSchema, Dataset, Kind, LabelVector, load_csv, to_csv
from .discovery import Discovery, RunConfig, mine, run_discovery
from .errors import (
    ConfigError,
    IngestionError,
    OracleError,
    SchemaError,
    SigmineError,
)
from .language import (
    Form,
    LanguageConfig,
    Pattern,
    Selector,
    base_selectors,
    evaluate,
    projection_bound_log,
)
from .quality import QualityStat, empirical_quality
from .report import MethodRow, OutputRecord, SweepResult, compare_methods, sweep_c
from .resample import DeviationEstimate, ResamplePlan, estimate_deviation, resample_target
from .search import (
    SearchContext,
    SearchResult,
    optimistic_estimate,
    sup_quality,
    threshold_mine,
    top_k,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ColumnSchema",
    "ConfigError",
    "Dataset",
    "DeviationEstimate",
    "Discovery",
    "Form",
    "IngestionError",
    "Kind",
    "LabelVector",
    "LanguageConfig",
    "MethodRow",
    "Mode",
    "OracleError",
    "OutputRecord",
    "Pattern",
    "QualityStat",
    "QuantileEstimate",
    "ResamplePlan",
    "RunConfig",
    "SchemaError",
    "SearchContext",
    "SearchResult",
    "SigmineError",
    "SweepResult",
    "Selector",
    "base_selectors",
    "bound_statistic_conditional",
    "bound_statistic_ub",
    "bound_statistic_unconditional",
    "bound_target",
    "compare_methods",
    "empirical_quality",
    "estimate_deviation",
    "evaluate",
    "load_csv",
    "mine",
    "optimistic_estimate",
    "projection_bound_log",
    "resample_target",
    "run_discovery",
    "run_ub",
    "run_wy",
    "sup_quality",
    "sweep_c",
    "threshold_mine",
    "to_csv",
    "top_k",
    "variance_bracket",
    "variance_factor",
]
