"""End-to-end significant-pattern discovery.

One run wires the stages together: bound the target-mean deviation, bracket
the mean, resample labels at the upper bracket, estimate the average maximum
deviation at the lower bracket, turn it into a significance threshold, then
report every pattern whose observed quality clears the frequency-dependent
cutoff

    quality >= eps + eps_t * frequency.

The entry points `run_discovery` and `flag_top_k` take a dataset and a
`RunConfig` and build one `SearchContext` from them.  The stages below them
(`compute_bounds`, `significant_patterns`, `top_k_flags`) take that context
and read the dataset and the language from it alone, so the threshold and
the final scan always see the same dataset under the same language.

Everything is deterministic given the seed, and the BoundReport is emitted
even when nothing is significant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bounds import (
    BoundReport,
    Mode,
    bound_statistic_conditional,
    bound_statistic_unconditional,
    bound_target,
    variance_bracket,
    variance_factor,
)
from .data import Dataset
from .errors import ConfigError
from .language import LanguageConfig, Pattern
from .resample import ResamplePlan, estimate_deviation, resample_target
from .search import SearchContext, TopKResult, threshold_mine, top_k


@dataclass
class RunConfig:
    mode: Mode = Mode.CONDITIONAL
    delta: float = 0.05
    c: int = 10
    seed: int = 0
    language: LanguageConfig = field(default_factory=LanguageConfig)
    top_k: int | None = None

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = Mode(self.mode)
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)")
        if self.c < 1:
            raise ConfigError("c must be >= 1")


@dataclass(frozen=True)
class Discovery:
    pattern: Pattern
    quality: float
    frequency: float
    threshold_margin: float


def compute_bounds(ctx: SearchContext, cfg: RunConfig) -> BoundReport:
    """Run the resampling pipeline on the context's dataset and language and
    return the full bound report."""
    dataset = ctx.dataset
    m = dataset.m
    mu_d = dataset.mean_target()
    eps_t = bound_target(cfg.mode, mu_d, m, cfg.delta)
    # the raw upper bracket mu_d + eps_t can exceed 1; Bernoulli resampling
    # needs p <= 1 and clamping only shifts label mass upward (conservative)
    mu_hat = min(1.0, mu_d + eps_t)
    mu_check = max(0.0, mu_d - eps_t)
    resamples = resample_target(dataset, ResamplePlan(cfg.c, mu_hat, cfg.seed))
    dev = estimate_deviation(ctx, resamples, mu_check)
    sup_freq = ctx.sup_frequency()
    report = BoundReport(
        mode=cfg.mode,
        delta=cfg.delta,
        m=m,
        c=cfg.c,
        mu_d=mu_d,
        mu_hat=mu_hat,
        mu_check=mu_check,
        eps_t=eps_t,
        sup_freq=sup_freq,
        epsilon=float("nan"),
        d_tilde=dev.d_tilde,
    )
    if cfg.mode is Mode.CONDITIONAL:
        report.omega = variance_factor(mu_d, sup_freq)
        report.epsilon = bound_statistic_conditional(
            dev.d_tilde, report.omega, m, cfg.c, cfg.delta
        )
    else:
        nu_t, nu = variance_bracket(mu_d, eps_t)
        r_hat, d_hat, eps = bound_statistic_unconditional(
            dev.d_tilde, nu_t, nu, m, cfg.c, cfg.delta
        )
        report.nu_t, report.nu = nu_t, nu
        report.r_hat, report.d_hat = r_hat, d_hat
        report.epsilon = eps
    return report


def significance_cutoff(report: BoundReport, frequency: float) -> float:
    """The quality a pattern of `frequency` must reach to be reported under
    `report`: eps + eps_t * frequency."""
    return report.epsilon + report.eps_t * frequency


def significant_patterns(ctx: SearchContext, report: BoundReport) -> list[Discovery]:
    """All patterns of the context clearing the report's threshold, sorted
    by quality.

    Any report with an `epsilon` and an `eps_t` serves: every method's
    threshold is scanned the same way."""
    ds = ctx.dataset
    hits = threshold_mine(ctx, ds.target, ds.mean_target(), report.epsilon, report.eps_t)
    out = [
        Discovery(
            pattern=p,
            quality=q.value,
            frequency=q.frequency,
            threshold_margin=q.value - significance_cutoff(report, q.frequency),
        )
        for p, q in hits
    ]
    out.sort(key=lambda d: -d.quality)
    return out


def run_discovery(dataset: Dataset, cfg: RunConfig) -> tuple[list[Discovery], BoundReport]:
    """The full pipeline: threshold computation plus the final output scan."""
    ctx = SearchContext(dataset, cfg.language)
    report = compute_bounds(ctx, cfg)
    return significant_patterns(ctx, report), report


def top_k_flags(
    ctx: SearchContext, report: BoundReport, k: int
) -> tuple[TopKResult, list[bool]]:
    """The k patterns of the context of highest observed quality, each
    flagged iff it clears the report's threshold, that is iff
    `significant_patterns` would report it."""
    ds = ctx.dataset
    result = top_k(ctx, ds.target, ds.mean_target(), k)
    flags = [q.value >= significance_cutoff(report, q.frequency) for _, q in result.entries]
    return result, flags


def flag_top_k(
    dataset: Dataset, cfg: RunConfig
) -> tuple[TopKResult, list[bool], BoundReport]:
    """Mine the top-k patterns by observed quality, then flag each one
    against the run's significance threshold.

    A pattern is flagged iff it would appear in the run's output set, so
    flags agree with `run_discovery` membership for the same config/seed.
    """
    if cfg.top_k is None:
        raise ConfigError("cfg.top_k must be set")
    ctx = SearchContext(dataset, cfg.language)
    report = compute_bounds(ctx, cfg)
    return (*top_k_flags(ctx, report, cfg.top_k), report)
