"""End-to-end significant-pattern discovery.

One run wires the stages together: bound the target-mean deviation, bracket
the mean, resample labels at the upper bracket, estimate the average maximum
deviation at the lower bracket, turn it into a significance threshold, then
report every pattern whose observed quality clears the frequency-dependent
cutoff

    quality >= eps + eps_t * frequency.

Both outputs, the significant patterns and the top k by quality, are
`Discovery` records, significant iff their margin over that cutoff is >= 0.

`mine(ctx, cfg, threshold)` is every run: it takes a method's report from
`threshold(ctx, cfg)` (`compute_bounds` here, or any value of
`report.METHODS`), then scans for every pattern clearing it, or takes the
`cfg.top_k` best when that is set.  `run_discovery` runs it with
`compute_bounds` on a fresh `SearchContext`.  The stages (`compute_bounds`,
`significant_patterns`, `top_k_patterns`) take that context and read the
dataset and the language from it alone, so the threshold and the final scan
always see the same dataset under the same language.

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
    significance_cutoff,
    variance_bracket,
    variance_factor,
)
from .data import Dataset
from .errors import ConfigError
from .language import LanguageConfig, Pattern
from .resample import MAX_DRAWS, estimate_deviation, resample_target
from .search import SearchContext, threshold_mine, top_k


@dataclass
class RunConfig:
    mode: Mode = Mode.CONDITIONAL
    delta: float = 0.05
    c: int = 10
    seed: int = 0
    language: LanguageConfig = field(default_factory=LanguageConfig)
    top_k: int | None = None
    permutations: int = 1000  # of the WY method

    def __post_init__(self):
        try:
            self.mode = Mode(self.mode)
        except ValueError:
            raise ConfigError(f"unknown mode {self.mode!r}", "mode") from None
        if not 0.0 < self.delta < 1.0:
            raise ConfigError("delta must lie in (0, 1)", "delta")
        if not 1 <= self.c <= MAX_DRAWS:
            raise ConfigError("c must lie in [1, 2**32]", "c")
        if not 1 <= self.permutations <= MAX_DRAWS:
            raise ConfigError("permutation count must lie in [1, 2**32]", "permutations")
        if self.top_k is not None and self.top_k < 1:
            raise ConfigError("top_k must be >= 1", "top_k")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)", "seed")


@dataclass(frozen=True)
class Discovery:
    pattern: Pattern
    quality: float
    frequency: float
    threshold_margin: float

    @property
    def significant(self) -> bool:
        """Whether the quality reaches the cutoff; for finite doubles
        a - b >= 0 holds iff a >= b, so this is the scan's own test."""
        return self.threshold_margin >= 0


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
    resamples = resample_target(dataset, cfg.c, mu_hat, cfg.seed)
    dev = estimate_deviation(ctx, resamples, mu_check)
    sup_freq = ctx.sup_frequency()
    if cfg.mode is Mode.CONDITIONAL:
        omega = variance_factor(mu_d, sup_freq)
        eps = bound_statistic_conditional(dev.d_tilde, omega, m, cfg.c, cfg.delta)
        terms = dict(omega=omega)
    else:
        nu_t, nu = variance_bracket(mu_d, eps_t)
        r_hat, d_hat, eps = bound_statistic_unconditional(dev.d_tilde, nu_t, nu, m, cfg.c, cfg.delta)
        terms = dict(nu_t=nu_t, nu=nu, r_hat=r_hat, d_hat=d_hat)
    return BoundReport(
        mode=cfg.mode,
        delta=cfg.delta,
        m=m,
        c=cfg.c,
        mu_d=mu_d,
        mu_hat=mu_hat,
        mu_check=mu_check,
        eps_t=eps_t,
        sup_freq=sup_freq,
        epsilon=eps,
        d_tilde=dev.d_tilde,
        **terms,
    )


def _discoveries(hits, report: BoundReport) -> list[Discovery]:
    """The records of `hits`, with their margins over the report's cutoff,
    sorted by quality; ties keep the order of `hits`."""
    out = [
        Discovery(
            pattern=p,
            quality=q.value,
            frequency=q.frequency,
            threshold_margin=q.value - significance_cutoff(report.epsilon, report.eps_t, q.frequency),
        )
        for p, q in hits
    ]
    out.sort(key=lambda d: -d.quality)
    return out


def significant_patterns(ctx: SearchContext, report: BoundReport) -> list[Discovery]:
    """All patterns of the context clearing the report's threshold, sorted
    by quality.

    Any report with an `epsilon` and an `eps_t` serves: every method's
    threshold is scanned the same way."""
    ds = ctx.dataset
    hits = threshold_mine(ctx, ds.target, ds.mean_target(), report.epsilon, report.eps_t)
    return _discoveries(hits, report)


def top_k_patterns(ctx: SearchContext, report: BoundReport, k: int) -> list[Discovery]:
    """The k patterns of the context of highest observed quality, with their
    margins over the report's threshold: a record is `significant` iff
    `significant_patterns` would report its pattern."""
    ds = ctx.dataset
    return _discoveries(top_k(ctx, ds.target, ds.mean_target(), k), report)


def mine(ctx: SearchContext, cfg: RunConfig, threshold) -> tuple[list[Discovery], object]:
    """One run: the report of `threshold(ctx, cfg)`, then every pattern
    clearing it, or the `cfg.top_k` best by quality when that is set."""
    report = threshold(ctx, cfg)
    if cfg.top_k is None:
        return significant_patterns(ctx, report), report
    return top_k_patterns(ctx, report, cfg.top_k), report


def run_discovery(dataset: Dataset, cfg: RunConfig) -> tuple[list[Discovery], BoundReport]:
    """`mine` with `compute_bounds` on a fresh context of the dataset."""
    return mine(SearchContext(dataset, cfg.language), cfg, compute_bounds)
