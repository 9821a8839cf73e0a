"""Comparison methods: permutation-quantile testing and the
distinct-projection union-bound correction.

The permutation variant estimates the delta-quantile of the supremum
deviation over label permutations (conditional semantics: every permuted
vector keeps the observed number of 1-labels) and thresholds observed
qualities at that quantile.  The union-bound variant replaces the resample
estimate with an analytic correction over the number of distinct covers the
language can realize on the data; it draws no random bits at all.

`wy_quantile` and `ub_report` take a `SearchContext` and read the dataset
and the language from it; `run_wy` and `run_ub`, the entry points, build one
context from a dataset and a `RunConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundReport,
    Mode,
    bound_statistic_ub,
    bound_target,
    variance_bracket,
)
from .data import Dataset, LabelVector
from .discovery import Discovery, RunConfig, significant_patterns
from .errors import ConfigError
from .language import pattern_count, projection_bound_log
from .resample import STREAM_PERMUTE, generator
from .search import SearchContext, sup_quality


@dataclass(frozen=True)
class PermutationPlan:
    p: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError("permutation count must be >= 1")


@dataclass
class QuantileEstimate:
    """Supremum deviations over all permutations, sorted descending, and the
    delta-quantile: the ceil(delta * p)-th largest (1-based position).  The
    WY method's report: its `epsilon` is `threshold`, its `eps_t` is 0."""

    deviations: np.ndarray
    delta_quantile: float
    position: int

    key = "quantile"
    eps_t = 0.0

    @property
    def threshold(self) -> float:
        """The least float above the quantile: a quality clears it with the
        engine's inclusive ``>=`` exactly when it strictly beats the
        quantile, the Westfall-Young rule.  Thresholding at the quantile
        itself would report every quality-0 pattern on a constant target,
        where every supremum is 0."""
        return float(np.nextafter(self.delta_quantile, np.inf))

    epsilon = threshold

    def to_dict(self) -> dict:
        return {
            "permutations": len(self.deviations),
            "position": self.position,
            "delta_quantile": self.delta_quantile,
        }

    def to_kv_block(self) -> str:
        return "\n".join(f"# {self.key}.{k}={v}" for k, v in sorted(self.to_dict().items()))


def quantile_position(delta: float, p: int) -> int:
    """1-based position ceil(delta * p), nudged so exact products of decimal
    deltas (0.05 * 1000) do not ceil up from float error."""
    return max(1, math.ceil(round(delta * p, 9)))


def estimate_quantile(deviations, delta: float) -> QuantileEstimate:
    """Delta-quantile of a list of supremum deviations: sort descending and
    take the element at 1-based position ceil(delta * len)."""
    order = np.sort(np.asarray(deviations, dtype=np.float64))[::-1]
    pos = quantile_position(delta, len(order))
    return QuantileEstimate(order, float(order[pos - 1]), pos)


def permuted_labels(labels: LabelVector, seed: int, j: int) -> LabelVector:
    """Uniform permutation of the observed labels, keyed on (seed, j).

    The labels are gathered through a permuted index: `permutation(m)`
    makes the swaps `permutation(labels.bits)` makes, on 8-byte items,
    which numpy shuffles faster than single bytes."""
    rng = generator(seed, STREAM_PERMUTE, j)
    return LabelVector(labels.bits[rng.permutation(labels.m)])


def wy_quantile(
    ctx: SearchContext, cfg: RunConfig, plan: PermutationPlan | None = None
) -> QuantileEstimate:
    """The delta-quantile of the supremum deviation over label permutations.

    Permutations preserve the label mean, so deviations are centered at the
    observed mean.  Permutations are searched in chunks, one batched
    traversal per chunk, sized to the search's memory budget.
    """
    plan = plan if plan is not None else PermutationPlan(seed=cfg.seed)
    dataset = ctx.dataset
    mu_d = dataset.mean_target()
    size = ctx.batch_size()
    devs: list[float] = []
    for lo in range(0, plan.p, size):
        chunk = [
            permuted_labels(dataset.target, plan.seed, j)
            for j in range(lo, min(plan.p, lo + size))
        ]
        devs += sup_quality(ctx, chunk, mu_d).suprema
    return estimate_quantile(devs, cfg.delta)


def run_wy(
    dataset: Dataset, cfg: RunConfig, plan: PermutationPlan | None = None
) -> tuple[list[Discovery], QuantileEstimate]:
    """Permutation-quantile discovery: a pattern is significant when its
    quality strictly exceeds the delta-quantile of `wy_quantile`."""
    ctx = SearchContext(dataset, cfg.language)
    quantile = wy_quantile(ctx, cfg, plan)
    return significant_patterns(ctx, quantile), quantile


def ub_report(ctx: SearchContext, cfg: RunConfig) -> BoundReport:
    """The union-bound threshold over distinct projections (no resampling).

    The correction count is the closed-form ceiling on distinct covers of
    conjunctions over continuous columns; categorical columns count as
    continuous there, since each equality can be converted into an interval
    on a real-coded copy of the column.
    """
    dataset = ctx.dataset
    m = dataset.m
    mu_d = dataset.mean_target()
    eps_t = bound_target(Mode.UNCONDITIONAL, mu_d, m, cfg.delta)
    nu_t, nu = variance_bracket(mu_d, eps_t)
    n_hat_log = projection_bound_log(m, dataset.n_features, ctx.cfg.z)
    if n_hat_log < 0:
        # below ln 1 on tiny m the closed form is no ceiling; the language
        # size and the 2^m subsets of the data always bound distinct covers
        n_hat_log = math.log(min(pattern_count(ctx.base, ctx.cfg), 2**m))
    r_hat, d_hat, eps = bound_statistic_ub(n_hat_log, nu_t, nu, m, cfg.delta)
    return BoundReport(
        mode=Mode.UNCONDITIONAL,
        delta=cfg.delta,
        m=m,
        c=0,
        mu_d=mu_d,
        mu_hat=min(1.0, mu_d + eps_t),
        mu_check=max(0.0, mu_d - eps_t),
        eps_t=eps_t,
        sup_freq=ctx.sup_frequency(),
        epsilon=eps,
        nu_t=nu_t,
        nu=nu,
        r_hat=r_hat,
        d_hat=d_hat,
        n_hat_log=n_hat_log,
        n_hat_source="closed_form",
    )


def run_ub(dataset: Dataset, cfg: RunConfig) -> tuple[list[Discovery], BoundReport]:
    """Union-bound discovery: every pattern clearing `ub_report`'s threshold."""
    ctx = SearchContext(dataset, cfg.language)
    report = ub_report(ctx, cfg)
    return significant_patterns(ctx, report), report
