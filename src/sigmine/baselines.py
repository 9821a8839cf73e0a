"""Comparison methods: permutation-quantile testing and the
distinct-projection union-bound correction.

The permutation variant estimates the delta-quantile of the supremum
deviation over label permutations (conditional semantics: every permuted
vector keeps the observed number of 1-labels) and thresholds observed
qualities at that quantile.  The union-bound variant replaces the resample
estimate with an analytic correction over the number of distinct covers the
language can realize on the data; it draws no random bits at all.

`wy_quantile` and `ub_report` are thresholds for `discovery.mine`: they take
a `SearchContext`, read the dataset and the language from it and the
permutation count and seed from the `RunConfig`, and return a report with an
`epsilon` and an `eps_t`.  `run_wy` and `run_ub` run `mine` with them on a
fresh context of a dataset.
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
    kv_block,
    variance_bracket,
)
from .data import Dataset, LabelVector
# bench/layers.py wraps significant_patterns at this name
from .discovery import Discovery, RunConfig, mine, significant_patterns  # noqa: F401
from .language import pattern_count, projection_bound_log
from .resample import STREAM_PERMUTE, generator
from .search import SearchContext, sup_quality


@dataclass(frozen=True)
class QuantileEstimate:
    """Supremum deviations over all permutations, sorted descending, and the
    delta-quantile: the ceil(delta * p)-th largest (1-based position).  The
    WY method's report, with an `epsilon` and an `eps_t` of 0."""

    deviations: np.ndarray
    delta_quantile: float
    position: int

    key = "quantile"
    eps_t = 0.0

    @property
    def epsilon(self) -> float:
        """The least float above the quantile: a quality clears it with the
        engine's inclusive ``>=`` exactly when it strictly beats the
        quantile, the Westfall-Young rule.  Thresholding at the quantile
        itself would report every quality-0 pattern on a constant target,
        where every supremum is 0."""
        return float(np.nextafter(self.delta_quantile, np.inf))

    def to_dict(self) -> dict:
        return {
            "permutations": len(self.deviations),
            "position": self.position,
            "delta_quantile": self.delta_quantile,
        }

    def to_kv_block(self) -> str:
        return kv_block(self.to_dict(), f"{self.key}.")


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


def wy_quantile(ctx: SearchContext, cfg: RunConfig) -> QuantileEstimate:
    """The delta-quantile of the supremum deviation over `cfg.permutations`
    label permutations, keyed on `cfg.seed`.

    Permutations preserve the label mean, so deviations are centered at the
    observed mean.  Permutations are drawn as `sup_quality` reads them, so
    only one chunk of them, one batched traversal, is held at a time.
    """
    dataset = ctx.dataset
    perms = (permuted_labels(dataset.target, cfg.seed, j) for j in range(cfg.permutations))
    return estimate_quantile(sup_quality(ctx, perms, dataset.mean_target()).suprema, cfg.delta)


def run_wy(dataset: Dataset, cfg: RunConfig) -> tuple[list[Discovery], QuantileEstimate]:
    """Permutation-quantile discovery, `mine` at the threshold of
    `wy_quantile`: a pattern is significant when its quality strictly
    exceeds the delta-quantile."""
    return mine(SearchContext(dataset, cfg.language), cfg, wy_quantile)


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
    n_hat_source = "closed_form"
    if n_hat_log < 0:
        # below ln 1 on tiny m the closed form is no ceiling; the language
        # size and the 2^m subsets of the data always bound distinct covers
        n_hat_log = math.log(min(pattern_count(ctx.base, ctx.cfg), 2**m))
        n_hat_source = "language_or_subsets"
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
        n_hat_source=n_hat_source,
    )


def run_ub(dataset: Dataset, cfg: RunConfig) -> tuple[list[Discovery], BoundReport]:
    """Union-bound discovery: `mine` at the threshold of `ub_report`."""
    return mine(SearchContext(dataset, cfg.language), cfg, ub_report)
