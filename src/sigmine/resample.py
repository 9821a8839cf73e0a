"""Resampled label vectors and the average maximum deviation.

Labels are drawn with a counter-based generator (Philox) keyed on
(seed, stream, j): any resample is computable independently of the others,
so entry (i, j) never depends on how many resamples were requested.
Bernoulli bits come from thresholding uniforms (bit = u < p), which couples
vectors monotonically in p: raising p can only turn 0s into 1s for the same
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelVector
from .errors import ConfigError
from .search import SearchContext, sup_quality

# stream tags keep resampling, permutation and synthesis decorrelated
# even when a run reuses one seed for all three
STREAM_RESAMPLE = 1
STREAM_PERMUTE = 2
STREAM_SYNTH = 3

_MASK64 = (1 << 64) - 1


def generator(seed: int, stream: int, j: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream, j) cell."""
    if not 0 <= j < (1 << 32):
        raise ConfigError("stream index out of range")
    key = np.array([seed & _MASK64, ((stream & 0xFFFFFFFF) << 32) | j], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def bernoulli_labels(m: int, p: float, seed: int, j: int) -> LabelVector:
    """One resampled label vector: entry i is 1 iff u_{i,j} < p."""
    u = generator(seed, STREAM_RESAMPLE, j).random(m)
    return LabelVector((u < p).astype(np.uint8))


@dataclass(frozen=True)
class ResamplePlan:
    """How many label resamples to draw, at which Bernoulli rate, which seed."""

    c: int
    p: float
    seed: int

    def __post_init__(self):
        if self.c < 1:
            raise ConfigError("resample count c must be >= 1")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("Bernoulli rate must lie in [0, 1]")


@dataclass
class DeviationEstimate:
    """Per-resample suprema d_j and their mean."""

    d: list[float]
    d_tilde: float


def resample_target(dataset: Dataset, plan: ResamplePlan) -> list[LabelVector]:
    """c label vectors of length m, fully determined by (plan.seed, j, i)."""
    return [bernoulli_labels(dataset.m, plan.p, plan.seed, j) for j in range(plan.c)]


def estimate_deviation(
    ctx: SearchContext, resamples: list[LabelVector], center: float
) -> DeviationEstimate:
    """d_j = sup quality of resample j at the given center; d_tilde = mean.

    One batched search serves all resamples (split only when c exceeds the
    search's memory budget); each d_j equals a search of resample j alone.
    The mean uses compensated summation so d_tilde is exactly (1/c) sum d_j.
    """
    size = ctx.batch_size()
    d: list[float] = []
    for lo in range(0, len(resamples), size):
        d += sup_quality(ctx, resamples[lo : lo + size], center).suprema
    return DeviationEstimate(d, math.fsum(d) / len(d))
