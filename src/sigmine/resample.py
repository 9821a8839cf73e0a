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
from collections.abc import Iterable, Iterator
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

# cells j of one (seed, stream): j fills the low 32 bits of the Philox key,
# so no run may ask for more resamples or permutations than this
MAX_DRAWS = 1 << 32


def generator(seed: int, stream: int, j: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream, j) cell."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}", "seed")
    if not 0 <= j < MAX_DRAWS:
        raise ConfigError("stream index out of range", "j")
    key = np.array([seed, ((stream & 0xFFFFFFFF) << 32) | j], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def bernoulli_labels(m: int, p: float, seed: int, j: int) -> LabelVector:
    """One resampled label vector: entry i is 1 iff u_{i,j} < p."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("Bernoulli rate must lie in [0, 1]", "p")
    u = generator(seed, STREAM_RESAMPLE, j).random(m)
    return LabelVector((u < p).astype(np.uint8))


@dataclass
class DeviationEstimate:
    """Per-resample suprema d_j and their mean."""

    d: list[float]
    d_tilde: float


def resample_target(dataset: Dataset, c: int, p: float, seed: int) -> Iterator[LabelVector]:
    """c label vectors of length m at rate p, fully determined by (seed, j, i)
    and drawn as they are read."""
    return (bernoulli_labels(dataset.m, p, seed, j) for j in range(c))


def estimate_deviation(
    ctx: SearchContext, resamples: Iterable[LabelVector], center: float
) -> DeviationEstimate:
    """d_j = sup quality of resample j at the given center; d_tilde = mean.

    One batched search serves all resamples, `ctx.batch_size()` at a time
    (`sup_quality`); each d_j equals a search of resample j alone.  A stream
    of resamples is drawn as it is read, so only one chunk of them is held,
    whatever c.  The mean uses compensated summation so d_tilde is exactly
    (1/c) sum d_j.
    """
    d = sup_quality(ctx, resamples, center).suprema
    return DeviationEstimate(d, math.fsum(d) / len(d))
