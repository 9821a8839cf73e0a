"""Quality statistics for patterns.

The centered quality of a pattern with cover C against labels l and a center
mu0 is (1/m) * sum_{i in C} (l_i - mu0).  With mu0 equal to the observed
label mean this is the usual 1-quality; with a shifted center it is the
statistic the resampling pipeline maximizes.  Counts are accumulated as
integers before the single multiply/divide so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelVector
from .language import Cover


@dataclass(frozen=True)
class QualityStat:
    value: float
    frequency: float
    positives: int


def centered_quality(pos, n, center: float, m: int):
    """(pos - n*center)/m: the centered quality of n rows, pos of them positive."""
    return (pos - n * center) / m


def quality_estimate(pos, center: float, m: int):
    """(pos - pos*center)/m: the best centered quality of a subset of rows
    holding pos positives.  In this form it dominates every subset's
    computed quality (pos' - n'*center)/m, not just the exact one:
    pos'*center <= n'*center survives rounding, and pos - round(pos*center)
    does not decrease with pos while 1 - center exceeds m * 2**-52 or center
    is 1.  pos*(1-center)/m could fall one ulp below a pure subset, so a
    search pruning on it could lose a maximum that ties the bound."""
    return (pos - pos * center) / m


def cover_counts(cover: Cover, labels: LabelVector) -> tuple[int, int]:
    """|cover| and the positives in it.  Anything but a bool array of the
    labels' length is refused: numpy would read a 0/1 integer array as
    indices, and an int as a scalar, and count wrong."""
    if not (isinstance(cover, np.ndarray) and cover.dtype == bool and cover.shape == (labels.m,)):
        raise ValueError(f"a cover must be a bool array of length {labels.m}")
    return int(np.count_nonzero(cover)), int(np.count_nonzero(labels.bits[cover]))


def empirical_quality(cover: Cover, labels: LabelVector, center: float) -> QualityStat:
    """Centered quality of one cover: value = (positives - |cover|*center)/m."""
    n, pos = cover_counts(cover, labels)
    m = labels.m
    return QualityStat(centered_quality(pos, n, center, m), n / m, pos)

