"""Quality statistics for patterns.

The centered quality of a pattern with cover C against labels l and a center
mu0 is (1/m) * sum_{i in C} (l_i - mu0).  With mu0 equal to the observed
label mean this is the usual 1-quality; with a shifted center it is the
statistic the resampling pipeline maximizes.  Counts are accumulated as
integers before the single multiply/divide so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import LabelVector
from .language import Cover


@dataclass(frozen=True)
class QualityStat:
    value: float
    frequency: float
    positives: int


def empirical_quality(cover: Cover, labels: LabelVector, center: float) -> QualityStat:
    """Centered quality of one cover: value = (positives - |cover|*center)/m."""
    n = cover.bit_count()
    pos = (cover & labels.mask).bit_count()
    m = labels.m
    return QualityStat((pos - n * center) / m, n / m, pos)

