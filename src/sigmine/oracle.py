"""Test-side ground truth.

Brute-force enumeration that shares nothing with the search engine's code
path (numpy boolean covers, itertools enumeration, no pruning), synthetic
dataset generators with a known generating process, a Monte-Carlo harness
for empirical false-positive-rate and power checks, and the two-distribution
coupling check relating permutation nulls to independent-resample nulls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Callable

import numpy as np

from .data import ColumnSchema, Dataset, Kind, LabelVector
from .discovery import Discovery
from .errors import OracleError
from .language import (
    Form,
    LanguageConfig,
    Pattern,
    Selector,
    base_selectors,
    pattern_count,
)
from .resample import STREAM_SYNTH, generator

BRUTE_FORCE_GUARD = 10**6
# samples `coupling_check` draws and holds at once
COUPLING_CHUNK = 4096


# ---------------------------------------------------------------------------
# Synthetic data with a known generating process
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatColumn:
    """Categorical column sampled from the given value probabilities."""

    probs: tuple[float, ...]


@dataclass(frozen=True)
class ContColumn:
    """Continuous column: uniform on [0,1) or standard normal."""

    dist: str = "uniform"


@dataclass(frozen=True)
class NullIID:
    """Labels i.i.d. Bernoulli(mu), independent of features."""

    mu: float


@dataclass(frozen=True)
class NullConditional:
    """Exactly k ones placed uniformly at random (permutation null)."""

    k: int


@dataclass(frozen=True)
class Planted:
    """Labels Bernoulli(p_in) on the planted selector's cover, p_out off it."""

    selector: Selector
    p_in: float
    p_out: float


@dataclass(frozen=True)
class SyntheticSpec:
    m: int
    columns: tuple
    target_rule: object
    seed: int = 0


def generate(spec: SyntheticSpec) -> Dataset:
    """Deterministic dataset for a spec; features first, then labels, each
    drawn a whole column at a time (a planted selector is evaluated on its
    whole column).

    Under either null rule the labels carry no information about any
    feature, so every pattern of every language has true quality zero.
    """
    rng = generator(spec.seed, STREAM_SYNTH, 0)
    schema: list[ColumnSchema] = []
    values: list[np.ndarray] = []
    cat_values: dict[int, list[str]] = {}
    for j, col in enumerate(spec.columns):
        if isinstance(col, CatColumn):
            codes = rng.choice(len(col.probs), size=spec.m, p=np.asarray(col.probs))
            schema.append(ColumnSchema(f"c{j}", Kind.CATEGORICAL))
            values.append(codes.astype(np.int32))
            cat_values[j] = [str(v) for v in range(len(col.probs))]
        elif isinstance(col, ContColumn):
            arr = rng.random(spec.m) if col.dist == "uniform" else rng.normal(size=spec.m)
            schema.append(ColumnSchema(f"c{j}", Kind.CONTINUOUS))
            values.append(arr)
        else:
            raise OracleError(f"unknown column spec {col!r}")

    rule = spec.target_rule
    if isinstance(rule, NullIID):
        bits = (rng.random(spec.m) < rule.mu).astype(np.uint8)
    elif isinstance(rule, NullConditional):
        fixed = np.zeros(spec.m, dtype=np.uint8)
        fixed[: rule.k] = 1
        bits = rng.permutation(fixed)
    elif isinstance(rule, Planted):
        sel = rule.selector
        p = np.where(sel.holds(values[sel.column]), rule.p_in, rule.p_out)
        bits = (rng.random(spec.m) < p).astype(np.uint8)
    else:
        raise OracleError(f"unknown target rule {rule!r}")
    return Dataset(schema, values, LabelVector(bits), cat_values)


# ---------------------------------------------------------------------------
# Brute-force enumeration (independent of the search engine)
# ---------------------------------------------------------------------------


def _selector_flags(sel: Selector, dataset: Dataset) -> np.ndarray:
    arr = dataset.values[sel.column]
    if sel.form is Form.EQUALS:
        return arr == int(sel.a)
    if sel.form is Form.LESS_THAN:
        return arr < sel.a
    if sel.form is Form.AT_LEAST:
        return arr >= sel.a
    return (arr >= sel.a) & (arr < sel.b)


def brute_force_qualities(
    dataset: Dataset,
    labels: LabelVector,
    center: float,
    cfg: LanguageConfig,
    guard: int = BRUTE_FORCE_GUARD,
) -> list[tuple[Pattern, float, tuple[int, ...]]]:
    """Every pattern with its centered quality and canonical index tuple.

    Enumerates column subsets with itertools and evaluates covers as numpy
    boolean arrays; the index tuple (positions in the base-selector list)
    orders patterns exactly as the engine's canonical DFS preorder does
    (lexicographically, prefixes first).
    """
    base = base_selectors(dataset, cfg)
    if pattern_count(base, cfg) > guard:
        raise OracleError("language too large for brute-force enumeration")
    by_column: dict[int, list[tuple[int, Selector]]] = {}
    for idx, sel in enumerate(base):
        by_column.setdefault(sel.column, []).append((idx, sel))
    columns = sorted(by_column)
    flags = {idx: _selector_flags(sel, dataset) for idx, sel in enumerate(base)}
    bits = labels.bits
    m = dataset.m

    out = []
    for r in range(1, cfg.z + 1):
        for cols in combinations(columns, r):
            for combo in product(*(by_column[c] for c in cols)):
                mask = flags[combo[0][0]].copy()
                for idx, _ in combo[1:]:
                    mask &= flags[idx]
                n = int(mask.sum())
                pos = int(bits[mask].sum())
                value = (pos - n * center) / m
                pattern = Pattern(tuple(sel for _, sel in combo))
                out.append((pattern, value, tuple(idx for idx, _ in combo)))
    return out


def brute_force_sup(
    dataset: Dataset, labels: LabelVector, center: float, cfg: LanguageConfig
) -> float:
    """Unpruned maximum of the centered quality over the whole language."""
    rows = brute_force_qualities(dataset, labels, center, cfg)
    if not rows:
        raise OracleError("empty language")
    return max(value for _, value, _ in rows)


def brute_force_top_k(
    dataset: Dataset, labels: LabelVector, center: float, cfg: LanguageConfig, k: int
) -> list[tuple[Pattern, float]]:
    """Top-k by quality with canonical-order tie-breaking, via full sort."""
    rows = brute_force_qualities(dataset, labels, center, cfg)
    rows.sort(key=lambda t: (-t[1], t[2]))
    return [(p, v) for p, v, _ in rows[:k]]


# ---------------------------------------------------------------------------
# Monte-Carlo harness
# ---------------------------------------------------------------------------


@dataclass
class TrialSummary:
    trials: int
    rejections: int
    empirical_fwer: float
    planted_hits: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "trials": self.trials,
                "rejections": self.rejections,
                "empirical_fwer": self.empirical_fwer,
                "planted_hits": self.planted_hits,
            },
            sort_keys=True,
        )


def fwer_band(delta: float, trials: int) -> float:
    """Acceptance ceiling delta + 3 * sqrt(delta (1-delta) / trials)."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def monte_carlo(
    spec: SyntheticSpec,
    runner: Callable[[Dataset, int], list[Discovery]],
    trials: int,
    base_seed: int,
) -> TrialSummary:
    """Repeated generate-and-run cycles with derived seeds.

    `runner` maps (dataset, seed) to the output set of the method under
    test.  Under a null rule every reported pattern is a false discovery, so
    the rejection fraction estimates the family-wise error rate; under a
    planted rule `planted_hits` counts trials that recover the planted
    selector.
    """
    rejections = 0
    planted_hits = 0
    planted = (
        Pattern((spec.target_rule.selector,))
        if isinstance(spec.target_rule, Planted)
        else None
    )
    for t in range(trials):
        seed = base_seed + t
        ds = generate(replace(spec, seed=seed))
        found = runner(ds, seed)
        if found:
            rejections += 1
        if planted is not None and any(d.pattern == planted for d in found):
            planted_hits += 1
    return TrialSummary(trials, rejections, rejections / trials, planted_hits)


# ---------------------------------------------------------------------------
# Coupling between the permutation null and the independent-resample null
# ---------------------------------------------------------------------------


@dataclass
class CouplingPoint:
    threshold: float
    p_cond: float
    p_iid: float
    slack: float  # 3-sigma Monte-Carlo slack on p_cond - 2 p_iid

    @property
    def holds(self) -> bool:
        return self.p_cond <= 2.0 * self.p_iid + self.slack


def coupling_check(
    m: int,
    k: int,
    covers: list,
    thresholds: list[float],
    samples: int,
    seed: int = 0,
) -> list[CouplingPoint]:
    """Estimate both sides of the permutation-vs-resample tail comparison.

    For a fixed non-empty family of covers, the tail probability of the
    supremum deviation under exactly-k-ones permutations is at most twice
    the tail under i.i.d. Bernoulli(k/m) labels.  Both tails are estimated
    on `samples` vectors each and compared with a 3-sigma slack.
    """
    if not covers:
        raise OracleError("coupling check needs a non-empty cover family")
    if samples < 1:
        raise OracleError("samples must be >= 1")
    cover_mat = np.stack([np.asarray(c, dtype=bool) for c in covers]).astype(np.float64)
    sizes = cover_mat.sum(axis=1)
    mu_bar = k / m
    rng = generator(seed, STREAM_SYNTH, 1)
    zs = np.asarray(thresholds, dtype=np.float64)

    def tails(vectors) -> np.ndarray:
        """Per threshold, how many of the samples' suprema reach it; the
        samples are drawn COUPLING_CHUNK rows at a time, in stream order."""
        hits = np.zeros(len(zs), dtype=np.int64)
        for lo in range(0, samples, COUPLING_CHUNK):
            v = vectors(min(COUPLING_CHUNK, samples - lo))
            sup = ((v @ cover_mat.T - mu_bar * sizes) / m).max(axis=1)
            hits += (sup[:, None] >= zs).sum(axis=0)
        return hits

    def exactly_k(n: int) -> np.ndarray:
        # the k smallest of m uniform keys per row
        ranks = np.argsort(rng.random((n, m)), axis=1)
        v = np.zeros((n, m), dtype=np.float64)
        np.put_along_axis(v, ranks[:, :k], 1.0, axis=1)
        return v

    # every permutation key is drawn before the first i.i.d. vector
    cond = tails(exactly_k)
    iid = tails(lambda n: (rng.random((n, m)) < mu_bar).astype(np.float64))
    out = []
    for z, n_cond, n_iid in zip(thresholds, cond.tolist(), iid.tolist()):
        p_cond, p_iid = n_cond / samples, n_iid / samples
        var = p_cond * (1 - p_cond) / samples + 4.0 * p_iid * (1 - p_iid) / samples
        out.append(CouplingPoint(z, p_cond, p_iid, 3.0 * math.sqrt(var)))
    return out
