"""Test-side ground truth.

Brute-force enumeration that shares nothing with the search engine's code
path (numpy boolean covers, itertools enumeration, no pruning), synthetic
dataset generators with a known generating process, a Monte-Carlo harness
for empirical false-positive-rate and power checks, and the exact
two-distribution coupling check relating permutation nulls to
independent-resample nulls.
"""

from __future__ import annotations

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
# the most rows whose 2^m labelings `coupling_check` enumerates
COUPLING_MAX_ROWS = 20


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

    @property
    def holds(self) -> bool:
        return self.p_cond <= 2.0 * self.p_iid


def coupling_check(m: int, k: int, covers: list, thresholds: list[float]) -> list[CouplingPoint]:
    """Both sides of the permutation-vs-resample tail comparison, exactly.

    For a fixed non-empty family of covers, the tail probability of the
    supremum deviation under exactly-k-ones labels is at most twice the tail
    under i.i.d. Bernoulli(k/m) labels.  Every one of the 2^m labelings is
    enumerated.  With N_j the hitting labelings that have j ones, p_cond is
    N_k / C(m, k) and p_iid is the sum of N_j mu^j (1-mu)^(m-j), mu = k/m.
    """
    if not covers:
        raise OracleError("coupling check needs a non-empty cover family")
    if not 1 <= m <= COUPLING_MAX_ROWS:
        raise OracleError(f"coupling check enumerates 1 to {COUPLING_MAX_ROWS} rows, got m={m}")
    if not 0 <= k <= m:
        raise OracleError(f"k must lie in [0, m], got k={k} for m={m}")
    covers = [np.asarray(c, dtype=bool) for c in covers]
    if any(cover.shape != (m,) for cover in covers):
        raise OracleError(f"each cover needs one flag per row, m={m}")
    mu_bar = k / m
    half = m // 2
    bits = [(np.arange(2**n)[:, None] >> np.arange(n)) & 1 for n in (half, m - half)]

    def ones(rows: np.ndarray) -> np.ndarray:
        """The ones on `rows` of each labeling, indexed by its (first-half
        bits, second-half bits): an outer sum of one uint8 table per half."""
        lo, hi = (b @ r for b, r in zip(bits, (rows[:half], rows[half:])))
        return np.add.outer(lo.astype(np.uint8), hi.astype(np.uint8))

    total = ones(np.ones(m, dtype=bool))
    out = []
    for z in thresholds:
        hit = np.zeros(total.shape, dtype=bool)
        for cover in covers:
            n = int(cover.sum())
            # the counts of ones in the cover whose deviation reaches z
            reach = [x for x in range(n + 1) if (x - mu_bar * n) / m >= z]
            if reach:  # one cover's table at a time keeps the peak near 4 MiB at m=20
                hit |= ones(cover) >= reach[0]
        counts = [int(np.count_nonzero(hit & (total == j))) for j in range(m + 1)]
        p_iid = math.fsum(
            n_j * mu_bar**j * (1.0 - mu_bar) ** (m - j) for j, n_j in enumerate(counts)
        )
        out.append(CouplingPoint(z, counts[k] / math.comb(m, k), p_iid))
    return out
