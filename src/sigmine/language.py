"""Pattern languages: subgroup conjunctions and itemsets.

A pattern is a conjunction of at most z selectors, at most one per column,
kept in canonical order so that equal patterns compare and hash equal.  The
searches expand a pattern only with selectors on strictly larger column
indices, so they generate every pattern of the language exactly once.

A pattern's cover, the set of transactions it holds on, is a bool array of
length m (`Cover`); the searches keep covers packed (`sigmine.bitset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, Kind
from .errors import ConfigError, integer

Cover = np.ndarray  # bool array of length m: True where the pattern holds


class Form(str, Enum):
    EQUALS = "equals"
    LESS_THAN = "less_than"
    AT_LEAST = "at_least"
    INTERVAL = "interval"


_FORM_RANK = {Form.EQUALS: 0, Form.LESS_THAN: 1, Form.AT_LEAST: 2, Form.INTERVAL: 3}


@dataclass(frozen=True)
class Selector:
    """One condition on one column; `describe` prints cuts lossless (repr).

    equals carries a categorical code in `a`; less_than / at_least carry the
    threshold in `a`; interval is the half-open [a, b).
    """

    column: int
    form: Form
    a: float
    b: float = math.inf

    def __post_init__(self):
        if self.form is Form.INTERVAL and not self.a < self.b:
            raise ConfigError(f"interval needs lo < hi, got [{self.a}, {self.b})")

    def sort_key(self):
        return (self.column, _FORM_RANK[self.form], self.a, self.b)

    def holds(self, value: float) -> bool:
        """Evaluate against a raw cell (code or continuous value), or
        elementwise against an array of cells, giving a boolean array."""
        if self.form is Form.EQUALS:
            return value == self.a
        if self.form is Form.LESS_THAN:
            return value < self.a
        if self.form is Form.AT_LEAST:
            return value >= self.a
        return (self.a <= value) & (value < self.b)

    def describe(self, dataset: Dataset | None = None) -> str:
        name = dataset.schema[self.column].name if dataset else f"c{self.column}"
        if self.form is Form.EQUALS:
            val = dataset.decode(self.column, int(self.a)) if dataset else str(int(self.a))
            return f"{name}={val}"
        if self.form is Form.LESS_THAN:
            return f"{name}<{float(self.a)!r}"
        if self.form is Form.AT_LEAST:
            return f"{name}>={float(self.a)!r}"
        return f"{name} in [{float(self.a)!r},{float(self.b)!r})"


@dataclass(frozen=True)
class Pattern:
    """Canonical conjunction of 1..z selectors, one column each."""

    selectors: tuple[Selector, ...]

    @staticmethod
    def of(*selectors: Selector) -> "Pattern":
        sels = tuple(sorted(selectors, key=Selector.sort_key))
        if not sels:
            raise ConfigError("patterns must have at least one selector")
        cols = [s.column for s in sels]
        if len(set(cols)) != len(cols):
            raise ConfigError("at most one selector per column")
        return Pattern(sels)

    def __len__(self) -> int:
        return len(self.selectors)

    def describe(self, dataset: Dataset | None = None) -> str:
        return " AND ".join(s.describe(dataset) for s in self.selectors)


@dataclass(frozen=True)
class LanguageConfig:
    """Shape of the search language.

    bins is the number of quantile cut points per continuous column
    (cuts at the empirical q_{i/(bins+1)}, i = 1..bins); interval selectors,
    when enabled, are the windows between consecutive cut points.  `forms`
    may name forms by value ("less_than"); they are kept as `Form` members.
    """

    z: int = 2
    bins: int = 5
    forms: frozenset[Form] = frozenset({Form.EQUALS, Form.LESS_THAN, Form.AT_LEAST})
    mode: str = "subgroup"  # or "itemset"

    def __post_init__(self):
        if integer(self, "z") < 1:
            raise ConfigError("z must be >= 1", "z")
        if integer(self, "bins") < 1:
            raise ConfigError("bins must be >= 1", "bins")
        if self.mode not in ("subgroup", "itemset"):
            raise ConfigError(f"unknown language mode {self.mode!r}", "mode")
        forms = set()
        for form in sorted(self.forms, key=str):
            try:
                forms.add(Form(form))
            except ValueError:
                raise ConfigError(f"unknown form {form!r}", "forms") from None
        object.__setattr__(self, "forms", frozenset(forms))


def base_selectors(dataset: Dataset, cfg: LanguageConfig) -> list[Selector]:
    """The finite search alphabet, in canonical (column, form, value) order.

    Categorical columns contribute one equals-selector per observed code;
    continuous columns contribute the enabled numeric forms at empirical
    quantile cuts.  Itemset mode keeps only value-1 presence on binary
    columns.
    """
    out: list[Selector] = []
    for j, col in enumerate(dataset.schema):
        if cfg.mode == "itemset":
            if col.kind is not Kind.CATEGORICAL:
                raise ConfigError(f"itemset mode requires categorical columns, '{col.name}' is not")
            raw = dataset.cat_values.get(j, [])
            if not set(raw) <= {"0", "1"}:
                raise ConfigError(f"itemset mode requires binary 0/1 columns, '{col.name}' is not")
            if "1" in raw:
                out.append(Selector(j, Form.EQUALS, float(raw.index("1"))))
            continue
        if col.kind is Kind.CATEGORICAL:
            if Form.EQUALS in cfg.forms:
                out.extend(Selector(j, Form.EQUALS, float(c)) for c in _distinct(dataset.values[j]))
        else:
            cuts = _quantile_cuts(dataset.values[j], cfg.bins)
            if Form.LESS_THAN in cfg.forms:
                out.extend(Selector(j, Form.LESS_THAN, c) for c in cuts)
            if Form.AT_LEAST in cfg.forms:
                out.extend(Selector(j, Form.AT_LEAST, c) for c in cuts)
            if Form.INTERVAL in cfg.forms:  # cuts strictly increase
                out.extend(Selector(j, Form.INTERVAL, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return sorted(out, key=Selector.sort_key)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a non-empty array, ascending: the same array
    as `np.unique`, from a sort and a comparison of neighbours."""
    codes = np.sort(codes)
    return codes[np.concatenate(([True], codes[1:] != codes[:-1]))]


def _quantile_cuts(values: np.ndarray, bins: int) -> list[float]:
    qs = [(i + 1) / (bins + 1) for i in range(bins)]
    cuts = np.quantile(values, qs)
    out: list[float] = []
    for c in cuts:  # duplicate cuts on tied data collapse to one selector
        c = float(c)
        if not out or c > out[-1]:
            out.append(c)
    return out


def selector_flags(sel: Selector, dataset: Dataset) -> np.ndarray:
    """Boolean array over the transactions: True where `sel` holds."""
    return sel.holds(dataset.values[sel.column])


def evaluate(pattern: Pattern, dataset: Dataset) -> Cover:
    """The pattern's cover: True where every selector holds (conjunction)."""
    cover = np.ones(dataset.m, dtype=bool)
    for sel in pattern.selectors:
        cover &= selector_flags(sel, dataset)
    return cover


def pattern_count(base: list[Selector], cfg: LanguageConfig) -> int:
    """Exact size of the language (sum of elementary symmetric products)."""
    per_column: dict[int, int] = {}
    for s in base:
        per_column[s.column] = per_column.get(s.column, 0) + 1
    counts = list(per_column.values())
    # e[k] = sum over k-subsets of columns of the product of their selector counts
    e = [1] + [0] * cfg.z
    for n in counts:
        for k in range(min(cfg.z, len(counts)), 0, -1):
            e[k] += e[k - 1] * n
    return sum(e[1:])


def projection_bound_log(m: int, d_cont: int, z: int) -> float:
    """ln of the closed-form ceiling on distinct projections.

    For conjunctions of at most z conditions over d continuous columns the
    number of distinct covers is at most (e^3 * d * m^2 / (4 z^3))^z; the
    log form never overflows and is all the correction-count consumer needs.
    """
    if m < 1 or d_cont < 1 or z < 1:
        raise ConfigError("m, d_cont and z must all be >= 1")
    return z * (3.0 + math.log(d_cont * float(m) * float(m) / (4.0 * z**3)))
