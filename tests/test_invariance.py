"""Relations that the guarantee implies, checked on the whole pipeline.

A pattern's quality depends only on its cover and the labels, and a
resampled label depends only on (seed, draw, row).  A change to the data
that keeps the rows and the set of covers must therefore keep every
method's threshold and the (quality, frequency) multiset of its records,
bit for bit.  The checks use the public API only, with no tolerance.
"""

from dataclasses import replace

import numpy as np
import pytest

from sigmine import Dataset, Kind, LanguageConfig, RunConfig, SearchContext, mine
from sigmine.oracle import generate
from sigmine.report import METHODS
from sigmine.suites import SWEEP_LANGUAGE, SWEEP_SPEC, mushroom_class_spec


def reversed_columns(ds: Dataset) -> Dataset:
    last = ds.n_features - 1
    cat_values = {last - j: values for j, values in ds.cat_values.items()}
    return Dataset(ds.schema[::-1], ds.values[::-1], ds.target, cat_values)


def exp_continuous(ds: Dataset) -> Dataset:
    # a strictly increasing map keeps the order of each column, so the
    # quantile cuts select the same rows
    values = [np.exp(v) if col.kind is Kind.CONTINUOUS else v
              for col, v in zip(ds.schema, ds.values)]
    return Dataset(ds.schema, values, ds.target, ds.cat_values)


RELATIONS = {"reversed_columns": reversed_columns, "exp_continuous": exp_continuous}

INSTANCES = {
    "sweep": (lambda: generate(replace(SWEEP_SPEC, m=500)), SWEEP_LANGUAGE),
    "mushroom": (lambda: generate(mushroom_class_spec()), LanguageConfig(z=2)),
}


def outcome(ds: Dataset, language: LanguageConfig) -> dict:
    """Per method: the threshold, and the sorted (quality, frequency) of the
    records."""
    cfg = RunConfig(language=language, permutations=20)
    ctx = SearchContext(ds, language)
    out = {}
    for method, threshold in METHODS.items():
        found, report = mine(ctx, cfg, threshold)
        out[method] = (report.epsilon, sorted((d.quality, d.frequency) for d in found))
    return out


@pytest.fixture(scope="module")
def base():
    cache = {}

    def get(name):
        if name not in cache:
            make, language = INSTANCES[name]
            ds = make()
            cache[name] = ds, outcome(ds, language)
        return cache[name]

    return get


def test_mushroom_reports_records_for_every_method(base):
    # the relations compare records only where there are some
    _, out = base("mushroom")
    assert all(records for _, records in out.values())


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("instance", INSTANCES)
def test_relation_keeps_thresholds_and_records(instance, relation, base):
    ds, expected = base(instance)
    assert outcome(RELATIONS[relation](ds), INSTANCES[instance][1]) == expected
