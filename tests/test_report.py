import json
import math
import time

import pytest

from sigmine import LanguageConfig, RunConfig, compare_methods, sweep_c
from sigmine.language import Form
from sigmine.oracle import CatColumn, NullIID, SyntheticSpec, generate
from sigmine.report import (
    OutputRecord,
    method_table,
    records_json,
    records_tsv,
)


@pytest.fixture(scope="module")
def ds():
    return generate(
        SyntheticSpec(1500, tuple(CatColumn((0.5, 0.5)) for _ in range(4)), NullIID(0.4), seed=9)
    )


def _cfg(**kw):
    kw.setdefault("language", LanguageConfig(z=2))
    return RunConfig(**kw)


def test_records_tsv_json_same_values():
    recs = [
        OutputRecord(1, "a=1 AND b<2", 0.123456789, 0.5, 0.01, True),
        OutputRecord(2, "c=0", -0.25, 0.25, -0.1, False),
    ]
    tsv = records_tsv(recs)
    js = records_json(recs)
    lines = tsv.splitlines()
    assert lines[0].split("\t") == [
        "rank", "pattern", "quality", "frequency", "threshold_margin", "significant",
    ]
    for line, obj in zip(lines[1:], js):
        rank, pattern, quality, freq, margin, sig = line.split("\t")
        assert int(rank) == obj["rank"]
        assert pattern == obj["pattern"]
        assert float(quality) == obj["quality"]
        assert float(freq) == obj["frequency"]
        assert float(margin) == obj["threshold_margin"]
        assert bool(int(sig)) == obj["significant"]
    json.dumps(js)  # JSON-serializable


def test_forms_named_by_value_hash_and_sweep(ds):
    # forms given by value are the same language: an equal config, and
    # sweep_c gives it the same threshold
    named = _cfg(language=LanguageConfig(z=2, forms=frozenset({"less_than", "equals"})))
    forms = _cfg(language=LanguageConfig(z=2, forms=frozenset({Form.LESS_THAN, Form.EQUALS})))
    assert named.language == forms.language
    assert sweep_c(ds, named, [1]).epsilon(1) == sweep_c(ds, forms, [1]).epsilon(1)


def test_sweep_deterministic_and_monotone_addend(ds):
    cfg = _cfg(seed=21)
    c_values = [1, 4, 16]
    t0 = time.perf_counter()
    a = sweep_c(ds, cfg, c_values)
    elapsed = time.perf_counter() - t0
    # each cell times its own bound computation, within the whole call
    seconds = [s for _, s in a.cells.values()]
    assert all(s > 0 for s in seconds) and sum(seconds) <= elapsed
    b = sweep_c(ds, cfg, c_values)
    for c in c_values:
        assert a.epsilon(c) == b.epsilon(c)
    # the deterministic addend scales exactly as 1/sqrt(c)
    term = lambda c: math.sqrt(math.log(4 / 0.05) / (2 * c * ds.m))
    assert term(1) / term(100) == pytest.approx(10.0, rel=1e-12)


def test_sweep_requires_c_values(ds):
    with pytest.raises(ValueError):
        sweep_c(ds, _cfg(), [])


def test_compare_methods_rows(ds):
    t0 = time.perf_counter()
    rows = compare_methods(ds, _cfg(seed=13), permutations=20)
    elapsed = time.perf_counter() - t0
    methods = [r.method for r in rows]
    assert methods == ["conditional", "unconditional", "wy", "ub"]
    assert all(r.seconds > 0 for r in rows) and sum(r.seconds for r in rows) <= elapsed
    assert all(math.isfinite(r.threshold) for r in rows)
    table = method_table(rows)
    assert "conditional" in table and "ub" in table
    # reproducible thresholds given the seed; each row counts its method's
    # scan, whatever cfg.top_k
    again = compare_methods(ds, _cfg(seed=13, top_k=5, permutations=20))
    assert [(r.threshold, r.outputs) for r in again] == [(r.threshold, r.outputs) for r in rows]


def test_method_table_single_row():
    from sigmine.report import MethodRow

    table = method_table([MethodRow("conditional", 0.05, 3, 1.25)])
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("method")
    assert "conditional" in lines[1]
