import gc
import math

import numpy as np
import pytest

from sigmine import (
    ColumnSchema,
    ConfigError,
    Dataset,
    Form,
    Kind,
    LabelVector,
    LanguageConfig,
    Pattern,
    Selector,
    base_selectors,
    count_distinct_projections,
    evaluate,
    projection_bound_log,
    refine,
)
from sigmine.language import enumerate_patterns, pattern_count
from sigmine.oracle import ContColumn, NullIID, SyntheticSpec, brute_force_qualities, generate

from conftest import binary_dataset


def _cont_dataset(values, labels=None):
    m = len(values)
    labels = labels if labels is not None else [0] * m
    return Dataset(
        [ColumnSchema("x", Kind.CONTINUOUS)],
        [np.asarray(values, dtype=np.float64)],
        LabelVector(np.asarray(labels, dtype=np.uint8)),
    )


def test_base_selectors_categorical():
    ds = binary_dataset([[0, 1, 2, 1]], [0, 0, 1, 1])
    sels = base_selectors(ds, LanguageConfig(z=1))
    assert [s.form for s in sels] == [Form.EQUALS] * 3
    assert [s.a for s in sels] == [0.0, 1.0, 2.0]


def test_base_selectors_median_cut():
    ds = _cont_dataset(list(range(1, 101)))
    cfg = LanguageConfig(z=1, bins=1, forms=frozenset({Form.LESS_THAN, Form.AT_LEAST}))
    sels = base_selectors(ds, cfg)
    # empirical median of 1..100
    assert len(sels) == 2
    assert all(s.a == 50.5 for s in sels)
    assert {s.form for s in sels} == {Form.LESS_THAN, Form.AT_LEAST}


def test_itemset_mode_presence_only():
    ds = binary_dataset([[0, 1, 1], [1, 0, 1]], [0, 1, 1])
    sels = base_selectors(ds, LanguageConfig(z=2, mode="itemset"))
    assert len(sels) == 2
    assert all(s.form is Form.EQUALS for s in sels)
    for s in sels:
        assert ds.decode(s.column, int(s.a)) == "1"


def test_itemset_mode_rejects_continuous():
    ds = _cont_dataset([1.0, 2.0])
    with pytest.raises(ConfigError):
        base_selectors(ds, LanguageConfig(z=1, mode="itemset"))


def test_evaluate_conjunction(fruit):
    red = Pattern.of(Selector(0, Form.EQUALS, 0.0))
    assert evaluate(red, fruit) == 0b101
    both = Pattern.of(Selector(0, Form.EQUALS, 0.0), Selector(1, Form.LESS_THAN, 1.0))
    assert evaluate(both, fruit) == 0b100


def test_child_cover_subset_of_parent():
    ds = generate(SyntheticSpec(25, (ContColumn(), ContColumn()), NullIID(0.5), seed=3))
    cfg = LanguageConfig(z=2, bins=3)
    base = base_selectors(ds, cfg)
    for parent in refine(None, base, cfg):
        pc = evaluate(parent, ds)
        for child in refine(parent, base, cfg):
            cc = evaluate(child, ds)
            assert cc & pc == cc
            assert cc.bit_count() <= pc.bit_count()


def test_refine_counts():
    ds = binary_dataset([[0, 1, 0], [1, 0, 1], [0, 0, 1]], [0, 1, 0])
    cfg = LanguageConfig(z=2)
    base = base_selectors(ds, cfg)  # 2 selectors per column, 3 columns
    roots = refine(None, base, cfg)
    assert len(roots) == 6
    first = Pattern.of(Selector(0, Form.EQUALS, 0.0))
    assert len(refine(first, base, cfg)) == 4  # columns 1 and 2 only
    assert refine(first, base, LanguageConfig(z=1)) == []


def test_enumeration_total_for_single_selector_columns():
    # d columns with one selector each, z=2 -> d + d(d-1)/2 patterns
    ds = binary_dataset([[1, 1, 0]] * 4, [0, 1, 0])
    cfg = LanguageConfig(z=2, mode="itemset")
    base = base_selectors(ds, cfg)
    assert len(base) == 4
    pats = list(enumerate_patterns(base, cfg))
    assert len(pats) == 4 + 4 * 3 // 2
    assert pattern_count(base, cfg) == len(pats)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_nested_loop(seed):
    from sigmine.suites import _random_tiny_instance

    ds, labels, center, cfg = _random_tiny_instance(seed + 500)
    base = base_selectors(ds, cfg)
    mine = {p for p in enumerate_patterns(base, cfg)}
    brute = {p for p, _, _ in brute_force_qualities(ds, labels, center, cfg)}
    assert mine == brute
    assert len(list(enumerate_patterns(base, cfg))) == pattern_count(base, cfg)


def test_pattern_canonicalization():
    s0 = Selector(0, Form.EQUALS, 1.0)
    s1 = Selector(1, Form.EQUALS, 0.0)
    assert Pattern.of(s1, s0) == Pattern.of(s0, s1)
    assert hash(Pattern.of(s1, s0)) == hash(Pattern.of(s0, s1))
    with pytest.raises(ConfigError):
        Pattern.of(s0, Selector(0, Form.EQUALS, 2.0))
    with pytest.raises(ConfigError):
        Selector(0, Form.INTERVAL, 2.0, 1.0)


def test_duplicate_columns_collapse_projections():
    col = [0, 1, 0, 1, 1, 0]
    ds = binary_dataset([col, col], [0, 1, 0, 1, 0, 1])
    n = count_distinct_projections(ds, LanguageConfig(z=1))
    assert n == 2  # both columns project to the same two covers


def test_projection_count_matches_brute_force():
    ds = binary_dataset(
        [[0, 1, 0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 0, 1, 1, 1, 1]],
        [0, 1, 0, 1, 0, 1, 0, 1],
    )
    cfg = LanguageConfig(z=2)
    from sigmine import bitset
    from sigmine.oracle import _selector_flags

    covers = set()
    for p, _, _ in brute_force_qualities(ds, ds.target, 0.0, cfg):
        flags = np.ones(ds.m, dtype=bool)
        for s in p.selectors:
            flags &= _selector_flags(s, ds)
        covers.add(bitset.pack(flags))
    assert count_distinct_projections(ds, cfg) == len(covers)


def test_empty_covers_are_one_projection():
    # codes 0/1 in col0, 2-only rows make (c0=0 AND c1=1) and (c0=1 AND c1=1) empty
    ds = binary_dataset([[0, 0, 1, 1], [0, 0, 0, 0]], [0, 1, 0, 1])
    cfg = LanguageConfig(z=2)
    base = base_selectors(ds, cfg)
    masks = [evaluate(p, ds) for p in enumerate_patterns(base, cfg)]
    assert masks.count(0) >= 0  # no empties here; now force one
    ds2 = binary_dataset([[0, 0, 1, 1], [1, 1, 1, 0]], [0, 1, 0, 1])
    covers = {evaluate(p, ds2) for p in enumerate_patterns(base_selectors(ds2, cfg), cfg)}
    n = count_distinct_projections(ds2, cfg)
    assert n == len(covers)


def test_projection_count_leaves_no_garbage():
    # a recursive closure would be a reference cycle holding every cover seen
    ds = generate(SyntheticSpec(30, (ContColumn(), ContColumn("normal")), NullIID(0.5), seed=3))
    gc.disable()
    try:
        gc.collect()
        assert count_distinct_projections(ds, LanguageConfig(z=2, bins=3)) > 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_projection_bound_examples():
    assert projection_bound_log(2, 1, 1) == pytest.approx(3.0, abs=1e-12)
    assert math.exp(projection_bound_log(2, 1, 1)) == pytest.approx(math.e**3, rel=1e-12)
    assert projection_bound_log(100, 10, 2) == pytest.approx(22.0944, abs=1e-3)


def test_projection_bound_monotone():
    for z in (1, 2, 3):
        prev = -math.inf
        for m in (10, 100, 1000):
            v = projection_bound_log(m, 5, z)
            assert v >= prev
            prev = v
        prev = -math.inf
        for d in (1, 5, 50):
            v = projection_bound_log(100, d, z)
            assert v >= prev
            prev = v


def test_projection_count_below_closed_form_all_continuous():
    for seed in range(4):
        ds = generate(
            SyntheticSpec(12, (ContColumn(), ContColumn("normal")), NullIID(0.5), seed=seed)
        )
        cfg = LanguageConfig(z=2, bins=2)
        n = count_distinct_projections(ds, cfg)
        base = base_selectors(ds, cfg)
        bound = math.exp(projection_bound_log(ds.m, ds.n_features, cfg.z))
        assert n <= min(bound, pattern_count(base, cfg), 2**ds.m)


def test_describe(fruit):
    p = Pattern.of(Selector(0, Form.EQUALS, 0.0), Selector(1, Form.LESS_THAN, 1.0))
    assert p.describe(fruit) == "color=red AND weight<1"
    iv = Pattern.of(Selector(1, Form.INTERVAL, 0.5, 1.5))
    assert "weight in [0.5,1.5)" == iv.describe(fruit)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(st.permutations(list(range(4))))
def test_pattern_order_insensitive_property(order):
    sels = [
        Selector(0, Form.EQUALS, 2.0),
        Selector(1, Form.LESS_THAN, 0.5),
        Selector(2, Form.AT_LEAST, -1.0),
        Selector(3, Form.INTERVAL, 0.0, 2.0),
    ]
    shuffled = Pattern.of(*(sels[i] for i in order))
    canonical = Pattern.of(*sels)
    assert shuffled == canonical
    assert hash(shuffled) == hash(canonical)
    assert shuffled.selectors == tuple(sels)
