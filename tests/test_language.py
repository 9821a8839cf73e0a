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
    evaluate,
    projection_bound_log,
)
from sigmine.language import _distinct, pattern_count
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


@pytest.mark.parametrize(
    "codes",
    [
        [-3, 7, -3, 0, -(2**31), 2**31 - 1, 7],  # negative, extreme
        [10**9, 5, 10**9, 123456, 5],  # sparse
        [4, 4, 4],  # one value
        [2],
    ],
)
def test_distinct_codes_match_unique(codes):
    # the categorical codes of base_selectors: sort, then keep each value
    # that differs from its neighbour; the same array np.unique gives
    arr = np.asarray(codes, dtype=np.int32)
    got = _distinct(arr)
    assert got.dtype == np.int32
    assert got.tolist() == np.unique(arr).tolist()
    schema = [ColumnSchema("c", Kind.CATEGORICAL)]
    ds = Dataset(schema, [arr], LabelVector(np.zeros(len(arr), dtype=np.uint8)))
    sels = base_selectors(ds, LanguageConfig(z=1))
    assert [s.a for s in sels] == [float(c) for c in np.unique(arr)]


def test_base_selectors_median_cut():
    ds = _cont_dataset(list(range(1, 101)))
    cfg = LanguageConfig(z=1, bins=1, forms=frozenset({Form.LESS_THAN, Form.AT_LEAST}))
    sels = base_selectors(ds, cfg)
    # empirical median of 1..100
    assert len(sels) == 2
    assert all(s.a == 50.5 for s in sels)
    assert {s.form for s in sels} == {Form.LESS_THAN, Form.AT_LEAST}


def test_tied_cuts_collapse_to_one_selector():
    # quantiles at 1/6 .. 5/6 of six 0s and four 1s: cuts 0, 0, 0, 1, 1
    ds = _cont_dataset([0.0] * 6 + [1.0] * 4)
    cfg = LanguageConfig(z=1, bins=5, forms=frozenset(Form))
    sels = base_selectors(ds, cfg)
    assert [(s.form, s.a, s.b) for s in sels] == [
        (Form.LESS_THAN, 0.0, math.inf),
        (Form.LESS_THAN, 1.0, math.inf),
        (Form.AT_LEAST, 0.0, math.inf),
        (Form.AT_LEAST, 1.0, math.inf),
        (Form.INTERVAL, 0.0, 1.0),
    ]


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


def test_itemset_mode_rejects_non_binary_categories():
    ds = binary_dataset([[0, 1, 2]], [0, 1, 1])
    with pytest.raises(ConfigError, match="requires binary 0/1 columns, 'b0' is not"):
        base_selectors(ds, LanguageConfig(z=1, mode="itemset"))


def test_pattern_needs_a_selector():
    with pytest.raises(ConfigError, match="patterns must have at least one selector"):
        Pattern.of()


def test_evaluate_conjunction(fruit):
    red = Pattern.of(Selector(0, Form.EQUALS, 0.0))
    assert evaluate(red, fruit).tolist() == [True, False, True]
    both = Pattern.of(Selector(0, Form.EQUALS, 0.0), Selector(1, Form.LESS_THAN, 1.0))
    assert evaluate(both, fruit).tolist() == [False, False, True]


def test_child_cover_subset_of_parent():
    ds = generate(SyntheticSpec(25, (ContColumn(), ContColumn()), NullIID(0.5), seed=3))
    cfg = LanguageConfig(z=2, bins=3)
    for child, _, _ in brute_force_qualities(ds, ds.target, 0.5, cfg):
        cc = evaluate(child, ds)
        for sel in child.selectors:
            pc = evaluate(Pattern((sel,)), ds)
            assert np.array_equal(cc & pc, cc)
            assert cc.sum() <= pc.sum()


def test_enumeration_total_for_single_selector_columns():
    # d columns with one selector each, z=2 -> d + d(d-1)/2 patterns
    ds = binary_dataset([[1, 1, 0]] * 4, [0, 1, 0])
    cfg = LanguageConfig(z=2, mode="itemset")
    base = base_selectors(ds, cfg)
    assert len(base) == 4
    assert pattern_count(base, cfg) == 4 + 4 * 3 // 2
    assert len(brute_force_qualities(ds, ds.target, 0.5, cfg)) == pattern_count(base, cfg)


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_nested_loop(seed):
    # the closed-form language size against the oracle's nested loop
    from sigmine.suites import _random_tiny_instance

    ds, labels, center, cfg = _random_tiny_instance(seed + 500)
    rows = brute_force_qualities(ds, labels, center, cfg)
    assert len({p for p, _, _ in rows}) == len(rows)
    assert len(rows) == pattern_count(base_selectors(ds, cfg), cfg)


def test_forms_named_by_value_are_forms():
    named = LanguageConfig(forms=frozenset({"less_than", Form.EQUALS}))
    assert named.forms == frozenset({Form.LESS_THAN, Form.EQUALS})
    assert all(type(f) is Form for f in named.forms)
    assert named == LanguageConfig(forms=frozenset({Form.LESS_THAN, Form.EQUALS}))
    with pytest.raises(ConfigError, match="unknown form 'equalz'") as err:
        LanguageConfig(forms=frozenset({"equalz"}))
    assert err.value.field == "forms"


def test_pattern_canonicalization():
    s0 = Selector(0, Form.EQUALS, 1.0)
    s1 = Selector(1, Form.EQUALS, 0.0)
    assert Pattern.of(s1, s0) == Pattern.of(s0, s1)
    assert hash(Pattern.of(s1, s0)) == hash(Pattern.of(s0, s1))
    with pytest.raises(ConfigError):
        Pattern.of(s0, Selector(0, Form.EQUALS, 2.0))
    with pytest.raises(ConfigError):
        Selector(0, Form.INTERVAL, 2.0, 1.0)
    with pytest.raises(ConfigError):  # empty
        Selector(0, Form.INTERVAL, 1.0, 1.0)


def test_projection_bound_examples():
    assert projection_bound_log(2, 1, 1) == pytest.approx(3.0, abs=1e-12)
    assert math.exp(projection_bound_log(2, 1, 1)) == pytest.approx(math.e**3, rel=1e-12)
    assert projection_bound_log(100, 10, 2) == pytest.approx(22.0944, abs=1e-3)
    assert projection_bound_log(1, 1, 1) == pytest.approx(3.0 + math.log(0.25), abs=1e-12)


def test_projection_bound_rejects_empty_arguments():
    for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ConfigError, match="must all be >= 1"):
            projection_bound_log(*args)


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
        rows = brute_force_qualities(ds, ds.target, 0.5, cfg)
        n = len({evaluate(p, ds).tobytes() for p, _, _ in rows})
        base = base_selectors(ds, cfg)
        bound = math.exp(projection_bound_log(ds.m, ds.n_features, cfg.z))
        assert n <= min(bound, pattern_count(base, cfg), 2**ds.m)


def test_describe(fruit):
    p = Pattern.of(Selector(0, Form.EQUALS, 0.0), Selector(1, Form.LESS_THAN, 1.0))
    assert p.describe(fruit) == "color=red AND weight<1.0"
    iv = Pattern.of(Selector(1, Form.INTERVAL, 0.5, 1.5))
    assert "weight in [0.5,1.5)" == iv.describe(fruit)


def test_describe_prints_cuts_lossless():
    # at six significant digits both cuts printed as 1.23458e+06
    near = [Selector(0, Form.AT_LEAST, a) for a in (1234575.0, 1234578.0)]
    assert [s.describe() for s in near] == ["c0>=1234575.0", "c0>=1234578.0"]
    # a numpy cut prints as the Python float it equals
    cut = np.float64(0.1) + np.float64(0.2)
    assert Selector(0, Form.LESS_THAN, cut).describe() == "c0<0.30000000000000004"
    iv = Selector(0, Form.INTERVAL, cut, np.float64(1e7))
    assert iv.describe() == "c0 in [0.30000000000000004,10000000.0)"


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


CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2.0]),
    st.floats(),
)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.lists(CELLS, min_size=1, max_size=12),
    form=st.sampled_from(list(Form)),
    a=CELLS.filter(lambda x: not math.isnan(x)),
    b=CELLS.filter(lambda x: not math.isnan(x)),
)
def test_holds_on_an_array_is_holds_per_cell(cells, form, a, b):
    if form is Form.INTERVAL:
        a, b = sorted((a, b))
        if not a < b:
            return
    sel = Selector(0, form, a, b)
    cells = [*cells, a, b]  # the bounds themselves, where the forms differ
    arr = np.array(cells)
    got = sel.holds(arr)
    assert got.dtype == bool and got.shape == arr.shape
    assert got.tolist() == [bool(sel.holds(v)) for v in cells]
    # the forms' definitions, a half-open interval included
    want = {
        Form.EQUALS: lambda v: v == a,
        Form.LESS_THAN: lambda v: v < a,
        Form.AT_LEAST: lambda v: v >= a,
        Form.INTERVAL: lambda v: a <= v < b,
    }[form]
    assert got.tolist() == [want(v) for v in cells]


def test_equals_holds_on_codes_per_cell():
    codes = np.array([-2, 0, 1, 3, 1, 2**31 - 1], dtype=np.int32)
    for code in (-2.0, 0.0, 1.0, 5.0):
        sel = Selector(0, Form.EQUALS, code)
        assert sel.holds(codes).tolist() == [bool(sel.holds(int(v))) for v in codes]
