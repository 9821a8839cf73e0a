import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sigmine import (
    ColumnSchema,
    Dataset,
    Form,
    Kind,
    LabelVector,
    LanguageConfig,
    OracleError,
    Pattern,
    Selector,
    evaluate,
)
from sigmine.language import base_selectors, pattern_count
from sigmine.oracle import (
    CatColumn,
    ContColumn,
    CouplingPoint,
    NullConditional,
    NullIID,
    Planted,
    SyntheticSpec,
    brute_force_qualities,
    brute_force_sup,
    coupling_check,
    fwer_band,
    generate,
    monte_carlo,
)
from sigmine.resample import STREAM_SYNTH, generator
from sigmine.suites import suite_coupling

from conftest import binary_dataset, contents


def test_generate_deterministic():
    spec = SyntheticSpec(50, (CatColumn((0.3, 0.7)), ContColumn()), NullIID(0.4), seed=2)
    a, b = generate(spec), generate(spec)
    assert contents(a) == contents(b)


def per_row_planted(spec):
    """The spec's dataset drawn as `generate` draws it, with the planted
    selector evaluated one cell at a time."""
    rng = generator(spec.seed, STREAM_SYNTH, 0)
    values = []
    for col in spec.columns:
        if isinstance(col, CatColumn):
            values.append(rng.choice(len(col.probs), size=spec.m, p=np.asarray(col.probs)))
        else:
            values.append(rng.random(spec.m) if col.dist == "uniform" else rng.normal(size=spec.m))
    rule = spec.target_rule
    cells = values[rule.selector.column].tolist()
    p = np.array([rule.p_in if rule.selector.holds(v) else rule.p_out for v in cells])
    return values, (rng.random(spec.m) < p).astype(np.uint8)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "sel",
    [
        Selector(0, Form.EQUALS, 1.0),
        Selector(1, Form.LESS_THAN, 0.4),
        Selector(2, Form.AT_LEAST, 0.25),
        Selector(2, Form.INTERVAL, -0.5, 0.8),
    ],
)
def test_planted_target_matches_per_row_construction(sel, seed):
    cols = (CatColumn((0.3, 0.5, 0.2)), ContColumn(), ContColumn("normal"))
    spec = SyntheticSpec(400, cols, Planted(sel, 0.9, 0.1), seed=seed)
    ds = generate(spec)
    values, bits = per_row_planted(spec)
    assert all(np.array_equal(a, b) for a, b in zip(ds.values, values))
    assert np.array_equal(ds.target.bits, bits)


def test_null_iid_mean_band():
    ds = generate(SyntheticSpec(10_000, (ContColumn(),), NullIID(0.3), seed=1))
    assert 0.27 <= ds.mean_target() <= 0.33


def test_null_conditional_exact_count():
    for seed in range(5):
        ds = generate(SyntheticSpec(1000, (ContColumn(),), NullConditional(300), seed=seed))
        assert ds.target.ones == 300


def test_planted_cover_mean():
    spec = SyntheticSpec(
        5000,
        (CatColumn((0.2, 0.8)),),
        Planted(Selector(0, Form.EQUALS, 0.0), p_in=0.9, p_out=0.1),
        seed=3,
    )
    ds = generate(spec)
    in_cover = ds.values[0] == 0
    assert abs(ds.target.bits[in_cover].mean() - 0.9) < 0.04
    assert abs(ds.target.bits[~in_cover].mean() - 0.1) < 0.04


def test_brute_force_guard():
    ds = generate(SyntheticSpec(40, tuple(ContColumn() for _ in range(10)), NullIID(0.5), seed=1))
    cfg = LanguageConfig(z=4, bins=5)  # ~2.3M patterns, beyond the guard
    with pytest.raises(OracleError):
        brute_force_sup(ds, ds.target, 0.5, cfg)


def test_brute_force_covers_hold_their_cuts():
    # cuts at 2, 2.5 and 3, each of 2 and 3 held by six rows: a selector
    # holds at its lower cut and not at its upper one, as `evaluate` has it
    x = np.repeat([1.0, 2.0, 3.0, 4.0], [3, 6, 6, 3])
    ds = Dataset([ColumnSchema("x", Kind.CONTINUOUS)], [x], LabelVector(np.ones(18, np.uint8)))
    rows = brute_force_qualities(ds, ds.target, 0.0, LanguageConfig(z=1, bins=3, forms=set(Form)))
    assert {p.selectors[0].a for p, _, _ in rows} == {2.0, 2.5, 3.0}
    for pattern, value, _ in rows:
        assert value == evaluate(pattern, ds).sum() / ds.m


def test_brute_force_guard_admits_a_language_of_its_size():
    ds = binary_dataset([[0, 1, 2, 0], [1, 0, 1, 1]], [0, 1, 1, 0])
    cfg = LanguageConfig(z=2)
    n = pattern_count(base_selectors(ds, cfg), cfg)
    assert len(brute_force_qualities(ds, ds.target, 0.5, cfg, guard=n)) == n
    with pytest.raises(OracleError, match="language too large"):
        brute_force_qualities(ds, ds.target, 0.5, cfg, guard=n - 1)


def test_monte_carlo_counts_planted_hits():
    sel = Selector(0, Form.EQUALS, 0.0)
    spec = SyntheticSpec(100, (CatColumn((0.5, 0.5)),), Planted(sel, 0.9, 0.1), seed=0)
    hit = SimpleNamespace(pattern=Pattern.of(sel))
    miss = SimpleNamespace(pattern=Pattern.of(Selector(0, Form.EQUALS, 1.0)))
    runs = [[miss], [miss, hit], []]
    summary = monte_carlo(spec, lambda ds, seed: runs[seed % 3], trials=9, base_seed=0)
    assert summary.rejections == 6 and summary.planted_hits == 3


def test_monte_carlo_degenerate_single_trial():
    spec = SyntheticSpec(100, (CatColumn((0.5, 0.5)),), NullIID(0.5), seed=0)
    summary = monte_carlo(spec, lambda ds, seed: [], trials=1, base_seed=0)
    assert summary.empirical_fwer in (0.0, 1.0)
    assert summary.trials == 1


def test_monte_carlo_counts_and_json():
    spec = SyntheticSpec(100, (CatColumn((0.5, 0.5)),), NullIID(0.5), seed=0)
    calls = []

    def runner(ds, seed):
        calls.append(seed)
        return ["hit"] if seed % 2 else []

    summary = monte_carlo(spec, runner, trials=10, base_seed=100)
    assert calls == list(range(100, 110))
    assert summary.rejections == 5
    assert summary.empirical_fwer == 0.5
    assert summary.trials == 10
    assert summary.planted_hits == 0


def test_fwer_band_value():
    assert fwer_band(0.05, 200) == pytest.approx(0.09623, abs=1e-4)


def test_coupling_rejects_empty_family():
    with pytest.raises(OracleError):
        coupling_check(10, 5, [], [0.1])


def test_coupling_rejects_no_samples():
    # the check is exact: it takes no sample count
    covers = [[i < 5 for i in range(10)]]
    with pytest.raises(TypeError, match="samples"):
        coupling_check(10, 5, covers, [0.1], samples=1)
    assert len(coupling_check(10, 5, covers, [0.1])) == 1


@pytest.mark.parametrize("m, k", [(0, 0), (21, 10), (10, -1), (10, 11)])
def test_coupling_refuses_rows_or_ones_out_of_range(m, k):
    # at most 20 rows are enumerated, and k ones must fit in m rows
    with pytest.raises(OracleError, match=f"m={m}"):
        coupling_check(m, k, [[i < 10 for i in range(m)]], [0.05, 0.3])


def test_coupling_refuses_a_cover_of_another_length():
    with pytest.raises(OracleError, match="one flag per row"):
        coupling_check(7, 3, [[True] * 7, [True] * 6], [0.1])


def test_coupling_point_holds_up_to_twice_iid_plus_slack():
    # p_cond <= 2 p_iid, equality included; the exact tails leave no slack
    assert CouplingPoint(0.1, 0.5, 0.25).holds
    assert CouplingPoint(0.1, 0.0, 0.0).holds
    assert not CouplingPoint(0.1, 0.5, 0.2499).holds


def test_generate_rejects_unknown_column_spec():
    with pytest.raises(OracleError, match="unknown column spec 'bogus'"):
        generate(SyntheticSpec(10, ("bogus",), NullIID(0.5)))


def test_generate_rejects_unknown_target_rule():
    with pytest.raises(OracleError, match="unknown target rule 'bogus'"):
        generate(SyntheticSpec(10, (CatColumn((0.5, 0.5)),), "bogus"))


def test_brute_force_rejects_an_empty_language():
    # in itemset mode a column that never holds "1" has no selector
    ds = binary_dataset([[0, 0, 0]], [0, 1, 1])
    with pytest.raises(OracleError, match="empty language"):
        brute_force_sup(ds, ds.target, 0.5, LanguageConfig(z=1, mode="itemset"))


def test_coupling_trivial_threshold():
    covers = [[i < 5 for i in range(10)]]
    pts = coupling_check(10, 5, covers, thresholds=[-1.0])
    assert pts[0].p_cond == 1.0 and pts[0].p_iid == 1.0
    assert pts[0].holds


def test_coupling_tails_of_one_cover():
    # one cover of 2 of 4 rows and 2 ones: the supremum is (x - 1) / 4 for
    # the x ones in the cover, so it always reaches -1/4, reaches 1/4 with
    # probability 1/6 under permutations and 1/4 under i.i.d. labels, and
    # never passes 1/4
    pts = coupling_check(4, 2, [[True, True, False, False]], [-0.25, 0.25, 0.3])
    assert [(p.p_cond, p.p_iid) for p in pts] == [(1.0, 1.0), (1 / 6, 1 / 4), (0.0, 0.0)]


def test_coupling_inequality_basic():
    covers = [
        [i < 10 for i in range(20)],
        [5 <= i < 15 for i in range(20)],
        [i % 2 == 0 for i in range(20)],
    ]
    pts = coupling_check(20, 10, covers, thresholds=[0.05, 0.1, 0.15])
    assert all(p.holds for p in pts)
    assert [(p.p_cond, p.p_iid) for p in pts] == [
        (0.6982939660958237, 0.6203460693359375),
        (0.24920976855961377, 0.3433685302734375),
        (0.034521206347831734, 0.12935638427734375),
    ]


@pytest.mark.parametrize("m, k", [(1, 0), (1, 1), (7, 0), (7, 3), (7, 6), (7, 7), (8, 5)])
def test_coupling_matches_a_labeling_by_labeling_count(m, k):
    # on odd m and uneven covers, count every labeling one at a time with
    # itertools; the check splits each labeling into two halves instead
    rng = np.random.default_rng(10 * m + k)
    covers = (rng.random((3, m)) < 0.5).tolist()
    thresholds = [-0.1, 0.0, 0.05, 0.1, 0.2]
    mu = k / m
    for point, z in zip(coupling_check(m, k, covers, thresholds), thresholds):
        hits = [
            bits for bits in itertools.product((0, 1), repeat=m)
            if any((sum(b for b, c in zip(bits, cov) if c) - mu * sum(cov)) / m >= z
                   for cov in covers)
        ]
        assert point.p_cond == sum(sum(b) == k for b in hits) / math.comb(m, k)
        p_iid = math.fsum(mu ** sum(b) * (1 - mu) ** (m - sum(b)) for b in hits)
        assert point.p_iid == pytest.approx(p_iid, rel=1e-12, abs=1e-300)


def test_coupling_suite_memory_is_bounded():
    # the 2^20 labelings are held as uint8 counts of ones, 1 MiB a table
    tracemalloc.start()
    try:
        suite_coupling()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_generate_planted_reproducible_labels():
    spec = SyntheticSpec(
        300,
        (CatColumn((0.2, 0.8)), CatColumn((0.5, 0.5))),
        Planted(Selector(0, Form.EQUALS, 0.0), p_in=0.9, p_out=0.1),
        seed=17,
    )
    assert np.array_equal(generate(spec).target.bits, generate(spec).target.bits)
