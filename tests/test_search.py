import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmine.search
from sigmine import (
    ColumnSchema,
    ConfigError,
    Dataset,
    Form,
    Kind,
    LabelVector,
    LanguageConfig,
    Pattern,
    SearchContext,
    empirical_quality,
    evaluate,
    optimistic_estimate,
    sup_quality,
    threshold_mine,
    top_k,
)
from sigmine.baselines import permuted_labels
from sigmine.language import base_selectors, pattern_count
from sigmine.oracle import brute_force_qualities, brute_force_sup, brute_force_top_k
from sigmine.resample import bernoulli_labels
from sigmine.suites import _random_tiny_instance

from conftest import binary_dataset


def lv(bits):
    return LabelVector(np.asarray(bits, dtype=np.uint8))


def test_optimistic_estimate_examples():
    labels = lv([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    cover = np.arange(10) < 6  # 3 positives
    assert optimistic_estimate(cover, labels, 0.4) == pytest.approx(0.18, abs=1e-12)
    no_pos = np.isin(np.arange(10), [4, 5, 6])
    assert optimistic_estimate(no_pos, labels, 0.4) == 0.0


@pytest.mark.parametrize(
    "cover",
    [0b111, np.array([1, 1, 1, 0]), np.ones(5, dtype=bool)],
    ids=["int", "0/1 int array", "wrong length"],
)
def test_optimistic_estimate_refuses_what_is_not_a_bool_cover(cover):
    with pytest.raises(ValueError, match="bool array of length 4"):
        optimistic_estimate(cover, lv([1, 1, 0, 0]), 0.5)


def test_optimistic_estimate_dominates_descendants():
    # every pattern against its ancestors in the search tree: its proper
    # prefixes in canonical order, the empty root included
    for seed in range(20):
        ds, labels, center, cfg = _random_tiny_instance(seed + 900)
        for pattern, _, _ in brute_force_qualities(ds, labels, center, cfg):
            val = empirical_quality(evaluate(pattern, ds), labels, center).value
            for n in range(len(pattern)):
                ancestor = evaluate(Pattern(pattern.selectors[:n]), ds)
                assert val <= optimistic_estimate(ancestor, labels, center)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_optimistic_estimate_dominates_in_floating_point(data):
    # a cover with `pos` positives and `neg` negatives, and a sub-cover with
    # pos2 <= pos positives and neg2 <= neg negatives: the computed estimate
    # must dominate the computed quality exactly, for the observed mean as
    # center and for an arbitrary one
    m = data.draw(st.integers(1, 1 << 20))
    ones = data.draw(st.integers(0, m))
    pos = data.draw(st.integers(0, ones))
    pos2 = data.draw(st.integers(0, pos))
    neg = data.draw(st.integers(0, m - ones))
    neg2 = data.draw(st.integers(0, neg))
    rows = np.arange(m)
    labels = LabelVector(rows < ones)
    cover = (rows < pos) | ((rows >= ones) & (rows < ones + neg))
    child = (rows < pos2) | ((rows >= ones) & (rows < ones + neg2))
    for center in (ones / m, data.draw(st.floats(0.0, 1.0 - 1e-9))):
        oe = optimistic_estimate(cover, labels, center)
        assert empirical_quality(child, labels, center).value <= oe
        assert empirical_quality(cover, labels, center).value <= oe


def test_degenerate_all_zero_labels():
    # all-zero labels: every pattern scores -center * frequency
    ds = binary_dataset([[0, 0, 1, 1]], [0, 0, 0, 0])
    res = sup_quality(SearchContext(ds, LanguageConfig(z=1)), lv([0, 0, 0, 0]), 0.4)
    assert res.supremum == pytest.approx(-0.4 * 0.5, abs=1e-12)
    # with an empty-cover conjunction available the supremum is 0
    ds2 = binary_dataset([[0, 0, 1, 1], [1, 1, 0, 0]], [0, 0, 0, 0])
    res2 = sup_quality(SearchContext(ds2, LanguageConfig(z=2)), lv([0, 0, 0, 0]), 0.4)
    assert res2.supremum == 0.0


def test_sup_matches_brute_force_on_fixed_instance():
    ds = binary_dataset(
        [[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
         [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
         [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]],
        [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0],
    )
    cfg = LanguageConfig(z=2)
    ctx = SearchContext(ds, cfg)
    res = sup_quality(ctx, ds.target, ds.mean_target())
    assert res.supremum == brute_force_sup(ds, ds.target, ds.mean_target(), cfg)
    first = top_k(ctx, ds.target, ds.mean_target(), 1)[0][0]
    got = empirical_quality(evaluate(first, ds), ds.target, ds.mean_target())
    assert got.value == res.supremum


@pytest.mark.parametrize("seed", range(25))
def test_pruning_is_lossless(seed):
    ds, labels, center, cfg = _random_tiny_instance(seed + 1200)
    ctx = SearchContext(ds, cfg)
    on = sup_quality(ctx, labels, center, prune=True)
    off = sup_quality(ctx, labels, center, prune=False)
    assert on.supremum == off.supremum
    first = top_k(ctx, labels, center, 1)[0][0]
    assert empirical_quality(evaluate(first, ds), labels, center).value == off.supremum
    assert on.nodes_visited <= off.nodes_visited


def test_pruning_is_lossless_checks_pruned_searches():
    # at depths 1 and 2 the root tables itself and never prunes: some of
    # the instances above must search deep enough to prune
    pruned = 0
    for seed in range(25):
        ds, labels, center, cfg = _random_tiny_instance(seed + 1200)
        pruned += sup_quality(SearchContext(ds, cfg), labels, center).nodes_pruned
    assert pruned > 0


@pytest.mark.parametrize("seed", range(5))
def test_sup_frequency_is_the_largest_selector_frequency(seed):
    # a pattern's frequency is at most its selectors', so the language's
    # largest is a selector's
    ds, _, _, cfg = _random_tiny_instance(seed + 300)
    best = max(evaluate(Pattern.of(s), ds).sum() / ds.m for s in base_selectors(ds, cfg))
    got = SearchContext(ds, cfg).sup_frequency()
    assert got <= 1 and got == best


def test_top_k_saturation_and_k1():
    ds, labels, center, cfg = _random_tiny_instance(77)
    base = base_selectors(ds, cfg)
    total = pattern_count(base, cfg)
    ctx = SearchContext(ds, cfg)
    all_of_them = top_k(ctx, labels, center, total + 10)
    assert len(all_of_them) == total
    vals = [q.value for _, q in all_of_them]
    assert vals == sorted(vals, reverse=True)
    single = top_k(ctx, labels, center, 1)
    sup = sup_quality(ctx, labels, center)
    assert single[0][0] == brute_force_top_k(ds, labels, center, cfg, 1)[0][0]
    assert single[0][1].value == sup.supremum


@pytest.mark.parametrize("seed", range(15))
def test_top_k_matches_brute_force(seed):
    ds, labels, center, cfg = _random_tiny_instance(seed + 4000)
    mine = top_k(SearchContext(ds, cfg), labels, center, 5)
    brute = brute_force_top_k(ds, labels, center, cfg, 5)
    assert [(p, q.value) for p, q in mine] == brute


@st.composite
def tie_heavy(draw):
    """A small dataset full of ties, a center and a language for it:
    constant or random labels; one-value, few-value and all-tied columns;
    itemset mode or subgroups with interval forms; z from 1 to 4."""
    m = draw(st.integers(1, 9))
    itemset = draw(st.booleans())
    schema, values, cat_values = [], [], {}
    for j in range(draw(st.integers(1, 4))):
        if itemset or draw(st.booleans()):
            width = 2 if itemset else draw(st.integers(1, 3))
            values.append(draw(st.lists(st.integers(0, width - 1), min_size=m, max_size=m)))
            schema.append(ColumnSchema(f"c{j}", Kind.CATEGORICAL))
            cat_values[j] = [str(v) for v in range(width)]
        else:
            values.append(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=m, max_size=m)))
            schema.append(ColumnSchema(f"c{j}", Kind.CONTINUOUS))
    labels = draw(st.sampled_from(["zeros", "ones", "random"]))
    if labels == "random":
        bits = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    else:
        bits = [int(labels == "ones")] * m
    ds = Dataset(schema, values, lv(bits), cat_values)
    forms = {Form.EQUALS, Form.LESS_THAN, Form.AT_LEAST}
    if draw(st.booleans()):
        forms.add(Form.INTERVAL)
    cfg = LanguageConfig(
        z=draw(st.integers(1, 4)), bins=draw(st.integers(1, 3)), forms=frozenset(forms),
        mode="itemset" if itemset else "subgroup",
    )
    center = draw(st.sampled_from([ds.mean_target(), 0.0, 0.5, 1.0]))
    return ds, center, cfg


@settings(max_examples=150, deadline=None)
@given(tie_heavy())
def test_top_k_matches_brute_force_on_ties(case):
    # k = 1, k where the k-th and (k+1)-th best values tie, and k above the
    # language size; the statistics come from the scan's counts
    ds, center, cfg = case
    rows = brute_force_qualities(ds, ds.target, center, cfg)
    vals = sorted((v for _, v, _ in rows), reverse=True)
    ties = [k for k in range(1, len(vals)) if vals[k - 1] == vals[k]]
    ctx = SearchContext(ds, cfg)
    for k in [1, *ties[:1], len(rows) + 3]:
        got = top_k(ctx, ds.target, center, k)
        assert [(p, q.value) for p, q in got] == brute_force_top_k(ds, ds.target, center, cfg, k)
        for p, q in got:
            assert q == empirical_quality(evaluate(p, ds), ds.target, center)


@settings(max_examples=100, deadline=None)
@given(tie_heavy(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_suprema_are_top_k_values_on_ties(case, rate, seed):
    # a batch mixing resamples and permutations of the target: each
    # supremum is the value of the vector's top pattern, its first maximizer
    ds, center, cfg = case
    batch = [
        ds.target,
        *(bernoulli_labels(ds.m, rate, seed, j) for j in range(3)),
        *(permuted_labels(ds.target, seed, j) for j in range(3)),
    ]
    ctx = SearchContext(ds, cfg)
    res = sup_quality(ctx, batch, center)
    assert res.suprema == [top_k(ctx, lv, center, 1)[0][1].value for lv in batch]


def test_top_k_enters_few_subtrees_on_tied_qualities(monkeypatch):
    # a constant target ties every quality and every estimate at 0, so the
    # top k are the first k patterns in canonical order; a subtree that only
    # ties the k-th best is entered only when its root comes before it
    rng = np.random.default_rng(0)
    ds = binary_dataset([list(rng.integers(0, 2, 16)) for _ in range(6)], [0] * 16)
    cfg = LanguageConfig(z=3)
    entered = []
    level = sigmine.search._Scan.level

    def counted(self, covers, chosen, *rest):
        entered.append(len(chosen))
        return level(self, covers, chosen, *rest)

    monkeypatch.setattr(sigmine.search._Scan, "level", counted)
    ctx = SearchContext(ds, cfg)
    got = top_k(ctx, ds.target, 0.0, 3)
    assert [len(p) for p, _ in got] == [1, 2, 3]
    tied, entered[:] = sum(entered), []
    threshold_mine(ctx, ds.target, 0.0, -np.inf, 0.0)
    assert 4 * tied < sum(entered)


def test_monotone_label_dominance():
    rng = np.random.default_rng(11)
    for seed in range(10):
        ds, labels, center, cfg = _random_tiny_instance(seed + 2500)
        grown = labels.bits.copy()
        zeros = np.flatnonzero(grown == 0)
        if len(zeros):
            grown[rng.choice(zeros, size=max(1, len(zeros) // 2), replace=False)] = 1
        ctx = SearchContext(ds, cfg)
        lo = sup_quality(ctx, labels, center).supremum
        hi = sup_quality(ctx, lv(grown), center).supremum
        assert hi >= lo


def test_determinism():
    ds, labels, center, cfg = _random_tiny_instance(31)
    a, b = (SearchContext(ds, cfg) for _ in range(2))
    assert sup_quality(a, labels, center) == sup_quality(b, labels, center)
    assert top_k(a, labels, center, 1) == top_k(b, labels, center, 1)


@pytest.mark.parametrize("eps_t", [0.0, 0.08])
def test_threshold_mine_matches_brute_force(eps_t):
    for seed in range(12):
        ds, labels, center, cfg = _random_tiny_instance(seed + 3300)
        rows = brute_force_qualities(ds, labels, center, cfg)
        eps = float(np.quantile([v for _, v, _ in rows], 0.8))
        got = threshold_mine(SearchContext(ds, cfg), labels, center, eps, eps_t)
        got_set = {(p, q.value) for p, q in got}
        m = ds.m
        expected = set()
        for p, v, idx in rows:
            # recompute frequency through the oracle path
            from sigmine.oracle import _selector_flags

            mask = np.ones(m, dtype=bool)
            for s in p.selectors:
                mask &= _selector_flags(s, ds)
            f = int(mask.sum()) / m
            if v >= eps + eps_t * f:
                expected.add((p, v))
        assert got_set == expected


@pytest.mark.parametrize("call", ["sup_quality", "top_k", "threshold_mine"])
def test_search_frees_its_context_on_return(call):
    # with the collector off, a reference cycle through the walk would keep
    # the context alive after the call returns
    ds, labels, center, cfg = _random_tiny_instance(5)
    run = {
        "sup_quality": lambda ctx: sup_quality(ctx, labels, center),
        "top_k": lambda ctx: top_k(ctx, labels, center, 3),
        "threshold_mine": lambda ctx: threshold_mine(ctx, labels, center, 0.0, 0.0),
    }[call]
    gc.disable()
    try:
        ctx = SearchContext(ds, cfg)
        ref = weakref.ref(ctx)
        run(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("call", ["sup_quality", "top_k", "threshold_mine"])
def test_label_length_must_match_the_context(call):
    ds, labels, center, cfg = _random_tiny_instance(5)
    ctx = SearchContext(ds, cfg)
    run = {
        "sup_quality": lambda v: sup_quality(ctx, v, center),
        "top_k": lambda v: top_k(ctx, v, center, 3),
        "threshold_mine": lambda v: threshold_mine(ctx, v, center, 0.0, 0.0),
    }[call]
    for bits in (labels.bits[:-1], np.append(labels.bits, 1)):
        with pytest.raises(ConfigError, match=f"length {len(bits)} .* {ds.m} rows"):
            run(lv(bits))
    if call == "sup_quality":
        with pytest.raises(ConfigError, match=f"length {ds.m - 1} .* {ds.m} rows"):
            run([labels, lv(labels.bits[:-1])])


def test_sup_quality_refuses_an_empty_batch():
    ds, _, center, cfg = _random_tiny_instance(5)
    with pytest.raises(ConfigError, match="sup_quality needs at least one label vector"):
        sup_quality(SearchContext(ds, cfg), [], center)


def test_top_k_refuses_k_below_one():
    ds, labels, center, cfg = _random_tiny_instance(5)
    for k in (0, -1):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            top_k(SearchContext(ds, cfg), labels, center, k)


def test_layouts_are_built_by_the_batched_search_only():
    # the cached child and (child, leaf) pair layouts serve sup_quality
    # alone: a context the scan and top-k use never builds them
    ds, labels, center, cfg = _random_tiny_instance(5)
    ctx = SearchContext(ds, replace(cfg, z=3))
    top_k(ctx, labels, center, 3)
    threshold_mine(ctx, labels, center, 0.0, 0.0)
    assert ctx.layouts == {}
    sup_quality(ctx, labels, center)
    assert any(isinstance(key, tuple) for key in ctx.layouts)


def test_threshold_mine_enters_subtrees_whose_estimate_ties_eps():
    # y = a AND b: the pure pattern a=1 AND b=1 scores exactly the estimate
    # of its parent a=1, so a scan at that eps must still enter a=1
    a = [0, 1, 1, 0, 1, 1, 0, 1]
    b = [1, 1, 0, 0, 1, 0, 1, 1]
    y = [x & z for x, z in zip(a, b)]
    ds = binary_dataset([a, b], y)
    center = ds.mean_target()
    cfg = LanguageConfig(z=2)
    eps = optimistic_estimate(np.array(a, dtype=bool), ds.target, center)
    got = threshold_mine(SearchContext(ds, cfg), ds.target, center, eps, 0.0)
    assert [(len(p), q.value) for p, q in got] == [(2, eps)]


def test_context_refuses_2_to_the_32_rows():
    # counts are summed as uint32, exact below 2**32 rows; the stub has
    # nothing but `m`, so the check comes before anything else is read
    with pytest.raises(ConfigError, match="2\\*\\*32"):
        SearchContext(SimpleNamespace(m=2**32), LanguageConfig())
