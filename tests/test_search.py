import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmine.search
from sigmine import (
    ColumnSchema,
    Dataset,
    Form,
    Kind,
    LabelVector,
    LanguageConfig,
    Pattern,
    SearchContext,
    bitset,
    empirical_quality,
    evaluate,
    optimistic_estimate,
    sup_quality,
    threshold_mine,
    top_k,
)
from sigmine.language import base_selectors, pattern_count
from sigmine.oracle import brute_force_qualities, brute_force_sup, brute_force_top_k
from sigmine.suites import _random_tiny_instance

from conftest import binary_dataset


def lv(bits):
    return LabelVector(np.asarray(bits, dtype=np.uint8))


def test_optimistic_estimate_examples():
    labels = lv([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    cover = bitset.pack(np.arange(10) < 6)  # 3 positives
    assert optimistic_estimate(cover, labels, 0.4) == pytest.approx(0.18, abs=1e-12)
    no_pos = bitset.pack(np.isin(np.arange(10), [4, 5, 6]))
    assert optimistic_estimate(no_pos, labels, 0.4) == 0.0


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
    labels = LabelVector(np.arange(m) < ones)
    cover = bitset.full(pos) | (bitset.full(neg) << ones)
    child = bitset.full(pos2) | (bitset.full(neg2) << ones)
    for center in (ones / m, data.draw(st.floats(0.0, 1.0 - 1e-9))):
        oe = optimistic_estimate(cover, labels, center)
        assert empirical_quality(child, labels, center).value <= oe
        assert empirical_quality(cover, labels, center).value <= oe


def test_degenerate_all_zero_labels():
    # all-zero labels: every pattern scores -center * frequency
    ds = binary_dataset([[0, 0, 1, 1]], [0, 0, 0, 0])
    res = sup_quality(ds, lv([0, 0, 0, 0]), 0.4, LanguageConfig(z=1))
    assert res.supremum == pytest.approx(-0.4 * 0.5, abs=1e-12)
    # with an empty-cover conjunction available the supremum is 0
    ds2 = binary_dataset([[0, 0, 1, 1], [1, 1, 0, 0]], [0, 0, 0, 0])
    res2 = sup_quality(ds2, lv([0, 0, 0, 0]), 0.4, LanguageConfig(z=2))
    assert res2.supremum == 0.0


def test_sup_matches_brute_force_on_fixed_instance():
    ds = binary_dataset(
        [[0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
         [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1],
         [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]],
        [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0],
    )
    cfg = LanguageConfig(z=2)
    res = sup_quality(ds, ds.target, ds.mean_target(), cfg)
    assert res.supremum == brute_force_sup(ds, ds.target, ds.mean_target(), cfg)
    got = empirical_quality(evaluate(res.argmax, ds), ds.target, ds.mean_target())
    assert got.value == res.supremum


@pytest.mark.parametrize("seed", range(25))
def test_pruning_is_lossless(seed):
    ds, labels, center, cfg = _random_tiny_instance(seed + 1200)
    on = sup_quality(ds, labels, center, cfg, prune=True)
    off = sup_quality(ds, labels, center, cfg, prune=False)
    assert on.supremum == off.supremum
    assert on.argmax == off.argmax
    assert on.nodes_visited <= off.nodes_visited


def test_top_k_saturation_and_k1():
    ds, labels, center, cfg = _random_tiny_instance(77)
    base = base_selectors(ds, cfg)
    total = pattern_count(base, cfg)
    all_of_them = top_k(ds, labels, center, cfg, total + 10)
    assert len(all_of_them.entries) == total
    vals = [q.value for _, q in all_of_them.entries]
    assert vals == sorted(vals, reverse=True)
    single = top_k(ds, labels, center, cfg, 1)
    sup = sup_quality(ds, labels, center, cfg)
    assert single.entries[0][0] == sup.argmax
    assert single.entries[0][1].value == sup.supremum


@pytest.mark.parametrize("seed", range(15))
def test_top_k_matches_brute_force(seed):
    ds, labels, center, cfg = _random_tiny_instance(seed + 4000)
    mine = top_k(ds, labels, center, cfg, 5)
    brute = brute_force_top_k(ds, labels, center, cfg, 5)
    assert [(p, q.value) for p, q in mine.entries] == brute


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
    for k in [1, *ties[:1], len(rows) + 3]:
        got = top_k(ds, ds.target, center, cfg, k).entries
        assert [(p, q.value) for p, q in got] == brute_force_top_k(ds, ds.target, center, cfg, k)
        for p, q in got:
            assert q == empirical_quality(evaluate(p, ds), ds.target, center)


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
    got = top_k(ds, ds.target, 0.0, cfg, 3).entries
    assert [len(p) for p, _ in got] == [1, 2, 3]
    tied, entered[:] = sum(entered), []
    threshold_mine(ds, ds.target, 0.0, -np.inf, 0.0, cfg)
    assert 4 * tied < sum(entered)


def test_monotone_label_dominance():
    rng = np.random.default_rng(11)
    for seed in range(10):
        ds, labels, center, cfg = _random_tiny_instance(seed + 2500)
        grown = labels.bits.copy()
        zeros = np.flatnonzero(grown == 0)
        if len(zeros):
            grown[rng.choice(zeros, size=max(1, len(zeros) // 2), replace=False)] = 1
        lo = sup_quality(ds, labels, center, cfg).supremum
        hi = sup_quality(ds, lv(grown), center, cfg).supremum
        assert hi >= lo


def test_determinism():
    ds, labels, center, cfg = _random_tiny_instance(31)
    a = sup_quality(ds, labels, center, cfg)
    b = sup_quality(ds, labels, center, cfg)
    assert (a.supremum, a.argmax, a.nodes_visited) == (b.supremum, b.argmax, b.nodes_visited)


@pytest.mark.parametrize("eps_t", [0.0, 0.08])
def test_threshold_mine_matches_brute_force(eps_t):
    for seed in range(12):
        ds, labels, center, cfg = _random_tiny_instance(seed + 3300)
        rows = brute_force_qualities(ds, labels, center, cfg)
        eps = float(np.quantile([v for _, v, _ in rows], 0.8))
        got = threshold_mine(ds, labels, center, eps, eps_t, cfg)
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
        "sup_quality": lambda ctx: sup_quality(ds, labels, center, cfg, ctx=ctx),
        "top_k": lambda ctx: top_k(ds, labels, center, cfg, 3, ctx=ctx),
        "threshold_mine": lambda ctx: threshold_mine(ds, labels, center, 0.0, 0.0, cfg, ctx=ctx),
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


def test_pair_index_is_built_by_the_batched_search_only():
    # the (child, leaf) pair index serves sup_quality alone: a context the
    # scan and top-k use never builds it
    ds, labels, center, cfg = _random_tiny_instance(5)
    ctx = SearchContext(ds, cfg)
    top_k(ds, labels, center, cfg, 3, ctx=ctx)
    threshold_mine(ds, labels, center, 0.0, 0.0, cfg, ctx=ctx)
    assert "pairs" not in vars(ctx)
    sup_quality(ds, labels, center, cfg, ctx=ctx)
    assert "pairs" in vars(ctx)


def test_threshold_mine_enters_subtrees_whose_estimate_ties_eps():
    # y = a AND b: the pure pattern a=1 AND b=1 scores exactly the estimate
    # of its parent a=1, so a scan at that eps must still enter a=1
    a = [0, 1, 1, 0, 1, 1, 0, 1]
    b = [1, 1, 0, 0, 1, 0, 1, 1]
    y = [x & z for x, z in zip(a, b)]
    ds = binary_dataset([a, b], y)
    center = ds.mean_target()
    cfg = LanguageConfig(z=2)
    eps = optimistic_estimate(bitset.pack(np.array(a, dtype=bool)), ds.target, center)
    got = threshold_mine(ds, ds.target, center, eps, 0.0, cfg)
    assert [(len(p), q.value) for p, q in got] == [(2, eps)]
