"""The batched supremum search against single-vector searches and the
brute-force oracle: every vector of a batch gets exactly its own result."""

import os
import platform
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import sigmine.search
from sigmine import (
    ColumnSchema,
    Dataset,
    Form,
    Kind,
    LabelVector,
    LanguageConfig,
    RunConfig,
    SearchContext,
    bitset,
    empirical_quality,
    estimate_deviation,
    evaluate,
    optimistic_estimate,
    resample_target,
    sup_quality,
    threshold_mine,
    top_k,
)
from sigmine.oracle import (
    CatColumn,
    ContColumn,
    NullIID,
    SyntheticSpec,
    brute_force_qualities,
    brute_force_sup,
    brute_force_top_k,
    generate,
)
from sigmine.baselines import permuted_labels, wy_quantile
from sigmine.language import pattern_count, selector_flags
from sigmine.resample import bernoulli_labels
from sigmine.search import BATCH_BYTES, PAIR_BYTES, derive_bases
from sigmine.suites import (
    SWEEP_LANGUAGE,
    _random_tiny_instance,
    mushroom_class_spec,
    sweep_dataset,
)


def oracle(ds, labels, center, cfg):
    """Brute-force supremum and its first maximizer in canonical order."""
    (pattern, value), = brute_force_top_k(ds, labels, center, cfg, 1)
    assert value == brute_force_sup(ds, labels, center, cfg)
    return value, pattern


def argmax(ctx, lv, center):
    """A vector's first maximizer in canonical order: the search keeps
    values only, and top-k breaks ties canonically."""
    return top_k(ctx, lv, center, 1)[0][0]


def one_by_one(monkeypatch):
    """Send every depth z-3 node of later searches through the one-by-one
    loop, whatever its tables would take; batches stay whole."""
    monkeypatch.setattr(sigmine.search._BatchSearch, "tables_fit", lambda *args: False)


def least_table_budget(ctx, c, start=0):
    """The least BATCH_BYTES at which a depth z-3 node of a search of `c`
    vectors, whose children start at `start`, tables them: `tables_fit`,
    bisected."""
    fits = sigmine.search._BatchSearch(ctx, c, 0.0, True).tables_fit
    lo, hi = 0, 1 << 40  # fits at hi, not at lo
    with pytest.MonkeyPatch.context() as mp:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mp.setattr(sigmine.search, "BATCH_BYTES", mid)
            lo, hi = (lo, mid) if fits(start) else (mid, hi)
    return hi


def batch_for(ds, labels, size, seed):
    rates = np.linspace(0.1, 0.9, size - 1) if size > 1 else []
    return [labels] + [bernoulli_labels(ds.m, p, seed, j) for j, p in enumerate(rates)]


def counted(ctx, batch, center, prune=True):
    """`sup_quality`, its node counts checked against the nodes it searched:
    one traversal per `batch_size()` vectors, each visiting every pattern
    but those in subtrees that a node searching its children one by one
    skipped, and only such skips count as pruned."""
    batched = sigmine.search._BatchSearch
    node, tables = batched.node, batched.tables
    calls, tabled = [], set()

    def record_node(self, kids, lab, start, depth):
        calls.append((start, depth))
        return node(self, kids, lab, start, depth)

    def record_tables(self, kids, lab, cnt, start, depth):
        tabled.add((start, depth))
        return tables(self, kids, lab, cnt, start, depth)

    batched.node, batched.tables = record_node, record_tables
    try:
        res = sup_quality(ctx, batch, center, prune=prune)
    finally:
        batched.node, batched.tables = node, tables
    z, nsel, nxt = ctx.cfg.z, len(ctx.base), ctx.next_start
    vectors = len(res.suprema)
    roots = sum(d == 0 for _, d in calls)
    assert roots == -(-vectors // ctx.batch_size())

    def below(start, levels):
        """Patterns below a node whose children start at `start`."""
        return pattern_count(ctx.base[start:], replace(ctx.cfg, z=levels))

    # (start, depth) of every child with children of a one-by-one node;
    # every node searched but the roots is such a child
    loops = [(s, d) for s, d in calls if d + 2 < z and (s, d) not in tabled]
    kids = [(nxt[i], d + 1) for s, d in loops for i in range(s, nsel) if nxt[i] < nsel]
    entered = [(s, d) for s, d in calls if d]
    skipped = sum(below(s, z - d) for s, d in kids) - sum(below(s, z - d) for s, d in entered)
    assert res.nodes_pruned == len(kids) - len(entered)
    assert res.nodes_visited + skipped == roots * pattern_count(ctx.base, ctx.cfg)
    if not prune:
        assert res.nodes_pruned == 0
        assert res.nodes_visited == roots * pattern_count(ctx.base, ctx.cfg)
    return res


@pytest.mark.parametrize("size", [1, 2, 7])
@pytest.mark.parametrize("prune", [True, False])
# z=1 has no leaf pairs, z=2 fuses at the root, z >= 3 compacts subtrees first
@pytest.mark.parametrize("z", [None, 1, 2, 3, 4, 5])
def test_batch_matches_single_and_brute_force(size, prune, z):
    for seed in range(20):
        ds, labels, center, cfg = _random_tiny_instance(seed + 6100)
        if z is not None:
            cfg = replace(cfg, z=z)
        batch = batch_for(ds, labels, size, seed)
        ctx = SearchContext(ds, cfg)
        res = counted(ctx, batch, center, prune=prune)
        assert len(res.suprema) == size
        for lv, sup in zip(batch, res.suprema):
            assert sup == sup_quality(ctx, lv, center, prune=prune).supremum
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, cfg)


def own_search(ds, lv, center, cfg):
    """A plain pruned DFS over bool covers for one vector: supremum and
    first maximizer."""
    ctx = SearchContext(ds, cfg)
    masks = [selector_flags(s, ds) for s in ctx.base]
    best, arg = -np.inf, None

    def walk(cover, chosen, start, depth):
        nonlocal best, arg
        for i in range(start, len(masks)):
            child, here = cover & masks[i], chosen + (i,)
            val = empirical_quality(child, lv, center).value
            if val > best:
                best, arg = val, ctx.pattern(here)
            if depth + 1 < cfg.z and optimistic_estimate(child, lv, center) > best:
                walk(child, here, ctx.next_start[i], depth + 1)

    walk(np.ones(ds.m, dtype=bool), (), 0, 0)
    return best, arg


@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_single_vector_is_its_own_pruned_search(z):
    # all-0 and all-1 labels make estimates tie the running best, where
    # only a strict > may prune
    for seed in range(30):
        ds, labels, center, cfg = _random_tiny_instance(seed + 6400)
        cfg = replace(cfg, z=z)
        flat = [LabelVector(np.full(ds.m, b, dtype=np.uint8)) for b in (0, 1)]
        for lv in [labels, *flat]:
            ctx = SearchContext(ds, cfg)
            res = counted(ctx, lv, center)
            assert (res.supremum, argmax(ctx, lv, center)) == own_search(ds, lv, center, cfg)


def fields(res):
    return res.suprema, res.nodes_visited, res.nodes_pruned


def own_fields(ctx, lv, center):
    """A one-vector search's supremum and first maximizer, as `own_search`
    gives them."""
    return sup_quality(ctx, lv, center).supremum, argmax(ctx, lv, center)


@pytest.mark.parametrize("z", [2, 3, 4])
def test_batch_above_budget_and_split_pair_chunks(z, monkeypatch):
    # the budgets only size temporaries: a batch beyond batch_size(), pairs
    # scored one at a time, or leaves counted a column block at a time
    # all give the same suprema, and the same node counts at one
    # BATCH_BYTES; the scan's pieces of frontier likewise give the same
    # patterns and maximizers
    for seed in range(8):
        ds, labels, center, cfg = _random_tiny_instance(seed + 6200)
        cfg = replace(cfg, z=z)
        batch = batch_for(ds, labels, 7, seed)
        ctx = SearchContext(ds, cfg)
        whole = counted(ctx, batch, center).suprema
        scan = threshold_mine(ctx, labels, center, 0.0, 0.05)
        maxima = [argmax(ctx, lv, center) for lv in batch]
        monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 2 * ctx.words.nbytes)
        assert ctx.batch_size() == 2 < len(batch)
        shrunk = []
        for budget in (1, 8 * len(batch) * 3, 8 * len(batch) * 5 + 7):
            monkeypatch.setattr(sigmine.search, "PAIR_BYTES", budget)
            shrunk.append(fields(counted(ctx, batch, center)))
            assert shrunk[-1][0] == whole
            assert threshold_mine(ctx, labels, center, 0.0, 0.05) == scan
            assert [argmax(ctx, lv, center) for lv in batch] == maxima
        assert shrunk[1:] == shrunk[:-1]
        monkeypatch.undo()
        for lv, sup, arg in zip(batch, whole, maxima):
            assert (sup, arg) == oracle(ds, lv, center, cfg)


@pytest.mark.parametrize("z, prune", [(2, True), (3, True), (3, False), (4, True)])
def test_node_counts_match_the_language(z, prune, monkeypatch):
    # tables count every pattern below them, so a search that tables at
    # depth z-3 visits the whole language unless it searches one by one
    # above (z=4); with `tables_fit` false every depth z-3 node searches
    # its children one by one, and there pruning skips subtrees, most of
    # them under the planted target alone
    ds = generate(replace(mushroom_class_spec(3), m=600))
    batch = [ds.target, *resample_target(ds, 6, 0.45, 2)]
    ctx = SearchContext(ds, LanguageConfig(z=z, bins=3))
    total = pattern_count(ctx.base, ctx.cfg)
    assert total == {2: 4023, 3: 111327, 4: 2186521}[z]
    center = ds.mean_target()
    tabled = counted(ctx, batch, center, prune)
    if z <= 3:
        assert (tabled.nodes_visited, tabled.nodes_pruned) == (total, 0)
    one_by_one(monkeypatch)
    alone = counted(ctx, batch, center, prune)
    assert alone.suprema == tabled.suprema
    target = counted(ctx, ds.target, center, prune)
    assert (target.nodes_pruned > 0) == (prune and z > 2)


def test_batch_of_one_equals_bare_vector():
    ds, labels, center, cfg = _random_tiny_instance(6300)
    ctx = SearchContext(ds, cfg)
    bare = sup_quality(ctx, labels, center)
    listed = sup_quality(ctx, [labels], center)
    assert bare == listed


def test_batch_counts_cover_every_vector(monkeypatch):
    # the shared traversal enters every subtree that a vector's own search
    # enters, whether the depth z-3 nodes table or search their children
    # one by one and prune
    ds, labels, center, cfg = _random_tiny_instance(6301)
    cfg = replace(cfg, z=4)
    batch = batch_for(ds, labels, 7, 6301)
    ctx = SearchContext(ds, cfg)
    for tabled in (True, False):
        if not tabled:
            one_by_one(monkeypatch)
        shared = counted(ctx, batch, center)
        unpruned = counted(ctx, batch, center, prune=False)
        alone = [counted(ctx, lv, center) for lv in batch]
        assert max(r.nodes_visited for r in alone) <= shared.nodes_visited
        assert shared.nodes_visited <= unpruned.nodes_visited
        assert shared.suprema == [r.supremum for r in alone] == unpruned.suprema
    assert max(r.nodes_pruned for r in alone) > 0
    with pytest.raises(ValueError):
        shared.supremum


def test_pruning_skips_work(monkeypatch):
    # at a 5% target rate on a wide language, a pruned search skips
    # subtrees and popcount words when every depth z-3 node searches its
    # children one by one, most when each vector also takes a traversal of
    # its own, to the same suprema
    ds = generate(SyntheticSpec(400, (ContColumn(),) * 5, NullIID(0.05), seed=2))
    ctx = SearchContext(ds, LanguageConfig(z=4, bins=3, forms=frozenset(Form)))
    batch = [bernoulli_labels(400, 0.05, 3, j) for j in range(4)]
    popcounts, words = sigmine.search._popcounts, []

    def record_popcounts(covers, lab, seg=None):
        words.append(len(covers) * lab.size)
        return popcounts(covers, lab, seg)

    monkeypatch.setattr(sigmine.search, "_popcounts", record_popcounts)
    # (depth z-3 nodes table, vectors per traversal, prune)
    want = {
        (True, 4, True): (23088, 2, 112275),
        (True, 4, False): (26280, 0, 121125),
        (False, 4, True): (12752, 167, 111700),
        (False, 4, False): (26280, 0, 189375),
        (False, 1, True): (29768, 655, 109440),
        (False, 1, False): (105120, 0, 303000),
    }
    suprema = []
    for tabled, per, prune in want:
        if not tabled:
            one_by_one(monkeypatch)
        monkeypatch.setattr(SearchContext, "batch_size", lambda self, per=per: per)
        words.clear()
        res = counted(ctx, batch, 0.05, prune)
        assert (res.nodes_visited, res.nodes_pruned, sum(words)) == want[tabled, per, prune]
        suprema.append(res.suprema)
    assert suprema[1:] == suprema[:-1]
    # no label is 1, so every estimate ties the maximum of 0 from the
    # first child on, and only a strict > enters a subtree
    res = counted(ctx, LabelVector(np.zeros(400, dtype=np.uint8)), 0.0)
    assert (res.nodes_visited, res.nodes_pruned) == (40, 32)


@pytest.fixture
def wy_instance():
    ds = generate(
        SyntheticSpec(
            90, (CatColumn((0.3, 0.3, 0.4)), ContColumn("normal"), CatColumn((0.5, 0.5))),
            NullIID(0.4), seed=8,
        )
    )
    return ds, RunConfig(language=LanguageConfig(z=2, bins=3), seed=3)


def test_wy_chunking_keeps_deviations(wy_instance, monkeypatch):
    ds, cfg = wy_instance
    cfg = replace(cfg, permutations=7, seed=4)
    ctx = SearchContext(ds, cfg.language)
    assert ctx.batch_size() >= cfg.permutations
    whole = wy_quantile(ctx, cfg)
    monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 2 * ctx.words.nbytes)
    assert ctx.batch_size() == 2
    chunked = wy_quantile(ctx, cfg)
    assert whole.deviations.tolist() == chunked.deviations.tolist()
    assert whole.delta_quantile == chunked.delta_quantile


def test_resample_chunking_keeps_deviations(wy_instance, monkeypatch):
    ds, cfg = wy_instance
    ctx = SearchContext(ds, cfg.language)
    vecs = list(resample_target(ds, 7, 0.45, 12))
    whole = estimate_deviation(ctx, vecs, 0.4)
    monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 3 * ctx.words.nbytes)
    chunked = estimate_deviation(ctx, vecs, 0.4)
    assert whole.d == chunked.d
    assert whole.d == [brute_force_sup(ds, lv, 0.4, cfg.language) for lv in vecs]


@pytest.mark.parametrize("m", [1, 63, 64, 65])
@pytest.mark.parametrize("prune", [True, False])
def test_word_boundaries_and_degenerate_labels(m, prune):
    ds = generate(
        SyntheticSpec(m, (CatColumn((0.5, 0.5)), ContColumn("uniform"), CatColumn((0.2, 0.8))),
                      NullIID(0.5), seed=m)
    )
    cfg = LanguageConfig(z=3, bins=3)
    zeros = LabelVector(np.zeros(m, dtype=np.uint8))
    ones = list(resample_target(ds, 2, 1.0, m))  # constant resamples
    assert all(lv.ones == m for lv in ones)
    batch = [zeros, *ones, ds.target, *resample_target(ds, 3, 0.5, m)]
    ctx = SearchContext(ds, cfg)
    for center in (0.0, 0.35, 1.0):
        res = sup_quality(ctx, batch, center, prune=prune)
        for lv, sup in zip(batch, res.suprema):
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, cfg)



@pytest.mark.parametrize("prune", [True, False])
def test_selector_with_empty_cover_deep_language(prune):
    # a constant continuous column makes `flat<2` cover nothing; without
    # pruning its subtree is entered and compacted down to zero transactions
    rng = np.random.default_rng(0)
    m = 40
    schema = [ColumnSchema("flat", Kind.CONTINUOUS)]
    schema += [ColumnSchema(f"c{j}", Kind.CATEGORICAL) for j in range(3)]
    values = [np.full(m, 2.0)] + [rng.integers(0, 2, m) for _ in range(3)]
    labels = LabelVector(rng.integers(0, 2, m).astype(np.uint8))
    ds = Dataset(schema, values, labels, {j: ["0", "1"] for j in range(1, 4)})
    cfg = LanguageConfig(z=4, bins=2)
    batch = [labels, LabelVector(np.zeros(m, dtype=np.uint8))]
    ctx = SearchContext(ds, cfg)
    res = sup_quality(ctx, batch, 0.5, prune=prune)
    for lv, sup in zip(batch, res.suprema):
        assert (sup, argmax(ctx, lv, 0.5)) == oracle(ds, lv, 0.5, cfg)


def derived_instances():
    """name -> (dataset, language): the shapes selector derivation meets."""
    rng = np.random.default_rng(11)
    m = 70
    target = LabelVector((rng.random(m) < 0.4).astype(np.uint8))
    cat = lambda k: rng.integers(0, k, m)
    cont = lambda: rng.normal(size=m).round(1)

    def build(cols, cfg):
        schema = [ColumnSchema(f"c{j}", kind) for j, (kind, _) in enumerate(cols)]
        cats = {j: [str(c) for c in range(int(v.max()) + 1)]
                for j, (kind, v) in enumerate(cols) if kind is Kind.CATEGORICAL}
        return Dataset(schema, [v for _, v in cols], target, cats), cfg

    C, R = Kind.CATEGORICAL, Kind.CONTINUOUS
    # `below` < its median holds exactly where `half` == 1
    half = rng.permutation(np.arange(m) % 2)
    below = np.where(half == 1, 0.0, 1.0) + rng.random(m) * 0.5
    return {
        "categorical": build([(C, cat(2)), (C, cat(3)), (C, cat(4))], LanguageConfig(z=3)),
        "continuous": build([(R, cont()), (R, cont()), (R, cont())], LanguageConfig(z=3, bins=3)),
        "tied": build([(R, np.full(m, 2.0)), (C, cat(3)), (R, cont())], LanguageConfig(z=3, bins=3)),
        "one_code": build([(C, np.zeros(m, int)), (C, cat(2)), (C, cat(3))], LanguageConfig(z=3)),
        "itemset": build([(C, cat(2)), (C, np.ones(m, int)), (C, cat(2)), (C, cat(2))],
                         LanguageConfig(z=3, mode="itemset")),
        "interval": build([(R, cont()), (C, cat(3)), (R, cont())],
                          LanguageConfig(z=3, bins=3, forms=frozenset(Form))),
        "interval_only": build([(R, cont()), (R, cont()), (R, cont())],
                               LanguageConfig(z=3, bins=3, forms=frozenset({Form.INTERVAL}))),
        "across_columns": build(
            [(C, half), (R, below), (C, cat(3))],
            LanguageConfig(z=3, bins=1, forms=frozenset({Form.EQUALS, Form.LESS_THAN})),
        ),
        # two values: the cuts 5 and 10 give equal covers
        "equal_cuts": build(
            [(R, rng.permutation(np.repeat([0.0, 10.0], m // 2))), (C, cat(3)), (R, cont())],
            LanguageConfig(z=3, bins=3),
        ),
    }


# derived selector -> basis
DERIVED = {
    # the most frequent code of each column (the first of two equal ones)
    "categorical": {0: (1,), 4: (2, 3), 5: (6, 7, 8)},
    # the larger of less_than(c) and at_least(c) from the other
    "continuous": {
        2: (5,), 3: (0,), 4: (1,), 8: (11,), 9: (6,), 10: (7,), 14: (17,), 15: (12,), 16: (13,),
    },
    # the tied column's empty less_than and full at_least derive nothing
    "tied": {4: (2, 3), 7: (10,), 8: (5,), 9: (6,)},
    # a full cover has no basis
    "one_code": {1: (2,), 5: (3, 4)},
    # one selector per column; the all-ones column covers every row
    "itemset": {},
    # intervals never fill a complement; less_than(c) and at_least(c) still do
    "interval": {2: (5,), 3: (0,), 4: (1,), 10: (8, 9), 13: (16,), 14: (11,), 15: (12,)},
    "interval_only": {},
    # c1 < median is the complement of c0 = 0, but on another column
    "across_columns": {1: (0,), 4: (3, 5)},
    # equal covers share no basis: c0>=10 from c0<10, not from c0<5
    "equal_cuts": {4: (1,), 5: (2,), 7: (6, 8), 11: (14,), 12: (9,), 13: (10,)},
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_selectors(name):
    ds, cfg = derived_instances()[name]
    bases = DERIVED[name]
    ctx = SearchContext(ds, cfg)
    assert {k: b for k, b in enumerate(ctx.basis) if b is not None} == bases
    for k, basis in enumerate(ctx.basis):
        rows = ctx.basis_rows[ctx.basis_ptr[k] : ctx.basis_ptr[k + 1]].tolist()
        assert rows == list(basis or ())
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 5, j) for j, p in enumerate((0.2, 0.5, 0.8))]
    center = ds.mean_target()
    for z in (1, 2, 3):
        zcfg = replace(cfg, z=z)
        zctx = SearchContext(ds, zcfg)
        res = counted(zctx, batch, center)
        for lv, sup in zip(batch, res.suprema):
            assert sup == sup_quality(zctx, lv, center).supremum
            assert (sup, argmax(zctx, lv, center)) == oracle(ds, lv, center, zcfg)
        rows = brute_force_qualities(ds, ds.target, center, zcfg)
        eps = float(np.quantile([v for _, v, _ in rows], 0.7))
        for eps_t in (0.0, 0.05):
            got = threshold_mine(zctx, ds.target, center, eps, eps_t)
            want = sorted((idx, p, v) for p, v, idx in rows
                          if v >= eps + eps_t * (np.count_nonzero(evaluate(p, ds)) / ds.m))
            assert [(p, q.value) for p, q in got] == [(p, v) for _, p, v in want]
        top = top_k(zctx, ds.target, center, 6)
        assert [(p, q.value) for p, q in top] == brute_force_top_k(ds, ds.target, center, zcfg, 6)
    # deeper, a depth z-3 node below the root tables its derived children
    for z in (4, 5):
        zcfg = replace(cfg, z=z)
        zctx = SearchContext(ds, zcfg)
        res = counted(zctx, batch, center)
        for lv, sup in zip(batch, res.suprema):
            own = own_search(ds, lv, center, zcfg)
            assert sup == own[0]
            assert own_fields(zctx, lv, center) == own


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_selector_has_the_largest_cover(name):
    # a derived selector and its basis partition the rows, and the derived
    # one, counted by subtraction, has the largest cover of them
    ds, cfg = derived_instances()[name]
    ctx = SearchContext(ds, cfg)
    sizes = np.bitwise_count(ctx.words).sum(axis=1)
    for k, basis in enumerate(ctx.basis):
        if basis is None:
            continue
        assert all(sizes[k] >= sizes[b] for b in basis)
        assert sizes[k] + sum(sizes[b] for b in basis) == ds.m
        assert np.bitwise_count(np.bitwise_or.reduce(ctx.words[[k, *basis]])).sum() == ds.m


def test_derivation_checks_the_covers():
    # covers over m=6 rows of one column: NaN cells hold for neither
    # value < 1 nor value >= 1, so those two do not partition the rows
    values = np.array([0.5, np.nan, 2.0, 0.2, np.nan, 3.0])
    flags = np.array([values < 1.0, values >= 1.0])
    assert derive_bases(bitset.pack_rows(flags), [0, 0], 6) == [None, None]

    def words(*sets):
        return bitset.pack_rows(np.array([np.isin(np.arange(4), ix) for ix in sets]))

    # {0,1} and {1,2} overlap: they do not make a basis for {3} even though
    # their union is its complement
    assert derive_bases(words([0, 1], [1, 2], [3]), [0, 0, 0], 4) == [None, None, None]
    # {0,1} is the complement of {2,3}, but a basis never crosses a column
    masks = words([0, 1], [2, 3], [2, 3])
    assert derive_bases(masks, [0, 1, 1], 4) == [None, None, None]
    assert derive_bases(masks, [0, 0, 1], 4) == [None, (0,), None]
    # equal covers: each complement takes its own, so no selector is in two
    # bases and a search may sum a basis' counts in place
    masks = words([0], [0], [1, 2, 3], [1, 2, 3])
    assert derive_bases(masks, [0, 0, 0, 0], 4) == [None, None, (0,), (1,)]


def random_covers(rng):
    """Flags of the selectors of a few columns over m rows, and their
    columns: categorical partitions with empty codes, tied cuts and their
    complements with NaN rows in neither, a cover and its complement,
    unions of codes, empty and full covers, and random covers, shuffled
    within each column."""
    m = int(rng.integers(1, 90))
    flags, cols = [], []
    for c in range(int(rng.integers(1, 4))):
        col = []
        for kind in rng.integers(0, 6, int(rng.integers(1, 5))):
            codes = rng.integers(0, int(rng.integers(1, 8)), m)
            if kind == 0:
                col += [codes == v for v in range(codes.max() + 2)]
            elif kind == 1:
                values = np.where(rng.random(m) < rng.choice([0, 0.1]), np.nan, codes % 4)
                col += [f(values, t) for t in rng.integers(0, 5, 3) for f in (np.less, np.greater_equal)]
            elif kind == 2:
                f = rng.random(m) < rng.random()
                col += [f, ~f]
            elif kind == 3:
                col += [np.isin(codes, rng.choice(8, int(rng.integers(1, 4)))) for _ in range(3)]
            elif kind == 4:
                col += [np.full(m, rng.random() < 0.5)]
            else:
                col += [rng.random(m) < rng.random() for _ in range(3)]
        flags += [col[i] for i in rng.permutation(len(col))]
        cols += [c] * len(col)
    return np.array(flags), cols, m


def test_derived_bases_partition_the_rows():
    # on random cover sets, each derived selector and its basis, non-empty
    # and on its column, are disjoint and hold all m rows, the derived one
    # the largest; no basis member is derived, and no selector is in two
    # partitions
    rng = np.random.default_rng(19)
    derived = 0
    for _ in range(500):
        flags, cols, m = random_covers(rng)
        sizes = flags.sum(axis=1)
        bases = derive_bases(bitset.pack_rows(flags), cols, m)
        parts = [(k, basis) for k, basis in enumerate(bases) if basis is not None]
        used = [x for k, basis in parts for x in (k, *basis)]
        assert len(used) == len(set(used))
        for k, basis in parts:
            assert basis and all(cols[b] == cols[k] for b in basis)
            assert all(bases[b] is None for b in basis)
            assert flags[[k, *basis]].sum(axis=0).max() <= 1
            assert sizes[k] + sizes[list(basis)].sum() == m
            assert all(sizes[k] >= sizes[b] for b in basis)
        derived += len(parts)
    assert derived > 1000


def test_many_codes_build_fast():
    # 800 codes: every code but the last is skipped at once, as its size
    # and those of the codes before it fall short of m, and the last one's
    # partition takes one pass over the others
    ds = generate(SyntheticSpec(5000, (CatColumn((1 / 800,) * 800),), NullIID(0.5), seed=0))
    t = time.perf_counter()
    ctx = SearchContext(ds, LanguageConfig(z=2))
    assert time.perf_counter() - t < 2.0
    assert ctx.is_derived.sum() == 1 and len(ctx.basis_rows) == len(ctx.base) - 1


def test_wide_continuous_column_tests_few_covers(monkeypatch):
    # one continuous column at all forms: the free selectors that meet a
    # selector are dropped by one AND, and a full cover ends its partition,
    # so the cover tests are linear in the selectors, not quadratic
    ds = generate(SyntheticSpec(5000, (ContColumn(),), NullIID(0.5), seed=1))
    ctx = SearchContext(ds, LanguageConfig(z=1, bins=600, forms=frozenset(Form)))
    assert len(ctx.base) == 1799 and ctx.is_derived.sum() == 600
    count_nonzero, tests = np.count_nonzero, []

    def cover_test(*args, **kwargs):
        tests.append(1)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", cover_test)
    cols = [s.column for s in ctx.base]
    assert derive_bases(ctx.words, cols, ds.m) == ctx.basis
    assert len(tests) <= len(ctx.base)
    # {2, 3} and its complement {0, 1} fill the 4 rows, so {0}, though
    # disjoint from {2, 3}, takes no cover test
    tests.clear()
    covers = bitset.pack_rows(np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1]], dtype=np.uint8))
    assert derive_bases(covers, [0, 0, 0], 4) == [None, None, (0,)]
    assert len(tests) == 1


@pytest.mark.parametrize("compact", [True, False])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_compaction_choice_keeps_results(name, compact, monkeypatch):
    # a subtree works on compacted or masked matrices by a cost estimate;
    # both give the same suprema and node counts
    ds, cfg = derived_instances()[name]
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 6, j) for j, p in enumerate((0.3, 0.7))]
    center = ds.mean_target()
    for z in (3, 4, 5):
        zcfg = replace(cfg, z=z)
        ctx = SearchContext(ds, zcfg)
        whole = fields(sup_quality(ctx, batch, center))
        own = [own_search(ds, lv, center, zcfg) for lv in batch]
        monkeypatch.setattr(sigmine.search._BatchSearch, "compacts", lambda *args: compact)
        assert fields(sup_quality(ctx, batch, center)) == whole
        assert [own_fields(ctx, lv, center) for lv in batch] == own
        monkeypatch.undo()


def test_compaction_rule():
    # a node above the last two levels always works on its transactions
    # compacted; below, compaction pays only when it drops enough of them:
    # never when it keeps all of them or drops one, and when it keeps one
    # of 128 under 64 label rows and many (child, leaf) pairs
    spec = SyntheticSpec(128, tuple(ContColumn("normal") for _ in range(6)), NullIID(0.4), seed=1)
    ds = generate(spec)
    ctx = SearchContext(ds, LanguageConfig(z=3, bins=4, forms=frozenset(Form)))
    search = sigmine.search._BatchSearch(ctx, 63, ds.mean_target(), True)
    lab = bitset.pack_rows(np.ones((64, ds.m), dtype=np.uint8))
    start = int(ctx.col_heads[1])
    assert ctx.scored_pairs[start] > 300
    assert search.compacts(ds.m, lab, start, 0)
    assert not search.compacts(ds.m, lab, start, 1)
    assert not search.compacts(ds.m - 1, lab, start, 1)
    assert search.compacts(1, lab, start, 1)


def test_tables_fit_at_their_charge(monkeypatch):
    # a depth z-3 node tables its children at a budget of exactly their
    # charge and not at one byte less: 24 bytes a (child, grandchild) pair
    # under one vector, 56 under three, whether its children start at the
    # first selector (1 815 pairs) or on the second column (1 210)
    spec = SyntheticSpec(128, tuple(ContColumn("normal") for _ in range(6)), NullIID(0.4), seed=1)
    ctx = SearchContext(generate(spec), LanguageConfig(z=3, bins=4, forms=frozenset(Form)))
    second = int(ctx.col_heads[1])
    for c, charge in ((1, 24), (3, 56)):
        fits = sigmine.search._BatchSearch(ctx, c, 0.0, True).tables_fit
        for start, pairs in ((0, 1815), (second, 1210)):
            monkeypatch.setattr(sigmine.search, "BATCH_BYTES", pairs * charge)
            assert fits(start)
            monkeypatch.setattr(sigmine.search, "BATCH_BYTES", pairs * charge - 1)
            assert not fits(start)


def test_groups_fit_at_their_charge(monkeypatch):
    # a group takes as many children of one column as have pair counts, 8
    # bytes a pair and label row, within PAIR_BYTES, and at least one: on
    # the instance above, 1 815 pairs below the first selector on and 1 210
    # below the second column on
    spec = SyntheticSpec(128, tuple(ContColumn("normal") for _ in range(6)), NullIID(0.4), seed=1)
    ctx = SearchContext(generate(spec), LanguageConfig(z=3, bins=4, forms=frozenset(Form)))
    for c in (1, 3):
        search = sigmine.search._BatchSearch(ctx, c, 0.0, True)
        for nxt, pairs in ((0, 1815), (int(ctx.col_heads[1]), 1210)):
            one = 8 * (c + 1) * pairs
            fits = []
            for budget in (0, one - 1, one, 3 * one - 1, 3 * one):
                monkeypatch.setattr(sigmine.search, "PAIR_BYTES", budget)
                fits.append(search.fit(nxt))
            assert fits == [1, 1, 1, 2, 3]


@pytest.mark.parametrize("shrunk", [False, True])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_grouped_tables_and_replay_pieces(name, shrunk, monkeypatch):
    # with every child masked, a depth z-3 node tables the scored children
    # of a column in groups, so the tables that raise the maxima hold
    # several (1 + vectors) blocks of columns; with the budgets shrunk,
    # groups hold one child, and the root still tables; either way every
    # vector gets its own search
    ds, cfg = derived_instances()[name]
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 8, j) for j, p in enumerate((0.3, 0.6, 0.9))]
    center, w = ds.mean_target(), len(batch) + 1
    widths, tabled = [], []
    batched = sigmine.search._BatchSearch
    raise_best, tables = batched.raise_best, batched.tables

    def record_raise(self, cnt):
        widths.append(cnt.shape[1])
        return raise_best(self, cnt)

    def record_tables(self, *args):
        tabled.append((z, self.width))
        return tables(self, *args)

    monkeypatch.setattr(batched, "compacts", lambda *args: False)
    monkeypatch.setattr(batched, "raise_best", record_raise)
    monkeypatch.setattr(batched, "tables", record_tables)
    for z in (3, 4, 5):
        zcfg = replace(cfg, z=z)
        ctx = SearchContext(ds, zcfg)
        own = [own_search(ds, lv, center, zcfg) for lv in batch]
        if shrunk:
            monkeypatch.setattr(sigmine.search, "PAIR_BYTES", 1)
            # the root's tables just fit their budget
            root = least_table_budget(ctx, len(batch))
            monkeypatch.setattr(sigmine.search, "BATCH_BYTES", root)
        res = counted(ctx, batch, center)
        assert res.suprema == [o[0] for o in own]
        assert [own_fields(ctx, lv, center) for lv in batch] == own
        monkeypatch.setattr(sigmine.search, "PAIR_BYTES", PAIR_BYTES)
        monkeypatch.setattr(sigmine.search, "BATCH_BYTES", BATCH_BYTES)
        for lv, sup in zip(batch, res.suprema):
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, zcfg)
    # the batch tables at every depth, within the shrunk budgets too
    assert {z for z, width in tabled if width == w} == {3, 4, 5}
    # a column of several scored children before the last one is grouped
    cols = [s.column for s in ctx.base]
    scored = [cols[i] for i in np.flatnonzero(~ctx.is_derived).tolist() if cols[i] != cols[-1]]
    grouped = len(scored) > len(set(scored))
    assert max(widths) > w if grouped and not shrunk else max(widths) <= w


@pytest.mark.parametrize("pair_bytes", [PAIR_BYTES, 1])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_pair_counts_are_the_pairs_popcounts(name, pair_bytes, monkeypatch):
    # the counts of every (child, leaf) pair, a derived child's or leaf's
    # too, are a popcount of the pair's cover against each label row it is
    # counted on: below the root of a z=2 search, and below each table
    # group (a child, or masked children stacked) of a z=3 root
    ds, cfg = derived_instances()[name]
    batch = [ds.target, bernoulli_labels(ds.m, 0.4, 6, 0)]
    pair_counts, calls = sigmine.search._BatchSearch.pair_counts, []

    def checked(self, kids, lab, start, cnt, a, b, seg=None):
        pc = pair_counts(self, kids, lab, start, cnt, a, b, seg)
        nsel, nxt = len(self.ctx.base), self.ctx.next_start
        pairs = [(i, k) for i in range(a, b) for k in range(nxt[i], nsel)]
        # a compacted group's words are segments, one per child, counted apart
        cuts = [0, lab.shape[1]] if seg is None else seg.tolist()
        want = [
            [np.bitwise_count(kids[i - start, x:y] & kids[k - start, x:y] & lab[:, x:y]).sum(axis=1)
             for x, y in zip(cuts, cuts[1:])]
            for i, k in pairs
        ]
        assert pc.tolist() == np.reshape(want, (len(pairs), (len(cuts) - 1) * len(lab))).tolist()
        calls.append((start, len(lab), pairs))
        return pc

    monkeypatch.setattr(sigmine.search, "PAIR_BYTES", pair_bytes)
    monkeypatch.setattr(sigmine.search._BatchSearch, "pair_counts", checked)
    seen = set()
    for z, masked in ((2, False), (3, False), (3, True)):
        if masked:  # every child masked: a column's scored children are grouped
            monkeypatch.setattr(sigmine.search._BatchSearch, "compacts", lambda *args: False)
        ctx = SearchContext(ds, replace(cfg, z=z))
        nsel, nxt, derived = len(ctx.base), ctx.next_start, ctx.is_derived
        calls.clear()
        sup_quality(ctx, batch, ds.mean_target())
        pairs = [p for _, _, ps in calls for p in ps]
        if z == 2:  # the root's blocks hold every pair once
            assert {s for s, _, _ in calls} == {0}
            assert sorted(pairs) == [(i, k) for i in range(nsel) for k in range(nxt[i], nsel)]
        else:  # the root tables its children
            assert all(s > 0 for s, _, _ in calls) and len(calls) > 1
        # a column of several scored children before the last one is grouped
        cols = [s.column for s in ctx.base]
        scored = [cols[i] for i in np.flatnonzero(~derived).tolist() if cols[i] != cols[-1]]
        if masked and pair_bytes > 1 and len(scored) > len(set(scored)):
            assert max(w for _, w, _ in calls) > len(batch) + 1
        seen.update((bool(derived[i]), bool(derived[k])) for i, k in pairs)
    assert seen == ({(False, False), (False, True), (True, False), (True, True)}
                    if DERIVED[name] else {(False, False)})


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_grouped_restriction_matches_one_child_groups(name, compact, monkeypatch):
    # a depth z-3 node restricts a column's compacting children together,
    # each child's transactions a segment of the words, and counts a group
    # by segment; groups of one child give the same suprema, node counts
    # and popcount words, whether children compact by the rule (on these
    # small instances, seldom) or all of them do; an empty child's segment
    # (an empty cut of the tied or the two-valued column) counts 0
    ds, cfg = derived_instances()[name]
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 9, j) for j, p in enumerate((0.2, 0.5, 0.8))]
    center = ds.mean_target()
    popcounts, words, segments = sigmine.search._popcounts, [], []

    def record_popcounts(covers, lab, seg=None):
        words.append(len(covers) * lab.size)
        segments.append(np.diff([0, lab.shape[1]] if seg is None else seg))
        return popcounts(covers, lab, seg)

    monkeypatch.setattr(sigmine.search, "_popcounts", record_popcounts)
    if compact:
        monkeypatch.setattr(sigmine.search._BatchSearch, "compacts", lambda *args: True)
    empty = False
    for z in (3, 4):
        zcfg = replace(cfg, z=z)
        ctx = SearchContext(ds, zcfg)
        runs = []
        for one in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if one:
                    mp.setattr(sigmine.search._BatchSearch, "fit", lambda *args: 1)
                words.clear()
                segments.clear()
                runs.append((fields(counted(ctx, batch, center)), sum(words)))
            widest = max(len(s) for s in segments)
            if one:
                assert widest == 1
            elif compact:
                # a column of several scored children before the last one
                # is restricted as one group
                cols = [s.column for s in ctx.base]
                scored = [cols[i] for i in np.flatnonzero(~ctx.is_derived) if cols[i] != cols[-1]]
                assert (widest > 1) == (len(scored) > len(set(scored)))
                empty |= any(len(s) > 1 and (s == 0).any() for s in segments)
        assert runs[0] == runs[1]
        for lv, sup in zip(batch, runs[0][0][0]):
            want = oracle if z == 3 else own_search
            assert sup == want(ds, lv, center, zcfg)[0]
    assert empty == (compact and name in ("tied", "equal_cuts"))


def popcount_rows(ctx, start, depth):
    """Rows a prune-free batched search below a node counts by popcount
    when only the scored children of a depth z-3 node are restricted and
    counted, the derived ones by subtraction."""
    nsel, z = len(ctx.base), ctx.cfg.z
    rows = np.count_nonzero(~ctx.is_derived[start:])
    for i in range(start, nsel):
        nxt = ctx.next_start[i]
        if nxt == nsel:
            continue
        if depth + 3 < z:
            rows += popcount_rows(ctx, nxt, depth + 1)
        elif not ctx.is_derived[i]:
            rows += np.count_nonzero(~ctx.is_derived[nxt:]) + ctx.scored_pairs[nxt]
    return rows


@pytest.mark.parametrize("z", [3, 4])
@pytest.mark.parametrize("name", ["categorical", "continuous", "interval", "tied", "equal_cuts"])
def test_derived_children_of_table_nodes_are_not_counted(name, z, monkeypatch):
    # a depth z-3 node tables a derived child by sibling subtraction: the
    # child is never restricted (`groups`), and popcounts count exactly
    # the rows of the scored children's subtrees, a cover row popcounted
    # against a group's stacked label rows once for each child of the group
    ds, cfg = derived_instances()[name]
    cfg = replace(cfg, z=z)
    ctx = SearchContext(ds, cfg)
    assert ctx.is_derived.any()
    batch = [ds.target, bernoulli_labels(ds.m, 0.5, 7, 0)]
    descended, counted = [], []
    groups, popcounts = sigmine.search._BatchSearch.groups, sigmine.search._popcounts

    def record_groups(self, kids, lab, cnt, children, start, depth):
        descended.extend((i, depth) for i in children)
        return groups(self, kids, lab, cnt, children, start, depth)

    def record_popcounts(covers, lab, seg=None):
        # a group's label rows stack one block per child it counts for, or
        # its words hold one segment per child
        blocks = len(lab) // (len(batch) + 1) * (1 if seg is None else len(seg) - 1)
        counted.append(len(covers) * blocks)
        return popcounts(covers, lab, seg)

    monkeypatch.setattr(sigmine.search._BatchSearch, "groups", record_groups)
    monkeypatch.setattr(sigmine.search, "_popcounts", record_popcounts)
    want = fields(sup_quality(ctx, batch, ds.mean_target(), prune=False))
    assert {d for i, d in descended if ctx.is_derived[i]} <= set(range(z - 2))
    # a derived child of a node above depth z-3 is still restricted
    assert any(ctx.is_derived[i] and d < z - 2 for i, d in descended) == (z > 3)
    assert sum(counted) == popcount_rows(ctx, 0, 0)
    # tables that do not fit: a depth z-3 node searches its children one
    # by one, restricting the derived ones too, to the same result
    descended.clear()
    one_by_one(monkeypatch)
    assert fields(sup_quality(ctx, batch, ds.mean_target(), prune=False)) == want
    assert any(ctx.is_derived[i] and d == z - 2 for i, d in descended)
    monkeypatch.undo()
    center = ds.mean_target()
    got = [(sup, argmax(ctx, lv, center)) for lv, sup in zip(batch, want[0])]
    assert got == [oracle(ds, lv, center, cfg) for lv in batch]


def search_peak(ctx, batch):
    """The tracemalloc peak of one `sup_quality` call, in bytes."""
    tracemalloc.start()
    try:
        sup_quality(ctx, batch, ctx.dataset.mean_target())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_memory_is_bounded():
    # a 66-vector search (the WY chunk on the sweep language) on the 8124-row
    # mushroom instance at z=3: the root's tables take just under
    # BATCH_BYTES (the counts of its 3 932 (child, grandchild) pairs), and
    # at most two pair count matrices of up to 2 MiB each are held at once
    ds = generate(mushroom_class_spec(77))
    cfg = LanguageConfig(z=3, bins=5)
    ctx = SearchContext(ds, cfg)
    assert ctx.pair_start[-1] == 3932
    batch = [ds.target, *(bernoulli_labels(ds.m, 0.5, 9, j) for j in range(65))]
    assert sigmine.search._BatchSearch(ctx, len(batch), 0.0, True).tables_fit(0)
    assert search_peak(ctx, batch) < 3 * sigmine.search.BATCH_BYTES  # 12 MiB


def test_sweep_chunk_memory_is_bounded():
    # a WY chunk on the sweep instance: 66 vectors, masked children grouped
    # by column; groups, their derived pair counts and leaf pieces are
    # budgeted, so the peak stays within twice BATCH_BYTES
    ds = sweep_dataset()
    ctx = SearchContext(ds, SWEEP_LANGUAGE)
    assert ctx.batch_size() == 66
    batch = [permuted_labels(ds.target, 0, j) for j in range(66)]
    assert search_peak(ctx, batch) < 2 * sigmine.search.BATCH_BYTES


@pytest.mark.parametrize("z", [2, 3])
def test_wide_language_memory_is_bounded(z):
    # 120 selectors on 128 rows: the root's (child, grandchild) tables for
    # 64 vectors would take 6.8 MiB, so at z=3 the root searches its
    # children one by one, and a depth z-2 node counts its pairs in blocks
    # of whole columns; the peak stays below BATCH_BYTES
    spec = SyntheticSpec(128, tuple(ContColumn("normal") for _ in range(24)), NullIID(0.4), seed=1)
    ds = generate(spec)
    cfg = LanguageConfig(z=z, bins=2, forms=frozenset(Form))
    ctx = SearchContext(ds, cfg)
    assert (len(ctx.base), ctx.pair_start[-1]) == (120, 6900)
    batch = [ds.target, *(bernoulli_labels(ds.m, 0.4, 3, j) for j in range(63))]
    assert not sigmine.search._BatchSearch(ctx, len(batch), 0.0, True).tables_fit(0)
    assert search_peak(ctx, batch) < sigmine.search.BATCH_BYTES


FAULTS_PER_OP = """
import resource
from sigmine import RunConfig, compare_methods
from sigmine.oracle import generate
from sigmine.suites import SWEEP_LANGUAGE, SWEEP_SPEC
ds = generate(SWEEP_SPEC)
cfg = RunConfig(language=SWEEP_LANGUAGE, seed=0)
compare_methods(ds, cfg, permutations=40)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
compare_methods(ds, cfg, permutations=40)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mmap threshold")
def test_repeated_op_keeps_its_temporaries_in_the_heap():
    # a second sweep op in a fresh process: with the chunk temporaries
    # served by mmap, each is returned to the kernel when freed and faults
    # in again (about 1 900 minor faults an op); from the heap, almost none
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sigmine.search.__file__))}
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_OP], env=env, capture_output=True, text=True, check=True
    )
    assert int(done.stdout) < 200
