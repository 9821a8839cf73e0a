"""The batched supremum search against single-vector searches and the
brute-force oracle: every vector of a batch gets exactly its own result."""

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
    PermutationPlan,
    ResamplePlan,
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
from sigmine.language import selector_cover
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
    return top_k(ctx, lv, center, 1).entries[0][0]


def batch_for(ds, labels, size, seed):
    rates = np.linspace(0.1, 0.9, size - 1) if size > 1 else []
    return [labels] + [bernoulli_labels(ds.m, p, seed, j) for j, p in enumerate(rates)]


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
        res = sup_quality(ctx, batch, center, prune=prune)
        assert len(res.suprema) == size
        for lv, sup in zip(batch, res.suprema):
            assert sup == sup_quality(ctx, lv, center, prune=prune).supremum
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, cfg)


def own_search(ds, lv, center, cfg):
    """A plain pruned DFS over int bitsets for one vector: supremum, first
    maximizer, nodes visited and nodes whose subtree was cut."""
    ctx = SearchContext(ds, cfg)
    masks = [selector_cover(s, ds) for s in ctx.base]
    best, arg, visited, pruned = -np.inf, None, 0, 0

    def walk(cover, chosen, start, depth):
        nonlocal best, arg, visited, pruned
        for i in range(start, len(masks)):
            child, here = cover & masks[i], chosen + (i,)
            visited += 1
            val = empirical_quality(child, lv, center).value
            if val > best:
                best, arg = val, ctx.pattern(here)
            if depth + 1 < cfg.z:
                if optimistic_estimate(child, lv, center) > best:
                    walk(child, here, ctx.next_start[i], depth + 1)
                else:
                    pruned += 1

    walk(bitset.full(ds.m), (), 0, 0)
    return best, arg, visited, pruned


@pytest.mark.parametrize("z", [1, 2, 3, 4])
def test_single_vector_is_its_own_pruned_search(z):
    # node counts included; all-0 and all-1 labels make estimates tie the
    # running best, where only a strict > may prune
    for seed in range(30):
        ds, labels, center, cfg = _random_tiny_instance(seed + 6400)
        cfg = replace(cfg, z=z)
        flat = [LabelVector(np.full(ds.m, b, dtype=np.uint8)) for b in (0, 1)]
        for lv in [labels, *flat]:
            own = own_search(ds, lv, center, cfg)
            assert own_fields(SearchContext(ds, cfg), lv, center) == own


def fields(res):
    return res.suprema, res.nodes_visited, res.nodes_pruned


def own_fields(ctx, lv, center):
    """A one-vector search in `own_search`'s order, its maximizer from
    `argmax`."""
    res = sup_quality(ctx, lv, center)
    return res.supremum, argmax(ctx, lv, center), res.nodes_visited, res.nodes_pruned


@pytest.mark.parametrize("z", [2, 3, 4])
def test_batch_above_budget_and_split_pair_chunks(z, monkeypatch):
    # the budgets only size temporaries: a batch beyond batch_size(), pairs
    # scored one at a time, or a child's leaves split over reduction blocks
    # all give the same suprema and node counts; the scan's pieces of
    # frontier likewise give the same patterns and maximizers
    for seed in range(8):
        ds, labels, center, cfg = _random_tiny_instance(seed + 6200)
        cfg = replace(cfg, z=z)
        batch = batch_for(ds, labels, 7, seed)
        ctx = SearchContext(ds, cfg)
        whole = fields(sup_quality(ctx, batch, center))
        scan = threshold_mine(ctx, labels, center, 0.0, 0.05)
        maxima = [argmax(ctx, lv, center) for lv in batch]
        monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 2 * ctx.words.nbytes)
        assert ctx.batch_size() == 2 < len(batch)
        for budget in (1, 8 * len(batch) * 3, 8 * len(batch) * 5 + 7):
            monkeypatch.setattr(sigmine.search, "PAIR_BYTES", budget)
            assert fields(sup_quality(ctx, batch, center)) == whole
            assert threshold_mine(ctx, labels, center, 0.0, 0.05) == scan
            assert [argmax(ctx, lv, center) for lv in batch] == maxima
        monkeypatch.undo()
        for lv, sup, arg in zip(batch, whole[0], maxima):
            assert (sup, arg) == oracle(ds, lv, center, cfg)


@pytest.mark.parametrize(
    "z, prune, visited, pruned",
    [(2, True, 4023, 0), (3, True, 40253, 2408), (3, False, 111327, 0), (4, True, 80265, 35716)],
)
def test_node_counts_pinned(z, prune, visited, pruned):
    # pinned from the per-child search that visited each child's leaves in
    # a loop; the one-pass last two levels must reproduce its counts exactly
    ds = generate(replace(mushroom_class_spec(3), m=600))
    batch = [ds.target, *resample_target(ds, ResamplePlan(c=6, p=0.45, seed=2))]
    ctx = SearchContext(ds, LanguageConfig(z=z, bins=3))
    res = sup_quality(ctx, batch, ds.mean_target(), prune=prune)
    assert (res.nodes_visited, res.nodes_pruned) == (visited, pruned)


def test_batch_of_one_equals_bare_vector():
    ds, labels, center, cfg = _random_tiny_instance(6300)
    ctx = SearchContext(ds, cfg)
    bare = sup_quality(ctx, labels, center)
    listed = sup_quality(ctx, [labels], center)
    assert bare == listed


def test_batch_counts_cover_every_vector():
    ds, labels, center, cfg = _random_tiny_instance(6301)
    batch = batch_for(ds, labels, 7, 6301)
    ctx = SearchContext(ds, cfg)
    shared = sup_quality(ctx, batch, center)
    unpruned = sup_quality(ctx, batch, center, prune=False)
    alone = [sup_quality(ctx, lv, center) for lv in batch]
    assert max(r.nodes_visited for r in alone) <= shared.nodes_visited
    assert shared.nodes_visited <= unpruned.nodes_visited
    with pytest.raises(ValueError):
        shared.supremum


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
    plan = PermutationPlan(p=7, seed=4)
    ctx = SearchContext(ds, cfg.language)
    assert ctx.batch_size() >= plan.p
    whole = wy_quantile(ctx, cfg, plan)
    monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 2 * ctx.words.nbytes)
    assert ctx.batch_size() == 2
    chunked = wy_quantile(ctx, cfg, plan)
    assert whole.deviations.tolist() == chunked.deviations.tolist()
    assert whole.delta_quantile == chunked.delta_quantile


def test_resample_chunking_keeps_deviations(wy_instance, monkeypatch):
    ds, cfg = wy_instance
    ctx = SearchContext(ds, cfg.language)
    vecs = resample_target(ds, ResamplePlan(c=7, p=0.45, seed=12))
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
    ones = resample_target(ds, ResamplePlan(c=2, p=1.0, seed=m))  # constant resamples
    assert all(lv.ones == m for lv in ones)
    batch = [zeros, *ones, ds.target, *resample_target(ds, ResamplePlan(c=3, p=0.5, seed=m))]
    ctx = SearchContext(ds, cfg)
    for center in (0.0, 0.35, 1.0):
        res = sup_quality(ctx, batch, center, prune=prune)
        for lv, sup in zip(batch, res.suprema):
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, cfg)



@pytest.mark.parametrize("prune", [True, False])
def test_empty_selector_cover_deep_language(prune):
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


# derived selector -> basis, and the batch's (visited, pruned) at z = 1, 2, 3,
# pinned from the search before derivation
DERIVED = {
    # the most frequent code of each column (the first of two equal ones)
    "categorical": ({0: (1,), 4: (2, 3), 5: (6, 7, 8)}, [(9, 0), (35, 0), (59, 9)]),
    # the larger of less_than(c) and at_least(c) from the other
    "continuous": (
        {2: (5,), 3: (0,), 4: (1,), 8: (11,), 9: (6,), 10: (7,), 14: (17,), 15: (12,), 16: (13,)},
        [(18, 0), (126, 0), (330, 17)],
    ),
    # the tied column's empty less_than and full at_least derive nothing
    "tied": ({4: (2, 3), 7: (10,), 8: (5,), 9: (6,)}, [(11, 0), (38, 1), (56, 3)]),
    # a full cover has no basis
    "one_code": ({1: (2,), 5: (3, 4)}, [(6, 0), (17, 0), (23, 0)]),
    # one selector per column; the all-ones column covers every row
    "itemset": ({}, [(4, 0), (10, 0), (14, 0)]),
    # intervals never fill a complement; less_than(c) and at_least(c) still do
    "interval": ({2: (5,), 3: (0,), 4: (1,), 10: (8, 9), 13: (16,), 14: (11,), 15: (12,)},
                 [(19, 0), (131, 1), (219, 46)]),
    "interval_only": ({}, [(6, 0), (18, 0), (22, 8)]),
    # c1 < median is the complement of c0 = 0, but on another column
    "across_columns": ({1: (0,), 4: (3, 5)}, [(6, 0), (17, 0), (20, 1)]),
    # equal covers share no basis: c0>=10 from c0<10, not from c0<5
    "equal_cuts": ({4: (1,), 5: (2,), 7: (6, 8), 11: (14,), 12: (9,), 13: (10,)},
                   [(15, 0), (78, 1), (144, 10)]),
}


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_selectors(name):
    ds, cfg = derived_instances()[name]
    bases, pinned = DERIVED[name]
    ctx = SearchContext(ds, cfg)
    assert {k: b for k, b in enumerate(ctx.basis) if b is not None} == bases
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 5, j) for j, p in enumerate((0.2, 0.5, 0.8))]
    center = ds.mean_target()
    for z, counts in zip((1, 2, 3), pinned):
        zcfg = replace(cfg, z=z)
        zctx = SearchContext(ds, zcfg)
        res = sup_quality(zctx, batch, center)
        assert (res.nodes_visited, res.nodes_pruned) == counts
        for lv, sup in zip(batch, res.suprema):
            assert sup == sup_quality(zctx, lv, center).supremum
            assert (sup, argmax(zctx, lv, center)) == oracle(ds, lv, center, zcfg)
        rows = brute_force_qualities(ds, ds.target, center, zcfg)
        eps = float(np.quantile([v for _, v, _ in rows], 0.7))
        for eps_t in (0.0, 0.05):
            got = threshold_mine(zctx, ds.target, center, eps, eps_t)
            want = sorted((idx, p, v) for p, v, idx in rows
                          if v >= eps + eps_t * (evaluate(p, ds).bit_count() / ds.m))
            assert [(p, q.value) for p, q in got] == [(p, v) for _, p, v in want]
        top = top_k(zctx, ds.target, center, 6).entries
        assert [(p, q.value) for p, q in top] == brute_force_top_k(ds, ds.target, center, zcfg, 6)
    # deeper, a depth z-3 node below the root tables its derived children
    for z in (4, 5):
        zcfg = replace(cfg, z=z)
        zctx = SearchContext(ds, zcfg)
        res = sup_quality(zctx, batch, center)
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


@pytest.mark.parametrize("shrunk", [False, True])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_grouped_tables_and_replay_pieces(name, shrunk, monkeypatch):
    # with every child masked, a depth z-3 node tables the scored children
    # of a column in groups and replays its children in pieces; with the
    # budgets shrunk, groups and pieces hold one child, and the root still
    # tables; either way every vector gets its own search
    ds, cfg = derived_instances()[name]
    batch = [ds.target] + [bernoulli_labels(ds.m, p, 8, j) for j, p in enumerate((0.3, 0.6, 0.9))]
    center, w = ds.mean_target(), len(batch) + 1
    widths, pieces, tabled = [], [], []
    batched = sigmine.search._BatchSearch
    leaf_best, replay, tables = batched.leaf_best, batched.replay, batched.tables

    def record_leaf_best(self, start, width, pair_counts):
        widths.append(width)
        return leaf_best(self, start, width, pair_counts)

    def record_replay(self, starts, *args):
        pieces.append(len(starts))
        return replay(self, starts, *args)

    def record_tables(self, *args):
        tabled.append(z)
        return tables(self, *args)

    monkeypatch.setattr(batched, "compacts", lambda *args: False)
    monkeypatch.setattr(batched, "leaf_best", record_leaf_best)
    monkeypatch.setattr(batched, "replay", record_replay)
    monkeypatch.setattr(batched, "tables", record_tables)
    for z in (3, 4, 5):
        zcfg = replace(cfg, z=z)
        ctx = SearchContext(ds, zcfg)
        own = [own_search(ds, lv, center, zcfg) for lv in batch]
        if shrunk:
            monkeypatch.setattr(sigmine.search, "PAIR_BYTES", 1)
            # the root's tables, counts and best leaves, just fit
            root = ctx.pairs.pair_start[-1] * (16 * w - 8)
            monkeypatch.setattr(sigmine.search, "BATCH_BYTES", root)
        res = sup_quality(ctx, batch, center)
        assert res.suprema == [o[0] for o in own]
        assert [own_fields(ctx, lv, center) for lv in batch] == own
        monkeypatch.setattr(sigmine.search, "PAIR_BYTES", PAIR_BYTES)
        monkeypatch.setattr(sigmine.search, "BATCH_BYTES", BATCH_BYTES)
        for lv, sup in zip(batch, res.suprema):
            assert (sup, argmax(ctx, lv, center)) == oracle(ds, lv, center, zcfg)
    assert set(tabled) == {3, 4, 5}
    # a column of several scored children before the last one is grouped
    cols = [s.column for s in ctx.base]
    scored = [cols[i] for i in ctx.scored.tolist() if cols[i] != cols[-1]]
    grouped = len(scored) > len(set(scored))
    assert max(pieces) == 1 if shrunk else max(pieces) > 1
    assert max(widths) > w if grouped and not shrunk else max(widths) <= w


def popcount_rows(ctx, start, depth):
    """Rows a prune-free batched search below a node counts by popcount
    when only the scored children of a depth z-3 node are restricted and
    counted, the derived ones by subtraction."""
    nsel, z, pix = len(ctx.base), ctx.cfg.z, ctx.pairs
    rows = len(ctx.scored) - ctx.scored_from[start]
    for i in range(start, nsel):
        nxt = ctx.next_start[i]
        if nxt == nsel:
            continue
        if depth + 3 < z:
            rows += popcount_rows(ctx, nxt, depth + 1)
        elif not ctx.is_derived[i]:
            rows += len(ctx.scored) - ctx.scored_from[nxt] + len(pix.ss_row) - pix.ss_start[nxt]
    return rows


@pytest.mark.parametrize("z", [3, 4])
@pytest.mark.parametrize("name", ["categorical", "continuous", "interval", "tied", "equal_cuts"])
def test_derived_children_of_table_nodes_are_not_counted(name, z, monkeypatch):
    # a depth z-3 node tables a derived child by sibling subtraction: the
    # child is never restricted (`descend`), and popcounts count exactly
    # the rows of the scored children's subtrees, a cover row popcounted
    # against a group's stacked label rows once for each child of the group
    ds, cfg = derived_instances()[name]
    cfg = replace(cfg, z=z)
    ctx = SearchContext(ds, cfg)
    assert ctx.is_derived.any()
    batch = [ds.target, bernoulli_labels(ds.m, 0.5, 7, 0)]
    descended, counted = [], []
    descend, popcounts = sigmine.search._BatchSearch.descend, sigmine.search._popcounts

    def record_descend(self, kids, lab, cnt, r, start, depth):
        descended.append((start + r, depth))
        return descend(self, kids, lab, cnt, r, start, depth)

    def record_popcounts(covers, lab):
        # a group's label rows stack one block per child it counts for
        counted.append(len(covers) * (len(lab) // (len(batch) + 1)))
        return popcounts(covers, lab)

    monkeypatch.setattr(sigmine.search._BatchSearch, "descend", record_descend)
    monkeypatch.setattr(sigmine.search, "_popcounts", record_popcounts)
    want = fields(sup_quality(ctx, batch, ds.mean_target(), prune=False))
    assert {d for i, d in descended if ctx.is_derived[i]} <= set(range(z - 2))
    # a derived child of a node above depth z-3 is still restricted
    assert any(ctx.is_derived[i] and d < z - 2 for i, d in descended) == (z > 3)
    assert sum(counted) == popcount_rows(ctx, 0, 0)
    # tables over BATCH_BYTES: a depth z-3 node searches its children one
    # by one, restricting the derived ones too, to the same result
    descended.clear()
    monkeypatch.setattr(sigmine.search, "BATCH_BYTES", 1)
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
    # BATCH_BYTES (counts and best leaves over its 3 932 (child,
    # grandchild) pairs), and at most two pair count matrices of up to
    # 2 MiB each are held at once
    ds = generate(mushroom_class_spec(77))
    cfg = LanguageConfig(z=3, bins=5)
    ctx = SearchContext(ds, cfg)
    assert ctx.pairs.pair_start[-1] == 3932
    batch = [ds.target, *(bernoulli_labels(ds.m, 0.5, 9, j) for j in range(65))]
    assert 3932 * (16 * 67 - 8) <= sigmine.search.BATCH_BYTES
    assert search_peak(ctx, batch) < 3 * sigmine.search.BATCH_BYTES  # 12 MiB


def test_sweep_chunk_memory_is_bounded():
    # a WY chunk on the sweep instance: 66 vectors, masked children grouped
    # by column; groups, their derived pair counts and replay pieces are
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
    assert (len(ctx.base), ctx.pairs.pair_start[-1]) == (120, 6900)
    assert 6900 * (16 * 65 - 8) > sigmine.search.BATCH_BYTES
    batch = [ds.target, *(bernoulli_labels(ds.m, 0.4, 3, j) for j in range(63))]
    assert search_peak(ctx, batch) < sigmine.search.BATCH_BYTES
