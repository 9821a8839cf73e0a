"""Pruned depth-first search over the pattern language.

Three entry points share one enumeration: the supremum of the centered
quality under a batch of label vectors (the engine's hot loop: one traversal
serves every resample, or a chunk of permutations), exact top-k mining, and
the final thresholded scan that emits every pattern whose observed quality
clears a frequency-dependent cutoff.  All three run on uint64-packed covers;
top-k is the scan with a threshold that rises as it finds patterns.  Each
takes a `SearchContext`, built once per dataset and language, and label
vectors of the context's length; none takes a dataset or a language of its
own.

Pruning is lossless: a pattern's refinements keep a subset of its cover, so
(positives - positives * center) / m bounds every descendant's quality, and
computed in that form it also bounds every descendant's computed quality
(see `optimistic_estimate`).  The supremum search returns values only.
Top-k breaks ties toward the first pattern in canonical DFS order, so a
vector's first maximizer is the one entry of `top_k(ctx, labels, center, 1)`.

Many selectors are complements: at_least(c) of less_than(c), one code of a
categorical column of the other codes.  Such a *derived* selector, the
largest cover of its partition, is counted without a popcount: under any
node its cover's size and positives are the node's minus those of its basis
(see `SearchContext`).  These are integer identities, so every quality, and
every result, is the one a popcount would give, bit for bit.

The supremum search applies them to whole subtrees too.  Its last two
levels are counted per depth z-2 node into a table, and a depth z-3 node
whose children's tables fit its budget tables them all; a derived child's
table is its siblings' tables subtracted, with no restriction and no
popcount (see `_BatchSearch.tables`).  A table only raises each vector's
running maximum, so it is counted in whatever order suits the counting.
The children of one column share the selectors below them, so they are
tabled in groups, each child's counts one more block of columns of the
same counts, from its label rows stacked below its siblings' or its segment
of the words beside theirs, so that the per-child work is a few numpy calls
per group.  A subtree is restricted to its root's transactions by one
routine, `_BatchSearch.groups`, whether its root is tabled or searched one
by one.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import bitset
from .bounds import significance_cutoff
from .data import Dataset, LabelVector
from .errors import ConfigError
from .language import Cover, LanguageConfig, Pattern, base_selectors, selector_flags
from .quality import QualityStat, centered_quality, cover_counts, quality_estimate


def optimistic_estimate(cover: Cover, labels: LabelVector, center: float) -> float:
    """Upper bound on the centered quality of every refinement of a pattern.

    A refinement's cover is a subset of `cover`; the best it can do is keep
    all label-1 transactions and drop the rest, scoring positives*(1-center)/m.
    The bound also dominates the pattern's own quality since positives <= |cover|,
    and computed as `quality_estimate`, every descendant's computed quality.
    """
    return quality_estimate(cover_counts(cover, labels)[1], center, labels.m)


# memory budget of the batched search's largest per-node temporary, and of
# the tables of a depth z-3 node's children
BATCH_BYTES = 4 << 20
# memory budget of one chunk of (child, leaf) pairs in the last two levels
PAIR_BYTES = 512 << 10
# patterns per piece of the top-k scan: small, so that the threshold rises
# between pieces and prunes the next ones
TOP_K_PIECE = 16


class SearchContext:
    """One dataset under one language: the handle every search and every
    pipeline stage takes, so a threshold is searched over the same dataset
    and language that the final scan reports from.  It keeps the `dataset`
    it was built from and the language `cfg`.

    Selector covers are computed once, as the rows of the (selectors, words)
    uint64 matrix `words` that every search intersects down the language.
    `col_heads` holds the first selector of each column, and `next_start[k]`
    the first on a column after k's.  The context is immutable but for
    `layouts`, the cache of `children`.

    Selector k is *derived* when its cover and the covers of `basis[k]`, a
    non-empty set of other non-derived selectors on the same column, are
    pairwise disjoint and together hold all m rows, k's cover being the
    largest of them: the larger of at_least(c) and less_than(c), the most
    frequent code of a categorical column with the other codes (see
    `derive_bases`).  Any node cover C then splits the same way, so
    |C & k| = |C| - the sum of |C & b| over the basis, and likewise for the
    positives under every label vector.  These are exact integer
    identities, so a quality computed from them is the same float as one
    computed from a popcount, and the searches count derived selectors by
    subtraction.  The test runs on the covers, not on selector forms, so
    ties, collapsed cuts, itemset mode and interval forms derive only what
    truly partitions the rows; the basis stays on the selector's column, so
    wherever the selector is a child or a leaf, so is its basis.  The
    searches read the bases from one CSR indexed by selector: k's basis is
    basis_rows[basis_ptr[k] : basis_ptr[k + 1]], empty when k is scored.
    Counts are summed as uint32, so a context takes fewer than 2**32 rows.

    The last two levels of the batched search count (child, leaf) pairs
    (i, k), k >= next_start[i], child after child: child i's pairs are rows
    pair_start[i] - pair_start[s] .. of those of a node whose children
    start at s (none when z=1), and `scored_pairs[s]` counts the pairs of
    two scored selectors from child s on.  The same identity holds one level
    up: below a node N, |N & d & x| = |N & x| - the sum of |N & b & x| over
    d's basis for any pattern x on later columns, so a derived child's
    leaves, children or a whole table are its siblings' subtracted.
    """

    def __init__(self, dataset: Dataset, cfg: LanguageConfig):
        if dataset.m >= 2**32:  # popcounts are summed as uint32
            raise ConfigError(f"a search takes fewer than 2**32 rows, got {dataset.m}")
        self.dataset = dataset
        self.cfg = cfg
        self.base = base_selectors(dataset, cfg)
        if not self.base:
            raise ConfigError("language has no base selectors", "forms")
        self.m = m = dataset.m
        nsel = len(self.base)
        self.words = np.empty((nsel, (m + 63) // 64), dtype=np.uint64)
        for k, sel in enumerate(self.base):
            self.words[k] = bitset.pack_rows(selector_flags(sel, dataset)[None])[0]
        cols = np.array([s.column for s in self.base])
        # first base index on a column strictly greater than base[i]'s
        self.next_start = np.searchsorted(cols, cols, side="right")
        self.basis = derive_bases(self.words, cols, self.m)
        self.is_derived = np.array([b is not None for b in self.basis])
        # selector k's basis is basis_rows[basis_ptr[k] : basis_ptr[k + 1]],
        # empty when k is scored
        sizes = [len(b or ()) for b in self.basis]
        self.basis_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)
        self.basis_rows = np.array([b for bs in self.basis for b in bs or ()], dtype=np.intp)
        self.col_heads = np.flatnonzero(np.diff(cols, prepend=-1))
        pairs = (nsel - self.next_start) * (cfg.z > 1)
        self.pair_start = np.concatenate([[0], np.cumsum(pairs)])
        suffix = lambda x: np.append(np.cumsum(x[::-1])[::-1], 0)  # sums from each index on
        scored = suffix(~self.is_derived)
        self.scored_pairs = suffix(~self.is_derived * scored[self.next_start] * (cfg.z > 1))
        self.layouts: dict[int | tuple[int, int], tuple] = {}

    def children(self, a: int, b: int | None = None) -> tuple:
        """`_child_layout`, built once per context and kept as int32, as the
        batched search counts many nodes alike: that of the children of a
        node whose children start at `a`, or given `b`, that of the (child,
        leaf) pairs of the scored children a..b, their children
        (`pair_counts`)."""
        key = a if b is None else (a, b)
        if key not in self.layouts:
            starts, keep = ([a], None) if b is None else (self.next_start[a:b], ~self.is_derived[a:b])
            self.layouts[key] = tuple(x.astype(np.int32) for x in _child_layout(self, starts, keep))
        return self.layouts[key]

    def sup_frequency(self) -> float:
        """max_P f_P over the whole language (attained at depth 1)."""
        return int(np.bitwise_count(self.words).sum(axis=1).max()) / self.m

    def pattern(self, indices) -> Pattern:
        return Pattern(tuple(self.base[i] for i in indices))

    def batch_size(self) -> int:
        """The vectors `sup_quality` searches in one traversal: BATCH_BYTES
        over the bytes of `words`, at least 1."""
        return max(1, BATCH_BYTES // self.words.nbytes)


def derive_bases(words: np.ndarray, columns: Sequence[int], m: int) -> list[tuple[int, ...] | None]:
    """For each selector, None, or the other non-derived selectors on its
    column whose covers are pairwise disjoint and, with its own cover, hold
    all m rows (see `SearchContext`); selector k's cover is row k of the
    packed matrix `words`, and `columns` is ascending, as in the base.

    Partitions are found in one greedy pass.  `free` holds the earlier
    non-empty selectors of k's column in no partition yet; k is skipped at
    once when its size and theirs sum to less than m, as every code of a
    categorical column but the last is.  Otherwise the free selectors that
    meet k, which cannot join its partition, are dropped by one AND, and
    each of the others, largest first, is kept when its cover misses
    `cover`, the union of k's and those kept so far, until their sizes and
    k's sum to m (a full cover admits no further non-empty selector).  Then
    the largest of them, k on equal sizes, is made derived in place, so
    that the smaller ones are popcounted.  So a selector is in at most one
    partition (equal covers, as at cuts with no value between them, would
    otherwise share one).
    """
    sizes = np.bitwise_count(words).sum(axis=1).tolist()
    bases: list[tuple[int, ...] | None] = [None] * len(words)
    free: list[int] = []
    for k in range(len(words)):
        if k and columns[k] != columns[k - 1]:
            free = []
        picked, filled = [], sizes[k]
        if filled + sum(sizes[j] for j in free) >= m:
            cover = words[k].copy()
            apart = [j for j, hit in zip(free, (words[free] & cover).any(axis=1)) if not hit]
            for j in sorted(apart, key=lambda j: -sizes[j]):
                if filled < m and not np.count_nonzero(cover & words[j]):
                    cover |= words[j]
                    picked.append(j)
                    filled += sizes[j]
        if picked and filled == m:
            # picked[0] has the largest cover of them, the first on a tie
            big = picked[0] if sizes[picked[0]] > sizes[k] else k
            bases[big] = tuple(sorted({*picked, k} - {big}))
            free = sorted({*free} - {*picked})
        elif sizes[k]:
            free.append(k)
    return bases


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[r] .. starts[r] + lens[r]."""
    first = np.cumsum(lens) - lens
    return np.repeat(starts - first, lens) + np.arange(lens.sum())


@dataclass
class SearchResult:
    """Per-vector suprema of one `sup_quality` call, and its work summed
    over its traversals: `nodes_visited` counts the patterns whose counts
    it formed, by popcount or by subtraction, and `nodes_pruned` the
    subtrees it skipped.  A vector's first maximizer in canonical order is
    `top_k(ctx, labels, center, 1)[0][0]`."""

    suprema: list[float]
    nodes_visited: int
    nodes_pruned: int

    @property
    def supremum(self) -> float:
        if len(self.suprema) != 1:
            raise ValueError(f"batch of {len(self.suprema)} vectors; read suprema")
        return self.suprema[0]


def sup_quality(
    ctx: SearchContext,
    labels: LabelVector | Iterable[LabelVector],
    center: float,
    prune: bool = True,
) -> SearchResult:
    """Exact maximum of the centered quality over the whole language, for one
    label vector or for every vector of a batch, one traversal per
    `ctx.batch_size()` vectors; the vectors are read a chunk at a time, so
    a generator keeps at most one chunk alive.  The result's suprema are in
    the batch's order and its node counts the sums over the traversals.

    Covers and labels are packed into uint64 word matrices: each node forms
    all its children with one ``&`` and counts frequencies and per-vector
    positives with a popcount, or by subtraction for derived selectors (see
    `SearchContext`).  Before entering a subtree deeper than one level the
    matrices are restricted to the subtree root's transactions, the only
    ones its patterns can cover: compacted, so deep levels work on fewer
    words, or masked, where compaction would cost more than it saves.

    The last two levels run as tables.  A depth z-2 node's table holds its
    children's counts and those of every (child, leaf) pair below it, for
    every vector, in blocks of whole columns: a scored child's leaves are
    counted as its children, a derived child's are the node's children
    minus its basis siblings' leaves, so only pairs of two scored selectors
    take a popcount.  A depth z-3 node (the root when z=3) tables all its
    children (`_BatchSearch.tables`) when their tables fit its budget
    (`_BatchSearch.tables_fit`), and otherwise searches them one by one, as
    the nodes above it do.  Each table raises the maxima once, whole.  When
    z <= 2 the root tables itself.

    Each vector keeps a running maximum, which every value a table counts
    raises.  Above the tables, children are taken in canonical order: a
    child's value raises the maxima, and its subtree is entered when some
    vector's estimate beats that vector's maximum.  The maxima end as the
    exact suprema, since a vector's estimate that does not beat its maximum
    dominates every computed quality below (`optimistic_estimate`).  Only
    the values are kept: a vector's first maximizer is
    `top_k(ctx, labels, center, 1)`'s entry.
    """
    vectors = iter([labels] if isinstance(labels, LabelVector) else labels)
    res = SearchResult([], 0, 0)
    while chunk := list(islice(vectors, ctx.batch_size())):
        search = _BatchSearch(ctx, len(chunk), center, prune)
        search.node(ctx.words, _label_words(chunk, ctx.m), 0, 0)
        res.suprema += search.best.tolist()
        res.nodes_visited += search.visited
        res.nodes_pruned += search.pruned
    if not res.suprema:
        raise ConfigError("sup_quality needs at least one label vector")
    return res


def _label_words(batch: Sequence[LabelVector], m: int) -> np.ndarray:
    """Row 0 holding every transaction, then the label vectors, packed."""
    for lv in batch:
        if lv.m != m:
            raise ConfigError(f"label vector of length {lv.m} on a context of {m} rows")
    return bitset.pack_rows(np.array([np.ones(m, dtype=np.uint8), *(lv.bits for lv in batch)]))


def _popcounts(covers, lab, seg=None):
    """Counts (covers x label rows) of `covers` by popcount; with row 0 of
    `lab` holding every transaction, column 0 is the size of each cover and
    the others its positives under each vector.  Given offsets `seg`
    (`_restrict`), segment g, the words seg[g]..seg[g + 1], is counted apart,
    as block g of columns.  Summed as uint32, exact since a count is at most
    m < 2**32 (`SearchContext`)."""
    bits = np.bitwise_count(covers[:, None, :] & lab)
    if seg is None:
        return bits.sum(axis=2, dtype=np.uint32)
    # reduceat gives an empty segment the word at its offset, so it is left 0
    cnt = np.zeros((len(covers), len(lab), len(seg) - 1), dtype=np.uint32)
    full = np.flatnonzero(np.diff(seg))
    if len(full):
        cnt[..., full] = np.add.reduceat(bits, seg[full], axis=2, dtype=np.uint32)
    return cnt.swapaxes(1, 2).reshape(len(covers), -1)


def _popcount_rows(cnt, rows, lab, words, w, parents=None, p=None, seg=None) -> None:
    """Fill the rows `rows` of `cnt` with the counts (`_popcounts`) of the
    covers words[w], ANDed with parents[p] when given, in chunks of at most
    PAIR_BYTES of (rows x label rows x words) temporary (or one row's)."""
    step = max(1, PAIR_BYTES // max(lab.nbytes, 1))
    for c in range(0, len(rows), step):
        chunk = slice(c, c + step)
        covers = words[w[chunk]]
        if parents is not None:  # not `&=`: in place, the scan faulted 3x as often
            covers = parents[p[chunk]] & covers
        cnt[rows[chunk]] = _popcounts(covers, lab, seg)


def _child_layout(ctx: SearchContext, starts, keep=None):
    """The children starts[p].. of each parent p, parent after parent, as
    (selectors, parents, scored rows, derived rows, basis offsets, basis
    rows): the r-th derived row's basis siblings are the rows
    basis[offsets[r]:offsets[r + 1]], the last one's running to the end,
    and derived child k at row r has its basis sibling b at row r + b - k;
    no basis is empty.  With the mask `keep` over the parents, the
    children of the others are in neither row list."""
    lens = len(ctx.base) - np.asarray(starts)
    sel = _ranges(starts, lens)
    derived = ctx.is_derived[sel]
    scored = ~derived
    if keep is not None:
        kept = np.repeat(keep, lens)
        derived, scored = derived & kept, scored & kept
    d = np.flatnonzero(derived)
    k = sel[d]
    sizes = ctx.basis_ptr[k + 1] - ctx.basis_ptr[k]
    basis = np.repeat(d - k, sizes) + ctx.basis_rows[_ranges(ctx.basis_ptr[k], sizes)]
    par = np.repeat(np.arange(len(lens)), lens)
    return sel, par, np.flatnonzero(scored), d, np.cumsum(sizes) - sizes, basis


def _child_counts(lab, children, words, first=0, parents=None, total=None, seg=None):
    """Counts (children x label rows, per segment `seg` if given) of the
    `children` (`_child_layout`) of one or more parents: scored child k by
    popcount of row k - first of `words`, ANDed with its parent's row of
    `parents` if given (`_popcount_rows`); derived ones as their parent's
    counts `total[p]`, by default those of unsegmented `lab`, minus their
    basis siblings'."""
    sel, par, rows, d, offsets, basis = children
    if total is None:
        total = np.bitwise_count(lab).sum(axis=1, dtype=np.int64)[None]
    cnt = np.empty((len(sel), total.shape[1]), dtype=np.int64)
    _popcount_rows(cnt, rows, lab, words, sel[rows] - first, parents, par[rows], seg)
    if len(d):
        cnt[d] = total[par[d]] - np.add.reduceat(cnt[basis], offsets, axis=0)
    return cnt


class _BatchSearch:
    """The running maximum of each vector of one `sup_quality` call, and
    the call's node counters.

    Counts are (entries x (1 + vectors)) int64 arrays from `_popcounts`:
    row 0 of the label matrix holds every transaction of the node."""

    def __init__(self, ctx: SearchContext, c: int, center: float, prune: bool):
        self.ctx = ctx
        self.center = center
        self.prune = prune
        self.width = c + 1
        self.best = np.full(c, -np.inf)
        self.visited = 0
        self.pruned = 0

    def quality(self, cnt):
        """Centered qualities (entries x vectors) of counts whose columns are
        one or more blocks of (1 + vectors), as a group's are (`tables`)."""
        n, g, w = len(cnt), cnt.shape[1] // self.width, self.width
        c = cnt.reshape(n, g, w)
        q = centered_quality(c[..., 1:], c[..., :1], self.center, self.ctx.m)
        return q.reshape(n, g * (w - 1))

    def raise_best(self, cnt) -> None:
        """Count the patterns of a table, counts whose columns are one or
        more blocks of (1 + vectors), as visited, and raise each vector's
        maximum to their best quality."""
        self.visited += cnt.size // self.width
        if len(cnt):
            q = self.quality(cnt).max(axis=0).reshape(-1, len(self.best))
            np.maximum(self.best, q.max(axis=0), out=self.best)

    def compacts(self, keep: int, lab, start: int, depth: int) -> bool:
        """Whether a node at `depth` with `keep` transactions, whose
        children start at selector `start`, works on them compacted.

        Deeper levels work on whatever the node works on, so a node above
        the last two levels is always compacted.  Below that, compaction
        moves about a byte per row and transaction and a popcount about a
        word (64 transactions) per pair or child and vector, so it pays when
        it saves more popcount words than it moves bytes.  Compaction moves
        every row after the child's column, derived ones too, yet `rows`
        counts only the scored ones, the rows that are popcounted; and the
        children of a column that compact are restricted together
        (`groups`), unpacking those rows once a group, yet the cost still
        charges a full unpack per child: that is the rule as it was
        measured on the benchmark workloads."""
        ctx = self.ctx
        if depth + 2 < ctx.cfg.z:
            return True
        size = lab.shape[1] * 64
        rows = np.count_nonzero(~ctx.is_derived[start:])
        pairs = ctx.scored_pairs[start]
        return (size - keep) * len(lab) * (rows + pairs) > 64 * (rows + len(lab)) * size

    def tables_fit(self, start: int) -> bool:
        """Whether a depth z-3 node whose children start at selector
        `start` tables them all (`tables`) rather than searching them one
        by one.  The tables hold counts, 8 bytes per pair and label row;
        charged 16 * width - 8 bytes a pair, they take at most about half
        of BATCH_BYTES.  The charge bounds those count tables only: the
        groups' pair counts (`groups`) and the derived children's `dpc`
        come on top, about as much again or more (120 selectors, 64
        vectors: count tables of 3.4 MiB peaked at 9.9 MiB traced, against
        2.4 MiB one by one).  A node whose tables take more, on a wide
        language, searches its children one by one, and there pruning
        saves work."""
        pairs = self.ctx.pair_start[-1] - self.ctx.pair_start[start]
        return pairs * (16 * self.width - 8) <= BATCH_BYTES

    def fit(self, nxt: int) -> int:
        """The children of one column, whose children start at selector
        `nxt`, that a group takes: as many as have pair counts, 8 bytes per
        pair and label row, within PAIR_BYTES, or one."""
        pairs = int(self.ctx.pair_start[-1] - self.ctx.pair_start[nxt])
        return max(1, PAIR_BYTES // max(8 * self.width * pairs, 1))

    def pair_counts(self, kids, lab, start: int, cnt, a: int, b: int, seg=None):
        """Counts of the (child, leaf) pairs of the children a..b, whole
        columns, of a node whose children start at selector `start`, given
        the children's counts `cnt`, child after child, per segment `seg` if
        given.  A scored child's leaves are its children (`_child_counts`,
        its counts their total).  A derived child d's are the node's
        children from its next column on minus its basis siblings' leaves,
        which have its column."""
        ctx = self.ctx
        parents = slice(a - start, b - start)
        pc = _child_counts(lab, ctx.children(a, b), kids, start, kids[parents], cnt[parents], seg)
        # child a + j's pairs are the rows rows[j]:rows[j + 1] of pc
        rows = (ctx.pair_start[a : b + 1] - ctx.pair_start[a]).tolist()
        for j in np.flatnonzero(ctx.is_derived[a:b]).tolist():
            block = pc[rows[j] : rows[j + 1]]
            block[:] = cnt[ctx.next_start[a + j] - start :]
            for s in ctx.basis[a + j]:
                block -= pc[rows[s - a] : rows[s - a + 1]]
        return pc

    def tables(self, kids, lab, cnt, start: int, depth: int) -> None:
        """Tables of the children start.. of a depth z-3 node with counts
        `cnt`: per child i, its children's counts, in rows pair_start[i] -
        pair_start[start] .. (see `SearchContext`), and the counts of the
        leaves below them, each table raising each vector's maximum once.

        The children of one column share their children, the selectors
        after the column, so they are tabled in groups (`groups`): one
        `_child_counts` and one `pair_counts` per group, each child's
        counts a block of (1 + vectors) columns, counted on its own stacked
        label rows (masked) or its own segment of the words (compacted).
        A derived child d is not restricted or counted: its children's
        counts are the node's minus those of its basis siblings, and its
        pair counts are its later siblings' children's counts (the same
        pairs, in the same order) minus its basis siblings' pair counts,
        subtracted as their groups count them.  Columns are tabled from the
        last one back, so later siblings come first.  A column's derived
        children are taken in parts whose pair counts take at most
        PAIR_BYTES (or one child's), each with the groups of its basis
        siblings, and the column's other scored children last."""
        ctx, w = self.ctx, self.width
        nsel, p0 = len(ctx.base), ctx.pair_start[start]
        cnts = np.empty((ctx.pair_start[-1] - p0, w), dtype=np.int64)
        heads = ctx.col_heads[np.searchsorted(ctx.col_heads, start) :].tolist()
        for a, nxt in reversed(list(zip(heads, [*heads[1:], nsel]))):
            if nxt == nsel:
                continue  # the last column's children have no children
            n, r0 = nsel - nxt, ctx.pair_start[nxt]
            col = slice(ctx.pair_start[a] - p0, r0 - p0)
            col_cnts = cnts[col].reshape(nxt - a, n, w)
            tail = cnts[r0 - p0 :]  # the pairs below the column: later siblings' tables
            fit = self.fit(nxt)
            # derived children a part at a time, each part with its basis
            # siblings, slot[b] the part's derived child whose basis holds b;
            # then the scored children in no basis
            derived = [d for d in range(a, nxt) if ctx.basis[d] is not None]
            parts = [derived[x : x + fit] for x in range(0, len(derived), fit)]
            parts = [(ds, {b: s for s, d in enumerate(ds) for b in ctx.basis[d]}) for ds in parts]
            used = {b for _, slot in parts for b in slot}
            free = [i for i in range(a, nxt) if ctx.basis[i] is None and i not in used]
            for ds, slot in [*parts, ([], dict.fromkeys(free))]:
                dpc = None
                groups = self.groups(kids, lab, cnt, [*slot], start, depth + 1)
                for group, sub_kids, sub_lab, seg in groups:
                    total = cnt[group - start].reshape(1, -1)  # the group's own counts
                    layout = ctx.children(nxt)
                    sub_cnt = _child_counts(sub_lab, layout, sub_kids, nxt, total=total, seg=seg)
                    col_cnts[group - a] = sub_cnt.reshape(n, len(group), w).swapaxes(0, 1)
                    pc = self.pair_counts(sub_kids, sub_lab, nxt, sub_cnt, nxt, nsel, seg)
                    self.raise_best(pc)
                    if ds:
                        if dpc is None:  # allocated once the first basis group is tabled
                            dpc = np.repeat(tail[:, None], len(ds), axis=1)
                        for g, i in enumerate(group.tolist()):
                            dpc[:, slot[i]] -= pc[:, g * w : (g + 1) * w]
                    del pc
                if ds:
                    for d in ds:
                        basis = col_cnts[np.array(ctx.basis[d]) - a]
                        col_cnts[d - a] = cnt[nxt - start :] - basis.sum(axis=0)
                    self.raise_best(dpc.reshape(len(tail), len(ds) * w))
                    del dpc
            self.raise_best(cnts[col])

    def groups(self, kids, lab, cnt, children, start: int, depth: int):
        """The `children`, of one column, of a node whose children start at
        `start`, as groups at `depth` with the cover rows after their
        column, the label rows they are counted on, and their segments'
        offsets or None, as many a group as have pair counts within
        PAIR_BYTES (`fit`).  The children that `compacts` are restricted
        together (`_restrict`), each child's transactions a segment of the
        words.  The others are masked: they share the node's cover rows,
        each with its own label rows, the node's ANDed with its cover,
        stacked.  A node searching its children one by one takes each,
        derived or scored, as a group of one."""
        if not children:
            return
        nxt = self.ctx.next_start[children[0]]
        size, after = lab.shape[1] * 64, kids[nxt - start :]
        compact = [i for i in children if self.compacts(int(cnt[i - start, 0]), lab, nxt, depth)]
        masked = [i for i in children if i not in compact]
        step = self.fit(nxt)
        for x in range(0, len(compact), step):
            group = np.array(compact[x : x + step])
            keeps = [np.flatnonzero(f) for f in bitset.unpack_rows(kids[group - start], size)]
            sub_kids, seg = _restrict(after, size, keeps)
            yield group, sub_kids, _restrict(lab, size, keeps)[0], seg
        for x in range(0, len(masked), step):
            group = np.array(masked[x : x + step])
            stacked = lab & kids[group - start, None]
            yield group, after, stacked.reshape(len(group) * len(lab), lab.shape[1]), None

    def node(self, kids, lab, start: int, depth: int) -> None:
        """Search below one node.  `kids` holds the covers of selectors
        start.. and `lab` the label vectors after the all-ones row, the
        label rows restricted to the node's transactions and the cover rows
        compacted to them or kept whole (`groups`), so the two together
        count the children's covers.

        A node at depth z-2 is its own table: its children, then the
        (child, leaf) pairs of blocks of whole columns, raise each vector's
        maximum.  A node at depth z-3 tables all its children (`tables`)
        when they fit its budget (`tables_fit`).  Any other node takes its
        children one by one in canonical order: a child's value raises the
        maxima, then its subtree is entered when some vector's estimate
        beats that vector's maximum, and counts as pruned when none does.
        The estimate does not grow down the tree and the maxima only rise,
        so a vector whose estimate fails at a node fails at every node
        below it."""
        ctx = self.ctx
        nsel = len(ctx.base)
        cnt = _child_counts(lab, ctx.children(start), kids, start)
        if depth + 2 >= ctx.cfg.z:
            self.raise_best(cnt)
            # pairs in blocks of whole columns of at most PAIR_BYTES of
            # counts, or one column's children when those alone take more;
            # children start..last have leaves, those of the last column none
            last = max(start, int(np.searchsorted(ctx.pair_start, ctx.pair_start[-1])))
            step = max(1, PAIR_BYTES // (8 * self.width))
            heads = ctx.col_heads[(ctx.col_heads >= start) & (ctx.col_heads < last)]
            rows = (ctx.pair_start[heads] - ctx.pair_start[start]) // step
            blocks = heads[np.flatnonzero(np.diff(rows, prepend=-1))].tolist()
            for a, b in zip(blocks, [*blocks[1:], last]):
                self.raise_best(self.pair_counts(kids, lab, start, cnt, a, b))
            return
        if depth + 3 == ctx.cfg.z and self.tables_fit(start):
            self.raise_best(cnt)
            self.tables(kids, lab, cnt, start, depth)
            return
        self.visited += len(cnt)
        vals = self.quality(cnt)
        bound = quality_estimate(cnt[:, 1:], self.center, ctx.m)
        for r, i in enumerate(range(start, nsel)):
            np.maximum(self.best, vals[r], out=self.best)
            nxt = ctx.next_start[i]
            if nxt == nsel:
                continue
            if self.prune and not (bound[r] > self.best).any():
                self.pruned += 1
                continue
            [(_, sub_kids, sub_lab, _)] = self.groups(kids, lab, cnt, [i], start, depth + 1)
            self.node(sub_kids, sub_lab, nxt, depth + 1)


class _Scan:
    """The patterns one `threshold_mine` or `top_k` call reports.

    The scan goes level by level over a frontier of entered patterns, in
    pieces: the children of every pattern of a piece are counted at once
    (`_child_counts`), by popcount against the pattern's cover, or by
    subtraction from the pattern's counts for derived selectors.

    A pattern is reported when its quality reaches eps + eps_t * frequency,
    and entered when its optimistic estimate reaches eps.  Reports are
    (-quality, indices, size, positives).  With `k` set, only the k first
    of them are kept, in sorted order, and eps rises to the quality of the
    k-th, `last` being its indices.  A subtree whose estimate only ties eps
    can hold nothing better than the k-th unless its root's indices come
    before `last`: its patterns score at most eps, and index tuples sort in
    canonical preorder, where a pattern comes before its descendants.  The
    patterns entered at a level are taken best-first by estimate,
    TOP_K_PIECE at a time, and each piece is filtered again against the
    risen eps before it is counted."""

    def __init__(
        self, ctx: SearchContext, labels: LabelVector, center: float, eps: float,
        eps_t: float, k: int | None = None,
    ):
        self.ctx = ctx
        self.center = center
        self.eps = eps
        self.eps_t = eps_t
        self.k = k
        self.last: tuple[int, ...] | None = None
        self.lab = _label_words([labels], ctx.m)
        self.hits: list[tuple[float, tuple[int, ...], int, int]] = []

    def run(self) -> list[tuple[tuple[int, ...], QualityStat]]:
        """Scan the language; the hits with their quality statistics, in
        canonical order, or with k set the k best in (-quality, canonical)
        order."""
        self.level(self.lab[:1], [()], np.zeros(1, dtype=np.intp), None, 1)
        hits = self.hits if self.k is not None else sorted(self.hits, key=lambda h: h[1])
        return [(idx, QualityStat(-q, n / self.ctx.m, pos)) for q, idx, n, pos in hits]

    def level(self, covers, chosen, starts, total, depth: int) -> None:
        """Scan the children of the patterns `chosen`, whose covers are
        `covers`, counts `total` (None at the root: `_child_counts`) and
        children start at `starts`, at `depth`."""
        ctx = self.ctx
        nsel, m = len(ctx.base), ctx.m
        children = _child_layout(ctx, starts)
        cnt = _child_counts(self.lab, children, ctx.words, 0, covers, total)
        sel, par = children[:2]
        n, pos = cnt[:, 0], cnt[:, 1]
        vals = centered_quality(pos, n, self.center, m)
        found = np.flatnonzero(vals >= significance_cutoff(self.eps, self.eps_t, n / m))
        hits = [
            (-v, chosen[par[h]] + (int(sel[h]),), int(n[h]), int(pos[h]))
            for h, v in zip(found, vals[found].tolist())
        ]
        if self.k is None:
            self.hits += hits
        else:
            self.keep(hits)
        if depth == ctx.cfg.z:
            return
        nxt = ctx.next_start[sel]
        est = quality_estimate(pos, self.center, m)
        enter = np.flatnonzero((est >= self.eps) & (nxt < nsel))
        for e in self.pieces(enter, est[enter], nsel - nxt[enter]):
            e = e[est[e] >= self.eps]
            if self.last is not None:
                e = e[[est[x] > self.eps or chosen[par[x]] + (int(sel[x]),) < self.last for x in e]]
            if len(e):
                self.level(
                    covers[par[e]] & ctx.words[sel[e]],
                    [chosen[par[x]] + (int(sel[x]),) for x in e],
                    nxt[e], cnt[e], depth + 1,
                )

    def keep(self, hits) -> None:
        """Merge reports into the k best and raise eps to the k-th."""
        top = self.hits
        for h in hits:
            insort(top, h)
        del top[self.k :]
        if len(top) == self.k:
            self.eps, self.last = -top[-1][0], top[-1][1]

    def pieces(self, enter, est, kids):
        """The patterns `enter`, with estimates `est` and `kids` children
        each, split into the pieces that are scanned one after another."""
        if self.k is not None:
            order = enter[np.argsort(-est, kind="stable")]
            return [order[a : a + TOP_K_PIECE] for a in range(0, len(order), TOP_K_PIECE)]
        # pieces of at most BATCH_BYTES of covers and PAIR_BYTES of counts
        per_piece = max(1, BATCH_BYTES // max(self.ctx.words[0].nbytes, 1))
        before = np.cumsum(kids) - kids
        piece = np.maximum(before // max(1, PAIR_BYTES // 16), np.arange(len(enter)) // per_piece)
        heads = np.flatnonzero(np.diff(piece, prepend=-1))
        return [enter[a:b] for a, b in zip(heads, [*heads[1:], len(enter)])]


def _restrict(words: np.ndarray, size: int, keeps: Sequence[np.ndarray]):
    """Packed rows over `size` transactions, cut down to each index array of
    `keeps` in turn, and the offsets `seg` of the results: keeps[g]'s
    transactions are the words seg[g]..seg[g + 1] of each row, a segment of
    its own, word-aligned.  Rows are unpacked once, in blocks of at most
    BATCH_BYTES."""
    seg = np.cumsum([0, *((len(k) + 63) // 64 for k in keeps)])
    step = max(1, BATCH_BYTES // max(size, 1))
    out = np.empty((len(words), seg[-1]), dtype=np.uint64)
    for i in range(0, len(words), step):
        flags = bitset.unpack_rows(words[i : i + step], size)
        for g, keep in enumerate(keeps):
            out[i : i + step, seg[g] : seg[g + 1]] = bitset.pack_rows(flags.take(keep, axis=1))
    return out, seg


def top_k(
    ctx: SearchContext, labels: LabelVector, center: float, k: int
) -> list[tuple[Pattern, QualityStat]]:
    """Exact k highest-quality patterns: the first k of the language sorted
    by descending quality, then canonical DFS order.

    A `_Scan` that keeps the k best patterns it has reported and raises its
    threshold to the k-th of them.  That is the k-th best of a part of the
    language, so it never beats the k-th best of the whole; the scan reports
    with ``>=``, and enters a subtree whose estimate ties the threshold
    while its root precedes the k-th in canonical order, so every pattern of
    the true top k is reported and kept.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    hits = _Scan(ctx, labels, center, -np.inf, 0.0, k).run()
    return [(ctx.pattern(idx), q) for idx, q in hits]


def threshold_mine(
    ctx: SearchContext, labels: LabelVector, center: float, eps: float, eps_t: float
) -> list[tuple[Pattern, QualityStat]]:
    """All patterns with quality >= eps + eps_t * frequency (exact >=).

    The per-pattern threshold is frequency-dependent but bounded below by
    eps, so a subtree dies as soon as its optimistic estimate drops below
    eps.  The scan goes level by level over packed covers (`_Scan`).
    Results come back in canonical DFS order.
    """
    hits = _Scan(ctx, labels, center, eps, eps_t).run()
    return [(ctx.pattern(idx), q) for idx, q in hits]
