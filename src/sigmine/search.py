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
whose children's tables fit in BATCH_BYTES tables them all before it
replays them in canonical order; a derived child's table is its siblings'
tables subtracted, with no restriction and no popcount (see
`_BatchSearch.tables`).  The children of one column share the selectors
below them, so they are tabled in groups, each child's label rows one more
block of columns of the same counts, and replayed in pieces of several
children, so that the per-child work is a few numpy calls per group.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bitset
from .data import Dataset, LabelVector
from .errors import ConfigError
from .language import Cover, LanguageConfig, Pattern, base_selectors, selector_flags
from .quality import QualityStat


def optimistic_estimate(cover: Cover, labels: LabelVector, center: float) -> float:
    """Upper bound on the centered quality of every refinement of a pattern.

    A refinement's cover is a subset of `cover`; the best it can do is keep
    all label-1 transactions and drop the rest, scoring positives*(1-center)/m.
    The bound also dominates the pattern's own quality since positives <= |cover|.

    Computed as (pos - pos*center)/m, it dominates every descendant's
    computed quality (pos' - n'*center)/m, not just the exact one:
    pos'*center <= n'*center survives rounding, and pos - round(pos*center)
    does not decrease with pos while 1 - center exceeds m * 2**-52 or center
    is 1.  pos*(1-center)/m could fall one ulp below a pure descendant, so a
    search pruning on it could lose a maximum that ties the bound.
    """
    pos = (cover & labels.mask).bit_count()
    return (pos - pos * center) / labels.m


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
    The context is immutable.

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
    wherever the selector is a child or a leaf, so is its basis.  Counts
    are summed as uint32, so a context takes fewer than 2**32 rows.

    For the last two levels of the batched search, the (child, leaf) pairs
    below a node are indexed once, in `pairs`: `ss_*` the pairs of two
    scored selectors, counted by popcount, and `pair_phases` the others with
    their basis pairs (CSR), counted by subtraction in an order that counts
    every basis first.  The same identity holds one level up: below a node
    N, |N & d & x| = |N & x| - the sum of |N & b & x| over d's basis for any
    pattern x on later columns, so a derived child's whole table of
    children and pairs is its siblings' tables subtracted; `user[b]` is the
    derived selector whose basis holds b, if any.
    """

    def __init__(self, dataset: Dataset, cfg: LanguageConfig):
        if dataset.m >= 2**32:  # popcounts are summed as uint32
            raise ConfigError(f"a search takes fewer than 2**32 rows, got {dataset.m}")
        self.dataset = dataset
        self.cfg = cfg
        self.base = base_selectors(dataset, cfg)
        if not self.base:
            raise ConfigError("language has no base selectors")
        self.m = m = dataset.m
        nsel = len(self.base)
        # selector flags are packed in blocks of at most BATCH_BYTES: all of
        # them at once would take 8 times the memory of `words`
        flags = np.empty((min(nsel, max(1, BATCH_BYTES // m)), m), dtype=bool)
        blocks = []
        for a in range(0, nsel, len(flags)):
            block = self.base[a : a + len(flags)]
            for i, sel in enumerate(block):
                flags[i] = selector_flags(sel, dataset)
            blocks.append(bitset.pack_rows(flags[: len(block)]))
        # allocated after the flags: allocated before them, it left glibc's
        # heap in a state where the final scan page-faulted on every chunk
        self.words = np.concatenate(blocks)
        # first base index on a column strictly greater than base[i]'s
        cols = [s.column for s in self.base]
        nxt = [0] * nsel
        for i in range(nsel - 1, -1, -1):
            if i + 1 < nsel and cols[i + 1] == cols[i]:
                nxt[i] = nxt[i + 1]
            else:
                nxt[i] = i + 1
        self.next_start = nxt
        self.next_start_a = np.array(nxt, dtype=np.intp)
        self.basis = derive_bases(self.words, cols, self.m)
        self.is_derived = is_derived = np.array([b is not None for b in self.basis])
        # a node whose children start at selector s counts the children
        # scored[scored_from[s]:] by popcount and derived[derived_from[s]:]
        # by subtraction; derived[d]'s basis is derived_basis[derived_ptr[d]
        # : derived_ptr[d + 1]]
        self.scored = np.flatnonzero(~is_derived)
        self.derived = np.flatnonzero(is_derived)
        self.scored_from = np.searchsorted(self.scored, np.arange(nsel + 1))
        self.derived_from = np.searchsorted(self.derived, np.arange(nsel + 1))
        sizes = [len(self.basis[k]) for k in self.derived]
        self.derived_ptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.intp)])
        self.derived_basis = np.array(
            [b for k in self.derived for b in self.basis[k]], dtype=np.intp
        )
        # the derived selector whose basis holds each selector, or -1
        self.user = [-1] * nsel
        for k in self.derived.tolist():
            for b in self.basis[k]:
                self.user[b] = k

        self.col_heads = np.flatnonzero(np.diff(cols, prepend=-1))

    @cached_property
    def pairs(self) -> _PairIndex:
        """The pair index of the batched search, built on first use, so a
        context only `threshold_mine` or `top_k` use never holds it."""
        return _PairIndex(self)

    def sup_frequency(self) -> float:
        """max_P f_P over the whole language (attained at depth 1)."""
        return int(np.bitwise_count(self.words).sum(axis=1).max()) / self.m

    def pattern(self, indices) -> Pattern:
        return Pattern(tuple(self.base[i] for i in indices))

    def batch_size(self) -> int:
        """Most label vectors one `sup_quality` call takes while a
        (selectors x vectors x words) uint64 matrix, every selector's cover
        under every vector, stays within BATCH_BYTES."""
        return max(1, BATCH_BYTES // self.words.nbytes)


class _PairIndex:
    """The (child, leaf) pairs (i, k), k >= next_start[i], of the batched
    search's last two levels, sorted by (i, k): child i's pairs are the rows
    pair_start[i]:pair_start[i + 1] (none when z=1)."""

    def __init__(self, ctx: SearchContext):
        nsel, is_derived = len(ctx.base), ctx.is_derived
        self.pair_count = (nsel - ctx.next_start_a) * (ctx.cfg.z > 1)
        self.pair_start = np.concatenate([[0], np.cumsum(self.pair_count)])
        pi = np.repeat(np.arange(nsel), self.pair_count)
        pk = _ranges(ctx.next_start_a, self.pair_count)
        di, dk = is_derived[pi], is_derived[pk]
        # pairs of two scored selectors are counted by popcount: rows
        # ss_row[ss_start[i]:ss_start[i + 1]] for child i
        ss = np.flatnonzero(~di & ~dk)
        self.ss_row = ss.astype(np.int32)
        self.ss_i, self.ss_k = pi[ss].astype(np.int32), pk[ss].astype(np.int32)
        self.ss_start = np.searchsorted(ss, self.pair_start)
        # the others by subtraction, in two phases whose bases are counted
        # before them: a pair with one derived selector from pairs of two
        # scored ones, then a pair of two derived selectors from pairs with
        # a derived child and a scored leaf
        one = np.flatnonzero(di != dk)
        two = np.flatnonzero(di & dk)
        self.pair_phases = [
            self._pair_phase(ctx, one, dk[one], pi, pk),
            self._pair_phase(ctx, two, np.ones(len(two), dtype=bool), pi, pk),
        ]

    def _pair_phase(self, ctx: SearchContext, rows, leaf_side, pi, pk):
        """Derived pairs `rows` as (per-child starts, rows, total, basis
        pointers, basis rows).  Pair (i, k) with derived k (leaf_side) is
        child i's counts minus the pairs (i, b), b in basis[k]; with derived
        i it is child k's counts minus the pairs (a, k), a in basis[i]."""
        d = np.where(leaf_side, pk[rows], pi[rows])
        total = np.where(leaf_side, pi[rows], pk[rows])
        j = ctx.derived_from[d]
        lens = ctx.derived_ptr[j + 1] - ctx.derived_ptr[j]
        ptr = np.concatenate([[0], np.cumsum(lens)])
        b = ctx.derived_basis[_ranges(ctx.derived_ptr[j], lens)]
        row, leaf = np.repeat(rows, lens), np.repeat(leaf_side, lens)
        ci = np.where(leaf, pi[row], b)
        ck = np.where(leaf, b, pk[row])
        basis = self.pair_start[ci] + ck - ctx.next_start_a[ci]
        small = [a.astype(np.int32) for a in (rows, total, ptr, basis)]
        return np.searchsorted(rows, self.pair_start), *small


def derive_bases(words: np.ndarray, columns: list[int], m: int) -> list[tuple[int, ...] | None]:
    """For each selector, None, or the other non-derived selectors on its
    column whose covers are pairwise disjoint and, with its own cover, hold
    all m rows (see `SearchContext`); selector k's cover is row k of the
    packed matrix `words`, and `columns` is ascending, as in the base.

    Partitions are found in one greedy pass over the selectors.  For
    selector k the candidates are the earlier non-empty covers disjoint
    from its own, not derived and in no other basis, largest first, kept
    while disjoint from those already kept; they and k form a partition
    when their sizes and its own sum to m.  So a selector is in at most one
    partition (equal covers, as at cuts with no value between them, would
    otherwise share one).  The largest cover of each partition is then the
    derived one, k on equal sizes, so that the smaller ones are popcounted.
    """
    sizes = np.bitwise_count(words).sum(axis=1).tolist()
    # the pairs (i, j), i < j, of selectors on one column whose covers
    # overlap, from chunks of at most BATCH_BYTES of intersections
    index = np.arange(len(words))
    first = np.searchsorted(columns, columns).tolist()
    lens = np.searchsorted(columns, columns, side="right") - index - 1
    pi, pj = np.repeat(index, lens), _ranges(index + 1, lens)
    step = max(1, BATCH_BYTES // max(words[:1].nbytes, 1))
    hit = np.zeros(len(pi), dtype=bool)
    for c in range(0, len(pi), step):
        hit[c : c + step] = (words[pi[c : c + step]] & words[pj[c : c + step]]).any(axis=1)
    pairs = list(zip(pi[hit].tolist(), pj[hit].tolist()))
    meets = {*pairs, *((j, i) for i, j in pairs)}
    bases: list[tuple[int, ...] | None] = []
    used: set[int] = set()
    for k in range(len(words)):
        cand = [
            j for j in range(first[k], k)
            if bases[j] is None and sizes[j] and (j, k) not in meets and j not in used
        ]
        picked, filled = [], sizes[k]
        for j in sorted(cand, key=lambda j: -sizes[j]):
            if not any((j, p) in meets for p in picked):
                picked.append(j)
                filled += sizes[j]
        derived = picked and filled == m
        bases.append(tuple(sorted(picked)) if derived else None)
        used.update(picked if derived else ())
    # hand each partition's derived role to its largest cover, k's on a tie
    for k, picked in enumerate(list(bases)):
        big = max(picked or (), key=sizes.__getitem__, default=k)
        if sizes[big] > sizes[k]:
            bases[k], bases[big] = None, tuple(sorted({*picked, k} - {big}))
    return bases


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[r] .. starts[r] + lens[r]."""
    offset = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(starts, lens) + offset


def _subtract(total, cnt, first, basis):
    """Counts of derived entries: `total` minus the sum of their basis rows
    of `cnt`, entry r's basis being the rows basis[first[r]:first[r + 1]]
    (the last one's running to the end of `basis`); no basis is empty."""
    if not len(first):
        return np.empty((0, cnt.shape[1]), dtype=np.int64)
    return total - np.add.reduceat(cnt[basis], first, axis=0)


@dataclass
class SearchResult:
    """Per-vector suprema of one batched search, plus the node counts of
    the traversal they shared.  A vector's first maximizer in canonical
    order is `top_k(ctx, labels, center, 1).entries[0][0]`."""

    suprema: list[float]
    nodes_visited: int
    nodes_pruned: int

    @property
    def supremum(self) -> float:
        if len(self.suprema) != 1:
            raise ValueError(f"batch of {len(self.suprema)} vectors; read suprema")
        return self.suprema[0]


@dataclass
class TopKResult:
    """Top patterns by quality, descending; ties resolved in canonical order."""

    entries: list[tuple[Pattern, QualityStat]]
    k: int


def sup_quality(
    ctx: SearchContext,
    labels: LabelVector | Sequence[LabelVector],
    center: float,
    prune: bool = True,
) -> SearchResult:
    """Exact maximum of the centered quality over the whole language, for one
    label vector or for every vector of a batch in one traversal.

    Covers and labels are packed into uint64 word matrices: each node forms
    all its children with one ``&`` and counts frequencies and per-vector
    positives with a popcount, or by subtraction for derived selectors (see
    `SearchContext`).  Before entering a subtree deeper than one level the
    matrices are restricted to the subtree root's transactions, the only
    ones its patterns can cover: compacted, so deep levels work on fewer
    words, or masked, where compaction would cost more than it saves.

    The last two levels run as table and replay.  A depth z-2 node's table
    holds its children's counts and per child and vector the best leaf
    quality: every (child, leaf) pair below it is counted for every vector,
    by popcount only when neither selector is derived, in blocks of whole
    columns.  A depth z-3 node (the root when z=3) tables all its children
    first, a column at a time from the last one back, when their tables take
    at most BATCH_BYTES; a derived child's table is the node's counts and
    the tables of its later siblings minus those of its basis siblings, with
    no restriction and no popcount.  The children of a column are tabled in
    groups: masked children share the node's cover rows and stack their own
    label rows, so a group takes one count, one pair count and one leaf
    reduction, a (child, vector) being one more column; the derived children
    of a column take one leaf reduction per group as well.  The node then
    replays its children in canonical order, in pieces of several: a
    cumulative maximum over child values, grandchild values and leaf maxima
    in preorder, carried from piece to piece, replays the per-child loop.
    Subtrees a vector's own search would prune cannot raise its running
    best, because the estimate that prunes them dominates their computed
    qualities.  When z <= 2 the root tables and replays itself.  The tables
    grow with the square of the selectors: a depth z-3 node whose tables
    would take more searches its children one by one, as the nodes above it
    do.

    Every vector gets exactly the result of a search of its own: it only
    looks at the nodes its own pruned search would visit (its live set) and
    keeps a running maximum over them in canonical preorder, which decides
    what it prunes.  A subtree is entered while any vector is live in it
    and counts as pruned when none is.  Only the values are kept: a
    vector's first maximizer is `top_k(ctx, labels, center, 1)`'s entry.
    """
    batch = [labels] if isinstance(labels, LabelVector) else list(labels)
    if not batch:
        raise ConfigError("sup_quality needs at least one label vector")
    search = _BatchSearch(ctx, len(batch), center, prune)
    lab = _label_words(batch, ctx.m)
    search.node(ctx.words, lab, 0, 0, np.ones(len(batch), dtype=bool))
    return SearchResult(search.best.tolist(), search.visited, search.pruned)


def _label_words(batch: Sequence[LabelVector], m: int) -> np.ndarray:
    """Row 0 holding every transaction, then the label vectors, packed."""
    for lv in batch:
        if lv.m != m:
            raise ConfigError(f"label vector of length {lv.m} on a context of {m} rows")
    return bitset.pack_rows(np.array([np.ones(m, dtype=np.uint8), *(lv.bits for lv in batch)]))


def _popcounts(covers, lab):
    """Counts (covers x label rows) of `covers` by popcount; with row 0 of
    `lab` holding every transaction, column 0 is the size of each cover and
    the others its positives under each vector.  Summed as uint32, exact
    since a count is at most m < 2**32 (`SearchContext`)."""
    return np.bitwise_count(covers[:, None, :] & lab).sum(axis=2, dtype=np.uint32)


class _BatchSearch:
    """Running maxima of one `sup_quality` call and its node counters.

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
        return ((c[..., 1:] - c[..., :1] * self.center) / self.ctx.m).reshape(n, g * (w - 1))

    def estimate(self, cnt):
        """Optimistic estimates: `optimistic_estimate` for every entry."""
        return (cnt[:, 1:] - cnt[:, 1:] * self.center) / self.ctx.m

    def counts(self, kids, lab, start: int):
        """Counts of the children start.. of a node whose transactions
        `kids` and `lab` are restricted to: scored children by popcount, in
        chunks of at most PAIR_BYTES of (children x label rows x words)
        temporary (or one child's), derived ones by subtraction from the
        node's own counts."""
        ctx = self.ctx
        cnt = np.empty((len(kids), len(lab)), dtype=np.int64)
        rows = ctx.scored[ctx.scored_from[start] :] - start
        step = max(1, PAIR_BYTES // max(lab.nbytes, 1))
        for c in range(0, len(rows), step):
            cnt[rows[c : c + step]] = _popcounts(kids[rows[c : c + step]], lab)
        d = ctx.derived_from[start]
        p0 = ctx.derived_ptr[d]
        cnt[ctx.derived[d:] - start] = _subtract(
            np.bitwise_count(lab).sum(axis=1, dtype=np.int64), cnt,
            ctx.derived_ptr[d:-1] - p0, ctx.derived_basis[p0:] - start,
        )
        return cnt

    def descend(self, kids, lab, cnt, r: int, start: int, depth: int):
        """The covers of the selectors after child r's column and the label
        matrix, restricted in one step to child r's transactions, for a node
        at `depth`: every row compacted to them (`compact`), or masked, the
        label rows ANDed with child r's cover and the cover rows kept as
        they are, since every count goes through a label row."""
        nxt = self.ctx.next_start[start + r]
        if self.compacts(int(cnt[r, 0]), lab, nxt, depth):
            return self.compact(kids, lab, r, nxt - start)
        return kids[nxt - start :], lab & kids[r]

    @staticmethod
    def compact(kids, lab, r: int, rest: int):
        """Cover rows rest.. and the label matrix, compacted to the
        transactions of cover row r (`_restrict`), derived rows or scored
        alike."""
        size = lab.shape[1] * 64
        keep = np.flatnonzero(bitset.unpack_rows(kids[r : r + 1], size)[0])
        return _restrict(kids[rest:], size, keep), _restrict(lab, size, keep)

    def compacts(self, keep: int, lab, start: int, depth: int) -> bool:
        """Whether a node at `depth` with `keep` transactions, whose
        children start at selector `start`, works on them compacted.

        Deeper levels work on whatever the node works on, so a node above
        the last two levels is always compacted.  Below that, compaction
        moves about a byte per row and transaction and a popcount about a
        word (64 transactions) per pair or child and vector, so it pays when
        it saves more popcount words than it moves bytes.  Compaction moves
        every row after the child's column, derived ones too, yet `rows`
        counts only the scored ones, the rows that are popcounted: that is
        the rule as it was measured on the benchmark workloads."""
        ctx = self.ctx
        if depth + 2 < ctx.cfg.z:
            return True
        size = lab.shape[1] * 64
        rows = len(ctx.scored) - ctx.scored_from[start]
        pairs = len(ctx.pairs.ss_row) - ctx.pairs.ss_start[start]
        return (size - keep) * len(lab) * (rows + pairs) > 64 * (rows + len(lab)) * size

    def pair_counts(self, kids, lab, start: int, cnt, a: int, b: int):
        """Counts of the (child, leaf) pairs of the children a..b, whole
        columns, of a node whose children start at selector `start`, given
        the children's counts `cnt`, in the pair index's order: pairs of
        two scored selectors by popcount, in chunks of at most PAIR_BYTES
        of (pairs x vectors x words) temporary, the rest by subtraction from
        the counts of a child, in chunks of at most PAIR_BYTES of gathered
        basis counts (or one pair's).  A derived pair's basis pairs have
        its child's column, so they are among them."""
        pix = self.ctx.pairs
        r0, s0, s1 = pix.pair_start[a], pix.ss_start[a], pix.ss_start[b]
        pc = np.empty((pix.pair_start[b] - r0, len(lab)), dtype=np.int64)
        rows, i, k = pix.ss_row[s0:s1] - r0, pix.ss_i[s0:s1] - start, pix.ss_k[s0:s1] - start
        step = max(1, PAIR_BYTES // max(lab.nbytes, 1))
        for c in range(0, len(rows), step):
            chunk = slice(c, c + step)
            pc[rows[chunk]] = _popcounts(kids[i[chunk]] & kids[k[chunk]], lab)
        step = max(1, PAIR_BYTES // (8 * len(lab)))
        for first, row, total, ptr, basis in pix.pair_phases:
            e, end = first[a], first[b]
            while e < end:  # entries whose basis rows fit in a chunk
                e1 = max(e + 1, int(np.searchsorted(ptr, ptr[e] + step, side="right")) - 1)
                e1 = min(e1, end)
                pc[row[e:e1] - r0] = _subtract(
                    cnt[total[e:e1] - start], pc, ptr[e:e1] - ptr[e], basis[ptr[e] : ptr[e1]] - r0
                )
                e = e1
        return pc

    def leaf_best(self, start: int, width: int, pair_counts):
        """The leaves of a node whose children start at selector `start`:
        per child and vector the best quality among the child's leaves
        (-inf where it has none).

        Pairs are counted in blocks of whole columns of at most PAIR_BYTES
        of (pairs x `width`) counts, or one column's children when those
        alone take more, `pair_counts(a, b)` giving the counts of the pairs
        of children a..b, and reduced in pieces of whole children of at
        most PAIR_BYTES (or one child's), in canonical order.  Counts of a
        group of nodes (`tables`) hold a block of (1 + vectors) columns per
        node, and the group is reduced at once, each (node, vector) one
        more column of the results."""
        ctx, pix = self.ctx, self.ctx.pairs
        cols = width // self.width * (self.width - 1)
        top = np.full((len(ctx.base) - start, cols), -np.inf)
        # children start..last have leaves, those of the last column none
        last = start + np.count_nonzero(pix.pair_count[start:])
        first = pix.pair_start[start : last + 1] - pix.pair_start[start]
        step = max(1, PAIR_BYTES // (8 * width))
        heads = ctx.col_heads[(ctx.col_heads >= start) & (ctx.col_heads < last)]
        blocks = heads[np.flatnonzero(np.diff(first[heads - start] // step, prepend=-1))]
        for a, b in zip(blocks.tolist(), [*blocks[1:].tolist(), last]):
            pc = pair_counts(a, b)
            rows = first[a - start : b - start + 1] - first[a - start]
            cut = np.flatnonzero(np.diff(rows[:-1] // step, prepend=-1)).tolist()
            for u, v in zip(cut, [*cut[1:], b - a]):
                q = self.quality(pc[rows[u] : rows[v]])
                seg = rows[u:v] - rows[u]
                top[a - start + u : a - start + v] = np.maximum.reduceat(q, seg, axis=0)
        return top

    def tables(self, kids, lab, cnt, start: int, depth: int):
        """Tables of the children start.. of a depth z-3 node with counts
        `cnt`: per child i, its children's counts and, per grandchild and
        vector, the best leaf quality (`leaf_best`), in the pair index's
        rows of child i (from pair_start[start] on).

        The children of one column share their children, the selectors
        after the column, so they are tabled in groups (`groups`): one
        `counts`, one `pair_counts` and one `leaf_best` call per group, on
        (children x (1 + vectors)) label rows, each child's counts a block
        of columns.  A derived child d is not restricted or counted: its
        children's counts are the node's minus those of its basis siblings,
        and its pair counts are its later siblings' children's counts (the
        same pairs, in the same order) minus its basis siblings' pair
        counts, subtracted as their groups count them; the derived children
        of a column take one `leaf_best` per group too.  Columns are tabled
        from the last one back, so later siblings come first.  A column's
        derived children are taken in groups whose pair counts take at
        most PAIR_BYTES (or one child's), each with the groups of its basis
        siblings, and the column's other scored children last."""
        ctx, pix, w = self.ctx, self.ctx.pairs, self.width
        nsel, p0 = len(ctx.base), pix.pair_start[start]
        cnts = np.empty((pix.pair_start[-1] - p0, w), dtype=np.int64)
        top = np.empty((len(cnts), w - 1))
        heads = ctx.col_heads[np.searchsorted(ctx.col_heads, start) :].tolist()
        for a, nxt in reversed(list(zip(heads, [*heads[1:], nsel]))):
            if nxt == nsel:
                continue  # the last column's children have no children
            n, r0 = nsel - nxt, pix.pair_start[nxt]
            col = slice(pix.pair_start[a] - p0, r0 - p0)
            col_cnts = cnts[col].reshape(nxt - a, n, w)
            col_top = top[col].reshape(nxt - a, n, w - 1)
            tail = cnts[r0 - p0 :]  # the pairs below the column: later siblings' tables
            fit = max(1, PAIR_BYTES // max(tail.nbytes, 1))

            def table(group, pc):
                best = self.leaf_best(
                    nxt, pc.shape[1],
                    lambda x, y: pc[pix.pair_start[x] - r0 : pix.pair_start[y] - r0],
                )
                col_top[group - a] = best.reshape(n, len(group), w - 1).swapaxes(0, 1)

            # derived children a group at a time, each group with its basis
            # siblings, then the scored children in no basis
            derived = [d for d in range(a, nxt) if ctx.basis[d] is not None]
            free = [i for i in range(a, nxt) if ctx.basis[i] is None and ctx.user[i] < 0]
            parts = [derived[x : x + fit] for x in range(0, len(derived), fit)]
            parts = [(ds, [b for d in ds for b in ctx.basis[d]]) for ds in parts] + [([], free)]
            for ds, scored in parts:
                slot, dpc = {d: s for s, d in enumerate(ds)}, None
                groups = self.groups(kids, lab, cnt, scored, start, depth + 1, fit)
                for group, sub_kids, sub_lab in groups:
                    sub_cnt = self.counts(sub_kids, sub_lab, nxt)
                    col_cnts[group - a] = sub_cnt.reshape(n, len(group), w).swapaxes(0, 1)
                    pc = self.pair_counts(sub_kids, sub_lab, nxt, sub_cnt, nxt, nsel)
                    table(group, pc)
                    if ds and dpc is None:  # allocated once the first basis group is tabled
                        dpc = np.repeat(tail[:, None], len(ds), axis=1)
                    for g, i in enumerate(group.tolist()):
                        if ctx.user[i] in slot:
                            dpc[:, slot[ctx.user[i]]] -= pc[:, g * w : (g + 1) * w]
                    del pc
                if ds:
                    for d in ds:
                        basis = col_cnts[np.array(ctx.basis[d]) - a]
                        col_cnts[d - a] = cnt[nxt - start :] - basis.sum(axis=0)
                    table(np.array(ds), dpc.reshape(len(tail), len(ds) * w))
                    del dpc
        return cnts, top

    def groups(self, kids, lab, cnt, scored, start: int, depth: int, fit: int):
        """The scored children `scored`, of one column, of a node whose
        children start at `start`, as groups at `depth` with the cover rows
        after their column and the label rows they are counted on.  A child
        that `compacts` is a group of its own, on its compacted matrices
        (`compact`).  The others are masked, `fit` children a group: they
        share the node's cover rows, each with its own label rows, the
        node's ANDed with its cover, stacked."""
        if not scored:
            return
        nxt = self.ctx.next_start[scored[0]]
        masked = []
        for i in scored:
            if self.compacts(int(cnt[i - start, 0]), lab, nxt, depth):
                yield np.array([i]), *self.compact(kids, lab, i - start, nxt - start)
            else:
                masked.append(i)
        for x in range(0, len(masked), fit):
            group = np.array(masked[x : x + fit])
            stacked = lab & kids[group - start, None]
            yield group, kids[nxt - start :], stacked.reshape(len(group) * len(lab), lab.shape[1])

    def node(self, kids, lab, start: int, depth: int, live) -> None:
        """Search below one node.  `kids` holds the covers of selectors
        start.. and `lab` the label vectors after the all-ones row, the
        label rows restricted to the node's transactions and the cover rows
        compacted to them or kept whole (`descend`), so the two together
        count the children's covers.

        A node at depth z-3 tables all its children first (`tables`), then
        replays them (`replay`) in pieces of whole children whose
        sequences take at most PAIR_BYTES (or one child's), when the tables
        take at most BATCH_BYTES; they grow with the square of the
        selectors, so a node with more searches its children one by one, as
        a node above it does.  A node at depth z-2 is its own table and
        replays itself as a piece of one."""
        ctx, pix = self.ctx, self.ctx.pairs
        nsel = len(ctx.base)
        cnt = self.counts(kids, lab, start)
        if depth + 2 >= ctx.cfg.z:
            top = self.leaf_best(
                start, self.width, lambda a, b: self.pair_counts(kids, lab, start, cnt, a, b)
            )
            own = np.full((1, len(live)), -np.inf)  # its parent weighed its value
            self.replay(np.array([start]), own, -own, cnt, top, live)
            return
        self.visited += len(kids)
        vals = self.quality(cnt)
        bound = self.estimate(cnt)
        # counts (8 bytes) and best leaves (8) per pair and vector
        pairs = pix.pair_start[-1] - pix.pair_start[start]
        if depth + 3 == ctx.cfg.z and pairs * (16 * self.width - 8) <= BATCH_BYTES:
            cnts, top = self.tables(kids, lab, cnt, start, depth)
            p0 = pix.pair_start[start]
            # a child takes 1 + 2 x its children rows of a replay sequence
            rows = 2 * pix.pair_count[start:] + 1
            first = np.cumsum(rows) - rows
            step = max(1, PAIR_BYTES // (8 * len(live)))
            cut = np.flatnonzero(np.diff(first // step, prepend=-1))
            for u, v in zip(cut.tolist(), [*cut[1:].tolist(), nsel - start]):
                t = slice(pix.pair_start[start + u] - p0, pix.pair_start[start + v] - p0)
                self.replay(
                    ctx.next_start_a[start + u : start + v], vals[u:v], bound[u:v],
                    cnts[t], top[t], live,
                )
            return
        for r, i in enumerate(range(start, nsel)):
            # every vector's best, live or not, as at the end of `replay`
            np.maximum(self.best, vals[r], out=self.best)
            sub = live & (bound[r] > self.best) if self.prune else live
            if not sub.any():
                self.pruned += 1
                continue
            nxt = ctx.next_start[i]
            if nxt == nsel:
                continue
            sub_kids, sub_lab = self.descend(kids, lab, cnt, r, start, depth + 1)
            self.node(sub_kids, sub_lab, nxt, depth + 1, sub)

    def replay(self, starts, vals, bound, cnt, top, live) -> None:
        """Depth z-2 nodes, consecutive children of one node, with their
        values `vals` and estimates `bound` per vector, and all their
        children and the leaves, from their tables (`leaf_best`): node o's
        children start at selector starts[o], and their counts `cnt` and
        per vector best leaf qualities `top` come node after node (only the
        children when z=1).  A node that replays itself is a piece of one
        with value -inf and estimate inf, its parent having weighed both.

        In preorder every vector sees a node's value, then child value,
        best leaf below it, child value, ..., then the next node's value;
        its running best is the cumulative maximum of that sequence, from
        the best it had before.  A vector skips a subtree when the estimate
        of its root does not beat its running best; the estimate dominates
        the subtree, so counting it anyway leaves the running best as it
        was.  The replay is therefore each vector's own pruned search,
        supremum and node counts included.
        """
        ctx, n, c = self.ctx, len(starts), len(live)
        size = len(ctx.base) - starts
        before = np.cumsum(size) - size
        owner = np.repeat(np.arange(n), size)
        kid = starts[owner] + np.arange(len(cnt)) - before[owner]
        # sequence rows of each node's value, and of each child's value; its
        # best leaf follows it
        head = np.arange(n) + 2 * before + 1
        pos = owner + 2 * np.arange(len(cnt)) + 2
        seq = np.empty((1 + n + 2 * len(cnt), c))
        seq[0] = self.best
        seq[head] = vals
        seq[pos] = self.quality(cnt)
        seq[pos + 1] = top
        run = np.maximum.accumulate(seq, axis=0, out=seq)
        sub = np.broadcast_to(live, (n, c))
        if self.prune:
            sub = sub & (bound > run[head])
        went = sub.any(axis=1)
        self.pruned += n - int(went.sum())
        into = went[owner]
        self.visited += int(into.sum())
        if ctx.cfg.z > 1:
            entered = into
            if self.prune:
                entered = (sub[owner] & (self.estimate(cnt) > run[pos])).any(axis=1)
            self.pruned += int(into.sum()) - int(entered.sum())
            self.visited += int(ctx.pairs.pair_count[kid[entered]].sum())
        # a vector not live here keeps its best: an estimate that did not
        # beat it dominates every value below
        self.best[:] = run[-1]


class _Scan:
    """The patterns one `threshold_mine` or `top_k` call reports.

    The scan goes level by level over a frontier of entered patterns, in
    pieces: the children of every pattern of a piece are counted at once,
    by popcount against the pattern's cover, or by subtraction from the
    pattern's counts for derived selectors (see `SearchContext`).

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
        total = np.bitwise_count(self.lab).sum(axis=1, dtype=np.int64)
        self.level(self.lab[:1], [()], np.zeros(1, dtype=np.intp), total[None], 1)
        hits = self.hits if self.k is not None else sorted(self.hits, key=lambda h: h[1])
        return [(idx, QualityStat(-q, n / self.ctx.m, pos)) for q, idx, n, pos in hits]

    def level(self, covers, chosen, starts, total, depth: int) -> None:
        """Scan the children of the patterns `chosen`, whose covers are
        `covers`, counts `total` and children start at `starts`, at `depth`."""
        ctx = self.ctx
        nsel, m = len(ctx.base), ctx.m
        lens = nsel - starts
        par = np.repeat(np.arange(len(starts)), lens)
        sel = _ranges(starts, lens)
        cnt = np.empty((len(sel), 2), dtype=np.int64)
        rows = np.flatnonzero(~ctx.is_derived[sel])
        step = max(1, PAIR_BYTES // max(self.lab.nbytes, 1))
        for c in range(0, len(rows), step):
            r = rows[c : c + step]
            cnt[r] = _popcounts(covers[par[r]] & ctx.words[sel[r]], self.lab)
        # a derived child's basis are its siblings b, at first[p] + b - starts[p]
        d = np.flatnonzero(ctx.is_derived[sel])
        j = ctx.derived_from[sel[d]]
        sizes = ctx.derived_ptr[j + 1] - ctx.derived_ptr[j]
        offset = (np.cumsum(lens) - lens - starts)[par[d]]
        basis = np.repeat(offset, sizes) + ctx.derived_basis[_ranges(ctx.derived_ptr[j], sizes)]
        cnt[d] = _subtract(total[par[d]], cnt, np.cumsum(sizes) - sizes, basis)

        n, pos = cnt[:, 0], cnt[:, 1]
        vals = (pos - n * self.center) / m
        found = np.flatnonzero(vals >= self.eps + self.eps_t * (n / m))
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
        nxt = ctx.next_start_a[sel]
        est = (pos - pos * self.center) / m
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


def _restrict(words: np.ndarray, size: int, keep: np.ndarray) -> np.ndarray:
    """Packed rows over `size` transactions, cut down to the `keep` ones;
    rows are unpacked in blocks of at most BATCH_BYTES."""
    step = max(1, BATCH_BYTES // max(size, 1))
    out = np.empty((len(words), (len(keep) + 63) // 64), dtype=np.uint64)
    for i in range(0, len(words), step):
        flags = bitset.unpack_rows(words[i : i + step], size).take(keep, axis=1)
        out[i : i + step] = bitset.pack_rows(flags)
    return out


def top_k(ctx: SearchContext, labels: LabelVector, center: float, k: int) -> TopKResult:
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
    return TopKResult([(ctx.pattern(idx), q) for idx, q in hits], k)


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
