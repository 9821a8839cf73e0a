"""Pruned depth-first search over the pattern language.

Three entry points share one enumeration: the supremum of the centered
quality under a batch of label vectors (the engine's hot loop: one traversal
serves every resample, or a chunk of permutations), exact top-k mining, and
the final thresholded scan that emits every pattern whose observed quality
clears a frequency-dependent cutoff.

Pruning is lossless: a pattern's refinements keep a subset of its cover, so
(positives - positives * center) / m bounds every descendant's quality, and
computed in that form it also bounds every descendant's computed quality
(see `optimistic_estimate`).  Ties are broken toward the first pattern in
canonical DFS order, which makes results deterministic and makes merges from
disjoint subtrees associative.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import bitset
from .data import Dataset, LabelVector
from .errors import ConfigError
from .language import (
    Cover,
    LanguageConfig,
    Pattern,
    Selector,
    base_selectors,
    selector_cover,
)
from .quality import QualityStat, empirical_quality


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


# memory budget of the batched search's largest per-node temporary
BATCH_BYTES = 4 << 20
# memory budget of one chunk of (child, leaf) pairs in the last two levels
PAIR_BYTES = 512 << 10


class SearchContext:
    """Precomputed per-dataset state shared by every search over one language.

    Selector covers are computed once and intersected incrementally down the
    DFS; `words` holds the same covers as a (selectors, words) uint64 matrix
    for the batched supremum search, and `pair_*` index its (child, leaf)
    pairs.  The context is immutable.
    """

    def __init__(self, dataset: Dataset, cfg: LanguageConfig):
        self.dataset = dataset
        self.cfg = cfg
        self.base = base_selectors(dataset, cfg)
        if not self.base:
            raise ConfigError("language has no base selectors")
        self.masks = [selector_cover(s, dataset) for s in self.base]
        self.words = bitset.to_words(self.masks, dataset.m)
        self.m = dataset.m
        self.root = bitset.full(dataset.m)
        # first base index on a column strictly greater than base[i]'s
        cols = [s.column for s in self.base]
        nxt = [0] * len(cols)
        for i in range(len(cols) - 1, -1, -1):
            if i + 1 < len(cols) and cols[i + 1] == cols[i]:
                nxt[i] = nxt[i + 1]
            else:
                nxt[i] = i + 1
        self.next_start = nxt
        # the (child, leaf) pairs (i, k), k >= next_start[i], of the batched
        # search's last two levels, sorted by i: the pairs below a node
        # whose children start at selector i are those from pair_start[i]
        # on (none when z=1, where children are leaves)
        self.pair_count = (len(cols) - np.array(nxt, dtype=np.intp)) * (cfg.z > 1)
        self.pair_start = np.concatenate([[0], np.cumsum(self.pair_count)])
        self.pair_i = np.repeat(np.arange(len(cols), dtype=np.int32), self.pair_count)
        # k is next_start[i] plus the pair's offset within i's block
        offset = np.arange(len(self.pair_i)) - np.repeat(self.pair_start[:-1], self.pair_count)
        self.pair_k = (offset + np.repeat(nxt, self.pair_count)).astype(np.int32)

    def sup_frequency(self) -> float:
        """max_P f_P over the whole language (attained at depth 1)."""
        return max(mask.bit_count() for mask in self.masks) / self.m

    def pattern(self, indices) -> Pattern:
        return Pattern(tuple(self.base[i] for i in indices))

    def batch_size(self) -> int:
        """Most label vectors one `sup_quality` call takes while its largest
        temporary, (selectors x vectors x words) uint64, stays within
        BATCH_BYTES."""
        return max(1, BATCH_BYTES // self.words.nbytes)


@dataclass
class SearchResult:
    """Per-vector suprema and argmax patterns of one batched search, plus
    the node counts of the traversal they shared."""

    suprema: list[float]
    argmaxes: list[Pattern | None]
    nodes_visited: int
    nodes_pruned: int

    @property
    def supremum(self) -> float:
        return self._single(self.suprema)

    @property
    def argmax(self) -> Pattern | None:
        return self._single(self.argmaxes)

    @staticmethod
    def _single(values):
        if len(values) != 1:
            raise ValueError(f"batch of {len(values)} vectors; read suprema/argmaxes")
        return values[0]


@dataclass
class TopKResult:
    """Top patterns by quality, descending; ties resolved in canonical order."""

    entries: list[tuple[Pattern, QualityStat]]
    k: int


def _context(dataset, cfg, ctx: SearchContext | None) -> SearchContext:
    return ctx if ctx is not None else SearchContext(dataset, cfg)


def sup_quality(
    dataset: Dataset,
    labels: LabelVector | Sequence[LabelVector],
    center: float,
    cfg: LanguageConfig,
    ctx: SearchContext | None = None,
    prune: bool = True,
) -> SearchResult:
    """Exact maximum of the centered quality over the whole language, for one
    label vector or for every vector of a batch in one traversal.

    Covers and labels are packed into uint64 word matrices: each node forms
    all its children with one ``&`` and counts frequencies and per-vector
    positives with a popcount.  Before entering a subtree deeper than one
    level the matrices are compacted to the subtree root's transactions, the
    only ones its patterns can cover, so deep levels work on fewer words.

    The last two levels are one vectorized pass per depth z-2 node (the
    root when z=2): every (child, leaf) pair below it is scored against
    every vector, each child's leaves are reduced to a per-vector maximum,
    and a cumulative maximum over child values and leaf maxima in preorder
    replays the per-child loop.  Leaves a vector's own search would prune
    cannot raise its running best, because the estimate that prunes them
    dominates their computed qualities.

    Every vector gets exactly the result of a search of its own: it only
    looks at the nodes its own pruned search would visit (its live set),
    updates its best with a strict ``>`` in canonical preorder, and so breaks
    ties the same way.  A subtree is entered while any vector is live in it
    and counts as pruned when none is.
    """
    ctx = _context(dataset, cfg, ctx)
    batch = [labels] if isinstance(labels, LabelVector) else list(labels)
    if not batch:
        raise ConfigError("sup_quality needs at least one label vector")
    search = _BatchSearch(ctx, len(batch), center, prune)
    lab = bitset.to_words([lv.mask for lv in batch], ctx.m)
    search.node(ctx.words, lab, ctx.m, (), 0, 0, np.ones(len(batch), dtype=bool))
    argmaxes = [ctx.pattern(idx) if idx is not None else None for idx in search.best_idx]
    return SearchResult(search.best.tolist(), argmaxes, search.visited, search.pruned)


class _BatchSearch:
    """Running maxima of one `sup_quality` call and its node counters."""

    def __init__(self, ctx: SearchContext, c: int, center: float, prune: bool):
        self.ctx = ctx
        self.center = center
        self.prune = prune
        self.best = np.full(c, -np.inf)
        self.best_idx: list[tuple[int, ...] | None] = [None] * c
        self.visited = 0
        self.pruned = 0

    def score(self, covers, lab):
        """Positives (covers x vectors) and centered qualities."""
        n = np.bitwise_count(covers).sum(axis=1)
        pos = np.bitwise_count(covers[:, None, :] & lab).sum(axis=2, dtype=np.int32)
        return pos, (pos - n[:, None] * self.center) / self.ctx.m

    def estimate(self, pos):
        """Optimistic estimates: `optimistic_estimate` for every entry."""
        return (pos - pos * self.center) / self.ctx.m

    def node(self, kids, lab, size: int, chosen, start: int, depth: int, live) -> None:
        """Search below one node.  `kids` holds the covers of selectors
        start.. and `lab` the label vectors, both restricted to the node's
        `size` transactions, so they are already the children's covers."""
        ctx = self.ctx
        if depth + 2 >= ctx.cfg.z:
            self.last_levels(kids, lab, chosen, start, live)
            return
        nsel = len(ctx.base)
        self.visited += len(kids)
        pos, vals = self.score(kids, lab)
        bound = self.estimate(pos)
        best = self.best
        for r, i in enumerate(range(start, nsel)):
            here = chosen + (i,)
            for j in np.flatnonzero(live & (vals[r] > best)):
                best[j] = vals[r, j]
                self.best_idx[j] = here
            sub = live & (bound[r] > best) if self.prune else live
            if not sub.any():
                self.pruned += 1
                continue
            nxt = ctx.next_start[i]
            if nxt == nsel:
                continue
            keep = np.flatnonzero(bitset.unpack_rows(kids[r : r + 1], size)[0])
            self.node(
                _restrict(kids[nxt - start :], size, keep),
                _restrict(lab, size, keep),
                len(keep), here, nxt, depth + 1, sub,
            )

    def last_levels(self, kids, lab, chosen, start: int, live) -> None:
        """The children of a depth z-2 node and all their children, the
        leaves, in one pass (only the children when z=1).

        In preorder every vector sees child value, best leaf below it,
        child value, best leaf below it, ...; its running best is the
        cumulative maximum of that sequence.  A vector skips a child's
        leaves when the child's estimate does not beat its running best;
        the estimate dominates those leaves, so counting them anyway leaves
        the running best as it was.  The scan is therefore each vector's own
        pruned search, maximizer and node counts included.
        """
        ctx = self.ctx
        pos, vals = self.score(kids, lab)
        seq = np.empty((2 * len(kids) + 1, len(live)))
        seq[0] = self.best
        seq[1::2] = vals
        seq[2::2] = self.leaf_max(kids, lab, start)
        run = np.maximum.accumulate(seq, axis=0)
        self.visited += len(kids)
        if ctx.cfg.z > 1:
            entered = np.ones(len(kids), dtype=bool)  # live is never empty here
            if self.prune:
                entered = (live & (self.estimate(pos) > run[1::2])).any(axis=1)
            self.pruned += len(kids) - int(entered.sum())
            self.visited += int(ctx.pair_count[start:][entered].sum())
        final = run[-1]
        won = np.flatnonzero(live & (final > self.best))
        firsts = (seq[1:, won] == final[won]).argmax(axis=0)
        for j, f in zip(won, firsts):
            r, leaf = divmod(int(f), 2)
            here = chosen + (start + r,)
            if leaf:  # rescore the child's leaves for the first maximizer
                nxt = ctx.next_start[start + r]
                _, leaf_vals = self.score(kids[nxt - start :] & kids[r], lab[j : j + 1])
                here += (nxt + int(leaf_vals.argmax()),)
            self.best[j] = final[j]
            self.best_idx[j] = here

    def leaf_max(self, kids, lab, start: int):
        """Per child and vector, the best quality among the child's leaves
        (-inf where it has none).

        The node's (child, leaf) pairs are a suffix of the context's pair
        index, grouped by child.  They are scored in chunks of at most
        PAIR_BYTES of (pairs x vectors x words) temporary, and reduced per
        child in blocks of at most PAIR_BYTES of (pairs x vectors) values."""
        ctx = self.ctx
        lo = ctx.pair_start[start]
        pi = ctx.pair_i[lo:] - start
        pk = ctx.pair_k[lo:] - start
        top = np.full((len(kids), len(lab)), -np.inf)
        block = max(1, PAIR_BYTES // (8 * len(lab)))
        step = max(1, PAIR_BYTES // max(lab.nbytes, 1))
        for b in range(0, len(pi), block):
            i, k = pi[b : b + block], pk[b : b + block]
            vals = np.empty((len(i), len(lab)))
            for s in range(0, len(i), step):
                chunk = slice(s, s + step)
                _, vals[chunk] = self.score(kids[i[chunk]] & kids[k[chunk]], lab)
            heads = np.flatnonzero(np.diff(i, prepend=-1))
            r = i[heads]
            top[r] = np.maximum(top[r], np.maximum.reduceat(vals, heads, axis=0))
        return top


def _restrict(words: np.ndarray, size: int, keep: np.ndarray) -> np.ndarray:
    """Packed rows over `size` transactions, cut down to the `keep` ones;
    rows are unpacked in blocks of at most BATCH_BYTES."""
    step = max(1, BATCH_BYTES // max(size, 1))
    return np.concatenate([
        bitset.pack_rows(bitset.unpack_rows(words[i : i + step], size).take(keep, axis=1))
        for i in range(0, len(words), step)
    ])


def top_k(
    dataset: Dataset,
    labels: LabelVector,
    center: float,
    cfg: LanguageConfig,
    k: int,
    ctx: SearchContext | None = None,
    prune: bool = True,
) -> TopKResult:
    """Exact k highest-quality patterns, pruned against the running k-th best.

    A later pattern tying the k-th value never displaces an earlier one, so
    subtrees whose optimistic estimate only reaches the k-th value are safe
    to cut.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    ctx = _context(dataset, cfg, ctx)
    masks = ctx.masks
    nsel = len(masks)
    m = ctx.m
    z = ctx.cfg.z
    lmask = labels.mask

    # heap entries (value, -dfs_rank, chosen): among equal values the latest
    # arrival sorts smallest and is displaced first
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    rank = 0

    def rec(cover: Cover, chosen: tuple[int, ...], start: int, depth: int) -> None:
        nonlocal rank
        for i in range(start, nsel):
            child = cover & masks[i]
            pos = (child & lmask).bit_count()
            val = (pos - child.bit_count() * center) / m
            rank += 1
            here = chosen + (i,)
            if len(heap) < k:
                heapq.heappush(heap, (val, -rank, here))
            elif val > heap[0][0]:
                heapq.heapreplace(heap, (val, -rank, here))
            if depth + 1 < z:
                full = len(heap) == k
                if not prune or not full or (pos - pos * center) / m > heap[0][0]:
                    rec(child, here, ctx.next_start[i], depth + 1)

    rec(ctx.root, (), 0, 0)
    ordered = sorted(heap, key=lambda t: (-t[0], -t[1]))
    entries = [
        (ctx.pattern(idx), empirical_quality(_cover_of(ctx, idx), labels, center))
        for _, _, idx in ordered
    ]
    return TopKResult(entries, k)


def _cover_of(ctx: SearchContext, indices: tuple[int, ...]) -> Cover:
    cover = ctx.root
    for i in indices:
        cover &= ctx.masks[i]
    return cover


def threshold_mine(
    dataset: Dataset,
    labels: LabelVector,
    center: float,
    eps: float,
    eps_t: float,
    cfg: LanguageConfig,
    ctx: SearchContext | None = None,
) -> list[tuple[Pattern, QualityStat]]:
    """All patterns with quality >= eps + eps_t * frequency (exact >=).

    The per-pattern threshold is frequency-dependent but bounded below by
    eps, so a subtree dies as soon as its optimistic estimate drops below
    eps.  Results come back in canonical DFS order.
    """
    ctx = _context(dataset, cfg, ctx)
    masks = ctx.masks
    nsel = len(masks)
    m = ctx.m
    z = ctx.cfg.z
    lmask = labels.mask
    out: list[tuple[Pattern, QualityStat]] = []

    def rec(cover: Cover, chosen: tuple[int, ...], start: int, depth: int) -> None:
        for i in range(start, nsel):
            child = cover & masks[i]
            pos = (child & lmask).bit_count()
            n = child.bit_count()
            val = (pos - n * center) / m
            here = chosen + (i,)
            if val >= eps + eps_t * (n / m):
                out.append((ctx.pattern(here), QualityStat(val, n / m, pos)))
            if depth + 1 < z and (pos - pos * center) / m >= eps:
                rec(child, here, ctx.next_start[i], depth + 1)

    rec(ctx.root, (), 0, 0)
    return out
