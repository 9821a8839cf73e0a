import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sigmine import (
    ConfigError,
    LanguageConfig,
    RunConfig,
    SearchContext,
    estimate_deviation,
    resample_target,
)
from sigmine.discovery import compute_bounds
from sigmine.oracle import CatColumn, NullIID, SyntheticSpec, brute_force_sup, generate
from sigmine.resample import MAX_DRAWS, STREAM_RESAMPLE, bernoulli_labels, generator
from sigmine.suites import SWEEP_LANGUAGE, sweep_dataset


@pytest.fixture
def small_ds():
    return generate(
        SyntheticSpec(16, (CatColumn((0.5, 0.5)), CatColumn((0.3, 0.7))), NullIID(0.5), seed=5)
    )


def test_boundary_rates(small_ds):
    zeros = resample_target(small_ds, 3, 0.0, 1)
    assert all(lv.ones == 0 for lv in zeros)
    ones = resample_target(small_ds, 3, 1.0, 1)
    assert all(lv.ones == lv.m for lv in ones)


def test_bit_is_one_iff_the_uniform_is_strictly_below_p():
    # entry i is 1 iff u_{i,j} < p: at p equal to a drawn uniform it is 0
    u = generator(5, STREAM_RESAMPLE, 3).random(40)
    for i in (0, 17):
        bits = bernoulli_labels(40, float(u[i]), 5, 3).bits
        assert bits[i] == 0
        assert bits.tolist() == [int(x < u[i]) for x in u]


def test_per_vector_means_concentrate():
    m, c = 10_000, 10
    vecs = [bernoulli_labels(m, 0.5, seed=42, j=j) for j in range(c)]
    within = sum(abs(lv.mean() - 0.5) <= 0.02 for lv in vecs)
    assert within >= 9


def test_bit_identical_reproducibility(small_ds):
    a = resample_target(small_ds, 5, 0.4, 99)
    b = resample_target(small_ds, 5, 0.4, 99)
    assert [x.bits.tolist() for x in a] == [y.bits.tolist() for y in b]


def test_resample_j_independent_of_c(small_ds):
    # entry (i, j) never depends on how many resamples were requested
    few = resample_target(small_ds, 2, 0.4, 7)
    many = list(resample_target(small_ds, 6, 0.4, 7))
    assert [x.bits.tolist() for x in few] == [y.bits.tolist() for y in many[:2]]


def test_monotone_coupling_in_p(small_ds):
    lo = resample_target(small_ds, 4, 0.3, 3)
    hi = resample_target(small_ds, 4, 0.6, 3)
    for a, b in zip(lo, hi):
        assert np.array_equal(a.bits & b.bits, a.bits)  # raising p only adds ones


def test_singleton_mean_and_constant_vectors(small_ds):
    ctx = SearchContext(small_ds, LanguageConfig(z=2))
    one = estimate_deviation(ctx, resample_target(small_ds, 1, 0.5, 2), 0.5)
    assert one.d_tilde == one.d[0]
    const = estimate_deviation(ctx, resample_target(small_ds, 4, 1.0, 2), 0.5)
    assert len(set(const.d)) == 1


def test_each_dj_matches_brute_force(small_ds):
    cfg = LanguageConfig(z=2)
    vecs = list(resample_target(small_ds, 5, 0.45, 21))
    dev = estimate_deviation(SearchContext(small_ds, cfg), vecs, 0.4)
    assert len(dev.d) == len(vecs) == 5
    for lv, dj in zip(vecs, dev.d):
        assert dj == brute_force_sup(small_ds, lv, 0.4, cfg)


def bounds_peak(ctx, c):
    """The tracemalloc peak of one `compute_bounds` call with c resamples, in bytes."""
    tracemalloc.start()
    try:
        compute_bounds(ctx, RunConfig(c=c, language=ctx.cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resample_memory_does_not_grow_with_c():
    # resamples are drawn as the search reads them, one chunk at a time, so
    # ten chunks of them peak no higher than one; held all at once, ten
    # chunks of 10 000-row labels peaked 5x as high as one
    ctx = SearchContext(sweep_dataset(), replace(SWEEP_LANGUAGE, z=1))
    n = ctx.batch_size()
    assert bounds_peak(ctx, 10 * n) < 2 * bounds_peak(ctx, n)


def test_plan_validation():
    with pytest.raises(ConfigError):
        RunConfig(c=0)
    with pytest.raises(ConfigError):
        bernoulli_labels(4, 1.5, 1, 0)


def test_draw_counts_capped_at_the_generator_limit():
    # a run may draw as many vectors as the generator keys, 2**32, and no more
    plans = [
        lambda n: RunConfig(c=n),
        lambda n: RunConfig(permutations=n),
    ]
    for plan in plans:
        plan(MAX_DRAWS)
        with pytest.raises(ConfigError, match="2\\*\\*32"):
            plan(MAX_DRAWS + 1)
    bernoulli_labels(4, 0.5, 1, MAX_DRAWS - 1)
    with pytest.raises(ConfigError):
        bernoulli_labels(4, 0.5, 1, MAX_DRAWS)
    generator(1, STREAM_RESAMPLE, MAX_DRAWS - 1)
    with pytest.raises(ConfigError):
        generator(1, STREAM_RESAMPLE, MAX_DRAWS)


def test_seeds_outside_64_bits_are_refused():
    # a seed is one 64-bit word of the Philox key: a seed outside it is
    # refused, not drawn as the seed it equals modulo 2**64
    RunConfig(seed=2**64 - 1)
    assert generator(2**64 - 1, STREAM_RESAMPLE, 0).random() != generator(0, STREAM_RESAMPLE, 0).random()
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match="2\\*\\*64"):
            generator(seed, STREAM_RESAMPLE, 0)
        with pytest.raises(ConfigError, match="2\\*\\*64"):
            RunConfig(seed=seed)
