import pytest

from sigmine import (
    ConfigError,
    LanguageConfig,
    ResamplePlan,
    SearchContext,
    estimate_deviation,
    resample_target,
)
from sigmine.oracle import CatColumn, NullIID, SyntheticSpec, brute_force_sup, generate
from sigmine.resample import bernoulli_labels


@pytest.fixture
def small_ds():
    return generate(
        SyntheticSpec(16, (CatColumn((0.5, 0.5)), CatColumn((0.3, 0.7))), NullIID(0.5), seed=5)
    )


def test_boundary_rates(small_ds):
    zeros = resample_target(small_ds, ResamplePlan(c=3, p=0.0, seed=1))
    assert all(lv.ones == 0 for lv in zeros)
    ones = resample_target(small_ds, ResamplePlan(c=3, p=1.0, seed=1))
    assert all(lv.ones == lv.m for lv in ones)


def test_per_vector_means_concentrate():
    m, c = 10_000, 10
    vecs = [bernoulli_labels(m, 0.5, seed=42, j=j) for j in range(c)]
    within = sum(abs(lv.mean() - 0.5) <= 0.02 for lv in vecs)
    assert within >= 9


def test_bit_identical_reproducibility(small_ds):
    plan = ResamplePlan(c=5, p=0.4, seed=99)
    a = resample_target(small_ds, plan)
    b = resample_target(small_ds, plan)
    assert [x.mask for x in a] == [y.mask for y in b]


def test_resample_j_independent_of_c(small_ds):
    # entry (i, j) never depends on how many resamples were requested
    few = resample_target(small_ds, ResamplePlan(c=2, p=0.4, seed=7))
    many = resample_target(small_ds, ResamplePlan(c=6, p=0.4, seed=7))
    assert [x.mask for x in few] == [y.mask for y in many[:2]]


def test_monotone_coupling_in_p(small_ds):
    lo = resample_target(small_ds, ResamplePlan(c=4, p=0.3, seed=3))
    hi = resample_target(small_ds, ResamplePlan(c=4, p=0.6, seed=3))
    for a, b in zip(lo, hi):
        assert a.mask & b.mask == a.mask  # raising p only adds ones


def test_singleton_mean_and_constant_vectors(small_ds):
    ctx = SearchContext(small_ds, LanguageConfig(z=2))
    one = estimate_deviation(ctx, resample_target(small_ds, ResamplePlan(c=1, p=0.5, seed=2)), 0.5)
    assert one.d_tilde == one.d[0]
    const = estimate_deviation(
        ctx, resample_target(small_ds, ResamplePlan(c=4, p=1.0, seed=2)), 0.5
    )
    assert len(set(const.d)) == 1


def test_each_dj_matches_brute_force(small_ds):
    cfg = LanguageConfig(z=2)
    vecs = resample_target(small_ds, ResamplePlan(c=5, p=0.45, seed=21))
    dev = estimate_deviation(SearchContext(small_ds, cfg), vecs, 0.4)
    for lv, dj in zip(vecs, dev.d):
        assert dj == brute_force_sup(small_ds, lv, 0.4, cfg)


def test_plan_validation():
    with pytest.raises(ConfigError):
        ResamplePlan(c=0, p=0.5, seed=1)
    with pytest.raises(ConfigError):
        ResamplePlan(c=1, p=1.5, seed=1)
