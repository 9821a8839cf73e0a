import math
from itertools import combinations

import numpy as np
import pytest

from sigmine import (
    ConfigError,
    LabelVector,
    LanguageConfig,
    Mode,
    RunConfig,
    bound_statistic_ub,
    evaluate,
    projection_bound_log,
    run_ub,
    run_wy,
)
from sigmine.baselines import estimate_quantile, permuted_labels, quantile_position
from sigmine.oracle import (
    CatColumn,
    ContColumn,
    NullConditional,
    NullIID,
    SyntheticSpec,
    brute_force_qualities,
    brute_force_sup,
    fwer_band,
    generate,
    monte_carlo,
)
from sigmine.resample import STREAM_PERMUTE, generator
from sigmine.suites import planted_spec

from conftest import binary_dataset


@pytest.fixture(scope="module")
def small_planted():
    return generate(planted_spec(m=800, seed=55))


def _cfg(**kw):
    kw.setdefault("language", LanguageConfig(z=2))
    return RunConfig(**kw)


def test_permutations_preserve_ones(small_planted):
    for j in range(20):
        perm = permuted_labels(small_planted.target, seed=5, j=j)
        assert perm.ones == small_planted.target.ones


def test_permutation_reproducible(small_planted):
    a = permuted_labels(small_planted.target, seed=5, j=3)
    b = permuted_labels(small_planted.target, seed=5, j=3)
    assert a == b


def test_permutation_is_the_shuffle_of_the_labels():
    # permuted_labels gathers through a permuted index; the (seed, j) stream
    # must shuffle exactly as shuffling the label bytes themselves does, so
    # every WY quantile stays what it was
    rng = np.random.default_rng(21)
    for case in range(300):
        m = 1 if case % 25 == 0 else int(rng.integers(2, 2000))
        seed, j = int(rng.integers(0, 2**63)), int(rng.integers(0, 2**32))
        labels = LabelVector((rng.random(m) < rng.random()).astype(np.uint8))
        want = generator(seed, STREAM_PERMUTE, j).permutation(labels.bits)
        assert np.array_equal(permuted_labels(labels, seed, j).bits, want)


def test_quantile_position_rule():
    assert quantile_position(0.05, 1000) == 50
    assert quantile_position(0.05, 10) == 1
    assert quantile_position(0.051, 1000) == 51
    assert quantile_position(0.05, 1) == 1
    assert quantile_position(0.07, 100) == 7  # float product 7.000000000000001


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_wy_rejection_position_controls_fwer():
    # under the null the observed supremum and the p permuted ones are
    # exchangeable, so rejecting above the order statistic at position k
    # among p has an FWER of up to k / (p + 1); a valid rule keeps that at
    # most delta at every permutation count the config accepts
    over = []
    for delta in (0.01, 0.05, 0.1):
        for p in range(1, 3001):
            try:
                RunConfig(delta=delta, permutations=p)
            except ConfigError:
                continue
            if quantile_position(delta, p) > round(delta * (p + 1), 9):
                over.append((delta, p))
    assert not over, f"{len(over)} (delta, p) over delta, the first {over[:5]}"


def test_quantile_matches_brute_sort():
    rng = np.random.default_rng(2)
    for _ in range(25):
        devs = rng.normal(size=int(rng.integers(1, 200)))
        delta = float(rng.uniform(0.01, 0.5))
        est = estimate_quantile(devs, delta)
        srt = sorted(devs, reverse=True)
        k = max(1, math.ceil(round(delta * len(devs), 9)))
        assert est.delta_quantile == srt[k - 1]
        assert list(est.deviations) == srt
        assert est.epsilon == np.nextafter(srt[k - 1], np.inf)
        assert not hasattr(est, "threshold")  # the cutoff has one name


def test_exhaustive_permutation_oracle():
    # m=8, 4 ones: every distinct label placement, sup per placement,
    # exact order statistic at position ceil(delta * N)
    ds = binary_dataset(
        [[0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1]], [1, 1, 1, 1, 0, 0, 0, 0]
    )
    cfg = LanguageConfig(z=2)
    center = 0.5
    sups = []
    for ones in combinations(range(8), 4):
        bits = np.zeros(8, dtype=np.uint8)
        bits[list(ones)] = 1
        sups.append(brute_force_sup(ds, LabelVector(bits), center, cfg))
    est = estimate_quantile(sups, 0.05)
    srt = sorted(sups, reverse=True)
    assert est.position == math.ceil(0.05 * len(sups))
    assert est.delta_quantile == srt[est.position - 1]


def test_wy_p1_threshold_is_single_sup(small_planted):
    found, quantile = run_wy(small_planted, _cfg(seed=3, permutations=1))
    assert quantile.position == 1
    assert quantile.delta_quantile == quantile.deviations[0]


def test_wy_output_thresholds_quality(small_planted):
    cfg = _cfg(seed=12, permutations=50)
    found, quantile = run_wy(small_planted, cfg)
    rows = brute_force_qualities(
        small_planted, small_planted.target, small_planted.mean_target(), cfg.language
    )
    # strict Westfall-Young rule: a quality tying the quantile is not significant
    expected = {p for p, v, _ in rows if v > quantile.delta_quantile}
    assert {d.pattern for d in found} == expected


def test_wy_deterministic(small_planted):
    cfg = _cfg(seed=12, permutations=30)
    a = run_wy(small_planted, cfg)
    b = run_wy(small_planted, cfg)
    assert a[0] == b[0]
    assert list(a[1].deviations) == list(b[1].deviations)


@pytest.mark.parametrize("m", [20, 60, 200])
def test_wy_null_fwer_tiny_m(m):
    # at tiny m the permutation suprema tie often; the strict rule must still
    # keep the family-wise error rate inside the acceptance band
    spec = SyntheticSpec(m, (CatColumn((0.5, 0.5)),) * 3, NullConditional(m // 2))
    summary = monte_carlo(
        spec,
        lambda ds, seed: run_wy(ds, _cfg(seed=seed, permutations=100))[0],
        trials=200,
        base_seed=0,
    )
    assert summary.empirical_fwer <= fwer_band(0.05, 200), summary


def test_ub_no_random_bits(small_planted):
    cfg = _cfg(mode=Mode.UNCONDITIONAL, seed=1)
    a = run_ub(small_planted, cfg)
    b = run_ub(small_planted, RunConfig(mode=Mode.UNCONDITIONAL, seed=999, language=cfg.language))
    assert a[0] == b[0]  # seed does not matter at all
    assert a[1].epsilon == b[1].epsilon


def test_ub_single_projection_reduces_to_unit_count():
    # one row and one selector: the closed form is below ln 1 at m=1, and
    # the language size, 1, takes its place
    ds = binary_dataset([[0]], [1])
    cfg = _cfg(mode=Mode.UNCONDITIONAL, language=LanguageConfig(z=2))
    found, report = run_ub(ds, cfg)
    assert len(brute_force_qualities(ds, ds.target, 0.5, cfg.language)) == 1
    assert report.n_hat_log == 0.0
    assert report.n_hat_source == "language_or_subsets"
    want = bound_statistic_ub(0.0, report.nu_t, report.nu, ds.m, cfg.delta)
    assert (report.r_hat, report.d_hat, report.epsilon) == want


def test_empirical_count_below_closed_form():
    for seed in range(3):
        ds = generate(
            SyntheticSpec(15, (ContColumn(), ContColumn()), NullIID(0.5), seed=seed)
        )
        cfg_lang = LanguageConfig(z=2, bins=2)
        rows = brute_force_qualities(ds, ds.target, 0.5, cfg_lang)
        emp = math.log(len({evaluate(p, ds).tobytes() for p, _, _ in rows}))
        closed = projection_bound_log(ds.m, ds.n_features, cfg_lang.z)
        assert emp <= closed


def test_ub_output_thresholds_quality():
    # m=4000: the closed-form threshold reports nothing at m=800
    ds = generate(planted_spec(m=4000, seed=55))
    cfg = _cfg(mode=Mode.UNCONDITIONAL, seed=0)
    found, report = run_ub(ds, cfg)
    rows = brute_force_qualities(ds, ds.target, ds.mean_target(), cfg.language)
    expected = {
        p
        for p, v, _ in rows
        if v >= report.epsilon + report.eps_t * _freq(ds, p)
    }
    assert expected
    assert {d.pattern for d in found} == expected


def _freq(ds, pattern):
    from sigmine import evaluate

    return np.count_nonzero(evaluate(pattern, ds)) / ds.m


def test_wy_center_equals_permutation_mean(small_planted):
    # permutations preserve the label mean, so centering at the observed
    # mean and at the permuted mean are the same thing
    perm = permuted_labels(small_planted.target, seed=8, j=0)
    assert perm.mean() == small_planted.mean_target()


def test_null_conditional_matches_permutation_distribution():
    ds = generate(SyntheticSpec(30, (CatColumn((0.5, 0.5)),), NullConditional(12), seed=4))
    assert ds.target.ones == 12
    perm = permuted_labels(ds.target, seed=1, j=0)
    assert perm.ones == 12


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=60),
    st.floats(0.001, 0.999),
)
def test_quantile_position_property(devs, delta):
    est = estimate_quantile(devs, delta)
    srt = sorted(devs, reverse=True)
    assert 1 <= est.position <= len(devs)
    assert est.delta_quantile == srt[est.position - 1]
    # the position is the count of deviations at or above the quantile,
    # rounded up from delta * p
    assert est.position == max(1, math.ceil(round(delta * len(devs), 9)))
