import math
from dataclasses import replace

import pytest

from sigmine import (
    ConfigError,
    Form,
    LanguageConfig,
    Mode,
    Pattern,
    RunConfig,
    Selector,
    empirical_quality,
    evaluate,
    run_discovery,
)
from sigmine.discovery import compute_bounds, significant_patterns, top_k_patterns
from sigmine.report import METHODS
from sigmine.resample import MAX_DRAWS, STREAM_RESAMPLE, ResamplePlan, generator
from sigmine.search import SearchContext
from sigmine.oracle import (
    CatColumn,
    NullConditional,
    NullIID,
    SyntheticSpec,
    brute_force_qualities,
    fwer_band,
    generate,
    monte_carlo,
)
from sigmine.suites import _runner, planted_spec


@pytest.fixture(scope="module")
def planted_ds():
    return generate(planted_spec(m=3000, seed=123))


def _cfg(mode, **kw):
    return RunConfig(mode=mode, language=LanguageConfig(z=2), **kw)


def test_conditional_output_is_quality_threshold(planted_ds):
    found, report = run_discovery(planted_ds, _cfg(Mode.CONDITIONAL, seed=4))
    assert report.eps_t == 0.0
    rows = brute_force_qualities(
        planted_ds, planted_ds.target, planted_ds.mean_target(), LanguageConfig(z=2)
    )
    expected = {p for p, v, _ in rows if v >= report.epsilon}
    assert {d.pattern for d in found} == expected
    assert len(found) > 0


def test_discoveries_reverify_bit_exact(planted_ds):
    found, report = run_discovery(planted_ds, _cfg(Mode.UNCONDITIONAL, seed=4))
    mu = planted_ds.mean_target()
    for d in found:
        stat = empirical_quality(evaluate(d.pattern, planted_ds), planted_ds.target, mu)
        assert stat.value == d.quality
        assert stat.frequency == d.frequency
        assert d.threshold_margin == d.quality - (report.epsilon + report.eps_t * d.frequency)
        assert d.threshold_margin >= 0.0


def test_planted_pattern_found(planted_ds):
    planted = Pattern.of(Selector(0, Form.EQUALS, 0.0))
    for mode in (Mode.CONDITIONAL, Mode.UNCONDITIONAL):
        found, _ = run_discovery(planted_ds, _cfg(mode, seed=9))
        assert any(d.pattern == planted for d in found)


def test_sorted_by_quality_desc(planted_ds):
    found, _ = run_discovery(planted_ds, _cfg(Mode.CONDITIONAL, seed=4))
    quals = [d.quality for d in found]
    assert quals == sorted(quals, reverse=True)


def test_end_to_end_determinism(planted_ds):
    a = run_discovery(planted_ds, _cfg(Mode.UNCONDITIONAL, seed=77))
    b = run_discovery(planted_ds, _cfg(Mode.UNCONDITIONAL, seed=77))
    assert a[0] == b[0]
    assert a[1].to_json() == b[1].to_json()


def test_report_always_emitted_on_empty_output():
    ds = generate(SyntheticSpec(200, (CatColumn((0.5, 0.5)),), NullIID(0.5), seed=3))
    found, report = run_discovery(ds, _cfg(Mode.CONDITIONAL, seed=3))
    assert found == []
    assert math.isfinite(report.epsilon)
    assert 0.0 <= report.mu_check <= report.mu_d <= report.mu_hat <= 1.0


def test_output_monotone_in_delta(planted_ds):
    sets = []
    for delta in (0.01, 0.05, 0.2):
        found, _ = run_discovery(planted_ds, _cfg(Mode.UNCONDITIONAL, seed=5, delta=delta))
        sets.append({d.pattern for d in found})
    assert sets[0] <= sets[1] <= sets[2]


def test_resample_addend_halves_when_c_quadruples():
    m, delta = 10**4, 0.05
    term = lambda c: math.sqrt(math.log(4 / delta) / (2 * c * m))
    assert term(4) == pytest.approx(term(1) / 2, rel=1e-12)
    assert term(40) == pytest.approx(term(10) / 2, rel=1e-12)


@pytest.mark.parametrize("method", list(METHODS))
def test_flag_top_k_consistency(planted_ds, method):
    # a top-k pattern is flagged iff the method's own scan reports it
    cfg = _cfg(Mode.CONDITIONAL, seed=6, top_k=50, permutations=50)
    ctx = SearchContext(planted_ds, cfg.language)
    report = METHODS[method](ctx, cfg)
    top = top_k_patterns(ctx, report, cfg.top_k)
    members = {d.pattern for d in significant_patterns(ctx, report)}
    # the cut falls inside the top 50 (above all of them for ub)
    assert len(top) == 50 and sum(d.significant for d in top) < 50
    for d in top:
        assert d.significant == (d.pattern in members)


def test_a_record_at_the_cutoff_is_significant(planted_ds):
    # epsilon at the best observed quality and eps_t = 0: the best pattern's
    # margin is exactly 0.0, the scan reports it, and both outputs flag it
    ctx = SearchContext(planted_ds, LanguageConfig(z=2))
    report = compute_bounds(ctx, _cfg(Mode.CONDITIONAL, seed=4))
    best = top_k_patterns(ctx, report, 1)[0]
    at_cut = replace(report, epsilon=best.quality, eps_t=0.0)
    found = significant_patterns(ctx, at_cut)
    assert [(d.pattern, d.threshold_margin, d.significant) for d in found] == [
        (best.pattern, 0.0, True)
    ]
    top = top_k_patterns(ctx, at_cut, 3)
    assert top[0] == found[0]
    assert [d.significant for d in top] == [True, False, False]


def test_flag_top_k_saturation_and_zero(planted_ds):
    cfg = _cfg(Mode.CONDITIONAL, seed=6, top_k=10**6)
    top, report = run_discovery(planted_ds, cfg)
    assert len(top) < 10**6  # whole language returned
    found, _ = run_discovery(planted_ds, _cfg(Mode.CONDITIONAL, seed=6))
    assert sum(d.significant for d in top) == len(found)

    # threshold above every quality: tiny null dataset, huge language noise
    null_ds = generate(SyntheticSpec(60, (CatColumn((0.5, 0.5)),) * 3, NullIID(0.5), seed=8))
    out, _ = run_discovery(null_ds, _cfg(Mode.UNCONDITIONAL, seed=8, top_k=5))
    assert len(out) == 5 and sum(d.significant for d in out) == 0


def test_run_config_validation():
    for delta in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigError):
            RunConfig(delta=delta)
    with pytest.raises(ConfigError):
        RunConfig(c=0)
    assert RunConfig(mode="conditional").mode is Mode.CONDITIONAL
    # the draw counts are capped at, not below, the generator's key space
    cfg = RunConfig(c=MAX_DRAWS, permutations=MAX_DRAWS)
    assert cfg.c == cfg.permutations == MAX_DRAWS


def test_config_errors_name_their_field():
    # the field a check refuses travels with the error, for the CLI to name
    # its flag (`cli.FLAGS`)
    refused = [
        ("delta", lambda: RunConfig(delta=1.0)),
        ("mode", lambda: RunConfig(mode="bogus")),
        ("mode", lambda: RunConfig(mode="wy")),  # a method, not a null model
        ("mode", lambda: RunConfig(mode=None)),
        ("c", lambda: RunConfig(c=0)),
        ("permutations", lambda: RunConfig(permutations=MAX_DRAWS + 1)),
        ("top_k", lambda: RunConfig(top_k=0)),
        ("seed", lambda: RunConfig(seed=2**64)),
        ("z", lambda: LanguageConfig(z=0)),
        ("bins", lambda: LanguageConfig(bins=0)),
        ("mode", lambda: LanguageConfig(mode="sequence")),
        ("c", lambda: ResamplePlan(c=MAX_DRAWS + 1, p=0.5, seed=1)),
        ("p", lambda: ResamplePlan(c=1, p=-0.5, seed=1)),
        ("seed", lambda: generator(-1, STREAM_RESAMPLE, 0)),
        ("j", lambda: generator(1, STREAM_RESAMPLE, MAX_DRAWS)),
    ]
    for field, make in refused:
        with pytest.raises(ConfigError) as info:
            make()
        assert info.value.field == field


def test_run_config_rejects_top_k_below_one():
    # refused when the config is made, not after the c resample searches
    with pytest.raises(ConfigError, match="top_k"):
        RunConfig(top_k=0)
    assert RunConfig(top_k=1).top_k == 1


def test_conditional_null_fwer_smoke():
    # 40 quick trials; the full 200-trial band check lives in acceptance
    rejections = 0
    for t in range(40):
        ds = generate(
            SyntheticSpec(500, (CatColumn((0.5, 0.5)),) * 3, NullConditional(250), seed=t)
        )
        found, _ = run_discovery(ds, _cfg(Mode.CONDITIONAL, seed=t))
        rejections += bool(found)
    assert rejections <= 6


@pytest.mark.parametrize(
    "mode, rule", [(Mode.CONDITIONAL, NullConditional(100)), (Mode.UNCONDITIONAL, NullIID(0.5))]
)
def test_null_fwer_with_a_many_valued_column(mode, rule):
    # 150 codes over 200 rows: most codes cover a row or two, the most
    # frequent is counted as the complement of all the others, and the
    # language is mostly tiny covers
    cols = (CatColumn((1 / 150,) * 150), CatColumn((0.5, 0.5)), CatColumn((0.5, 0.5)))
    summary = monte_carlo(SyntheticSpec(200, cols, rule), _runner(mode), trials=200, base_seed=0)
    assert summary.empirical_fwer <= fwer_band(0.05, 200), summary


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_degenerate_label_rates_run_cleanly(mu):
    ds = generate(SyntheticSpec(300, (CatColumn((0.5, 0.5)),) * 2, NullIID(mu), seed=1))
    assert ds.mean_target() == mu
    for mode in (Mode.CONDITIONAL, Mode.UNCONDITIONAL):
        found, report = run_discovery(ds, _cfg(mode, seed=1))
        assert found == []  # nothing can clear a positive threshold
        assert math.isfinite(report.epsilon)
        assert 0.0 <= report.mu_check <= report.mu_hat <= 1.0
