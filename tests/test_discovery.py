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
    flag_top_k,
    run_discovery,
)
from sigmine.discovery import significant_patterns, top_k_flags
from sigmine.report import METHODS
from sigmine.search import SearchContext
from sigmine.oracle import (
    CatColumn,
    NullConditional,
    NullIID,
    Planted,
    SyntheticSpec,
    brute_force_qualities,
    generate,
)
from sigmine.suites import planted_spec


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
    cfg = _cfg(Mode.CONDITIONAL, seed=6, top_k=50)
    ctx = SearchContext(planted_ds, cfg.language)
    report = METHODS[method](ctx, cfg, 50)
    result, flags = top_k_flags(ctx, report, cfg.top_k)
    members = {d.pattern for d in significant_patterns(ctx, report)}
    # the cut falls inside the top 50 (above all of them for ub)
    assert len(result.entries) == 50 and sum(flags) < 50
    for (pattern, stat), flag in zip(result.entries, flags):
        assert flag == (pattern in members)
    if method in {m.value for m in Mode}:
        # the library entry point agrees: same seed, same threshold, same flags
        _, lib_flags, lib_report = flag_top_k(planted_ds, replace(cfg, mode=Mode(method)))
        assert lib_report.to_json() == report.to_json() and lib_flags == flags


def test_flag_top_k_saturation_and_zero(planted_ds):
    cfg = _cfg(Mode.CONDITIONAL, seed=6, top_k=10**6)
    result, flags, report = flag_top_k(planted_ds, cfg)
    assert len(result.entries) < 10**6  # whole language returned
    found, _ = run_discovery(planted_ds, _cfg(Mode.CONDITIONAL, seed=6))
    assert sum(flags) == len(found)

    # threshold above every quality: tiny null dataset, huge language noise
    null_ds = generate(SyntheticSpec(60, (CatColumn((0.5, 0.5)),) * 3, NullIID(0.5), seed=8))
    out, nflags, _ = flag_top_k(null_ds, _cfg(Mode.UNCONDITIONAL, seed=8, top_k=5))
    assert sum(nflags) == 0


def test_flag_top_k_requires_k(planted_ds):
    with pytest.raises(ConfigError):
        flag_top_k(planted_ds, _cfg(Mode.CONDITIONAL))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(delta=1.5)
    with pytest.raises(ConfigError):
        RunConfig(c=0)
    assert RunConfig(mode="conditional").mode is Mode.CONDITIONAL


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


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_degenerate_label_rates_run_cleanly(mu):
    ds = generate(SyntheticSpec(300, (CatColumn((0.5, 0.5)),) * 2, NullIID(mu), seed=1))
    assert ds.mean_target() == mu
    for mode in (Mode.CONDITIONAL, Mode.UNCONDITIONAL):
        found, report = run_discovery(ds, _cfg(mode, seed=1))
        assert found == []  # nothing can clear a positive threshold
        assert math.isfinite(report.epsilon)
        assert 0.0 <= report.mu_check <= report.mu_hat <= 1.0
