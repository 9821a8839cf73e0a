import tracemalloc

import numpy as np
import pytest

import sigmine.oracle
from sigmine import Form, LanguageConfig, OracleError, Selector
from sigmine.oracle import (
    CatColumn,
    ContColumn,
    NullConditional,
    NullIID,
    Planted,
    SyntheticSpec,
    brute_force_sup,
    coupling_check,
    fwer_band,
    generate,
    monte_carlo,
)
from sigmine.resample import STREAM_SYNTH, generator
from sigmine.suites import suite_coupling


def test_generate_deterministic():
    spec = SyntheticSpec(50, (CatColumn((0.3, 0.7)), ContColumn()), NullIID(0.4), seed=2)
    a, b = generate(spec), generate(spec)
    assert a.fingerprint() == b.fingerprint()


def per_row_planted(spec):
    """The spec's dataset drawn as `generate` draws it, with the planted
    selector evaluated one cell at a time."""
    rng = generator(spec.seed, STREAM_SYNTH, 0)
    values = []
    for col in spec.columns:
        if isinstance(col, CatColumn):
            values.append(rng.choice(len(col.probs), size=spec.m, p=np.asarray(col.probs)))
        else:
            values.append(rng.random(spec.m) if col.dist == "uniform" else rng.normal(size=spec.m))
    rule = spec.target_rule
    cells = values[rule.selector.column].tolist()
    p = np.array([rule.p_in if rule.selector.holds(v) else rule.p_out for v in cells])
    return values, (rng.random(spec.m) < p).astype(np.uint8)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "sel",
    [
        Selector(0, Form.EQUALS, 1.0),
        Selector(1, Form.LESS_THAN, 0.4),
        Selector(2, Form.AT_LEAST, 0.25),
        Selector(2, Form.INTERVAL, -0.5, 0.8),
    ],
)
def test_planted_target_matches_per_row_construction(sel, seed):
    cols = (CatColumn((0.3, 0.5, 0.2)), ContColumn(), ContColumn("normal"))
    spec = SyntheticSpec(400, cols, Planted(sel, 0.9, 0.1), seed=seed)
    ds = generate(spec)
    values, bits = per_row_planted(spec)
    assert all(np.array_equal(a, b) for a, b in zip(ds.values, values))
    assert np.array_equal(ds.target.bits, bits)


def test_null_iid_mean_band():
    ds = generate(SyntheticSpec(10_000, (ContColumn(),), NullIID(0.3), seed=1))
    assert 0.27 <= ds.mean_target() <= 0.33


def test_null_conditional_exact_count():
    for seed in range(5):
        ds = generate(SyntheticSpec(1000, (ContColumn(),), NullConditional(300), seed=seed))
        assert ds.target.ones == 300


def test_planted_cover_mean():
    spec = SyntheticSpec(
        5000,
        (CatColumn((0.2, 0.8)),),
        Planted(Selector(0, Form.EQUALS, 0.0), p_in=0.9, p_out=0.1),
        seed=3,
    )
    ds = generate(spec)
    in_cover = ds.values[0] == 0
    assert abs(ds.target.bits[in_cover].mean() - 0.9) < 0.04
    assert abs(ds.target.bits[~in_cover].mean() - 0.1) < 0.04


def test_brute_force_guard():
    ds = generate(SyntheticSpec(40, tuple(ContColumn() for _ in range(10)), NullIID(0.5), seed=1))
    cfg = LanguageConfig(z=4, bins=5)  # ~2.3M patterns, beyond the guard
    with pytest.raises(OracleError):
        brute_force_sup(ds, ds.target, 0.5, cfg)


def test_monte_carlo_degenerate_single_trial():
    spec = SyntheticSpec(100, (CatColumn((0.5, 0.5)),), NullIID(0.5), seed=0)
    summary = monte_carlo(spec, lambda ds, seed: [], trials=1, base_seed=0)
    assert summary.empirical_fwer in (0.0, 1.0)
    assert summary.trials == 1


def test_monte_carlo_counts_and_json():
    spec = SyntheticSpec(100, (CatColumn((0.5, 0.5)),), NullIID(0.5), seed=0)
    calls = []

    def runner(ds, seed):
        calls.append(seed)
        return ["hit"] if seed % 2 else []

    summary = monte_carlo(spec, runner, trials=10, base_seed=100)
    assert calls == list(range(100, 110))
    assert summary.rejections == 5
    assert summary.empirical_fwer == 0.5
    assert summary.trials == 10
    assert summary.planted_hits == 0


def test_fwer_band_value():
    assert fwer_band(0.05, 200) == pytest.approx(0.09623, abs=1e-4)


def test_coupling_rejects_empty_family():
    with pytest.raises(OracleError):
        coupling_check(10, 5, [], [0.1], samples=10)


def test_coupling_trivial_threshold():
    covers = [[i < 5 for i in range(10)]]
    pts = coupling_check(10, 5, covers, thresholds=[-1.0], samples=500, seed=1)
    assert pts[0].p_cond == 1.0 and pts[0].p_iid == 1.0
    assert pts[0].holds


def test_coupling_inequality_basic():
    covers = [
        [i < 10 for i in range(20)],
        [5 <= i < 15 for i in range(20)],
        [i % 2 == 0 for i in range(20)],
    ]
    pts = coupling_check(20, 10, covers, thresholds=[0.05, 0.1], samples=20_000, seed=3)
    assert all(p.holds for p in pts)


def test_coupling_chunks_keep_the_estimates(monkeypatch):
    # samples are drawn in chunks, permutation keys first, from one stream;
    # a chunk of 7 that leaves a partial last chunk gives the same floats
    covers = [[i < 10 for i in range(20)], [i % 3 == 0 for i in range(20)]]
    run = lambda: coupling_check(20, 10, covers, [0.05, 0.1, 0.15], samples=1000, seed=2)
    whole = run()
    monkeypatch.setattr(sigmine.oracle, "COUPLING_CHUNK", 7)
    assert run() == whole


def test_coupling_suite_memory_is_bounded():
    # the default 100 000 samples are held a chunk at a time
    tracemalloc.start()
    try:
        suite_coupling(seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_generate_planted_reproducible_labels():
    spec = SyntheticSpec(
        300,
        (CatColumn((0.2, 0.8)), CatColumn((0.5, 0.5))),
        Planted(Selector(0, Form.EQUALS, 0.0), p_in=0.9, p_out=0.1),
        seed=17,
    )
    assert np.array_equal(generate(spec).target.bits, generate(spec).target.bits)
