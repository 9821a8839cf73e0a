import dataclasses
import math

import pytest

from sigmine import (
    BoundReport,
    ConfigError,
    Mode,
    bound_statistic_conditional,
    bound_statistic_ub,
    bound_statistic_unconditional,
    bound_target,
    variance_bracket,
    variance_factor,
)
from sigmine.bounds import kv_block

LN80 = math.log(80.0)


def test_bound_target_conditional_is_zero():
    for mu, m, delta in [(0.1, 10, 0.01), (0.9, 10**6, 0.2), (0.5, 1, 0.5)]:
        assert bound_target(Mode.CONDITIONAL, mu, m, delta) == 0.0


def test_bound_target_unconditional_value():
    got = bound_target(Mode.UNCONDITIONAL, 0.25, 1000, 0.05)
    ln = math.log(8 / 0.05)
    want = math.sqrt(2 * 0.25 * ln / 1000) + 2 * ln / 1000
    assert got == want
    assert got == pytest.approx(0.0605248, abs=1e-6)


def test_bound_target_vanishes_in_m():
    prev = math.inf
    for m in (10, 100, 10_000, 10**8):
        v = bound_target(Mode.UNCONDITIONAL, 0.3, m, 0.05)
        assert v < prev
        prev = v
    assert prev < 1e-3


def test_bound_target_rejects_bad_delta():
    for delta in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ConfigError):
            bound_target(Mode.UNCONDITIONAL, 0.5, 100, delta)


def test_bound_target_rejects_no_rows():
    for mode in Mode:
        with pytest.raises(ConfigError, match="m must be >= 1"):
            bound_target(mode, 0.5, 0, 0.05)


def test_unconditional_chains_reject_negative_variances():
    for nu_t, nu in ((-0.1, 0.25), (0.25, -0.1)):
        with pytest.raises(ConfigError, match="nu_T and nu must be >= 0"):
            bound_statistic_unconditional(0.01, nu_t, nu, 100, 10, 0.05)
        with pytest.raises(ConfigError, match="nu_T and nu must be >= 0"):
            bound_statistic_ub(1.0, nu_t, nu, 100, 0.05)


def test_variance_factor_examples():
    assert variance_factor(0.5, 1.0) == 0.25
    assert variance_factor(0.0, 0.7) == 0.0
    assert variance_factor(0.3, 0.0) == 0.0  # sup_freq = 0 is accepted
    assert variance_factor(0.482, 1.0) == pytest.approx(0.518 * 0.482, abs=1e-12)


def test_conditional_spot_check():
    got = bound_statistic_conditional(0.0, 0.25, 10**4, 10, 0.05)
    assert got == pytest.approx(0.0194829, abs=1e-6)


def test_conditional_decreasing_in_c_with_limit():
    prev = math.inf
    for c in (1, 2, 10, 100, 10**12):
        v = bound_statistic_conditional(0.01, 0.2, 10**4, c, 0.05)
        assert v < prev
        prev = v
    limit = 0.01 + math.sqrt(2 * 0.2 * LN80 / 10**4)
    assert prev == pytest.approx(limit, abs=1e-6)


def test_conditional_reduces_to_mcdiarmid_term():
    m, c = 5000, 7
    assert bound_statistic_conditional(0.0, 0.0, m, c, 0.05) == math.sqrt(LN80 / (2 * c * m))


def test_variance_bracket_cases():
    assert variance_bracket(0.5, 0.0) == (0.25, 0.25)
    assert variance_bracket(0.5, 0.3) == (0.25, 0.25)
    nu_t, nu = variance_bracket(0.2, 0.05)
    assert nu_t == nu == pytest.approx(0.25 * 0.75, abs=1e-12)
    assert variance_bracket(0.2, 0.4) == (0.25, 0.25)
    # a bracket ending at 1/2 exactly still contains the peak
    assert variance_bracket(0.25, 0.25) == (0.25, 0.25)
    # bracket clamped into [0, 1]
    nu_t, _ = variance_bracket(0.05, 0.2)
    assert nu_t == 0.25 * 0.75


def test_unconditional_chain_spot_check():
    r, d, e = bound_statistic_unconditional(0.0, 0.25, 0.25, 10**4, 10, 0.05)
    assert r == pytest.approx(0.0046808, abs=1e-6)
    assert d == pytest.approx(0.0069372, abs=1e-6)
    assert e == pytest.approx(0.0222905, abs=1e-6)


def test_unconditional_outputs_decrease_in_m():
    prev = (math.inf,) * 3
    for m in (100, 1000, 10**5):
        out = bound_statistic_unconditional(0.01, 0.25, 0.25, m, 10, 0.05)
        assert all(a < b for a, b in zip(out, prev))
        prev = out


def test_negative_d_tilde_floors_r_hat():
    r, d, e = bound_statistic_unconditional(-0.5, 0.25, 0.25, 100, 10, 0.05)
    assert r < 0  # raw value reported
    assert d >= 0 and e >= d
    # d/e correspond to r floored at exactly 0
    from sigmine.bounds import _chain_d_hat_eps

    want_d, want_e = _chain_d_hat_eps(0.0, 0.25, 0.25, 100, 0.05)
    assert (d, e) == (want_d, want_e)
    # with zero variance both radicands are exactly 0, which is no error
    r, d, e = bound_statistic_unconditional(-1.0, 0.0, 0.0, 100, 10, 0.05)
    assert r < 0 and d == 0.0 and e == LN80 / 300


def test_ub_spot_checks():
    m = 10**4
    r, _, _ = bound_statistic_ub(0.0, 0.25, 0.25, m, 0.05)
    assert r == math.sqrt(LN80 / (2 * m))  # single distinct projection
    r10, _, _ = bound_statistic_ub(10.0, 0.25, 0.25, m, 0.05)
    assert r10 == pytest.approx(0.026816, abs=1e-5)


def test_unconditional_dominates_conditional_when_comparable():
    # eps_T forced to 0 and nu = omega: the extra chain terms are nonnegative
    for m in (500, 10**4):
        for c in (1, 10):
            for d_tilde in (0.0, 0.01, 0.05):
                omega = 0.21
                eps_c = bound_statistic_conditional(d_tilde, omega, m, c, 0.05)
                _, _, eps_u = bound_statistic_unconditional(d_tilde, omega, omega, m, c, 0.05)
                assert eps_u >= eps_c


@pytest.mark.parametrize(
    "fn",
    [
        lambda m, delta: bound_target(Mode.UNCONDITIONAL, 0.3, m, delta),
        lambda m, delta: bound_statistic_conditional(0.01, 0.2, m, 10, delta),
        lambda m, delta: bound_statistic_unconditional(0.01, 0.24, 0.24, m, 10, delta)[2],
        lambda m, delta: bound_statistic_ub(5.0, 0.24, 0.24, m, delta)[2],
    ],
)
def test_bounds_monotone_in_m_and_delta(fn):
    for delta in (0.01, 0.05, 0.2):
        vals = [fn(m, delta) for m in (100, 1000, 10_000, 100_000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for m in (100, 10_000):
        vals = [fn(m, delta) for delta in (0.2, 0.05, 0.01)]  # shrinking delta
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_bound_report_kv_block():
    rep = BoundReport(
        mode=Mode.UNCONDITIONAL,
        delta=0.05,
        m=1234,
        c=10,
        mu_d=0.34567891234,
        mu_hat=0.4,
        mu_check=0.3,
        eps_t=0.0123456789012345,
        sup_freq=0.9,
        epsilon=0.04567890123456789,
        d_tilde=0.01234,
        nu=0.25,
        nu_t=0.25,
        r_hat=0.017,
        d_hat=0.019,
    )
    block = rep.to_kv_block()
    assert "# epsilon=0.04567890123456789" in block
    assert "omega" not in block  # unset fields stay out


def test_bound_report_bracket_invariant():
    rep = BoundReport(
        mode=Mode.UNCONDITIONAL, delta=0.05, m=10, c=1, mu_d=0.5,
        mu_hat=0.8, mu_check=0.2, eps_t=0.3, sup_freq=1.0, epsilon=0.5,
    )
    assert 0.0 <= rep.mu_check <= rep.mu_d <= rep.mu_hat <= 1.0


def test_bound_report_is_built_once():
    rep = BoundReport(
        mode=Mode.CONDITIONAL, delta=0.05, m=10, c=1, mu_d=0.5,
        mu_hat=0.5, mu_check=0.5, eps_t=0.0, sup_freq=1.0, epsilon=0.5, omega=0.25,
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.epsilon = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.omega = None


def test_kv_block_prefixes_names_and_quotes_strings():
    fields = {"n_hat_source": "closed_form", "epsilon": 0.1 + 0.2, "m": 7}
    assert kv_block(fields) == "# epsilon=0.30000000000000004\n# m=7\n# n_hat_source='closed_form'"
    assert kv_block(fields, "quantile.").splitlines()[1] == "# quantile.m=7"
