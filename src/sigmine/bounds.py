"""Deviation-bound calculus for conditional and unconditional testing.

Every function here is a pure scalar formula; the run orchestrator feeds it
the average maximum deviation estimated from resamples and records every
intermediate in a BoundReport for audit.  All logs are natural, all
arithmetic double precision, and the final significance comparison applies
no tolerance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .errors import ConfigError


class Mode(str, Enum):
    CONDITIONAL = "conditional"
    UNCONDITIONAL = "unconditional"


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")


def bound_target(mode: Mode, mu_d: float, m: int, delta: float) -> float:
    """Allowance eps_T for the deviation of the observed label mean.

    Conditional testing fixes the label mean, so the allowance is 0.
    Under i.i.d. sampling the mean concentrates and

        eps_T = sqrt(2 min(mu_d, 1/4) ln(8/delta) / m) + 2 ln(8/delta) / m,

    the better of the Hoeffding and empirical-Bernstein rates.
    """
    _check_delta(delta)
    if m < 1:
        raise ConfigError("m must be >= 1")
    if mode is Mode.CONDITIONAL:
        return 0.0
    ln = math.log(8.0 / delta)
    return math.sqrt(2.0 * min(mu_d, 0.25) * ln / m) + 2.0 * ln / m


def variance_factor(mu_d: float, sup_freq: float) -> float:
    """Variance proxy for the conditional tail: (1 - mu) * min(mu, sup_freq).

    sup_freq is the maximum pattern frequency over the language, computed
    once on the observed dataset.
    """
    if not 0.0 <= sup_freq <= 1.0:
        raise ConfigError("sup_freq must lie in [0, 1]")
    return (1.0 - mu_d) * min(mu_d, sup_freq)


def variance_bracket(mu_d: float, eps_t: float) -> tuple[float, float]:
    """Plug-in (nu_T, nu): max of x(1-x) over |x - mu_d| <= eps_t.

    The parabola peaks at 1/2, so the max is 1/4 when the bracket contains
    1/2 and otherwise sits at the endpoint nearest 1/2.  The same value
    serves as both variance ceilings.
    """
    if eps_t < 0:
        raise ConfigError("eps_t must be >= 0")
    lo = max(0.0, mu_d - eps_t)
    hi = min(1.0, mu_d + eps_t)
    if lo <= 0.5 <= hi:
        v = 0.25
    else:
        x = hi if hi < 0.5 else lo
        v = x * (1.0 - x)
    return v, v


def bound_statistic_conditional(
    d_tilde: float, omega: float, m: int, c: int, delta: float
) -> float:
    """Conditional threshold:

        eps = d_tilde + sqrt(2 omega ln(4/delta) / m) + sqrt(ln(4/delta) / (2 c m)).
    """
    _check_delta(delta)
    ln = math.log(4.0 / delta)
    return d_tilde + math.sqrt(2.0 * omega * ln / m) + math.sqrt(ln / (2.0 * c * m))


def _chain_d_hat_eps(
    r_hat: float, nu_t: float, nu: float, m: int, delta: float
) -> tuple[float, float]:
    """Shared tail of the unconditional chain: d_hat from r_hat, then eps;
    with r_hat, nu_T and nu >= 0, no radicand is negative."""
    if nu_t < 0 or nu < 0:
        raise ConfigError(f"nu_T and nu must be >= 0, got {nu_t} and {nu}")
    ln = math.log(4.0 / delta)
    inner = (2.0 * nu_t * ln / m) ** 2 + 2.0 * r_hat * ln / m
    d_hat = r_hat + math.sqrt(inner) + 2.0 * nu_t * ln / m
    eps = d_hat + math.sqrt(2.0 * ln * (nu + 2.0 * d_hat) / m) + ln / (3.0 * m)
    return d_hat, eps


def bound_statistic_unconditional(
    d_tilde: float, nu_t: float, nu: float, m: int, c: int, delta: float
) -> tuple[float, float, float]:
    """Unconditional chain (r_hat, d_hat, eps):

        r_hat = d_tilde + sqrt(ln(4/delta) / (2 c m))
        d_hat = r_hat + sqrt((2 nu_T ln(4/delta)/m)^2 + 2 r_hat ln(4/delta)/m)
                      + 2 nu_T ln(4/delta)/m
        eps   = d_hat + sqrt(2 ln(4/delta) (nu + 2 d_hat) / m) + ln(4/delta)/(3m)

    A negative d_tilde can push r_hat below zero; d_hat is then computed from
    r_hat floored at 0, which only loosens the bound upward.  The returned
    r_hat is the unfloored value.
    """
    _check_delta(delta)
    ln = math.log(4.0 / delta)
    r_hat = d_tilde + math.sqrt(ln / (2.0 * c * m))
    d_hat, eps = _chain_d_hat_eps(max(r_hat, 0.0), nu_t, nu, m, delta)
    return r_hat, d_hat, eps


def bound_statistic_ub(
    n_hat_log: float, nu_t: float, nu: float, m: int, delta: float
) -> tuple[float, float, float]:
    """Projection-count variant: a union bound over the distinct covers
    replaces the resample estimate,

        r_hat = sqrt((ln N_hat + ln(4/delta)) / (2 m)),

    then d_hat and eps exactly as in the unconditional chain.  Takes
    ln(N_hat) so astronomically large correction counts stay finite.
    """
    _check_delta(delta)
    if n_hat_log < 0:
        raise ConfigError("ln(N_hat) must be >= 0")
    ln = math.log(4.0 / delta)
    r_hat = math.sqrt((n_hat_log + ln) / (2.0 * m))
    d_hat, eps = _chain_d_hat_eps(r_hat, nu_t, nu, m, delta)
    return r_hat, d_hat, eps


def significance_cutoff(eps, eps_t, frequency):
    """The quality a pattern of `frequency` must reach to be reported:
    eps + eps_t * frequency, elementwise for an array of frequencies."""
    return eps + eps_t * frequency


def kv_block(fields: dict, prefix: str = "") -> str:
    """A report's `# name=value` lines in name order; strings print quoted."""
    return "\n".join(f"# {prefix}{k}={v!r}" if isinstance(v, str) else f"# {prefix}{k}={v}"
                     for k, v in sorted(fields.items()))


@dataclass(frozen=True)
class BoundReport:
    """Every intermediate of one bound computation, for audit and tests."""

    mode: Mode
    delta: float
    m: int
    c: int
    mu_d: float
    mu_hat: float
    mu_check: float
    eps_t: float
    sup_freq: float
    epsilon: float
    d_tilde: float | None = None
    omega: float | None = None
    nu: float | None = None
    nu_t: float | None = None
    r_hat: float | None = None
    d_hat: float | None = None
    n_hat_log: float | None = None
    n_hat_source: str | None = None

    key = "bound_report"  # the JSON output's key for this report

    def to_dict(self) -> dict:
        d = {**asdict(self), "mode": self.mode.value}
        return {k: v for k, v in d.items() if v is not None}

    def to_kv_block(self) -> str:
        return kv_block(self.to_dict())
