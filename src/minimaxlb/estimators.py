"""Exact n-scaled local minimax risks of the reference estimators of
max(theta, 0) under N(theta, 1): the best constant, the plug-in MLE
max(mean, 0), and the plug-in pre-test (Hodges-type) estimator.

All risks are closed-form in the standard normal partial moments; the
supremum over theta in [0, delta) uses the monotonicity of the plug-in risk
and a derivative-free scan for the pre-test. The reduction to theta >= 0 is
exact (the risk at negative theta is dominated by the risk at 0) and is
re-verified on a grid in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .numerics import gaussian_partial_second_moment, maximize_1d, normal_cdf

_EDGE = 1.0 - 1e-12  # sup over the open interval [0, delta)


@dataclass(frozen=True)
class Constant:
    """S = c regardless of the data."""

    c: float


@dataclass(frozen=True)
class PluginMLE:
    """S = max(mean, 0)."""


@dataclass(frozen=True)
class PreTest:
    """S = max(mean, 0) if |mean| >= threshold else 0.

    threshold = None materializes the Hodges choice n^(-1/4) per sample size.
    """

    threshold: float | None = None

    def __post_init__(self):
        if self.threshold is not None and not self.threshold > 0:
            raise ValueError("threshold must be positive")


EstimatorSpec = Union[Constant, PluginMLE, PreTest]


def _check_n(n: int) -> int:
    if n < 1:
        raise ValueError("n must be a positive integer")
    return int(n)


def constant_local_minimax_risk(delta: float, n: int) -> float:
    """Risk n delta^2/4 of the best constant estimator c = delta/2."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    _check_n(n)
    return n * delta * delta / 4.0


def plugin_risk_at(theta: float, n: int) -> float:
    """n-scaled risk of max(mean, 0) at theta >= 0.

    Equals E[Z^2 1{Z >= -m}] + m^2 P(Z < -m) with m = sqrt(n) theta, i.e.
    Phi(m) - m phi(m) + m^2 Phi(-m) in closed form.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    _check_n(n)
    m = math.sqrt(n) * theta
    below = normal_cdf(-m)
    # the tail is 0 long before m*m overflows; the term is then 0, not inf * 0 = NaN
    return gaussian_partial_second_moment(-m) + (m * m * below if below else 0.0)


def pretest_risk_at(theta: float, n: int, c_n: float) -> float:
    """n-scaled risk of the pre-test estimator at theta >= 0.

    Equals E[Z^2 1{Z >= cut}] + n theta^2 P(Z < cut) with the cutoff
    cut = sqrt(n) (c_n - theta); the Hodges choice c_n = n^(-1/4) gives
    cut = n^(1/4) - sqrt(n) theta.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    _check_n(n)
    if not c_n > 0:
        raise ValueError("c_n must be positive")
    cut = math.sqrt(n) * (c_n - theta)
    below = normal_cdf(cut)  # 0 long before n theta^2 overflows, as in plugin_risk_at
    return gaussian_partial_second_moment(cut) + (n * theta * theta * below if below else 0.0)


def _materialize_threshold(spec: PreTest, n: int) -> float:
    return spec.threshold if spec.threshold is not None else n ** -0.25


def local_minimax_risk(spec: EstimatorSpec, delta: float, n: int) -> float:
    """sup over theta in [0, delta) of the n-scaled risk.

    The plug-in risk f(m) = Phi(m) - m phi(m) + m^2 Phi(-m) has
    f'(m) = 2 m Phi(-m) >= 0, so its supremum sits at theta = delta^-;
    the pre-test risk is scanned with the grid-plus-golden maximizer.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    n = _check_n(n)
    if isinstance(spec, Constant):
        worst = max(abs(spec.c), abs(spec.c - delta * _EDGE))
        return n * worst * worst
    if isinstance(spec, PluginMLE):
        return plugin_risk_at(delta * _EDGE, n)
    c_n = _materialize_threshold(spec, n)
    f = lambda t: pretest_risk_at(t, n, c_n)
    hi = delta * _EDGE
    _, value = maximize_1d(f, 0.0, hi)
    # the risk bump sits within O(1/sqrt(n)) of the threshold and can be
    # narrower than a coarse cell over [0, delta); scan it separately
    bump_hi = min(hi, c_n + 10.0 / math.sqrt(n))
    if bump_hi > 0.0:
        _, bump_value = maximize_1d(f, 0.0, bump_hi)
        value = max(value, bump_value)
    return max(value, f(hi))
