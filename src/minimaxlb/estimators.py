"""Exact n-scaled local minimax risks of the reference estimators of
max(theta, 0) under N(theta, 1): the best constant, the plug-in MLE
max(mean, 0), and the plug-in pre-test (Hodges-type) estimator.

All risks are closed-form in the standard normal partial moments; the
supremum over theta in [0, delta) uses the monotonicity of the plug-in risk
and a derivative-free scan for the pre-test. The reduction to theta >= 0 is
exact (the risk at negative theta is dominated by the risk at 0) and is
re-verified on a grid in the test suite.

Each estimator type owns ``sup_risk(delta, n)``; ``local_minimax_risk`` is
the one entry, and checks delta, n and the finiteness of the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import check_n, gaussian_partial_second_moment, maximize_1d, normal_cdf

_EDGE = 1.0 - 1e-12  # sup over the open interval [0, delta)


@dataclass(frozen=True)
class Constant:
    """S = c regardless of the data; c = None is the best constant delta/2."""

    c: float | None = None

    def sup_risk(self, delta: float, n: int) -> float:
        """n max(|c|, |c - delta|)^2 at the worse end; n delta^2/4 at c = delta/2."""
        c = delta / 2.0 if self.c is None else self.c
        worst = max(abs(c), abs(c - delta * _EDGE))
        return n * worst * worst


@dataclass(frozen=True)
class PluginMLE:
    """S = max(mean, 0)."""

    def sup_risk(self, delta: float, n: int) -> float:
        """The plug-in risk f(m) = Phi(m) - m phi(m) + m^2 Phi(-m) has
        f'(m) = 2 m Phi(-m) >= 0, so its supremum sits at theta = delta^-."""
        return plugin_risk_at(delta * _EDGE, n)


@dataclass(frozen=True)
class PreTest:
    """S = max(mean, 0) if |mean| >= threshold else 0.

    threshold = None is the Hodges choice n^(-1/4) at each sample size.
    """

    threshold: float | None = None

    def __post_init__(self):
        t = self.threshold
        if t is not None and not (t > 0 and math.isfinite(t)):
            raise ValueError(f"threshold must be positive and finite, got {t!r}")

    def sup_risk(self, delta: float, n: int) -> float:
        """Scanned with the grid-plus-golden maximizer."""
        c_n = self.threshold if self.threshold is not None else n ** -0.25
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


def plugin_risk_at(theta: float, n: int) -> float:
    """n-scaled risk of max(mean, 0) at theta >= 0.

    Equals E[Z^2 1{Z >= -m}] + m^2 P(Z < -m) with m = sqrt(n) theta, i.e.
    Phi(m) - m phi(m) + m^2 Phi(-m) in closed form.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    check_n(n)
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
    check_n(n)
    if not c_n > 0:
        raise ValueError("c_n must be positive")
    cut = math.sqrt(n) * (c_n - theta)
    below = normal_cdf(cut)  # 0 long before n theta^2 overflows, as in plugin_risk_at
    return gaussian_partial_second_moment(cut) + (n * theta * theta * below if below else 0.0)


def local_minimax_risk(estimator: Constant | PluginMLE | PreTest,
                       delta: float, n: int) -> float:
    """sup over theta in [0, delta) of the n-scaled risk of the estimator."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    n = check_n(n)
    risk = estimator.sup_risk(delta, n)
    if not math.isfinite(risk):
        raise ValueError(f"the risk of {estimator} overflows at delta={delta!r}, n={n}")
    return risk
