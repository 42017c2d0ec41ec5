"""Exact n-scaled local minimax risks of the reference estimators of
max(theta, 0) under N(theta, 1): the best constant, the plug-in MLE
max(mean, 0), and the plug-in pre-test (Hodges-type) estimator.

All risks are closed-form in the standard normal partial moments; the sup
over theta in [0, delta) uses the monotonicity of the plug-in risk, and for
the pre-test a scan refined by Newton on analytic derivatives. The reduction
to theta >= 0 is exact (the risk at negative theta is dominated by the risk
at 0) and is re-verified on a grid in the test suite.

Each estimator type owns ``sup_risk(delta, n)``; ``local_minimax_risk`` is
the one entry, and checks delta, n and the finiteness of the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (check_n, coarse_axis, gaussian_partial_second_moment, normal_cdf,
                       normal_pdf, refine_coarse_max)

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
        """Each window is one array scan, refined by Newton in m = sqrt(n) theta."""
        c_n = self.threshold if self.threshold is not None else n ** -0.25
        root_n, hi = math.sqrt(n), delta * _EDGE
        value = pretest_risk_at(hi, n, c_n)
        # the risk bump sits within O(1/sqrt(n)) of the threshold and can be
        # narrower than a coarse cell over [0, delta); scan it separately
        for top in (hi, min(hi, c_n + 10.0 / root_n)):
            ms = coarse_axis(0.0, root_n * top)
            _, window_value, _ = refine_coarse_max(lambda m: _pretest_objective(n, c_n, m), ms,
                                                   pretest_risk_at(ms / root_n, n, c_n))
            value = max(value, window_value)
        return value


def _pretest_objective(n: int, c_n: float, m: float):
    """pretest_risk_at(m / sqrt(n)) with its derivatives in m. With k = sqrt(n) c_n
    and c = k - m the risk is c phi(c) + 1 - Phi(c) + m^2 Phi(c), so
    R' = k (k - 2m) phi(c) + 2m Phi(c) and R'' = phi(c) (c k (k - 2m) - 2k - 2m)
    + 2 Phi(c); in theta they would carry n^(3/2), which overflows past n ~ 3e205."""
    k = math.sqrt(n) * c_n
    c = k - m
    phi, below, slope = normal_pdf(c), normal_cdf(c), k * (k - 2.0 * m)
    # phi(c) = 0 stands for terms that are 0, not inf * 0 = NaN
    grad, hess = (slope * phi, phi * (c * slope - 2.0 * k - 2.0 * m)) if phi else (0.0, 0.0)
    return (pretest_risk_at(m / math.sqrt(n), n, c_n), [grad + 2.0 * m * below],
            [[hess + 2.0 * below]])


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


def pretest_risk_at(theta, n: int, c_n: float):
    """n-scaled risk of the pre-test estimator at theta >= 0, elementwise
    over an ndarray of theta.

    Equals E[Z^2 1{Z >= cut}] + n theta^2 P(Z < cut) with the cutoff
    cut = sqrt(n) (c_n - theta); the Hodges choice c_n = n^(-1/4) gives
    cut = n^(1/4) - sqrt(n) theta.
    """
    scalar = not isinstance(theta, np.ndarray)
    if (theta < 0) if scalar else (theta < 0).any():
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    check_n(n)
    if not c_n > 0:
        raise ValueError("c_n must be positive")
    cut = math.sqrt(n) * (c_n - theta)
    below = normal_cdf(cut)  # 0 long before n theta^2 overflows, as in plugin_risk_at
    head = cut * normal_pdf(cut) + 1.0 - below  # as gaussian_partial_second_moment(cut)
    if scalar:
        return head + (n * theta * theta * below if below else 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return head + np.where(below > 0.0, n * theta * theta * below, 0.0)


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
