"""Exact n-scaled local minimax risks of the reference estimators of
max(theta, 0) under N(theta, 1): the best constant, the plug-in MLE
max(mean, 0), and the plug-in pre-test (Hodges-type) estimator.

The plug-in is the pre-test at threshold 0, so one closed form in the
standard normal partial moments, ``pretest_risk_at``, serves both. The sup
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

from .numerics import (OPEN_EDGE, check_n, coarse_axis, normal_cdf, normal_pdf,
                       refine_coarse_max)


@dataclass(frozen=True)
class Constant:
    """S = delta/2 regardless of the data, the best constant."""

    def sup_risk(self, delta: float, n: int) -> float:
        """n (delta/2)^2, the error at theta = 0, which no theta in [0, delta) exceeds."""
        return n * (delta / 2.0) * (delta / 2.0)


@dataclass(frozen=True)
class PluginMLE:
    """S = max(mean, 0)."""

    def sup_risk(self, delta: float, n: int) -> float:
        """The plug-in risk pretest_risk_at(theta, n, 0) = Phi(m) - m phi(m) + m^2 Phi(-m),
        m = sqrt(n) theta, has derivative 2 m Phi(-m) >= 0 in m: its sup sits at delta^-."""
        return pretest_risk_at(delta * OPEN_EDGE, n, 0.0)


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
        """Both windows share one array scan, each refined by Newton in m = sqrt(n) theta."""
        c_n = self.threshold if self.threshold is not None else n ** -0.25
        root_n, hi = math.sqrt(n), delta * OPEN_EDGE
        value = pretest_risk_at(hi, n, c_n)
        # the risk bump sits within O(1/sqrt(n)) of the threshold and can be narrower
        # than a coarse cell over [0, delta); scan its window too, unless it is [0, delta)
        ms = np.array([coarse_axis(0.0, root_n * top)
                       for top in dict.fromkeys((hi, min(hi, c_n + 10.0 / root_n)))])
        for window, risks in zip(ms, pretest_risk_at(ms / root_n, n, c_n)):
            _, window_value, _ = refine_coarse_max(lambda m: _pretest_objective(n, c_n, m),
                                                   window, risks)
            value = max(value, window_value)
        return value


def _pretest_objective(n: int, c_n: float, m: float):
    """pretest_risk_at(m / sqrt(n)) with its derivatives in m, from the phi and Phi of its
    cut c. With k = sqrt(n) c_n, so that c = k - m, R' = k (k - 2m) phi(c) + 2m Phi(c)
    and R'' = phi(c) (c k (k - 2m) - 2k - 2m) + 2 Phi(c); in theta they would carry
    n^(3/2), which overflows past n ~ 3e205."""
    value, c, phi, below = _risk_parts(m / math.sqrt(n), n, c_n)
    k = math.sqrt(n) * c_n
    slope = k * (k - 2.0 * m)
    # phi(c) = 0 stands for terms that are 0, not inf * 0 = NaN
    grad, hess = (slope * phi, phi * (c * slope - 2.0 * k - 2.0 * m)) if phi else (0.0, 0.0)
    return value, [grad + 2.0 * m * below], [[hess + 2.0 * below]]


def pretest_risk_at(theta, n: int, c_n: float):
    """n-scaled risk of the pre-test estimator at theta >= 0 and threshold
    c_n >= 0, elementwise over an ndarray of theta; c_n = 0 is the plug-in.

    Equals E[Z^2 1{Z >= cut}] + n theta^2 P(Z < cut) with the cutoff
    cut = sqrt(n) (c_n - theta); the Hodges choice c_n = n^(-1/4) gives
    cut = n^(1/4) - sqrt(n) theta.
    """
    if (theta < 0) if not isinstance(theta, np.ndarray) else (theta < 0).any():
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    check_n(n)
    if not c_n >= 0:
        raise ValueError(f"c_n must be >= 0, got {c_n!r}")
    return _risk_parts(theta, n, c_n)[0]


def _risk_parts(theta, n: int, c_n: float):
    """The risk c phi(c) + Phi(-c) + n theta^2 Phi(c), c = sqrt(n) (c_n - theta), unchecked, and
    c, phi(c) and Phi(c), from one erfc, Phi(-|c|), which is Phi(-c) where c > 0 (1 - Phi(c) would
    cancel it). Phi(c) = 0 before n theta^2 overflows, and the term is then 0."""
    cut = math.sqrt(n) * (c_n - theta)
    phi, tail = normal_pdf(cut), normal_cdf(-abs(cut))
    if not isinstance(theta, np.ndarray):
        below = 1.0 - tail if cut > 0.0 else tail
        head = cut * phi + tail if cut > 0.0 else cut * phi + 1.0 - tail
        return head + (n * theta * theta * below if below else 0.0), cut, phi, below
    below = np.where(cut > 0.0, 1.0 - tail, tail)
    head = np.where(cut > 0.0, cut * phi + tail, cut * phi + 1.0 - tail)
    with np.errstate(over="ignore", invalid="ignore"):
        return head + np.where(below > 0.0, n * theta * theta * below, 0.0), cut, phi, below


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
