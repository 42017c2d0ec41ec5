"""Exact n-scaled local minimax risks of the reference estimators of
max(theta, 0) under N(theta, 1): the best constant, the plug-in MLE
max(mean, 0), and the plug-in pre-test (Hodges-type) estimator.

The plug-in is the pre-test at threshold 0, so one closed form in the
standard normal partial moments, ``pretest_risk_at``, serves both. The sup
over theta in [0, delta) uses the monotonicity of the plug-in risk, and for
the pre-test the one root of its risk's slope in sqrt(n) theta. The reduction
to theta >= 0 is exact (the risk at negative theta is dominated by the risk
at 0) and is re-verified on a grid in the test suite.

Each estimator type owns ``sup_risk(delta, n)``; ``local_minimax_risk`` is
the one entry: it checks delta and n, and that neither sqrt(n) delta nor the result overflows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import _SQRT_2PI, OPEN_EDGE, check_n, maximize_unimodal, normal_cdf, normal_pdf

# log(Phi(1) sqrt(2 pi)), in the end k - t_k of the pre-test risk's rise, and
# log(2 sqrt(2 pi)), in the asymptote of its slope's root
_LOG_RISE, _LOG_ROOT = math.log(normal_cdf(1.0) * _SQRT_2PI), math.log(2.0 * _SQRT_2PI)


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
        """R(m) = pretest_risk_at(m / sqrt(n)) rises to one maximum m* and then falls, so
        the sup is R at delta^- or at the one root of R'. With k = sqrt(n) c_n, x = m - k
        and the Mills ratio M(x) = Phi(-x)/phi(x),
        R'(m) = k (k - 2m) phi(x) + 2m Phi(-x) = 2m phi(x) [M(x) - k (k + 2x) / (2 (k + x))].
        M strictly decreases and, for k > 0, the second term strictly increases in x, so R'
        changes sign at most once, from + to -. R' > 0 for m <= k/2, where both terms are
        >= 0; R' < 0 for m >= k + 2/k, where M(x) < 1/x <= k/2 <= the second term; and
        R' > 0 for m <= k - t_k, t_k = sqrt(2 log(k / (Phi(1) sqrt(2 pi)))) >= 1, since the
        second term is < k and M(-t) >= Phi(1) sqrt(2 pi) e^(t^2/2) for t >= 1. So if R' >= 0
        at the top b of the bracket [max(k/2, k - t_k), min(sqrt(n) delta^-, k + 2/k)], the
        sup is R at delta^-; else ``maximize_unimodal`` finds the root by Newton on R' from
        its asymptote k - sqrt(2 log(k / (2 sqrt(2 pi)))) (large k) or k + 1/k (small k),
        safeguarded by the bracket. In floats the lower end stays 2^-48 k below k, so
        that past k = 2^53 the bracket keeps the bump, where m / sqrt(n) < c_n; and for
        k < 2/38 the top is k + 38, past which R is 1 to within 1e-311, as at the root."""
        c_n = self.threshold if self.threshold is not None else n ** -0.25
        root_n, hi = math.sqrt(n), delta * OPEN_EDGE
        value, k = pretest_risk_at(hi, n, c_n), root_n * c_n
        log_k, a, b = math.log(k), 0.5 * k, min(root_n * hi, k + min(2.0 / k, 38.0))
        if log_k - _LOG_RISE >= 0.5:
            a = max(a, min(k - math.sqrt(2.0 * (log_k - _LOG_RISE)), k * (1.0 - 2.0**-48)))
        tail = log_k - _LOG_ROOT
        start = k - math.sqrt(2.0 * tail) if tail > 0.5 else k + 1.0 / k
        _, best = maximize_unimodal(lambda m: _pretest_objective(n, c_n, m), a, b, start)
        return max(value, best)


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
    return value, grad + 2.0 * m * below, hess + 2.0 * below


def pretest_risk_at(theta: float, n: int, c_n: float) -> float:
    """n-scaled risk of the pre-test estimator at theta >= 0 and threshold
    c_n >= 0; c_n = 0 is the plug-in.

    Equals E[Z^2 1{Z >= cut}] + n theta^2 P(Z < cut) with the cutoff
    cut = sqrt(n) (c_n - theta); the Hodges choice c_n = n^(-1/4) gives
    cut = n^(1/4) - sqrt(n) theta.
    """
    if theta < 0:
        raise ValueError("theta must be >= 0 (negative values are dominated)")
    check_n(n)
    if not c_n >= 0:
        raise ValueError(f"c_n must be >= 0, got {c_n!r}")
    return _risk_parts(theta, n, c_n)[0]


def _risk_parts(theta: float, n: int, c_n: float):
    """The risk c phi(c) + Phi(-c) + n theta^2 Phi(c), c = sqrt(n) (c_n - theta), unchecked, and
    c, phi(c) and Phi(c), from one erfc, Phi(-|c|), which is Phi(-c) where c > 0 (1 - Phi(c) would
    cancel it). Phi(c) = 0 before n theta^2 overflows, and the term is then 0."""
    cut = math.sqrt(n) * (c_n - theta)
    phi, tail = normal_pdf(cut), normal_cdf(-abs(cut))
    below = 1.0 - tail if cut > 0.0 else tail
    head = cut * phi + tail if cut > 0.0 else cut * phi + 1.0 - tail
    return head + (n * theta * theta * below if below else 0.0), cut, phi, below


def local_minimax_risk(estimator: Constant | PluginMLE | PreTest,
                       delta: float, n: int) -> float:
    """sup over theta in [0, delta) of the n-scaled risk of the estimator."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    n = check_n(n)
    if math.sqrt(n) * delta == math.inf:  # each risk reads sqrt(n) theta
        raise ValueError(f"sqrt(n) delta overflows at delta={delta!r}, n={n}")
    risk = estimator.sup_risk(delta, n)
    if not math.isfinite(risk):
        raise ValueError(f"the risk of {estimator} overflows at delta={delta!r}, n={n}")
    return risk
