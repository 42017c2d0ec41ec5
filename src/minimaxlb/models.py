"""One-parameter statistical families with closed-form densities, Fisher
information, and pairwise divergences, including n-fold IID tensorization.

Two families are provided: Gaussian location with known sigma (regular), and
the scale family Unif(0, theta) (irregular: Fisher information is undefined
and the squared Hellinger distance is locally linear, not quadratic, in the
shift). Divergences use closed forms; the brute-force integral oracles live
in the test suite only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .numerics import check_n, float_or_array, math_for, normal_pdf


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence that is either a finite non-negative number or infinite.

    Divergent is a first-class variant (not a floating inf) so that bound
    evaluators can branch explicitly; chi-squared bounds yield the trivial
    value 0 on a Divergent denominator.
    """

    is_divergent: bool
    _value: float = 0.0

    @staticmethod
    def finite(value: float) -> "DivergenceValue":
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"finite divergence must be >= 0, got {value!r}")
        return DivergenceValue(False, value)

    @staticmethod
    def divergent() -> "DivergenceValue":
        return DivergenceValue(True)

    @property
    def value(self) -> float:
        if self.is_divergent:
            raise ValueError("divergence is infinite; no finite value")
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Divergent" if self.is_divergent else f"Finite({self._value!r})"


class Family:
    """A one-parameter family P_theta with closed-form divergences.

    Each family type defines ``density(theta, x)``, ``density_grid(thetas,
    xs)``, ``fisher_info(theta)``, ``hellinger_sq(theta1, theta2)``,
    ``chi_sq(theta_num, theta_den)``, ``shift_is_dominated(h)``, and the
    oracle grid's ``x_range(t_lo, t_hi, h)`` with its ``x_coverage`` text.
    Parameters, floats or ndarrays, must be finite and above ``theta_min``.
    """

    theta_min = -math.inf
    label = "family"

    def check_theta(self, theta, name: str = "theta"):
        if isinstance(theta, np.ndarray):
            finite, above = np.isfinite(theta).all(), (theta > self.theta_min).all()
        else:
            theta = float(theta)
            finite, above = math.isfinite(theta), theta > self.theta_min
        if not finite:
            raise ValueError(f"{name} must be finite")
        if not above:
            raise ValueError(f"{self.label} requires {name} > {self.theta_min:g}, "
                             f"got {np.min(theta)}")
        return theta


@dataclass(frozen=True)
class GaussianLocation(Family):
    """N(theta, sigma^2) with known sigma > 0; theta is the location."""

    sigma: float = 1.0
    x_coverage = "8 sigma around the parameter range"

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be a positive finite number")

    def density(self, theta: float, x: float) -> float:
        """Model density dP_theta/dx at x."""
        theta = self.check_theta(theta)
        return normal_pdf((float(x) - theta) / self.sigma) / self.sigma

    def density_grid(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Matrix p_theta(x) with shape (len(thetas), len(xs))."""
        s = self.sigma
        return (np.exp(-0.5 * ((xs[None, :] - thetas[:, None]) / s) ** 2)
                / (s * math.sqrt(2.0 * math.pi)))

    def fisher_info(self, theta: float) -> DivergenceValue:
        """Per-observation Fisher information 1/sigma^2."""
        self.check_theta(theta)
        return DivergenceValue.finite(1.0 / self.sigma**2)

    def hellinger_sq(self, theta1: float, theta2: float) -> float:
        """Squared Hellinger distance 2 - 2 exp(-(theta1-theta2)^2 / (8 sigma^2))."""
        theta1 = self.check_theta(theta1, "theta1")
        theta2 = self.check_theta(theta2, "theta2")
        d = (theta1 - theta2) / self.sigma
        return -2.0 * math_for(d).expm1(-d * d / 8.0)

    def chi_sq(self, theta_num: float, theta_den: float) -> DivergenceValue:
        """Chi-squared divergence exp((theta_num-theta_den)^2/sigma^2) - 1;
        Divergent once it exceeds the float range."""
        theta_num = self.check_theta(theta_num, "theta_num")
        theta_den = self.check_theta(theta_den, "theta_den")
        d = (theta_num - theta_den) / self.sigma
        with np.errstate(over="ignore"):  # effectively infinite, as in chi_sq_iid
            return _divergence(np.expm1(d * d))

    def shift_is_dominated(self, h: float) -> bool:
        """Every P_{t+h} is dominated by P_t."""
        return True

    def x_range(self, t_lo: float, t_hi: float, h: float) -> Tuple[float, float]:
        """x-interval of the oracle grid: 8 sigma beyond the parameter range."""
        pad = 8.0 * self.sigma
        return t_lo - pad, t_hi + pad


@dataclass(frozen=True)
class UniformScale(Family):
    """Unif(0, theta); theta > 0 is the right endpoint of the support.

    Irregular: Hellinger differentiability fails, so no finite Fisher
    information exists.
    """

    theta_min = 0.0
    label = "Uniform scale family"
    x_coverage = "the full uniform support"

    def density(self, theta: float, x: float) -> float:
        """Model density 1/theta on [0, theta]; zero outside."""
        theta = self.check_theta(theta)
        x = float(x)
        return 1.0 / theta if 0.0 <= x <= theta else 0.0

    def density_grid(self, thetas: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Matrix p_theta(x) with shape (len(thetas), len(xs))."""
        if np.any(thetas <= 0):
            raise ValueError("uniform family requires positive parameters on the grid")
        t, x = thetas[:, None], xs[None, :]
        return np.where((x >= 0.0) & (x <= t), 1.0 / t, 0.0)

    def fisher_info(self, theta: float) -> DivergenceValue:
        self.check_theta(theta)
        return DivergenceValue.divergent()

    def hellinger_sq(self, theta1: float, theta2: float) -> float:
        """Squared Hellinger distance 2 (1 - (1 + h/theta_min)^(-1/2)), h = |theta1 - theta2|."""
        theta1 = self.check_theta(theta1, "theta1")
        theta2 = self.check_theta(theta2, "theta2")
        r = np.minimum(theta1, theta2) / np.maximum(theta1, theta2)
        # 2 (1 - sqrt(r)) written without cancellation for r near 1
        return float_or_array(2.0 * (1.0 - r) / (1.0 + np.sqrt(r)))

    def chi_sq(self, theta_num: float, theta_den: float) -> DivergenceValue:
        """theta_den/theta_num - 1; Divergent when theta_num > theta_den
        (the numerator law is not dominated)."""
        theta_num = self.check_theta(theta_num, "theta_num")
        theta_den = self.check_theta(theta_den, "theta_den")
        return _divergence(np.where(theta_num > theta_den, np.inf, theta_den / theta_num - 1.0))

    def shift_is_dominated(self, h: float) -> bool:
        """Unif(0, t+h) is dominated by Unif(0, t) only for h <= 0."""
        return h <= 0

    def x_range(self, t_lo: float, t_hi: float, h: float) -> Tuple[float, float]:
        """x-interval of the oracle grid: the whole support [0, t_hi + |h|]."""
        return 0.0, t_hi + abs(h)


def _divergence(values):
    """A scalar divergence as a DivergenceValue; an array as is. inf is Divergent."""
    if np.ndim(values):
        return values
    return DivergenceValue.divergent() if values == math.inf else DivergenceValue.finite(values)


def hellinger_sq_iid(family: Family, theta1, theta2, n: int):
    """n-fold tensorization 2 - 2 (1 - H^2/2)^n of the squared Hellinger."""
    check_n(n)
    h2 = family.hellinger_sq(theta1, theta2)
    if n == 1:
        return h2
    # 2 - 2 (1 - h2/2)^n via expm1/log1p to keep precision at small h2
    if not isinstance(h2, np.ndarray):
        return 2.0 if h2 >= 2.0 else -2.0 * math.expm1(n * math.log1p(-h2 / 2.0))
    with np.errstate(divide="ignore"):  # h2 = 2 gives log1p(-1) = -inf, so 2 as well
        return -2.0 * np.expm1(n * np.log1p(-h2 / 2.0))


def chi_sq_iid(family: Family, theta_num, theta_den, n: int):
    """n-fold tensorization (1 + chi^2)^n - 1; Divergent (inf in an array) propagates."""
    check_n(n)
    per_obs = family.chi_sq(theta_num, theta_den)
    if n == 1:
        return per_obs
    if isinstance(per_obs, DivergenceValue):
        per_obs = math.inf if per_obs.is_divergent else per_obs.value
    log_term = n * np.log1p(per_obs)
    with np.errstate(over="ignore"):  # past 700 exp would overflow: effectively infinite
        return _divergence(np.where(log_term > 700.0, np.inf, np.expm1(log_term)))


def hellinger_local_ratio(family: Family, theta: float, h: float) -> float:
    """Raw local ratio H^2(theta, theta + h) / h^2.

    Approaches I(theta)/4 as h -> 0 for the Gaussian family; grows without
    bound like 1/(2 theta h) for the uniform family, exhibiting the
    non-quadratic (alpha = 1) local behavior of the irregular model.
    """
    h = float(h)
    if h == 0.0:
        raise ValueError("h must be nonzero")
    return family.hellinger_sq(theta, theta + h) / (h * h)
