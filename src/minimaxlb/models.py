"""One-parameter statistical families with closed-form densities, Fisher
information, and pairwise divergences, including n-fold IID tensorization.

Two families are provided: Gaussian location with known sigma (regular), and
the scale family Unif(0, theta) (irregular: Fisher information is infinite
and the squared Hellinger distance is locally linear, not quadratic, in the
shift). Divergences use closed forms; the brute-force integral oracles live
in the test suite only. A divergence or Fisher information is a float (an
ndarray for array parameters), math.inf where it diverges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import _SQRT_2PI, check_n, float_or_array, math_elementwise, np
from .priors import check_scale


class Family:
    """A one-parameter family P_theta with closed-form divergences.

    Each family type defines its density as k/d for the grid oracles, which check
    theta and x first (``check_theta``, ``check_x``) and read only its root:
    ``_write_kernel(theta, x, out)`` writes sqrt(k) into out unchecked, theta and x
    broadcast and in the units ``_kernel_units`` returns them in, and
    ``_divisor(theta)`` is d. It also defines ``fisher_info(theta)``,
    the divergences of a shift h, which read h itself, ``hellinger_sq(theta, h)``
    = H^2(P_{theta+h}, P_theta) and ``chi_sq(theta, h)`` = chi^2(P_{theta+h} ||
    P_theta), and the oracle grid's ``x_range(t_lo, t_hi, h)`` with its
    ``x_coverage`` text and ``kernel_width``, twice the widest cell on which
    the grid resolves the density (None: no such width). Parameters theta and
    theta + h, floats or ndarrays, must be finite and above ``theta_min``.
    ``location`` says that the divergences of a shift are the same at every
    theta, so a caller may read them at one theta per shift.
    """

    theta_min = -math.inf
    label = "family"
    location = False
    kernel_width = None

    def check_theta(self, theta, name: str = "theta"):
        theta = float_or_array(theta)
        if not np.isfinite(theta).all():
            raise ValueError(f"{name} must be finite")
        if not np.all(theta > self.theta_min):
            raise ValueError(f"{self.label} requires {name} > {self.theta_min:g}, "
                             f"got {np.min(theta)}")
        return theta

    def check_shift(self, theta, h):
        """check_theta of theta + h and of theta, which is returned."""
        self.check_theta(theta + h, "theta + h")
        return self.check_theta(theta)

    def check_x(self, x):
        if not np.isfinite(x).all():
            raise ValueError("x must be finite")
        return x

    def _kernel_units(self, v):
        """A parameter or an x in the units _write_kernel reads: v itself."""
        return v


@dataclass(frozen=True)
class GaussianLocation(Family):
    """N(theta, sigma^2) with known sigma > 0; theta is the location."""

    sigma: float = 1.0
    x_coverage = "8 sigma around the parameter range"
    location = True

    def __post_init__(self):
        check_scale(self.sigma, "sigma", 1.0)

    kernel_width = property(lambda self: self.sigma)

    def _kernel_units(self, v):
        """v times 2^-e for sigma = m 2^e >= 1, m in [0.5, 1), else v itself: exact, and
        in these units (x - theta)^2 overflows only where k is 0, and no x or theta does."""
        return v * math.ldexp(1.0, -max(math.frexp(self.sigma)[1], 0))

    def _write_kernel(self, theta, x, out):
        """sqrt(k) = exp((x - theta)^2 c) with c = -1/(4 sigma^2), x, theta and sigma in
        kernel units: one product a node, no division. A power of two scales each factor
        exactly, so sqrt(k) keeps the bits of the unscaled formula wherever that neither
        overflows nor underflows."""
        scale = -0.25 / self._kernel_units(self.sigma)**2
        np.square(np.subtract(x, theta, out=out), out=out)
        np.exp(np.multiply(out, scale, out=out), out=out)

    def _divisor(self, theta):
        return self.sigma * _SQRT_2PI

    def fisher_info(self, theta: float) -> float:
        """Per-observation Fisher information 1/sigma^2."""
        self.check_theta(theta)
        return 1.0 / self.sigma**2

    def hellinger_sq(self, theta, h):
        """Squared Hellinger distance 2 - 2 exp(-h^2 / (8 sigma^2)), the same at every
        theta; h is a float or an array broadcasting against theta."""
        theta, d = self.check_shift(theta, h), h / self.sigma
        value = -2.0 * math_elementwise(math.expm1, -d * d / 8.0)
        return float_or_array(np.full(np.broadcast_shapes(np.shape(theta), np.shape(value)), value))

    def chi_sq(self, theta, h: float):
        """Chi-squared divergence exp(h^2/sigma^2) - 1, the same at every theta;
        inf once it exceeds the float range."""
        theta = self.check_shift(theta, h)
        d = h / self.sigma
        with np.errstate(over="ignore"):  # effectively infinite, as in chi_sq_iid
            return float_or_array(np.full(np.shape(theta), np.expm1(d * d)))

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

    def _write_kernel(self, theta, x, out):
        """sqrt(k) = k = 1 on [0, theta] and 0 outside: the indicator is its own root."""
        np.multiply(np.less_equal(x, theta, out=out), np.greater_equal(x, 0.0), out=out)

    def _divisor(self, theta):
        return theta

    def fisher_info(self, theta: float) -> float:
        self.check_theta(theta)
        return math.inf

    def hellinger_sq(self, theta, h: float):
        """Squared Hellinger distance 2 (1 - sqrt(1 - u)) = 2u / (1 + sqrt(1 - u)),
        u = |h| / max(theta, theta + h)."""
        theta = self.check_shift(theta, h)
        u = abs(h) / np.maximum(theta, theta + h)
        return float_or_array(2.0 * u / (1.0 + np.sqrt(1.0 - u)))

    def chi_sq(self, theta, h: float):
        """-h / (theta + h); inf when h > 0 (Unif(0, theta + h) is not dominated)."""
        theta = self.check_shift(theta, h)
        return float_or_array(np.full(np.shape(theta), np.inf) if h > 0.0 else -h / (theta + h))

    def x_range(self, t_lo: float, t_hi: float, h: float) -> Tuple[float, float]:
        """x-interval of the oracle grid: the whole support [0, t_hi + |h|]."""
        return 0.0, t_hi + abs(h)


def hellinger_sq_iid(family: Family, theta, h: float, n: int):
    """n-fold tensorization 2 - 2 (1 - H^2/2)^n of H^2(P_{theta+h}, P_theta)."""
    check_n(n)
    h2 = family.hellinger_sq(theta, h)
    if n == 1:
        return h2
    # 2 - 2 (1 - h2/2)^n via expm1/log1p to keep precision at small h2
    with np.errstate(divide="ignore"):  # h2 = 2 gives log1p(-1) = -inf, so 2 as well
        return float_or_array(-2.0 * np.expm1(n * np.log1p(-h2 / 2.0)))


def chi_sq_iid(family: Family, theta, h: float, n: int):
    """n-fold tensorization (1 + chi^2)^n - 1 of chi^2(P_{theta+h} || P_theta); inf propagates."""
    check_n(n)
    per_obs = family.chi_sq(theta, h)
    if n == 1:
        return per_obs
    log_term = n * np.log1p(per_obs)
    with np.errstate(over="ignore"):  # past 700 exp would overflow: effectively infinite
        return float_or_array(np.where(log_term > 700.0, np.inf, np.expm1(log_term)))
