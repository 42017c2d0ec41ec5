"""Prior densities on the real line with Fisher information, dilation, and
the Kepler-equation solver for constrained minimum-Fisher-information
squared-cosine priors.

The constrained problem: among densities supported inside [-1, 1] with
integral a over [0, 1], minimize the Fisher information J(q) = int q'^2/q.
The minimizer is a single squared-cosine piece whose support geometry is
governed by the transcendental map y -> y + sin(pi*y)/pi (the Kepler
equation), solved here by safeguarded Newton. The minimum is 4*pi^2/w^2,
where w is the support width; w = 2 (the classical cosine prior, information
pi^2) is attained exactly at a = 1/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .numerics import (_SQRT_2PI, _Z_MAX, _gaussian_tail, _require_finite, float_or_array,
                       math_elementwise, np)

_PI = math.pi
_PI_DIGITS = "3.14159265358979323846264338328"  # pi to 30 digits, for decimal


def check_scale(x: float, name: str = "delta", unit_fisher: float = 0.0) -> None:
    """The scale rule for delta, a family's sigma and a prior's scale: x is
    positive and finite, x**2 neither overflows nor underflows to 0, and the
    Fisher information unit_fisher / x**2 at scale x, for information
    unit_fisher at scale 1, does not overflow."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"{name} must be positive and finite")
    try:
        square = x**2
    except OverflowError:
        raise ValueError(f"{name}={x!r} is too large: {name}**2 overflows") from None
    if square == 0.0:
        raise ValueError(f"{name}={x!r} is too small: {name}**2 underflows to 0")
    if not math.isfinite(unit_fisher / square):
        raise ValueError(f"{name}={x!r} is too small: the Fisher information "
                         f"{unit_fisher:.6g}/{name}**2 overflows")


class Prior:
    """A prior density on the real line.

    Each prior type defines ``density(t)`` (t a float or an ndarray; zero outside the
    support), ``log_ratio(t, h)`` = log q(t + h) - log q(t) where both are positive, in
    closed form in h, ``support()``, ``fisher_info()`` (I(Q) = int q'^2/q), ``dispersion()``
    (the scale that sizes shift-search windows) and ``dilate(center, scale)``, the
    location-scale map t -> (1/scale) q((t - center)/scale), which multiplies the Fisher
    information by scale^-2; a nice prior also ``mass_above(x)`` = Q((x, inf)) in closed
    form. The defaults below fit the compactly supported nice priors.
    """

    def centred(self) -> Tuple[float, "Prior"]:
        """The window's midpoint c and the prior moved by -c: the integrals in z = t - c."""
        c = 0.5 * self.window()[0] + 0.5 * self.window()[1]
        return c, self.dilate(-c, 1.0)

    def window(self) -> Tuple[float, float]:
        """Finite interval carrying all but a negligible tail of the prior."""
        return self.support()

    def kinks(self) -> list[float]:
        """The finite support ends, where the density is not analytic."""
        return [e for e in self.support() if math.isfinite(e)]

    def check_nice(self) -> None:
        """Raise ValueError unless the nice-prior conditions hold: absolutely
        continuous Lebesgue density, finite Fisher information, and density
        decaying to zero at the boundary of its support."""


@dataclass(frozen=True)
class Cosine(Prior):
    """q(t) = (1/halfwidth) cos^2(pi (t-center) / (2 halfwidth)) on center +- halfwidth."""

    center: float = 0.0
    halfwidth: float = 1.0

    def __post_init__(self):
        check_scale(self.halfwidth, "halfwidth", _PI * _PI)
        _require_finite(self.center, "center")

    def density(self, t):
        """cos^2 as 1/(1 + tan^2), as accurate and, over arrays, several times
        faster: numpy's tan is vectorized and its cos is not."""
        u = (t - self.center) / self.halfwidth
        tan = np.tan(_PI * u / 2.0)
        return float_or_array(np.where(np.abs(u) < 1.0, 1.0 / (1.0 + tan * tan) / self.halfwidth,
                                       0.0))

    def log_ratio(self, t, h):
        """2 log(cos(a + b)/cos a) = 2 log1p(-2 sin^2(b/2) - tan(a) sin b), with a
        the phase at t and b the phase of h, a float or an array."""
        phase = 0.5 * _PI / self.halfwidth
        a, b = phase * (t - self.center), phase * h
        sin_half, sin = (math_elementwise(math.sin, x) for x in (0.5 * b, b))
        return 2.0 * np.log1p(-2.0 * sin_half ** 2 - np.tan(a) * sin)

    def mass_above(self, x: float) -> float:
        """(phi - sin phi)/(2 pi), phi = pi v, v = (top - x)/halfwidth in [0, 2] (0 and 1 past
        the ends), from the Taylor series of phi - sin phi, free of its cancellation near 0."""
        from decimal import Context, Decimal, localcontext  # on first use, not at start-up
        with localcontext(Context(prec=30)):  # the sum to 30 digits, rounded once
            v = (Decimal(self.support()[1]) - Decimal(x)) / Decimal(self.halfwidth)
            phi = Decimal(_PI_DIGITS) * min(max(v, 0), 2)  # at 2 pi, the last term is 1e-35
            gap = sum((-1) ** k * phi ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(30))
            return float(gap / (2 * Decimal(_PI_DIGITS)))

    def support(self) -> Tuple[float, float]:
        return self.center - self.halfwidth, self.center + self.halfwidth

    def fisher_info(self) -> float:
        return _PI * _PI / self.halfwidth**2

    def dispersion(self) -> float:
        return self.halfwidth

    def dilate(self, center: float, scale: float) -> "Cosine":
        return Cosine(center + scale * self.center, scale * self.halfwidth)


@dataclass(frozen=True)
class GaussianPrior(Prior):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        check_scale(self.sigma, "sigma", 1.0)
        _require_finite(self.mu, "mu")

    def density(self, t):
        z = (t - self.mu) / self.sigma
        with np.errstate(over="ignore"):  # z * z = inf, and exp(-inf) = 0 as for a float
            return float_or_array(np.exp(-0.5 * z * z) / _SQRT_2PI / self.sigma)

    def log_ratio(self, t, h):
        """-(z + eta/2) eta, with z = (t - mu)/sigma and eta = h/sigma; +-inf where it
        overflows, where q(t) or q(t + h) is 0."""
        eta = h / self.sigma
        with np.errstate(over="ignore"):
            return -((t - self.mu) / self.sigma + 0.5 * eta) * eta

    def mass_above(self, x: float) -> float:
        return _gaussian_tail(x, self.mu, self.sigma)

    def support(self) -> Tuple[float, float]:
        return -math.inf, math.inf

    def window(self) -> Tuple[float, float]:
        return self.mu - _Z_MAX * self.sigma, self.mu + _Z_MAX * self.sigma

    def fisher_info(self) -> float:
        return 1.0 / self.sigma**2

    def dispersion(self) -> float:
        return self.sigma

    def dilate(self, center: float, scale: float) -> "GaussianPrior":
        return GaussianPrior(center + scale * self.mu, scale * self.sigma)


@dataclass(frozen=True)
class UniformPrior(Prior):
    """Flat density on [lo, hi]; kept for oracle use, not 'nice' (no boundary decay)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"UniformPrior ends must be finite, got {self.lo!r}, {self.hi!r}")
        if not self.lo < self.hi:
            raise ValueError("UniformPrior requires lo < hi")

    def density(self, t):
        inside = (self.lo <= t) & (t <= self.hi)
        return float_or_array(np.where(inside, 1.0 / (self.hi - self.lo), 0.0))

    def log_ratio(self, t, h):
        return float_or_array(np.zeros(np.shape(t)))

    def support(self) -> Tuple[float, float]:
        return self.lo, self.hi

    def fisher_info(self) -> float:
        """inf: the flat density is not absolutely continuous with a
        decaying boundary."""
        return math.inf

    def dispersion(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def dilate(self, center: float, scale: float) -> "UniformPrior":
        return UniformPrior(center + scale * self.lo, center + scale * self.hi)

    def check_nice(self) -> None:
        raise ValueError("prior is not nice: density does not decay to zero at the support "
                         "boundary; Fisher information is not finite (density not "
                         "absolutely continuous with vanishing boundary)")


@dataclass(frozen=True)
class KeplerSolution:
    """Solved geometry of the constrained minimum-Fisher cosine prior.

    y_a solves y + sin(pi*y)/pi = 2a - 1 on [-1, 1]; the support width on
    the unit scale is w_a = 2/(|y_a| + 1) and the minimum Fisher information
    is 4*pi^2/w_a^2. Side selection: mass constraint a > 1/2 pushes the
    support against the right edge (s_plus = 1), a <= 1/2 against the left
    (s_minus = -1); at a = 1/2 both rules give the symmetric [-1, 1].
    """

    a: float
    y_a: float
    w_a: float
    s_minus: float
    s_plus: float
    min_fisher: float


class KeplerCosine(Cosine):
    """The constrained-minimizer cosine prior: the cos^2 bump on the Kepler
    support [s_minus, s_plus] of a mass constraint, moved and scaled."""

    @staticmethod
    def for_constraint(a: float, center: float = 0.0, scale: float = 1.0) -> "KeplerCosine":
        """The prior on center + scale [s_minus, s_plus] putting mass a above center,
        with Fisher information solve_kepler(a).min_fisher / scale^2."""
        sol = solve_kepler(a)
        check_scale(scale, "scale", sol.min_fisher)
        return KeplerCosine(center + scale * 0.5 * (sol.s_minus + sol.s_plus),
                            scale * 0.5 * sol.w_a)


def solve_kepler(a: float) -> KeplerSolution:
    """Invert y + sin(pi*y)/pi = m = 2a - 1 by safeguarded Newton on [-1, 1].

    The map is odd, and increasing and concave on [0, 1], where |m| is solved:
    from either side a step lands left of the root and climbs to it from there.
    At y = 1 the map is flat, 1 - pi^2 e^3/6 + O(e^5) in e = 1 - y, so the start
    is 1 - (6 (1 - |m|)/pi^2)^(1/3) for |m| >= 1/2, else |m|/2. The iterates are
    clamped to [0, 1] and stop at a residual of 2 ulp(|m|), on a repeat or after
    8 evaluations (10,000 sampled a need at most 5). Returns the support geometry.
    """
    a = float(a)
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"a must lie in [0, 1], got {a}")
    m = 2.0 * a - 1.0
    b = abs(m)  # m = 0 and |m| = 1 start at their roots 0 and 1
    y = 0.5 * b if b < 0.5 else 1.0 - (6.0 * (1.0 - b) / (_PI * _PI)) ** (1.0 / 3.0)
    for _ in range(8):
        residual = y + math.sin(_PI * y) / _PI - b
        if abs(residual) <= 2.0 * math.ulp(b):
            break
        y_next = min(max(y - residual / (1.0 + math.cos(_PI * y)), 0.0), 1.0)
        if y_next == y:
            break
        y = y_next
    y = math.copysign(y, m)
    w = 2.0 / (abs(y) + 1.0)
    if a > 0.5:
        s_plus, s_minus = 1.0, 1.0 - w
    else:
        s_minus, s_plus = -1.0, w - 1.0
    return KeplerSolution(a=a, y_a=y, w_a=w, s_minus=s_minus, s_plus=s_plus,
                          min_fisher=4.0 * _PI * _PI / (w * w))


def prior_density(prior: Prior, t):
    """Prior density q(t), zero outside the support; a float for a float t."""
    return prior.density(t)
