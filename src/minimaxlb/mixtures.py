"""Divergences between the shifted joint mixture measures

    dM0(x, t) = p_t(x) q(t) dx dt      and      dMh(x, t) = p_{t+h}(x) q(t+h) dx dt,

computed through the decomposition identities (the prior shift divergence
plus the n-fold family divergence H^2_n or chi^2_n of the shift h at t), each
one integral over the window covering q and its shift, with Delta = log q(t+h)
- log q(t) (``Prior.log_ratio``) where q(t), q(t+h) > 0:

    H^2(Mh, M0)   = int q expm1(Delta/2)^2 + q exp(Delta/2) H^2_n(t, h) dt,
    chi^2(Mh||M0) = int q expm1(Delta)^2 + q exp(2 Delta) chi^2_n(t, h) dt,

and a brute-force 2-D grid oracle (n = 1 only) validating the Hellinger
identity. Each integral runs in the prior's centred coordinate z = t - c
(``Prior.centred``) and reads h itself, never (t + h) - t, at any h and prior
center; it is never an n-dimensional x-integral, so large n costs nothing.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .models import Family, chi_sq_iid, hellinger_sq_iid
from .numerics import check_n, integrate_panels
from .priors import Prior, prior_density


class CoverageWarning(UserWarning):
    """The oracle grid does not cover enough probability mass."""


@dataclass(frozen=True)
class MixtureSpec:
    """Inputs of a mixture divergence: family, sample size, prior, shift.

    The shift acts on the prior's native real line, so Q(.+h) is always
    well-defined regardless of the family's parameter constraints.
    """

    family: Family
    n: int
    prior: Prior
    h: float

    def __post_init__(self):
        check_n(self.n)
        if not math.isfinite(self.h):
            raise ValueError("h must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular trapezoid grid for the brute-force oracles."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float
    t_points: int = 2001
    x_points: int = 2001

    def __post_init__(self):
        if not (self.t_lo < self.t_hi and self.x_lo < self.x_hi):
            raise ValueError("grid bounds must satisfy lo < hi")
        for axis, lo, hi, p in (("t", self.t_lo, self.t_hi, self.t_points),
                                ("x", self.x_lo, self.x_hi, self.x_points)):
            if p < 11 or p % 2 == 0:
                raise ValueError("grid points must be odd and >= 11")
            # the grid reads t and x themselves: floats may move a node by 2^-16 of a cell
            if max(abs(lo), abs(hi)) * 2.0**-52 > 2.0**-16 * (hi - lo) / (p - 1):
                raise ValueError(f"the {axis}-grid on [{lo!r}, {hi!r}] is too far from 0 "
                                 f"for {p} points")


def _union_region(prior: Prior, h: float) -> Tuple[float, float, Tuple[float, ...]]:
    """Window covering q and q(. + h), with their finite support ends inside it as cuts."""
    lo0, hi0 = prior.window()
    lo, hi = min(lo0, lo0 - h), max(hi0, hi0 - h)
    ends = prior.kinks()
    return lo, hi, tuple(c for c in (*ends, *(e - h for e in ends)) if lo < c < hi)


_PRIOR_PARAMETERS = "every parameter under the prior and its shift"


def mixture_hellinger_sq(spec: MixtureSpec) -> float:
    """Squared Hellinger distance between the shifted joint mixtures by the
    identity above, with q(t) + q(t+h) where one of them is 0; in [0, 2]."""
    family, h = spec.family, float(spec.h)
    if h == 0.0:
        return 0.0
    c, prior = spec.prior.centred()
    lo0, hi0 = prior.window()
    if abs(h) >= hi0 - lo0:  # disjoint supports
        return 2.0
    # the family term reads t and t + h at or above the window only
    family.check_theta(c + lo0, _PRIOR_PARAMETERS)
    lo, hi, cuts = _union_region(prior, h)

    def integrand(z: np.ndarray) -> np.ndarray:
        q, qh = prior_density(prior, z), prior_density(prior, z + h)
        both = q * qh > 0.0
        total = q + qh
        z, q = z[both], q[both]
        half = 0.5 * prior.log_ratio(z, h)
        value = q * np.expm1(half) ** 2
        read = z >= max(lo0, lo0 - h)
        value[read] += q[read] * np.exp(half[read]) * hellinger_sq_iid(
            family, c + z[read], h, spec.n)
        total[both] = value
        return total

    return min(max(integrate_panels(integrand, lo, hi, cuts), 0.0), 2.0)


def mixture_chi_sq(spec: MixtureSpec) -> float:
    """Chi-squared divergence chi^2(Mh || M0) of the shifted joint mixtures.

    For a dominated shift (full-support priors) this is the identity above,
    with no "- 1" to cancel. It is inf when the shifted prior is not dominated
    (every compact-support prior with h != 0) or when the per-observation
    chi-squared is infinite on a set of positive prior mass (uniform family
    with h > 0).
    """
    family, h = spec.family, float(spec.h)
    if h == 0.0:
        return 0.0
    lo_s, hi_s = spec.prior.support()
    if math.isfinite(lo_s) or math.isfinite(hi_s):
        # a shifted interval is never contained in itself
        return math.inf
    c, prior = spec.prior.centred()
    lo, hi = prior.window()
    family.check_theta(c + min(lo, lo + h), _PRIOR_PARAMETERS)

    # q(t+h)^2/q(t) peaks near center - 2h for a Gaussian prior: widen the window;
    # its far tail may pass the family's theta_min, where chi^2_n is not read.
    lo, hi = lo - 2.0 * abs(h), hi + 2.0 * abs(h)

    def integrand(z: np.ndarray) -> np.ndarray:
        q, ratio, theta = prior_density(prior, z), prior.log_ratio(z, h), c + z
        read = (q > 0.0) & (np.minimum(theta, theta + h) > family.theta_min)
        per = np.zeros_like(z)
        per[read] = chi_sq_iid(family, theta[read], h, spec.n)
        if np.isinf(per).any():
            raise _DivergentSignal()
        root = np.sqrt(q)  # q e^(2 Delta) as (root e^Delta)^2: finite wherever the integral is
        with np.errstate(over="ignore", invalid="ignore"):  # q(t) = 0 contributes 0
            return np.where(q > 0.0, (root * np.expm1(ratio)) ** 2
                            + (root * np.exp(ratio)) ** 2 * per, 0.0)

    try:
        return integrate_panels(integrand, lo, hi)
    except _DivergentSignal:
        return math.inf


class _DivergentSignal(Exception):
    pass


def default_grid(family: Family, prior: Prior, h: float) -> GridSpec:
    """A grid covering the prior (and its shift) plus the family's x-range."""
    t_lo, t_hi, _ = _union_region(prior, h)
    x_lo, x_hi = family.x_range(t_lo, t_hi, h)
    return GridSpec(t_lo=t_lo, t_hi=t_hi, x_lo=x_lo, x_hi=x_hi)


def _joint_density_grids(family: Family, prior: Prior, h: float,
                         grid: GridSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The joint densities g0 = p_t(x) q(t) and gh = p_{t+h}(x) q(t+h) on the
    (t, x) grid, warning when the grid misses the prior, its shift or the
    family's x-range."""
    t_lo, t_hi, _ = _union_region(prior, h)
    if grid.t_lo > t_lo or grid.t_hi < t_hi:
        warnings.warn("t-grid does not cover the prior and its shift",
                      CoverageWarning, stacklevel=3)
    x_lo, x_hi = family.x_range(t_lo, t_hi, h)
    if grid.x_lo > x_lo or grid.x_hi < x_hi:
        warnings.warn(f"x-grid does not cover {family.x_coverage}",
                      CoverageWarning, stacklevel=3)
    ts = np.linspace(grid.t_lo, grid.t_hi, grid.t_points)
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.x_points)
    g0 = family.density(ts[:, None], xs[None, :])
    g0 *= prior_density(prior, ts)[:, None]
    gh = family.density((ts + h)[:, None], xs[None, :])
    gh *= prior_density(prior, ts + h)[:, None]
    return g0, gh


def _trapezoid_weights(lo: float, hi: float, points: int) -> np.ndarray:
    weights = np.full(points, (hi - lo) / (points - 1))
    weights[[0, -1]] *= 0.5
    return weights


def _trapezoid_2d(values: np.ndarray, grid: GridSpec) -> float:
    """Trapezoid rule over x (axis 1), then over t, as weighted sums, which
    allocate no grid-sized temporary."""
    inner = values @ _trapezoid_weights(grid.x_lo, grid.x_hi, grid.x_points)
    return float(_trapezoid_weights(grid.t_lo, grid.t_hi, grid.t_points) @ inner)


def mixture_hellinger_oracle(family: Family, prior: Prior, h: float,
                             grid: GridSpec) -> float:
    """Brute-force trapezoid evaluation of H^2(Mh, M0) at n = 1.

    Sums (sqrt(p_{t+h}(x) q(t+h)) - sqrt(p_t(x) q(t)))^2 over the (x, t)
    grid. Exists to validate the decomposition identity; not a computation
    path for bounds.
    """
    g0, gh = _joint_density_grids(family, prior, float(h), grid)
    diff = np.sqrt(gh, out=gh)
    diff -= np.sqrt(g0, out=g0)
    del g0
    diff *= diff
    return _trapezoid_2d(diff, grid)


def mixture_chi_sq_interpolated_grid(family: Family, prior: Prior, h: float,
                                     lam: float, grid: GridSpec) -> float:
    """2-D grid evaluation of chi^2(Mh || lam Mh + (1-lam) M0) at n = 1.

    Equals (1-lam)^2 int int (dMh - dM0)^2 / (lam dMh + (1-lam) dM0) over the
    region where the interpolated density is positive. This is the only
    computation path for the lambda-interpolated denominator; no
    tensorization identity exists for the interpolated mixture, so n > 1 is
    not offered here.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    g0, gh = _joint_density_grids(family, prior, float(h), grid)
    # in place, so that three grids are alive: g0, gh (then the mixture) and the ratio
    ratio = gh - g0
    ratio *= ratio
    mix = np.add(np.multiply(gh, lam, out=gh), np.multiply(g0, 1.0 - lam, out=g0), out=gh)
    np.divide(ratio, mix, out=ratio, where=mix > 0.0)
    ratio[mix <= 0.0] = 0.0
    return (1.0 - lam) ** 2 * _trapezoid_2d(ratio, grid)
