"""Divergences between the shifted joint mixture measures

    dM0(x, t) = p_t(x) q(t) dx dt      and      dMh(x, t) = p_{t+h}(x) q(t+h) dx dt,

computed through the decomposition identities (the prior shift divergence
plus the n-fold family divergence H^2_n or chi^2_n), each one integral over
the window covering q and its shift:

    H^2(Mh, M0)   = int (sqrt(q(t+h)) - sqrt(q(t)))^2 + sqrt(q(t+h) q(t)) H^2_n(t+h, t) dt,
    chi^2(Mh||M0) = int_{q>0} (q(t+h) - q(t))^2/q(t) + q(t+h)^2/q(t) chi^2_n(t+h, t) dt,

and a brute-force 2-D grid oracle (n = 1 only) validating the Hellinger
identity. The computation path is always the outer t-quadrature with the
closed-form inner divergence, never an n-dimensional x-integral, so large n
costs nothing; the tensorization closed forms keep it exact.
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
        for p in (self.t_points, self.x_points):
            if p < 11 or p % 2 == 0:
                raise ValueError("grid points must be odd and >= 11")


def _union_region(prior: Prior, h: float) -> Tuple[float, float, Tuple[float, ...]]:
    """Window covering q and q(. + h), with their finite support ends inside it as cuts."""
    lo0, hi0 = prior.window()
    lo, hi = min(lo0, lo0 - h), max(hi0, hi0 - h)
    ends = prior.kinks()
    return lo, hi, tuple(c for c in (*ends, *(e - h for e in ends)) if lo < c < hi)


_PRIOR_PARAMETERS = "every parameter under the prior and its shift"


def mixture_hellinger_sq(spec: MixtureSpec) -> float:
    """Squared Hellinger distance between the shifted joint mixtures,

        int (sqrt(q(t+h)) - sqrt(q(t)))^2 + sqrt(q(t+h) q(t)) H^2_n(t+h, t) dt,

    one quadrature over the shift window with the n-fold family divergence in
    closed form; always finite, in [0, 2]. The squared-difference form avoids
    the catastrophic cancellation of 2 - 2 int sqrt(q_h q) when the shift is small.
    """
    prior, family, h = spec.prior, spec.family, float(spec.h)
    if h == 0.0:
        return 0.0
    lo0, hi0 = prior.window()
    if abs(h) >= hi0 - lo0:  # disjoint supports
        return 2.0
    # the family term reads t and t + h at or above the window only
    family.check_theta(lo0, _PRIOR_PARAMETERS)
    lo, hi, cuts = _union_region(prior, h)

    def integrand(t: np.ndarray) -> np.ndarray:
        qh, q = prior_density(prior, t + h), prior_density(prior, t)
        total = (np.sqrt(qh) - np.sqrt(q)) ** 2
        read = (qh * q > 0.0) & (np.minimum(t, t + h) >= lo0)
        total[read] += np.sqrt(qh[read] * q[read]) * hellinger_sq_iid(
            family, t[read] + h, t[read], spec.n)
        return total

    return min(max(integrate_panels(integrand, lo, hi, cuts, shift=h), 0.0), 2.0)


def mixture_chi_sq(spec: MixtureSpec) -> float:
    """Chi-squared divergence chi^2(Mh || M0) of the shifted joint mixtures.

    For a dominated shift (full-support priors) this is the decomposition
    chi^2(Q_h||Q) + int chi^2_n dQ_h^2/dQ, one integrand with no "- 1" to
    cancel. It is inf when the shifted prior is not dominated (every
    compact-support prior with h != 0) or when the per-observation
    chi-squared is infinite on a set of positive prior mass (uniform family
    with h > 0).
    """
    h = float(spec.h)
    if h == 0.0:
        return 0.0
    if not spec.family.shift_is_dominated(h):
        return math.inf
    lo_s, hi_s = spec.prior.support()
    if math.isfinite(lo_s) or math.isfinite(hi_s):
        # a shifted interval is never contained in itself
        return math.inf
    lo, hi = spec.prior.window()
    spec.family.check_theta(min(lo, lo + h), _PRIOR_PARAMETERS)

    # q(t+h)^2/q(t) peaks near center - 2h for a Gaussian prior: widen the window;
    # its far tail may pass the family's theta_min, where chi^2_n is not read.
    lo, hi = lo - 2.0 * abs(h), hi + 2.0 * abs(h)

    def integrand(t: np.ndarray) -> np.ndarray:
        q0, qh = prior_density(spec.prior, t), prior_density(spec.prior, t + h)
        read = (q0 > 0.0) & (qh > 0.0) & (np.minimum(t, t + h) > spec.family.theta_min)
        per = np.zeros_like(t)
        per[read] = chi_sq_iid(spec.family, t[read] + h, t[read], spec.n)
        if np.isinf(per).any():
            raise _DivergentSignal()
        den = np.where(q0 > 0.0, q0, np.inf)  # q(t) = 0 contributes 0
        return (qh - q0) ** 2 / den + qh * qh / den * per

    try:
        return integrate_panels(integrand, lo, hi, shift=h)
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
