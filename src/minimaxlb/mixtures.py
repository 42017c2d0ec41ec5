"""Divergences between the shifted joint mixture measures

    dM0(x, t) = p_t(x) q(t) dx dt      and      dMh(x, t) = p_{t+h}(x) q(t+h) dx dt,

computed through the decomposition identities (the prior shift divergence
plus the n-fold family divergence H^2_n or chi^2_n of the shift h at t), each
one integral over the window covering q and its shift, with Delta = log q(t+h)
- log q(t) (``Prior.log_ratio``) where q(t), q(t+h) > 0:

    H^2(Mh, M0)   = int q expm1(Delta/2)^2 + q exp(Delta/2) H^2_n(t, h) dt,
    chi^2(Mh||M0) = int q expm1(Delta)^2 + q exp(2 Delta) chi^2_n(t, h) dt,

and a brute-force 2-D grid oracle (n = 1 only) validating the Hellinger
identity, on a 2001 x 2001 grid with no cell wider than half the family's
kernel width. Each integral runs in the prior's centred coordinate z = t - c
(``Prior.centred``) and reads h itself, never (t + h) - t, at any h and prior
center; it is never an n-dimensional x-integral, so large n costs nothing.
"""
from __future__ import annotations

import contextvars
import math
import threading
import warnings
from dataclasses import dataclass

from .models import Family, chi_sq_iid, hellinger_sq_iid
from .numerics import check_n, float_or_array, integrate_panels, np
from .priors import Prior, prior_density


class CoverageWarning(UserWarning):
    """The oracle grid does not cover enough probability mass."""


@dataclass(frozen=True)
class MixtureSpec:
    """Inputs of a mixture divergence: family, sample size, prior, shift (a float,
    or an ndarray of shifts for mixture_hellinger_sq).

    The shift acts on the prior's native real line, so Q(.+h) is always
    well-defined regardless of the family's parameter constraints.
    """

    family: Family
    n: int
    prior: Prior
    h: float

    def __post_init__(self):
        check_n(self.n)
        if not np.isfinite(self.h).all():
            raise ValueError("h must be finite")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular 2001 x 2001 trapezoid grid for the brute-force oracles."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float
    t_points = x_points = 2001  # nodes per axis

    def __post_init__(self):
        if not (self.t_lo < self.t_hi and self.x_lo < self.x_hi):
            raise ValueError("grid bounds must satisfy lo < hi")
        for axis, lo, hi, p in (("t", self.t_lo, self.t_hi, self.t_points),
                                ("x", self.x_lo, self.x_hi, self.x_points)):
            # the grid reads t and x themselves: floats may move a node by 2^-16 of a cell
            if max(abs(lo), abs(hi)) * 2.0**-52 > 2.0**-16 * (hi - lo) / (p - 1):
                raise ValueError(f"the {axis}-grid on [{lo!r}, {hi!r}] is too far from 0 "
                                 f"for {p} points")


def _union_region(prior: Prior, h):
    """Window covering q and q(. + h), with its candidate cuts: the finite support ends
    and their shifts (one row each for an array of h; integrate_panels keeps those inside)."""
    lo0, hi0 = prior.window()
    lo, hi = np.minimum(lo0, lo0 - h), np.maximum(hi0, hi0 - h)
    ends = np.array(prior.kinks())
    shifted = ends - np.expand_dims(h, -1)
    cuts = np.concatenate((np.broadcast_to(ends, shifted.shape), shifted), axis=-1)
    return float_or_array(lo), float_or_array(hi), cuts


_PRIOR_PARAMETERS = "every parameter under the prior and its shift"


def mixture_hellinger_sq(spec: MixtureSpec):
    """Squared Hellinger distance between the shifted joint mixtures by the
    identity above, with q(t) + q(t+h) where one of them is 0; in [0, 2]. It is even
    in h (t -> t - h turns H^2(M-h, M0) into H^2(M0, Mh)): for an ndarray of shifts,
    one value each, from one quadrature of a row for each distinct |h|."""
    size = np.abs(np.ravel(spec.h))
    h = np.array(sorted(set(size.tolist())), dtype=float)  # each distinct |h|, ascending
    c, prior = spec.prior.centred()
    lo0, hi0 = prior.window()
    value = np.where(h == 0.0, 0.0, 2.0)  # 2 where the supports are disjoint
    near = (h != 0.0) & (h < hi0 - lo0)
    if near.any():
        # the family term reads t and t + h at or above the window only
        spec.family.check_theta(c + lo0, _PRIOR_PARAMETERS)
        lo, hi, cuts = _union_region(prior, h[near])

        def integrand(z: np.ndarray, h: np.ndarray) -> np.ndarray:
            q, qh = prior_density(prior, z), prior_density(prior, z + h)
            theta = c + (lo0 if spec.family.location else np.maximum(z, lo0))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                half = 0.5 * prior.log_ratio(z, h)  # not finite only where q qh = 0
                value = q * np.expm1(half) ** 2
                read = q * np.exp(half) * hellinger_sq_iid(spec.family, theta, h, spec.n)
            value = np.where(z >= lo0, value + read, value)
            return np.where(q * qh > 0.0, value, q + qh)

        value[near] = np.clip(integrate_panels(integrand, lo, hi, cuts, (h[near],)), 0.0, 2.0)
    return float_or_array(value[np.searchsorted(h, size)].reshape(np.shape(spec.h)))


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


# t-rows in one block: 16 rows of the 2001-point x-axis, 256 KB a buffer. With
# the rows in two threads (_grid_trapezoid) a 2001 x 2001 Hellinger oracle takes about
# 6.6-7.5 ms, 1.5-1.6 times as fast as in one thread. 8-row blocks took 8.2-9 ms, 1.3
# times as fast: a numpy call on a smaller block does too little work to pay for its
# hand-off of the interpreter lock (4-row blocks were slower than one thread). 32-row
# blocks took 6.2-6.8 ms but raised the mixture_bounds benchmark's one-pass peak RSS
# by 1.1 MB, where 16 rows raise it by 0.25 MB over 8 (2-core x86-64)
_BLOCK_ROWS = 16
# the widest cell in kernel widths: a unit-prior oracle is within 5e-16 of the identity
# at cells of 0.87 sigma, 3.4e-9 at 1.21 and read 4.05 (H^2 <= 2) at 12.1 sigma
_MAX_CELL = 0.5


def _trapezoid_weights(lo: float, hi: float, points: int) -> np.ndarray:
    weights = np.full(points, (hi - lo) / (points - 1))
    weights[[0, -1]] *= 0.5
    return weights


def _in_two_halves(rows, mid: int, end: int, buffers: np.ndarray) -> None:
    """rows(0, mid, buffers[0]) in the caller while a helper thread runs rows(mid, end,
    buffers[1]) in a copy of the caller's context (so numpy's errstate holds there too).
    The helper has ended when this returns or raises; its exception is raised here."""
    failed = []

    def helper():
        try:
            rows(mid, end, buffers[1])
        except BaseException as exc:  # raised in the caller, not printed by the thread
            failed.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        rows(0, mid, buffers[0])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _grid_trapezoid(integrand, family: Family, prior: Prior, h: float,
                    grid: GridSpec, root: bool = False, buffers: int = 2) -> float:
    """Trapezoid rule over the (t, x) grid of integrand(g0, gh, *spare), the joint
    densities g0 = p_t(x) q(t) and gh = p_{t+h}(x) q(t+h), or for root=True their
    roots, from the family's closed-form root of p. It first warns the oracle's
    caller when the grid misses the prior, its shift or the family's x-range,
    raises when a t- or x-cell is wider than _MAX_CELL of the family's kernel
    width, and checks the t, t + h and x axes once. One block of _BLOCK_ROWS whole
    t-rows at a time is built into the block buffers, which the integrand may
    overwrite (the last buffers - 2 are its spares), and reduced over x at once; a
    density whose prior factor is 0 on the whole block is 0 there, and its kernel is
    not formed. The t-rows run in two halves split at a block boundary, the second
    in a helper thread (_in_two_halves) with its own buffers; each half writes its
    own rows of the x-sums, and the t-weights are applied last, so the value does
    not depend on the scheduling."""
    t_lo, t_hi, _ = _union_region(prior, h)
    if grid.t_lo > t_lo or grid.t_hi < t_hi:
        warnings.warn("t-grid does not cover the prior and its shift",
                      CoverageWarning, stacklevel=3)
    x_lo, x_hi = family.x_range(t_lo, t_hi, h)
    if grid.x_lo > x_lo or grid.x_hi < x_hi:
        warnings.warn(f"x-grid does not cover {family.x_coverage}",
                      CoverageWarning, stacklevel=3)
    for axis, lo, hi, p in (("t", grid.t_lo, grid.t_hi, grid.t_points),
                            ("x", grid.x_lo, grid.x_hi, grid.x_points)):
        cell, width = (hi - lo) / (p - 1), family.kernel_width
        if width is not None and cell > _MAX_CELL * width:
            raise ValueError(f"the oracle grid's {axis}-cell {cell:.3g} is wider than half "
                             f"the family's sigma {width!r}, so it cannot resolve the density")
    ts = np.linspace(grid.t_lo, grid.t_hi, grid.t_points)
    xs = family._kernel_units(family.check_x(np.linspace(grid.x_lo, grid.x_hi, grid.x_points)))
    ts, th = family.check_theta(ts[:, None]), family.check_theta((ts + h)[:, None])
    # both integrands are homogeneous of degree 1 in (g0, gh), and g <= q/d: reckon the
    # densities in units of 2^e, e even (so that the roots scale exactly) and near the
    # largest log2(q/d), where no square of one overflows or underflows, and the t-weights
    # in units of 2^-e, so that the value is the same sum in any units
    q0, qh = prior_density(prior, ts), prior_density(prior, th)
    with np.errstate(divide="ignore"):  # log2(0) = -inf: a zero q is never the largest
        top = float(np.max(np.log2(q0) - np.log2(family._divisor(ts))))
    e = 2 * math.floor(top / 2) if math.isfinite(top) else 0
    q0, qh = np.ldexp(q0, -e), np.ldexp(qh, -e)
    if root:  # sqrt(p q) = sqrt(k) sqrt(q/d), the root of one factor a row
        q0, qh = np.sqrt(q0 / family._divisor(ts)), np.sqrt(qh / family._divisor(th))
    weights = _trapezoid_weights(grid.x_lo, grid.x_hi, grid.x_points)
    step, inner = _BLOCK_ROWS, np.empty(grid.t_points)

    def rows(lo: int, hi: int, blocks: np.ndarray) -> None:
        for i in range(lo, hi, step):
            r, k = slice(i, i + step), min(step, hi - i)
            for t, q, out in ((ts[r], q0[r], blocks[0, :k]), (th[r], qh[r], blocks[1, :k])):
                if not q.any():  # k/d q = +0.0: the kernel is finite
                    out.fill(0.0)
                    continue
                family._write_kernel(family._kernel_units(t), xs, out, root)
                if not root:  # p q as k/d q: the order of density(t, x) * q(t)
                    np.divide(out, family._divisor(t), out=out)
                np.multiply(out, q, out=out)
            inner[r] = integrand(*blocks[:, :k]) @ weights

    _in_two_halves(rows, grid.t_points // step // 2 * step, grid.t_points,
                   np.empty((2, buffers, step, grid.x_points)))
    return float(np.ldexp(_trapezoid_weights(grid.t_lo, grid.t_hi, grid.t_points), e) @ inner)


def mixture_hellinger_oracle(family: Family, prior: Prior, h: float,
                             grid: GridSpec) -> float:
    """Brute-force trapezoid evaluation of H^2(Mh, M0) at n = 1.

    Sums (sqrt(p_{t+h}(x) q(t+h)) - sqrt(p_t(x) q(t)))^2 over the (x, t) grid,
    with sqrt(p) in the family's closed form: no square root of a grid array.
    Exists to validate the decomposition identity; not a computation path for
    bounds.
    """
    return _grid_trapezoid(lambda r0, rh: np.square(np.subtract(rh, r0, out=rh), out=rh),
                           family, prior, float(h), grid, root=True)


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

    def ratio(g0: np.ndarray, gh: np.ndarray, work: np.ndarray) -> np.ndarray:
        # (gh - g0)^2 / (lam gh + (1 - lam) g0) where the mixture is positive, else 0,
        # in the block's three buffers with the operations of that expression, in its order
        diff = np.subtract(gh, g0, out=work)
        np.square(diff, out=diff)
        mix = np.add(np.multiply(gh, lam, out=gh), np.multiply(g0, 1.0 - lam, out=g0), out=gh)
        positive = mix > 0.0
        np.divide(diff, mix, out=diff, where=positive)
        diff[~positive] = 0.0
        return diff

    return (1.0 - lam) ** 2 * _grid_trapezoid(ratio, family, prior, float(h), grid,
                                              buffers=3)
