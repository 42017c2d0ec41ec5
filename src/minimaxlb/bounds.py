"""Lower-bound evaluators: the mixture Hellinger and chi-squared bounds, the
Kepler least-favorable-prior bound, the Gaussian-prior/arctan bound, the
refined two-point Hellinger bound, the scalar asymptotic constants, the
density-estimation constant C(s, M, K), and evaluate_bound, one bound request.

Conventions. All bound values are >= 0 with exact clamping at zero. Every
bound value, of a sup or at fixed arguments, is n-scaled: it bounds
n E|T - psi|^2, the unit of the figure axes, the CLI and the estimator risks.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from .mixtures import (MixtureSpec, default_grid, mixture_chi_sq,
                       mixture_chi_sq_interpolated_grid, mixture_hellinger_sq)
from .models import Family, GaussianLocation, hellinger_sq_iid
from .numerics import (_COARSE_GRID, _SQRT_2PI, _Z_MAX, OPEN_EDGE, SearchBox, check_n,
                       cut_points, float_or_array, integrate_panels, math_elementwise,
                       maximize_1d, maximize_2d, maximize_unimodal, panel_nodes)
from .priors import Cosine, Prior, check_scale, prior_density

_PI = math.pi
# the window's ends and its cuts every 2 units, so no piece is wider than 2 sigma
_Z_FIXED = np.array([-_Z_MAX, _Z_MAX, *range(-10, 11, 2)], dtype=float)


class DegenerateKernelError(ValueError):
    """The kernel's s-th derivative vanishes at zero; C(s, M, K) undefined."""


class Functional:
    """A functional psi of the parameter, read only through differences:
    ``difference(t, h)`` = psi(t) - psi(t - h), which reads h itself
    (a float, or an array broadcasting against t), the kinks of it (``kinks(h)``:
    between and beyond them |psi(t) - psi(t - h)| is monotone), the quadrature cuts
    of it on a window of some width (``cuts(h, width)``, the kinks among them; each an
    array, with a row each for an array of h), and the van Trees numerator
    ``slope_mass(prior)`` = int psi' dQ."""


@dataclass(frozen=True)
class Identity(Functional):
    """psi(theta) = theta."""

    def difference(self, t, h):
        return float_or_array(np.zeros(np.shape(t)) + h)

    def kinks(self, h) -> np.ndarray:
        return np.zeros(np.shape(h) + (0,))

    def cuts(self, h, width: float) -> np.ndarray:
        return self.kinks(h)

    def slope_mass(self, prior: Prior) -> float:
        return 1.0


@dataclass(frozen=True)
class PowerMax(Functional):
    """psi(theta) = max(theta^alpha, 0) = theta^alpha for theta > 0, else 0."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")

    def difference(self, t, h):
        """sign(h) a^alpha (1 - (b/a)^alpha), a = max(t, t - h), b = max(min(t, t - h), 0),
        or 0 where a <= 0, by expm1 of alpha log(b/a): log1p(-|h|/a) while |h| <= a/2,
        else log(b/a) with b exact (t, or t - h by Sterbenz's lemma)."""
        t = np.asarray(t, dtype=float)
        a, sign, size = t - np.minimum(h, 0.0), np.copysign(1.0, h), np.abs(h)
        if self.alpha == 1.0:  # a - max(b, 0) = min(|h|, a) where a > 0, exactly
            return float_or_array(sign * np.minimum(np.maximum(a, 0.0), size))
        b = np.maximum(t - np.maximum(h, 0.0), 0.0)
        # log 0 = -inf, a <= 0 is masked, and -size / a overflows only where size > a/2,
        # which log(b / a) serves
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_r = np.where(size <= 0.5 * a, np.log1p(-size / a), np.log(b / a))
            value = sign * a**self.alpha * -np.expm1(self.alpha * log_r)
            return float_or_array(np.where(a > 0.0, value, 0.0))

    def kinks(self, h) -> np.ndarray:
        """0 and h: the difference is 0 below both, t^alpha (or -(t - h)^alpha) between
        them, and t^alpha - (t - h)^alpha above both, which t^alpha, rising and concave,
        makes monotone in t on each piece."""
        h = np.asarray(h, dtype=float)
        return np.stack((np.zeros_like(h), h), axis=-1)

    def cuts(self, h, width: float) -> np.ndarray:
        """The kinks; for alpha < 1 also kink + s 2^j, s = min(|h|, width), from
        2^-40 s to the width. A row of an array of h pads with its widest cuts."""
        h, kinks = np.asarray(h, dtype=float), self.kinks(h)
        if self.alpha == 1.0:
            return kinks
        step = np.minimum(np.abs(h), width)
        step = np.where(step > 0.0, step, width)
        top = np.ceil(math.log2(width) - math_elementwise(math.log2, step))
        grades = step[..., None] * 2.0 ** np.minimum(np.arange(-40, np.max(top) + 1),
                                                     top[..., None])
        return np.concatenate((kinks, grades, h[..., None] + grades), axis=-1)

    def slope_mass(self, prior: Prior) -> float:
        """int alpha t^(alpha-1) q(t) dt over t > 0. A window within its width of 0
        is integrated in u = t^alpha, which removes the singularity, graded toward
        u = 0 as by ``cuts``. One farther out is integrated in the prior's centred
        coordinate (``Prior.centred``), where floats resolve it finely."""
        lo, hi = prior.window()
        if hi <= 0.0:
            return 0.0
        if lo >= hi - lo:
            c, near = prior.centred()
            return integrate_panels(lambda z: self.alpha * (c + z) ** (self.alpha - 1.0)
                                    * prior_density(near, z), *near.window(), near.kinks())
        top = hi ** self.alpha
        return integrate_panels(lambda u: prior_density(prior, u ** (1.0 / self.alpha)),
                                max(lo, 0.0) ** self.alpha, top,
                                [e ** self.alpha for e in prior.kinks() if e > 0.0]
                                + list(self.cuts(0.0, top)))


MaxZero = functools.partial(PowerMax, 1.0)  # psi(theta) = max(theta, 0)


@dataclass(frozen=True)
class BoundResult:
    """A non-negative n-scaled bound value, the arguments it is attained at, and its notes."""

    value: float
    argmax: Dict[str, float] = field(default_factory=dict)
    notes: Tuple[str, ...] = ()


def _check_delta_n(delta: float, n: int) -> None:
    check_scale(delta)
    check_n(n)


def _checked_cuts(prior: Prior, f: Functional, h) -> np.ndarray:
    """``f.cuts(h)`` in z = t - c (``Prior.centred``). The square of psi(t) - psi(t - h)
    peaks on the window at an end or a kink, as it is monotone between them: a ValueError
    names h where it overflows there."""
    c, near = prior.centred()
    lo, hi = near.window()
    kinks = np.clip(f.kinks(h) - c, lo, hi)
    ends = np.concatenate((np.full(np.shape(h) + (2,), (lo, hi)), kinks), -1)
    with np.errstate(over="ignore"):
        finite = np.isfinite(f.difference(c + ends, np.expand_dims(h, -1)) ** 2).all(axis=-1)
    if not finite.all():
        bad = float(np.atleast_1d(h)[~np.atleast_1d(finite)][0])
        raise ValueError(f"h={bad!r} is too large: (psi(t) - psi(t - h))^2 overflows")
    return f.cuts(h, hi - lo) - c


def delta_psi_moments(prior: Prior, f: Functional, h) -> Tuple[float, float]:
    """First and second prior moments of psi(t) - psi(t - h), both from one quadrature
    in z = t - c, cut at ``_checked_cuts``, where it is not smooth; for an ndarray of
    shifts, arrays of them, from one quadrature of a row each."""
    c, near = prior.centred()
    lo, hi = near.window()

    def moments(z: np.ndarray, h) -> np.ndarray:
        dpsi, q = f.difference(c + z, h), prior_density(near, z)
        with np.errstate(over="ignore"):  # integrate_panels rejects a moment that overflows
            return np.stack((dpsi * q, dpsi * dpsi * q))

    first, second = integrate_panels(moments, np.full(np.shape(h), lo), np.full(np.shape(h), hi),
                                     _checked_cuts(prior, f, h), (h,))
    return float_or_array(first), float_or_array(second)


def _checked_hellinger_sq(family: Family, n: int, prior: Prior, h):
    """The shifts as a float or an ndarray, and H^2(Mh, M0) at each: both nonzero."""
    prior.check_nice()
    h = float_or_array(h)
    if np.any(h == 0.0):
        raise ValueError("h must be nonzero")
    h2 = mixture_hellinger_sq(MixtureSpec(family, n, prior, h))
    if np.any(h2 == 0.0):
        raise ValueError("mixture Hellinger distance underflows to 0 at "
                         f"h={float(np.atleast_1d(h)[np.atleast_1d(h2) == 0.0][0])!r}")
    return h, h2


def hellinger_mixture_terms(family: Family, n: int, prior: Prior, f: Functional,
                            h: float) -> Tuple[float, float]:
    """The pair (A, B) of the Hellinger mixture bound.

    A = |int (psi(t) - psi(t-h)) dQ|^2 / (4 H^2(M0, Mh)) is the term that
    tends to van_trees_value / n as h -> 0; B = int (psi(t)-psi(t-h))^2 dQ
    is the finite-shift penalty. Both are terms, not bounds, so neither is
    n-scaled. An ndarray of shifts gives arrays of both.
    """
    h, h2 = _checked_hellinger_sq(family, n, prior, h)
    num, second = delta_psi_moments(prior, f, h)
    return num * num / (4.0 * h2), second


def hellinger_mixture_bound(family: Family, n: int, prior: Prior, f: Functional, h):
    """n-scaled Hellinger mixture bound n [sqrt(A) - sqrt(B)]_+^2 at a fixed shift h, or
    at each of an ndarray of shifts: 0 where 4 H^2 >= 1, as A <= B there by Cauchy-Schwarz
    ((int Dpsi dQ)^2 <= int Dpsi^2 dQ), so no moment is integrated but ``_checked_cuts``."""
    h, h2 = map(np.asarray, _checked_hellinger_sq(family, n, prior, h))
    value, near = np.zeros(h.shape), 4.0 * h2 < 1.0
    if not near.all():
        _checked_cuts(prior, f, h[~near])
    if near.any():
        num, second = delta_psi_moments(prior, f, h[near])
        root = np.sqrt(num * num / (4.0 * h2[near])) - np.sqrt(second)
        value[near] = n * np.where(root > 0.0, root * root, 0.0)
    return float_or_array(value)


def hellinger_mixture_bound_sup(family: Family, n: int, prior: Prior, f: Functional,
                                h_lo: float, h_hi: float) -> BoundResult:
    """n-scaled sup of the Hellinger mixture bound over |h| in [h_lo, h_hi], both signs:
    one maximize_1d search of max(b(|h|), b(-|h|)), +h on a tie, each scan or round one
    batch of both signs, which share H^2 (it is even in h). The bound tends to the van Trees
    value as h -> 0, so the sup mostly sits on the edge h_lo: a scan and one round."""
    if not (0.0 < h_lo < h_hi):
        raise ValueError("need 0 < h_lo < h_hi")
    sign = {}  # |h| -> the sign that won it

    def envelope(size: np.ndarray) -> np.ndarray:
        plus, minus = hellinger_mixture_bound(family, n, prior, f, np.stack((size, -size)))
        sign.update(zip(size.tolist(), np.where(plus >= minus, 1.0, -1.0).tolist()))
        return np.maximum(plus, minus)

    size, value = maximize_1d(envelope, h_lo, h_hi)
    return BoundResult(max(value, 0.0), {"h": sign[size] * size})


def default_shift_range(prior: Prior) -> Tuple[float, float]:
    """Default |h| search window scaled by the prior's dispersion."""
    scale = prior.dispersion()
    return 1e-4 * scale, 10.0 * scale


def chi2_mixture_bound(family: Family, n: int, prior: Prior, f: Functional,
                       h: float, lam: float) -> BoundResult:
    """n-scaled chi-squared mixture bound with the closed-form inner optimization.

    Evaluates n times [sqrt((1-lam){A - lam(A+B)}) - sqrt(lam^2 B)]_+^2 where A has
    the lambda-interpolated chi-squared denominator and B is the second
    shift moment; the value is zero when (1-lam)^2 A <= lam B. At lam = 0
    this reduces to A = |int dpsi dQ|^2 / chi^2(Mh||M0) (the mixture HCR
    form), computed by the decomposition path for any n; an infinite
    denominator yields the trivial bound 0, with a note. For 0 < lam < 1 the
    denominator has no tensorization identity and is evaluated on a 2-D grid
    at n = 1 only (API restriction).
    """
    h = float(h)
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if h == 0.0:
        raise ValueError("h must be nonzero")
    at = {"h": h, "lambda": lam}
    if lam == 1.0:
        return BoundResult(0.0, at)
    num, b = delta_psi_moments(prior, f, h)
    if lam == 0.0:  # the denominator is integrated even where num = 0, for its note
        denom = mixture_chi_sq(MixtureSpec(family, n, prior, h))
        if denom == math.inf:
            return BoundResult(0.0, at, ("divergent denominator; trivial bound 0",))
        return BoundResult(n * (num * num / denom) if num != 0.0 and denom > 0.0 else 0.0, at)
    if num == 0.0:
        return BoundResult(0.0, at)
    if n != 1:
        raise ValueError("lambda > 0 requires n = 1: the interpolated "
                         "chi-squared has no tensorization identity")
    grid = default_grid(family, prior, h)
    denom = mixture_chi_sq_interpolated_grid(family, prior, h, lam, grid)
    if denom <= 0.0:
        return BoundResult(0.0, at)
    a = num * num / denom
    if (1.0 - lam) ** 2 * a <= lam * b:
        return BoundResult(0.0, at)
    root = math.sqrt((1.0 - lam) * (a - lam * (a + b))) - lam * math.sqrt(b)
    return BoundResult(root * root if root > 0.0 else 0.0, at)


def van_trees_value(family: Family, n: int, prior: Prior, f: Functional) -> float:
    """n-scaled classical van Trees value n (int grad psi dQ)^2 / (I(Q) + n int I dQ).

    Needs a nice prior and finite family information, read at the top of the
    prior's window (the same everywhere for a location family, and inside a
    range bounded below if any of the window is); the numerator is ``slope_mass``.
    """
    check_n(n)
    info = family.fisher_info(prior.window()[1])
    if info == math.inf:
        raise ValueError(f"van Trees value requires finite Fisher information "
                         f"({family.label} has divergent Fisher information)")
    prior.check_nice()
    num = f.slope_mass(prior)
    return n * (num * num / (prior.fisher_info() + n * info))


def _kepler_mass(y: float) -> float:
    """The mass a whose Kepler root is y, (1 + y + sin(pi y)/pi)/2."""
    return 0.5 * (1.0 + y + math.sin(_PI * y) / _PI)


def _vt_kepler_objective(k: float, sup_fisher: float, y: float):
    """The Kepler bound's objective a^2 / (k (1 + y)^2 + J), J = sup_fisher, with its slope
    and curvature in the Kepler root y in [0, 1], where the mass a and the Fisher
    information pi^2 (1 + y)^2 are explicit and smooth; in a, the derivative of y,
    2/(1 + cos pi y), is infinite at a = 1, where the argmax sits as n delta^2 grows."""
    sin = math.sin(_PI * y)
    a, da, dda = 0.5 * (1.0 + y + sin / _PI), math.cos(0.5 * _PI * y) ** 2, -0.5 * _PI * sin
    # the quotient rule
    den, dden, hden = k * (1.0 + y) ** 2 + sup_fisher, 2.0 * k * (1.0 + y), 2.0 * k
    value = a * a / den
    grad = (2.0 * a * da - value * dden) / den
    hess = (2.0 * (da * da + a * dda) - value * hden - grad * dden - dden * grad) / den
    return value, grad, hess


def vt_kepler_bound(delta: float, n: int, sup_fisher: float) -> BoundResult:
    """n-scaled Kepler bound: max over a in [0,1] of
    n a^2 / (4 pi^2 delta^-2 / w_a^2 + n sup_fisher).

    The numerator mass constraint a selects a least-favorable constrained
    cosine prior whose minimum Fisher information 4 pi^2 / w_a^2 enters the
    denominator after dilation to the delta-neighborhood. The sup runs in the
    Kepler root y, where a = (1 + y + sin(pi y)/pi)/2 and 4 pi^2 / w_a^2 =
    pi^2 (1 + |y|)^2 are explicit, so it solves no Kepler equation. Divided
    through by n, so that neither pi^2 / delta^2 nor n J overflows (J = sup_fisher),
    the objective is f = a^2 / E, E = k (1 + |y|)^2 + J, k = pi^2 / (n delta^2).
    Each y < 0 has a < 1/2 = a(0) and a larger E: y = 0 dominates it. On [0, 1] f' has
    the sign of phi = 2 a' E - a E', with phi(0) = k + 2J > 0 and phi(1) = -4k < 0; at
    any zero of phi, phi' = 2 a'' E - 2 a k J / E < 0, since a'' = -(pi/2) sin(pi y) <= 0.
    So phi changes sign once, from + to -, and ``maximize_unimodal`` finds its root by
    Newton from the large-n delta^2 asymptote 1 - y = sqrt(8k / (pi^2 (4k + J))).
    Where 4k overflows, so does E at y = 1, and the sup, below 0.37 / k, reads 0.
    """
    _check_delta_n(delta, n)
    if not (sup_fisher > 0 and math.isfinite(sup_fisher)):
        raise ValueError("sup_fisher must be positive and finite")
    k = _PI * _PI / (n * delta * delta)
    y, value = maximize_unimodal(lambda y: _vt_kepler_objective(k, sup_fisher, y), 0.0, 1.0,
                                 1.0 - math.sqrt(8.0 * k / (_PI * _PI * (4.0 * k + sup_fisher))))
    return BoundResult(value, {"a": _kepler_mass(y)})


DIFFEO_XI1_RANGE = (-10.0, 10.0)
DIFFEO_XI2_RANGE = (1e-3, 1e4)
_DIFFEO_BOX = SearchBox(intervals=(DIFFEO_XI1_RANGE, (math.log(DIFFEO_XI2_RANGE[0]),
                                                      math.log(DIFFEO_XI2_RANGE[1]))))


def _diffeo_moments(xi1: float, xi2: float, derivatives: bool = False):
    """E[g(Z) 1{Z > z0}] and E[g(Z)^2] for g(z) = (1 + (xi1 + z xi2)^2)^-1 and
    the kink z0 = -xi1/xi2, on the 12-sigma window by one graded Gauss-Legendre
    rule, in one array pass over its nodes.

    g peaks at z0 with width 1/xi2: its poles sit 1/xi2 off the real axis. So
    the window is cut at z0, at z0 +- 2^j/xi2 for j >= 0 and every 2 units, and
    each piece gets 16 nodes: the pieces grow geometrically away from the peak
    and stay short next to it and to phi's width. Cuts outside the window are
    clipped to its ends as empty pieces. The indicator moment sums g phi over
    the nodes above z0, which is exact since z0 is a cut. Validated against
    adaptive quadrature to 1.3e-14 relative over DIFFEO_XI1_RANGE x
    DIFFEO_XI2_RANGE. With ``derivatives`` it returns the moments
    of Z^k, k = 0..4, under both weights: the bound's derivatives are such sums.
    """
    z0 = -xi1 / xi2
    offsets, step = [0.0], 1.0 / xi2
    while step < 2.0 * _Z_MAX:
        offsets += (-step, step)
        step *= 2.0
    ends = np.concatenate((_Z_FIXED, np.add(z0, offsets)))
    ends = np.sort(np.minimum(np.maximum(ends, -_Z_MAX), _Z_MAX))
    z, w = panel_nodes(ends)
    u = xi1 + z * xi2
    g = 1.0 / (1.0 + u * u)
    g_phi_w = g * np.exp(-0.5 * z * z) * (w / _SQRT_2PI)
    above, g2_phi_w = np.where(z > z0, g_phi_w, 0.0), g * g_phi_w
    e_ind, e_sq = float(above.sum()), float(g2_phi_w.sum())
    if not derivatives:
        return e_ind, e_sq
    powers = np.empty((4, z.size))                                   # z, z^2, z^3, z^4
    powers[0] = z
    for k in range(1, 4):
        np.multiply(powers[k - 1], z, out=powers[k])
    return ((e_ind, *(powers * above).sum(axis=1).tolist()),
            (e_sq, *(powers * g2_phi_w).sum(axis=1).tolist()))


def _diffeo_ratio(u, xi2, e_ind, e_sq):
    """The diffeo bound from its moments, for scalars or arrays alike."""
    p = xi2 * e_ind
    return p * p / (u + xi2 * xi2 * e_sq)


def _diffeo_u(delta: float, n: int) -> Tuple[float, float]:
    """s = sqrt(n) delta and u = (pi / (2 s))^2, all the diffeo bound reads of (delta, n)."""
    _check_delta_n(delta, n)
    s = math.sqrt(n) * delta
    h = _PI / (2.0 * s)  # u = h * h is inf below s ~ 1.2e-154, where the bound reads 0
    return s, h * h


def diffeo_bound(delta: float, n: int, xi1: float, xi2: float, derivatives: bool = False):
    """Gaussian-prior/arctan bound at fixed (xi1, xi2), n-scaled.

    With g(z) = (1 + (xi1 + z xi2)^2)^-1, s = sqrt(n) delta and u = (pi / (2 s))^2:

        4 n xi2^2 |E[g(Z) 1{Z > -xi1/xi2}]|^2       xi2^2 |E[g(Z) 1{Z > -xi1/xi2}]|^2
        -------------------------------------- = ----------------------------------- ,
        pi^2 delta^-2 + 4 n xi2^2 E[g(Z)^2]         u + xi2^2 E[g(Z)^2]

    computed in the right-hand form, which reads (delta, n) only through s and does not
    overflow. Both sides of the underlying ratio scale by 4 sigma^2/eta^2 = 4 xi2^2, which
    keeps it below the sigma^2 = 1 ceiling. With ``derivatives`` it returns (value,
    gradient, Hessian), the derivatives in (xi1, log xi2), the sup's coordinates: a list
    of two floats and a list of two rows, assembled in floats around the one moment pass.
    """
    _, u = _diffeo_u(delta, n)
    if not (xi2 > 0 and math.isfinite(xi2)):
        raise ValueError("xi2 must be positive and finite")
    xi1 = float(xi1)
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = _DIFFEO_BOX.intervals
    # xi2 is compared in the sup's log coordinate, where exp(log 1e4) passes
    if not (x1_lo <= xi1 <= x1_hi and lx2_lo <= math.log(xi2) <= lx2_hi):
        name, x, (lo, hi) = (("xi1", xi1, DIFFEO_XI1_RANGE) if not x1_lo <= xi1 <= x1_hi
                             else ("xi2", xi2, DIFFEO_XI2_RANGE))
        raise ValueError(f"{name}={x!r} lies outside [{lo:g}, {hi:g}], the range "
                         "where the diffeo bound's quadrature is validated")
    if not derivatives:
        return _diffeo_ratio(u, xi2, *_diffeo_moments(xi1, xi2))
    # In eta = xi1 + xi2 z, P = xi2 E[g 1{Z > z0}] = int_{eta>0} g phi((eta - xi1)/xi2) deta
    # has a fixed domain, so each derivative is a moment: d/dxi1 multiplies phi by
    # z/xi2 and d/dlog xi2 by z^2; Y = xi2^2 E[g^2] is xi2 times the same over all eta.
    (i0, i1, i2, i3, i4), (s0, s1, s2, s3, s4) = _diffeo_moments(xi1, xi2, derivatives=True)
    x, p, dp1, dp2 = xi2, xi2 * i0, i1, xi2 * i2
    # the bound P^2 / D, D = u + Y, by the quotient rule in floats, in the order of
    # operations of its numpy form; D > 0, since u >= 0 and E[g^2] > 0
    den, dd1, dd2 = u + x * x * s0, x * s1, x * x * (s0 + s2)
    hd11, hd12, hd22 = s2 - s0, x * (s3 - s1), x * x * (s0 + s4)
    value = p * p / den
    g1, g2 = (2.0 * p * dp1 - value * dd1) / den, (2.0 * p * dp2 - value * dd2) / den
    # the off-diagonal cells share this part; each subtracts its g terms in its own order
    h12 = 2.0 * (dp1 * dp2 + p * (i3 - 2.0 * i1)) - value * hd12
    hess = [[(2.0 * (dp1 * dp1 + p * ((i2 - i0) / x)) - value * hd11 - g1 * dd1 - dd1 * g1)
             / den, (h12 - g1 * dd2 - dd1 * g2) / den],
            [(h12 - g2 * dd1 - dd2 * g1) / den,
             (2.0 * (dp2 * dp2 + p * (x * (i4 - 2.0 * i2))) - value * hd22 - g2 * dd2
              - dd2 * g2) / den]]
    return value, [g1, g2], hess


@functools.cache
def _diffeo_file(name: str, rows: int) -> Tuple[np.ndarray, ...]:
    """The rows of the diffeo sup's package file ``name``, float64 and read-only, read once
    per process: diffeo_envelope.npy or diffeo_path.npy (tests/test_bounds.py builds both)."""
    array = np.load(Path(__file__).with_name(name))
    if array.ndim != 2 or len(array) != rows or array.shape[1] < 4 or array.dtype != np.float64:
        raise RuntimeError(f"{name} is {array.dtype} {array.shape}, not {rows} rows of floats")
    array.flags.writeable = False
    return tuple(array)


def _diffeo_start(s: float) -> Optional[Tuple[float, float]]:
    """The argmax path at s = sqrt(n) delta, or None off its knots: diffeo_path.npy holds
    log s, xi1 and log xi2 of the sup's argmax at equally spaced knots of log s, and the
    start is the cubic through the 4 nearest (Lagrange)."""
    knots, xi1s, lxi2s = _diffeo_file("diffeo_path.npy", 3)
    log_s, lo, hi = math.log(s), float(knots[0]), float(knots[-1])
    if not lo <= log_s <= hi:
        return None
    t = (log_s - lo) / ((hi - lo) / (len(knots) - 1))
    k = min(max(int(t) - 1, 0), len(knots) - 4)
    t -= k  # in knot spacings from knot k; the cubic runs through knots k..k+3
    w = (-(t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0, t * (t - 2.0) * (t - 3.0) / 2.0,
         -t * (t - 1.0) * (t - 3.0) / 2.0, t * (t - 1.0) * (t - 2.0) / 6.0)
    return tuple(w[0] * p[0] + w[1] * p[1] + w[2] * p[2] + w[3] * p[3]
                 for p in (xi1s[k:k + 4].tolist(), lxi2s[k:k + 4].tolist()))


def diffeo_bound_sup(delta: float, n: int) -> BoundResult:
    """Maximize the arctan bound over xi1 in [-10, 10], xi2 in [1e-3, 1e4].

    xi2 is searched in log coordinates, on maximize_2d's coarse grid. A cell's bound is
    A / (u + B) in u = (pi / (2 s))^2, s = sqrt(n) delta, so the grid's first maximum is on
    the upper envelope of these curves, or at cell (0, 0), where a scan of 0s (u = inf)
    starts; diffeo_envelope.npy holds those cells in row-major order (flat index, xi2,
    e_ind, e_sq), the sup's scan. Safeguarded Newton refinement on the analytic gradient
    and Hessian runs in (xi1, log xi2) from the argmax path at s (one evaluation), kept
    if it reaches the best coarse value; else, and off the path, from the best coarse cell.
    """
    s, u = _diffeo_u(delta, n)
    flat, xi2, e_ind, e_sq = _diffeo_file("diffeo_envelope.npy", 4)
    scan = _diffeo_ratio(u, xi2, e_ind, e_sq)
    k = int(np.argmax(scan))
    (x1, lx2), value = maximize_2d(
        lambda a, b: diffeo_bound(delta, n, a, math.exp(b), derivatives=True), _DIFFEO_BOX,
        divmod(int(flat[k]), _COARSE_GRID), float(scan[k]), start=_diffeo_start(s))
    return BoundResult(value, {"xi1": x1, "xi2": math.exp(lx2)})


def _newton_root(step, x: float) -> float:
    """x after 8 Newton steps x -= step(x), step(x) = g(x) / g'(x): the root of g to its
    last bits, for a start in the basin of quadratic convergence."""
    for _ in range(8):
        x -= step(x)
    return x


@functools.cache
def _twopoint_argmax() -> float:
    """eps* = sqrt(8 u*), u* the root of -2 + 4 exp(-u) (1 - u): Newton from 0.3."""
    return math.sqrt(8.0 * _newton_root(
        lambda u: (4.0 * math.exp(-u) * (1.0 - u) - 2.0) / (4.0 * math.exp(-u) * (u - 2.0)), 0.3))


def twopoint_bound_sup(delta: float, n: int) -> BoundResult:
    """n-scaled sup of the two-point bound for max(theta,0) under N(theta,1).

    The Hellinger distance depends only on the separation, so the sup over
    pairs reduces to pairs (0, t), where n [(1 - H^2_n)/4] t^2 is
    regular_twopoint_objective(eps) of eps = sqrt(n) t alone. In u = eps^2/8
    it is g(u) = 4u exp(-u) - 2u; g'(u) = -2 + 4 exp(-u) (1 - u) decreases on
    (0, 2) (g'' = 4 exp(-u) (u - 2)) and is negative past u = 1, so g has one
    maximum, at u* ~ 0.315 (eps* ~ 1.5873), and the sup over t in (0, delta)
    is the objective at eps = min(eps*, sqrt(n) delta^-), with argmax t = eps/sqrt(n).
    """
    _check_delta_n(delta, n)
    eps = min(_twopoint_argmax(), math.sqrt(n) * (delta * OPEN_EDGE))
    return BoundResult(max(regular_twopoint_objective(eps), 0.0),
                       {"theta2": eps / math.sqrt(n)})


def two_point_hellinger_bound(family: Family, n: int, f: Functional,
                              theta1: float, theta2: float) -> float:
    """n-scaled refined two-point bound n [(1 - H^2_n)/4]_+ |psi(theta1) - psi(theta2)|^2.

    The squared Hellinger distance is taken at the n-fold product level via
    tensorization; once it reaches 1 the bracket is clamped to the trivial
    lower bound zero. theta1 - theta2, the shift, must not overflow. Both the
    distance and psi's difference read the shift |theta1 - theta2| >= 0 itself,
    the distance at the smaller parameter and the difference down from the larger,
    so the value is the same for either order, and lo + shift is never below lo.
    """
    theta1, theta2 = family.check_theta(theta1, "theta1"), family.check_theta(theta2, "theta2")
    shift = abs(theta1 - theta2)
    if not math.isfinite(shift):
        raise ValueError(f"theta1 - theta2 overflows at theta1={theta1!r}, theta2={theta2!r}")
    h2n = hellinger_sq_iid(family, min(theta1, theta2), shift, n)
    bracket = (1.0 - h2n) / 4.0
    if bracket <= 0.0:
        return 0.0
    dpsi = f.difference(max(theta1, theta2), shift)
    return n * (bracket * dpsi * dpsi)


# method -> its evaluation at its arguments (a value, or a BoundResult), their names, the other
# inputs of evaluate_bound it reads, and its sup where no argument is given (None: it needs them
# all). "sigma" and "alpha" are the family's and the functional's parameters (vt reads the
# Gaussian family's sigma alone); delta sizes a mixture method's default prior. Each lambda
# looks its evaluator up in this module when it runs, as sweep.BOUNDS does
BoundMethod = namedtuple("BoundMethod", "evaluate args reads sup", defaults=(None,))
_MIXTURE_INPUTS = ("family", "sigma", "functional", "alpha", "prior", "delta")
BOUND_METHODS = {
    "vt": BoundMethod(lambda r: vt_kepler_bound(r.delta, r.n, r.family.fisher_info(0.0)), (),
                      ("sigma", "delta")),
    "diffeo": BoundMethod(lambda r: diffeo_bound(r.delta, r.n, r.xi1, r.xi2), ("xi1", "xi2"),
                          ("delta",), lambda r: diffeo_bound_sup(r.delta, r.n)),
    "twopoint": BoundMethod(
        lambda r: two_point_hellinger_bound(r.family, r.n, r.functional, r.theta1, r.theta2),
        ("theta1", "theta2"), ("family", "sigma", "functional", "alpha")),
    "hellinger": BoundMethod(
        lambda r: hellinger_mixture_bound(r.family, r.n, r.prior, r.functional, r.h), ("h",),
        _MIXTURE_INPUTS, lambda r: hellinger_mixture_bound_sup(
            r.family, r.n, r.prior, r.functional, *default_shift_range(r.prior))),
    "chi2": BoundMethod(
        lambda r: chi2_mixture_bound(r.family, r.n, r.prior, r.functional, r.h,
                                     0.0 if r.lam is None else r.lam),
        ("h",), _MIXTURE_INPUTS + ("lam",)),
    "vantrees": BoundMethod(lambda r: van_trees_value(r.family, r.n, r.prior, r.functional), (),
                            _MIXTURE_INPUTS),
}


def evaluate_bound(method: str, n: int, *, family: Family = GaussianLocation(),
                   functional: Functional = MaxZero(), prior: Optional[Prior] = None,
                   delta: float = 1.0, h=None, lam=None, xi1=None, xi2=None, theta1=None,
                   theta2=None) -> BoundResult:
    """The n-scaled bound of a method of BOUND_METHODS as ``minimaxlb bound`` prints it, notes
    included: its sup where it has one and no argument is given, else its value at all of them,
    its argmax. Unread inputs are not looked at; a mixture method given no prior reads
    cosine:0:delta, and chi2 given no lam reads 0."""
    request, entry = SimpleNamespace(**locals()), BOUND_METHODS[method]
    if "prior" in entry.reads and prior is None:  # delta is named as the CLI's option
        check_scale(delta, "--delta", Cosine().fisher_info())
        request.prior = Cosine(0.0, delta)
    given = {k: v for k, v in vars(request).items() if k in entry.args and v is not None}
    if entry.sup and not given:
        return entry.sup(request)
    if len(given) < len(entry.args):
        raise ValueError(f"{method} requires {' and '.join(entry.args)}")
    result = entry.evaluate(request)
    return result if isinstance(result, BoundResult) else BoundResult(result, given)


def regular_twopoint_objective(eps: float) -> float:
    """(-1/4 + exp(-eps^2/8)/2) eps^2, maximized by the regular two-point constant."""
    return (-0.25 + 0.5 * math.exp(-eps * eps / 8.0)) * eps * eps


def uniform_twopoint_objective(eta: float) -> float:
    """4 [-1/4 + exp(-eta)/2]_+ eta^2 from the uniform-model two-point limit."""
    return 4.0 * max(-0.25 + 0.5 * math.exp(-eta), 0.0) * eta * eta


def uniform_diffeo_objective(c: float) -> float:
    """[c / (2 sqrt(2 - 2 exp(-c/2))) - c]_+^2 from the uniform diffeomorphism limit,
    0 for c <= 0 and where c/2 underflows to 0, whose value rounds to 0."""
    if not c / 2.0 > 0.0:
        return 0.0
    bracket = c / (2.0 * math.sqrt(-2.0 * math.expm1(-c / 2.0))) - c
    return bracket * bracket if bracket > 0.0 else 0.0


def _uniform_twopoint_argmax() -> float:
    """eta*, where the derivative 2 eta [exp(-eta) (2 - eta) - 1] of the objective
    (2 exp(-eta) - 1) eta^2 changes sign: the root of log(2 - eta) - eta, whose
    derivative is -(3 - eta) / (2 - eta), by Newton from 0.3."""
    return _newton_root(
        lambda eta: (math.log(2.0 - eta) - eta) * (eta - 2.0) / (3.0 - eta), 0.3)


def _uniform_diffeo_argmax() -> float:
    """c*, the root of b'(c) for the objective's bracket b(c) = c / (2 sqrt(d)) - c,
    d = -2 expm1(-c/2), d' = exp(-c/2): b' = (2 d - c d') / (4 d^1.5) - 1 and
    b'' = d' (3 c d' + c d - 4 d) / (8 d^2.5). Newton from 0.06."""
    def step(c: float) -> float:
        d, dd = -2.0 * math.expm1(-0.5 * c), math.exp(-0.5 * c)
        root = math.sqrt(d)
        slope = (2.0 * d - c * dd) / (4.0 * d * root) - 1.0
        return slope / (dd * (3.0 * c * dd + c * d - 4.0 * d) / (8.0 * d * d * root))
    return _newton_root(step, 0.06)


# name -> the constant's argmax and objective; _twopoint_argmax is cached
LAM_CONSTANTS = {
    "regular_twopoint": (_twopoint_argmax, regular_twopoint_objective),
    "uniform_twopoint": (_uniform_twopoint_argmax, uniform_twopoint_objective),
    "uniform_diffeo": (_uniform_diffeo_argmax, uniform_diffeo_objective),
}


def lam_constant(name: str) -> Tuple[float, float]:
    """(argmax, value) of a scalar constant's objective, its argmax the Newton root of
    the objective's derivative."""
    argmax, objective = LAM_CONSTANTS[name]
    x = argmax()
    return x, objective(x)


@dataclass(frozen=True)
class PolyKernel:
    """Polynomial kernel on [-1, 1]: coeffs are ascending-degree coefficients.

    Valid kernels of order s integrate to one, annihilate the monomials
    u^k for 0 < k < s, and have a finite s-th moment.
    """

    coeffs: Tuple[float, ...]
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("kernel order s must be >= 1")
        if not self.coeffs:
            raise ValueError("kernel needs at least one coefficient")

    def derivative(self, k: int) -> "np.polynomial.Polynomial":
        """The k-th derivative of the kernel; k = 0 is the kernel itself."""
        return np.polynomial.Polynomial(self.coeffs).deriv(k)


def _poly_integral(p: "np.polynomial.Polynomial", lo: float, hi: float) -> float:
    """int_lo^hi p, exactly up to rounding, from the antiderivative."""
    antiderivative = p.integ()
    return float(antiderivative(hi) - antiderivative(lo))


def validate_kernel(kernel: PolyKernel) -> None:
    """Check the kernel moment conditions."""
    k = kernel.derivative(0)
    total = _poly_integral(k, -1.0, 1.0)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"kernel must integrate to 1 on [-1,1]; got {total!r}")
    for j in range(1, kernel.order):
        mk = _poly_integral(k * k.basis(j), -1.0, 1.0)
        if abs(mk) > 1e-8:
            raise ValueError(f"kernel moment of order {j} must vanish; got {mk!r}")


def density_lam_constant(s: int, M: float, kernel: PolyKernel) -> float:
    """The density-estimation constant C(s, M, K).

    Every kernel integral is exact polynomial algebra: |u|^s K is u^s K
    times (-1)^s below 0, and int |K^(s)| sums |K^(s-1)(r') - K^(s-1)(r)|
    between the real roots of K^(s) in (-1, 1) and the ends.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if not (M > 0 and math.isfinite(M)):
        raise ValueError("M must be positive and finite")
    if kernel.order != s:
        raise ValueError(f"kernel order {kernel.order} does not match s={s}")
    validate_kernel(kernel)

    deriv = kernel.derivative(s)
    ks0 = float(deriv(0.0))
    if abs(ks0) < 1e-12:
        raise DegenerateKernelError(
            "the kernel's s-th derivative vanishes at 0; C(s, M, K) is undefined")
    ks0 = abs(ks0)

    k = kernel.derivative(0)
    k_sq = _poly_integral(k * k, -1.0, 1.0)
    u_s_k = k * k.basis(s)
    m_s = (_poly_integral(u_s_k, 0.0, 1.0) + (-1) ** s * _poly_integral(u_s_k, -1.0, 0.0)
           ) / math.factorial(s - 1)
    roots = [float(r.real) for r in deriv.roots()
             if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0]
    steps = kernel.derivative(s - 1)(np.array(cut_points(-1.0, 1.0, roots)))
    k_ds_abs = float(np.abs(np.diff(steps)).sum())

    exponent = 2.0 * s / (2.0 * s + 1.0)
    prefactor = (8.0 * s**exponent / (4.0 + 8.0 * s)
                 * _PI ** (-2.0 / (2.0 * s + 1.0))
                 * (ks0 / M) ** (2.0 * exponent)
                 * k_sq ** exponent)
    bracket = (M * k_sq / ks0
               - math.sqrt(_PI * _PI * (4.0 + 8.0 * s))
               * abs(m_s) * (1.0 + M * k_ds_abs / ks0))
    if bracket <= 0.0:
        return 0.0
    return prefactor * bracket * bracket
