"""Lower-bound evaluators: the mixture Hellinger and chi-squared bounds, the
Kepler least-favorable-prior bound, the Gaussian-prior/arctan bound, the
refined two-point Hellinger bound, the scalar asymptotic constants, and the
density-estimation constant C(s, M, K).

Conventions. All bound values are >= 0 with exact clamping at zero. The
Kepler and arctan bounds and the two-point sup are returned n-scaled (they
bound n E|T - max(theta,0)|^2), matching the figure axes; the mixture and
fixed-pair two-point bounds are un-scaled (they bound E|T - psi|^2 for the full
n-observation experiment).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .mixtures import (GridSpec, MixtureSpec, default_grid,
                       mixture_chi_sq, mixture_chi_sq_interpolated_grid,
                       mixture_hellinger_sq)
from .models import Family, GaussianLocation, hellinger_sq_iid
from .numerics import (SearchBox, check_n, coarse_axis, composite_simpson, float_or_array,
                       integrate_panels, integrate_piecewise, maximize_1d, maximize_2d)
from .priors import Prior, check_scale, prior_density, solve_kepler

_PI = math.pi
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_Z_MAX = 12.0  # standard normal mass beyond is ~1e-33
_SIMPSON_NODES = 2049


class DegenerateKernelError(ValueError):
    """The kernel's s-th derivative vanishes at zero; C(s, M, K) undefined."""


class Functional:
    """A functional psi of the parameter: ``psi(theta)`` for a float or an
    ndarray, the quadrature cuts of psi(t) - psi(t - h) (``cuts(h)``), and
    the van Trees numerator ``slope_mass(prior)`` = int psi' dQ."""

    def cuts(self, h: float, width: float) -> Tuple[float, ...]:
        """The kink of psi at 0 and its shift by h, on a window of this width."""
        return (0.0, h)


@dataclass(frozen=True)
class Identity(Functional):
    """psi(theta) = theta."""

    def __call__(self, theta):
        return float_or_array(theta)

    def cuts(self, h: float, width: float) -> Tuple[float, ...]:
        return ()

    def slope_mass(self, prior: Prior) -> float:
        return 1.0


@dataclass(frozen=True)
class MaxZero(Functional):
    """psi(theta) = max(theta, 0).

    Its a.e. derivative is the indicator 1{theta > 0} (the kink at 0 has
    prior measure zero).
    """

    def __call__(self, theta):
        return np.maximum(theta, 0.0) if isinstance(theta, np.ndarray) else max(float(theta), 0.0)

    def slope_mass(self, prior: Prior) -> float:
        lo, hi = prior.window()
        return 0.0 if hi <= 0.0 else integrate_piecewise(
            lambda t: prior_density(prior, t), max(lo, 0.0), hi, min_panels=8)


@dataclass(frozen=True)
class PowerMax(Functional):
    """psi(theta) = max(theta^alpha, 0) = theta^alpha for theta > 0, else 0."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")

    def __call__(self, theta):
        return float_or_array(np.maximum(theta, 0.0) ** self.alpha)

    def cuts(self, h: float, width: float) -> Tuple[float, ...]:
        """For alpha < 1 also kink + s 2^j, s = min(|h|, width), from 2^-40 s to the width."""
        step = min(abs(h), width) or width
        top = math.ceil(math.log2(width) - math.log2(step))
        grade = range(-40, top + 1) if self.alpha < 1.0 else ()
        return (0.0, h) + tuple(k + step * 2.0 ** j for k in (0.0, h) for j in grade)

    def slope_mass(self, prior: Prior) -> float:
        """Integrated via u = t^alpha, which removes the t^(alpha-1) singularity."""
        _, hi = prior.window()
        return 0.0 if hi <= 0.0 else integrate_piecewise(
            lambda u: prior_density(prior, u ** (1.0 / self.alpha)),
            0.0, hi ** self.alpha, min_panels=8)


@dataclass(frozen=True)
class BoundResult:
    """A non-negative bound value, the optimizer arguments, and a method tag."""

    value: float
    argmax: Dict[str, float] = field(default_factory=dict)
    method: str = ""

    def scaled(self, n: int) -> "BoundResult":
        """The same bound on n E|T - psi|^2, the unit of the figure and the CLI."""
        return BoundResult(n * self.value, self.argmax, self.method)


def _require_nice(prior: Prior) -> None:
    report = prior.check_nice()
    if not report.is_nice:
        raise ValueError("prior is not nice: " + "; ".join(report.reasons))


def _check_delta_n(delta: float, n: int) -> None:
    check_scale(delta)
    check_n(n)


def delta_psi_moments(prior: Prior, f: Functional, h: float) -> Tuple[float, float]:
    """First and second prior moments of psi(t) - psi(t - h), both from one
    quadrature over the prior window cut at ``f.cuts(h)``, where it is not smooth."""
    lo, hi = prior.window()

    def moments(t: np.ndarray) -> np.ndarray:
        dpsi, q = f(t) - f(t - h), prior_density(prior, t)
        return np.stack((dpsi * q, dpsi * dpsi * q))

    return tuple(float(m) for m in integrate_panels(moments, lo, hi, f.cuts(h, hi - lo), shift=h))


def hellinger_mixture_terms(family: Family, n: int, prior: Prior, f: Functional,
                            h: float) -> Tuple[float, float]:
    """The pair (A, B) of the Hellinger mixture bound.

    A = |int (psi(t) - psi(t-h)) dQ|^2 / (4 H^2(M0, Mh)) is the term that
    recovers the van Trees value as h -> 0; B = int (psi(t)-psi(t-h))^2 dQ
    is the finite-shift penalty.
    """
    _require_nice(prior)
    h = float(h)
    if h == 0.0:
        raise ValueError("h must be nonzero")
    h2 = mixture_hellinger_sq(MixtureSpec(family, n, prior, h))
    if h2 < 1e-14:
        raise ValueError(f"mixture Hellinger distance degenerate (H^2={h2!r}) at h={h}")
    num, second = delta_psi_moments(prior, f, h)
    return num * num / (4.0 * h2), second


def hellinger_mixture_bound(family: Family, n: int, prior: Prior, f: Functional,
                            h: float) -> float:
    """Hellinger mixture bound [sqrt(A) - sqrt(B)]_+^2 at a fixed shift h."""
    a, b = hellinger_mixture_terms(family, n, prior, f, h)
    root = math.sqrt(a) - math.sqrt(b)
    return root * root if root > 0.0 else 0.0


def hellinger_mixture_bound_sup(family: Family, n: int, prior: Prior, f: Functional,
                                h_lo: float, h_hi: float) -> BoundResult:
    """Maximize the Hellinger mixture bound over |h| in [h_lo, h_hi], both signs."""
    if not (0.0 < h_lo < h_hi):
        raise ValueError("need 0 < h_lo < h_hi")

    def for_sign(sign: float) -> Tuple[float, float]:
        return maximize_1d(
            lambda h: hellinger_mixture_bound(family, n, prior, f, sign * h),
            h_lo, h_hi)

    hp, vp = for_sign(1.0)
    hm, vm = for_sign(-1.0)
    if vp >= vm:
        return BoundResult(max(vp, 0.0), {"h": hp}, "hellinger-mixture")
    return BoundResult(max(vm, 0.0), {"h": -hm}, "hellinger-mixture")


def default_shift_range(prior: Prior) -> Tuple[float, float]:
    """Default |h| search window scaled by the prior's dispersion."""
    scale = prior.dispersion()
    return 1e-4 * scale, 10.0 * scale


def chi2_mixture_bound(family: Family, n: int, prior: Prior, f: Functional,
                       h: float, lam: float, grid: Optional[GridSpec] = None) -> float:
    """Chi-squared mixture bound with the closed-form inner optimization.

    Evaluates [sqrt((1-lam){A - lam(A+B)}) - sqrt(lam^2 B)]_+^2 where A has
    the lambda-interpolated chi-squared denominator and B is the second
    shift moment; the value is zero when (1-lam)^2 A <= lam B. At lam = 0
    this reduces to A = |int dpsi dQ|^2 / chi^2(Mh||M0) (the mixture HCR
    form), computed by the decomposition path for any n; a Divergent
    denominator yields the trivial bound 0. For 0 < lam < 1 the denominator
    has no tensorization identity and is evaluated on a 2-D grid at n = 1
    only (API restriction).
    """
    h = float(h)
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    if h == 0.0:
        raise ValueError("h must be nonzero")
    if lam == 1.0:
        return 0.0
    num, second = delta_psi_moments(prior, f, h)
    if num == 0.0:
        return 0.0
    if lam == 0.0:
        denom = mixture_chi_sq(MixtureSpec(family, n, prior, h))
        if denom.is_divergent or denom.value <= 0.0:
            return 0.0
        return num * num / denom.value
    if n != 1:
        raise ValueError("lambda > 0 requires n = 1: the interpolated "
                         "chi-squared has no tensorization identity")
    if grid is None:
        grid = default_grid(family, prior, h)
    denom = mixture_chi_sq_interpolated_grid(family, prior, h, lam, grid)
    if denom <= 0.0:
        return 0.0
    a = num * num / denom
    b = second
    if (1.0 - lam) ** 2 * a <= lam * b:
        return 0.0
    root = math.sqrt((1.0 - lam) * (a - lam * (a + b))) - lam * math.sqrt(b)
    return root * root if root > 0.0 else 0.0


def van_trees_value(family: Family, n: int, prior: Prior, f: Functional) -> float:
    """Classical van Trees value (int grad psi dQ)^2 / (I(Q) + n int I dQ).

    Requires a regular (Gaussian) family and a nice prior; the numerator
    is the functional's ``slope_mass``.
    """
    if not isinstance(family, GaussianLocation):
        raise ValueError("van Trees value requires the Gaussian family "
                         "(uniform family has divergent Fisher information)")
    check_n(n)
    _require_nice(prior)
    num = f.slope_mass(prior)
    denom = prior.fisher_info().value + n / family.sigma ** 2
    return num * num / denom


def _vt_kepler_ratio(delta: float, n: int, sup_fisher: float, a, min_fisher):
    """The Kepler bound's objective at mass a, for scalars or arrays alike."""
    return n * a * a / (min_fisher / delta**2 + n * sup_fisher)


@functools.cache
def _kepler_coarse_fisher() -> np.ndarray:
    """solve_kepler(a).min_fisher on maximize_1d's coarse grid of a in [0, 1]:
    the (delta, n)-free part of the Kepler bound's scan, built once per process
    and read-only, since every caller shares it."""
    table = np.array([solve_kepler(float(a)).min_fisher for a in coarse_axis(0.0, 1.0)])
    table.flags.writeable = False
    return table


def vt_kepler_bound(delta: float, n: int, sup_fisher: float) -> BoundResult:
    """n-scaled Kepler bound: max over a in [0,1] of
    n a^2 / (4 pi^2 delta^-2 / w_a^2 + n sup_fisher).

    The numerator mass constraint a selects a least-favorable constrained
    cosine prior whose minimum Fisher information 4 pi^2 / w_a^2 enters the
    denominator after dilation to the delta-neighborhood. The coarse scan
    reads the cached Fisher table; the refinement solves the Kepler equation.
    """
    _check_delta_n(delta, n)
    if not (sup_fisher > 0 and math.isfinite(sup_fisher)):
        raise ValueError("sup_fisher must be positive and finite")

    def objective(a: float) -> float:
        sol = solve_kepler(min(max(a, 0.0), 1.0))
        return _vt_kepler_ratio(delta, n, sup_fisher, a, sol.min_fisher)

    with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float arithmetic
        coarse = _vt_kepler_ratio(delta, n, sup_fisher, coarse_axis(0.0, 1.0),
                                  _kepler_coarse_fisher())
    a_best, value = maximize_1d(objective, 0.0, 1.0, coarse=coarse)
    return BoundResult(max(value, 0.0), {"a": a_best}, "vt-kepler")


def _phi_vec(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _gauss_expectation_simpson(f_vec, lo: float, hi: float) -> float:
    """int_lo^hi f(z) phi(z) dz by composite Simpson on a fixed node count.

    Used for the arctan-bound integrands: they are bounded rational
    functions whose poles sit 1/xi2 off the real axis, where Gauss-Hermite
    rules lose accuracy badly for large xi2; a dense Simpson rule on the
    12-sigma window is uniformly accurate (~1e-10) and equally deterministic.
    """
    if lo >= hi:
        return 0.0
    zs = np.linspace(lo, hi, _SIMPSON_NODES)
    vals = f_vec(zs) * _phi_vec(zs)
    return composite_simpson(vals, (hi - lo) / (_SIMPSON_NODES - 1))


DIFFEO_XI1_RANGE = (-10.0, 10.0)
DIFFEO_XI2_RANGE = (1e-3, 10.0)
_DIFFEO_BOX = SearchBox(intervals=(DIFFEO_XI1_RANGE, (math.log(DIFFEO_XI2_RANGE[0]),
                                                      math.log(DIFFEO_XI2_RANGE[1]))))


def _diffeo_moments(xi1: float, xi2: float) -> Tuple[float, float]:
    """E[g(Z) 1{Z > -xi1/xi2}] and E[g(Z)^2] for g(z) = (1 + (xi1 + z xi2)^2)^-1.

    The indicator expectation integrates from the kink upward only.
    """
    def g(z: np.ndarray) -> np.ndarray:
        u = xi1 + z * xi2
        return 1.0 / (1.0 + u * u)

    cut = -xi1 / xi2
    e_ind = _gauss_expectation_simpson(g, max(cut, -_Z_MAX), _Z_MAX)
    e_sq = _gauss_expectation_simpson(lambda z: g(z) ** 2, -_Z_MAX, _Z_MAX)
    return e_ind, e_sq


def _diffeo_ratio(delta: float, n: int, xi2, e_ind, e_sq):
    """The diffeo bound from its moments, for scalars or arrays alike."""
    scale = 4.0 * n * xi2 * xi2
    return scale * e_ind * e_ind / (_PI * _PI / delta**2 + scale * e_sq)


def diffeo_bound(delta: float, n: int, xi1: float, xi2: float) -> float:
    """Gaussian-prior/arctan bound at fixed (xi1, xi2), n-scaled.

    With g(z) = (1 + (xi1 + z xi2)^2)^-1:

        4 n xi2^2 |E[g(Z) 1{Z > -xi1/xi2}]|^2
        -------------------------------------- .
        pi^2 delta^-2 + 4 n xi2^2 E[g(Z)^2]

    The xi2^2 factor multiplies both the numerator and the E[g^2] term:
    both sides of the underlying ratio scale by 4 sigma^2/eta^2 = 4 xi2^2,
    which keeps the whole expression below the sigma^2 = 1 ceiling.
    """
    _check_delta_n(delta, n)
    if not (xi2 > 0 and math.isfinite(xi2)):
        raise ValueError("xi2 must be positive and finite")
    xi1 = float(xi1)
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = _DIFFEO_BOX.intervals
    # xi2 is compared in the sup's log coordinate, where exp(log 10) passes
    if not (x1_lo <= xi1 <= x1_hi and lx2_lo <= math.log(xi2) <= lx2_hi):
        name, x, (lo, hi) = (("xi1", xi1, DIFFEO_XI1_RANGE) if not x1_lo <= xi1 <= x1_hi
                             else ("xi2", xi2, DIFFEO_XI2_RANGE))
        raise ValueError(f"{name}={x!r} lies outside [{lo:g}, {hi:g}], the range "
                         "where the diffeo bound's quadrature is validated")
    e_ind, e_sq = _diffeo_moments(xi1, xi2)
    return max(_diffeo_ratio(delta, n, xi2, e_ind, e_sq), 0.0)


@functools.cache
def _diffeo_moment_table() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xi2, e_ind and e_sq on maximize_2d's coarse grid over the diffeo box:
    the (delta, n)-free part of the sup's scan, built once per process on
    first use and read-only, since every caller shares it. Entry [i, j] is
    at (xi1s[i], exp(log_xi2s[j])), from the same scalar calls that
    diffeo_bound makes there."""
    xi1s, log_xi2s = (coarse_axis(lo, hi) for lo, hi in _DIFFEO_BOX.intervals)
    xi2s = [math.exp(b) for b in log_xi2s]
    table = np.array([[(xi2, *_diffeo_moments(float(a), xi2)) for xi2 in xi2s]
                      for a in xi1s])
    table.flags.writeable = False
    return table[..., 0], table[..., 1], table[..., 2]


def diffeo_bound_sup(delta: float, n: int) -> BoundResult:
    """Maximize the arctan bound over xi1 in [-10, 10], xi2 in (1e-3, 10].

    The xi2 axis is searched in log coordinates, giving the log-spaced
    coarse grid; pattern-search refinement then runs in (xi1, log xi2). The
    coarse scan reads the cached moment table; the refinement calls
    diffeo_bound.
    """
    _check_delta_n(delta, n)
    xi2, e_ind, e_sq = _diffeo_moment_table()
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float arithmetic
        coarse = np.maximum(_diffeo_ratio(delta, n, xi2, e_ind, e_sq), 0.0)
    (x1, lx2), value = maximize_2d(
        lambda a, b: diffeo_bound(delta, n, a, math.exp(b)), _DIFFEO_BOX, coarse)
    return BoundResult(max(value, 0.0), {"xi1": x1, "xi2": math.exp(lx2)},
                       "diffeo")


def twopoint_bound_sup(delta: float, n: int) -> BoundResult:
    """n-scaled sup of the two-point bound for max(theta,0) under N(theta,1).

    The Hellinger distance depends only on the separation, so the supremum
    over pairs reduces to pairs (0, t); the bracket is positive only for
    t sqrt(n) below sqrt(8 log 2), which sizes the search window.
    """
    _check_delta_n(delta, n)
    fam = GaussianLocation(1.0)
    f = MaxZero()
    t_max = min(delta * (1.0 - 1e-12), 3.0 / math.sqrt(n))
    t_best, value = maximize_1d(
        lambda t: n * two_point_hellinger_bound(fam, n, f, 0.0, t),
        t_max * 1e-6, t_max)
    return BoundResult(max(value, 0.0), {"theta2": t_best}, "twopoint")


def two_point_hellinger_bound(family: Family, n: int, f: Functional,
                              theta1: float, theta2: float) -> float:
    """Refined two-point bound [(1 - H^2_n)/4]_+ |psi(theta1) - psi(theta2)|^2.

    The squared Hellinger distance is taken at the n-fold product level via
    tensorization; once it reaches 1 the bracket is clamped to the trivial
    lower bound zero.
    """
    h2n = hellinger_sq_iid(family, theta1, theta2, n)
    bracket = (1.0 - h2n) / 4.0
    if bracket <= 0.0:
        return 0.0
    dpsi = f(theta1) - f(theta2)
    return bracket * dpsi * dpsi


def regular_twopoint_objective(eps: float) -> float:
    """(-1/4 + exp(-eps^2/8)/2) eps^2, maximized by the regular two-point constant."""
    return (-0.25 + 0.5 * math.exp(-eps * eps / 8.0)) * eps * eps


def uniform_twopoint_objective(eta: float) -> float:
    """4 [-1/4 + exp(-eta)/2]_+ eta^2 from the uniform-model two-point limit."""
    return 4.0 * max(-0.25 + 0.5 * math.exp(-eta), 0.0) * eta * eta


def uniform_diffeo_objective(c: float) -> float:
    """[c / (2 sqrt(2 - 2 exp(-c/2))) - c]_+^2 from the uniform diffeomorphism limit."""
    if c <= 0.0:
        return 0.0
    denom = 2.0 * math.sqrt(-2.0 * math.expm1(-c / 2.0))
    bracket = c / denom - c
    return bracket * bracket if bracket > 0.0 else 0.0


LAM_CONSTANTS = {
    "regular_twopoint": (regular_twopoint_objective, 0.0, 10.0),
    "uniform_twopoint": (uniform_twopoint_objective, 0.0, 10.0),
    "uniform_diffeo": (uniform_diffeo_objective, 1e-9, 10.0),
}


def lam_constant(name: str) -> Tuple[float, float]:
    """(argmax, value) of a scalar constant's objective over its search interval."""
    objective, lo, hi = LAM_CONSTANTS[name]
    return maximize_1d(objective, lo, hi)


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

    def __call__(self, u: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def derivative(self, k: int) -> "np.polynomial.Polynomial":
        return np.polynomial.Polynomial(self.coeffs).deriv(k)


def validate_kernel(kernel: PolyKernel) -> None:
    """Check the kernel moment conditions by quadrature."""
    total = integrate_piecewise(kernel, -1.0, 1.0)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"kernel must integrate to 1 on [-1,1]; got {total!r}")
    for k in range(1, kernel.order):
        mk = integrate_piecewise(lambda u, k=k: u**k * kernel(u), -1.0, 1.0, (0.0,))
        if abs(mk) > 1e-8:
            raise ValueError(f"kernel moment of order {k} must vanish; got {mk!r}")


def density_lam_constant(s: int, M: float, kernel: PolyKernel) -> float:
    """The density-estimation constant C(s, M, K).

    All kernel integrals are evaluated by quadrature (with splits at the
    kinks of |u|^s and at the sign changes of the s-th derivative); the
    polynomial derivatives are analytic.
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

    k_sq = integrate_piecewise(lambda u: kernel(u) ** 2, -1.0, 1.0)
    m_s = integrate_piecewise(lambda u: kernel(u) * abs(u) ** s,
                              -1.0, 1.0, (0.0,)) / math.factorial(s - 1)
    roots = [float(r.real) for r in deriv.roots()
             if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0]
    k_ds_abs = integrate_piecewise(lambda u: abs(float(deriv(u))), -1.0, 1.0, roots)

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
