"""Deterministic special functions, quadrature, root finding, and
derivative-free optimization shared by the rest of the package.

Everything here is a pure function of its inputs: no randomness, no global
state, bit-reproducible across runs. Optimizers are coarse-grid scans with
local refinement, so they only promise the best *found* value, never a
global-optimality certificate.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618..., inverse golden ratio


class BracketError(ValueError):
    """No sign change on the supplied bracket."""


class ToleranceNotMet(RuntimeError):
    """A quadrature rule exhausted its depth or panel budget.

    Carries the best estimate obtained so far in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive Simpson integrator."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_depth: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("abs_tol and rel_tol must be positive")
        if self.max_depth < 10:
            raise ValueError("max_depth must be at least 10")


DEFAULT_QUAD = QuadratureSpec()


# coarse grid points per axis, and refinement steps, of the optimizers
_COARSE_GRID = 64
_REFINE_ITERS = 200


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned search region for the derivative-free optimizers."""

    intervals: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"interval ({lo}, {hi}) must satisfy lo < hi")


def math_for(x):
    """numpy for an ndarray, else math: one formula, with math's rounding for scalars."""
    return np if isinstance(x, np.ndarray) else math


def float_or_array(x):
    """x as a Python float when it is a scalar, else as a float ndarray."""
    return float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)


def check_n(n: int) -> int:
    """The sample-size rule: a positive integer within the float range."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > sys.float_info.max:
        raise ValueError("n is too large: --n must be at most about 1.8e308")
    return int(n)


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi)."""
    x = _require_finite(x, "x")
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x/sqrt(2))/2, accurate to ~1 ulp over the whole line.
    """
    x = _require_finite(x, "x")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaussian_partial_second_moment(c: float) -> float:
    """E[Z^2 1{Z >= c}] for standard normal Z, in closed form.

    Integration by parts gives c*phi(c) + 1 - Phi(c). Accepts +-inf
    sentinels: c = -inf yields the full second moment 1, c = +inf yields 0.
    """
    c = float(c)
    if math.isnan(c):
        raise ValueError("c must not be NaN")
    if c == -math.inf:
        return 1.0
    if c == math.inf:
        return 0.0
    return c * normal_pdf(c) + 1.0 - normal_cdf(c)


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Adaptive Simpson integral of ``f`` over [a, b].

    Deterministic recursion with per-subinterval tolerance splitting; raises
    ToleranceNotMet (carrying the best estimate) if max_depth is exhausted.
    """
    a = _require_finite(a, "a")
    b = _require_finite(b, "b")
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0

    def ev(x: float) -> float:
        y = float(f(x))
        if not math.isfinite(y):
            raise ValueError(f"integrand returned non-finite value at x={x!r}")
        return y

    failed = False

    def rec(lo: float, hi: float, flo: float, fmid: float, fhi: float,
            whole: float, tol: float, depth: int) -> float:
        nonlocal failed
        m = 0.5 * (lo + hi)
        lm = 0.5 * (lo + m)
        rm = 0.5 * (m + hi)
        flm = ev(lm)
        frm = ev(rm)
        left = _simpson(flo, flm, fmid, lo, m)
        right = _simpson(fmid, frm, fhi, m, hi)
        err = left + right - whole
        if abs(err) <= 15.0 * tol or (hi - lo) <= abs(m) * 1e-15:
            return left + right + err / 15.0
        if depth <= 0:
            failed = True
            return left + right + err / 15.0
        half = 0.5 * tol
        return (rec(lo, m, flo, flm, fmid, left, half, depth - 1)
                + rec(m, hi, fmid, frm, fhi, right, half, depth - 1))

    fa, fm, fb = ev(a), ev(0.5 * (a + b)), ev(b)
    whole = _simpson(fa, fm, fb, a, b)
    # effective target: the looser of the absolute tolerance and the
    # relative one anchored at the crude whole-interval estimate
    tol = max(spec.abs_tol, spec.rel_tol * abs(whole))
    result = rec(a, b, fa, fm, fb, whole, tol, spec.max_depth)
    if failed:
        raise ToleranceNotMet(
            f"adaptive Simpson on [{a}, {b}] exhausted max_depth="
            f"{spec.max_depth}", result)
    return result


def find_root_bisect(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-13
) -> float:
    """Bisection root on [lo, hi]; requires f(lo)*f(hi) <= 0.

    Returns the midpoint of the final bracket of width <= tol. The flat
    endpoints of monotone maps are harmless: the bracket still shrinks.
    """
    lo = _require_finite(lo, "lo")
    hi = _require_finite(hi, "hi")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if lo > hi:
        raise ValueError("bracket must satisfy lo <= hi")
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at floating-point resolution
            break
        fmid = float(f(mid))
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, iters: int
) -> Tuple[float, float]:
    """Golden-section search for a maximum on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = float(f(c)), float(f(d))
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if b - a <= 1e-14 * max(1.0, abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = float(f(d))
        if fc >= best_v:
            best_x, best_v = c, fc
        if fd >= best_v:
            best_x, best_v = d, fd
    return best_x, best_v


def coarse_axis(lo: float, hi: float, count: int = _COARSE_GRID) -> np.ndarray:
    """The optimizers' coarse grid on [lo, hi]: maximize_1d scans it, and
    maximize_2d scans the product of the box's two axes."""
    return np.linspace(lo, hi, count)


def maximize_1d(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    coarse_grid: int = _COARSE_GRID,
    coarse: Optional[np.ndarray] = None,
) -> Tuple[float, float]:
    """Coarse grid scan plus golden-section refinement around the best cell.

    Returns (argmax, max) of the best point found; the result is never below
    the best coarse-grid value. Deterministic. ``coarse``, when given, holds
    f's values on ``coarse_axis(lo, hi, coarse_grid)`` and replaces the
    scan's calls to f; the first maximum wins either way.
    """
    lo = _require_finite(lo, "lo")
    hi = _require_finite(hi, "hi")
    if not lo < hi:
        raise ValueError("maximize_1d requires lo < hi")
    if coarse_grid < 3:
        raise ValueError("coarse_grid must be at least 3")
    xs = coarse_axis(lo, hi, coarse_grid)
    if coarse is None:
        vals = [float(f(x)) for x in xs]
    else:
        vals = _coarse_values(coarse, xs.shape).tolist()
    i = max(range(coarse_grid), key=lambda k: vals[k])
    best_x, best_v = float(xs[i]), vals[i]
    bl = float(xs[max(i - 1, 0)])
    br = float(xs[min(i + 1, coarse_grid - 1)])
    if br > bl:
        gx, gv = _golden_max(f, bl, br, _REFINE_ITERS)
        if gv >= best_v:
            best_x, best_v = gx, gv
    return best_x, best_v


def _coarse_values(coarse: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    coarse = np.asarray(coarse, dtype=float)
    if coarse.shape != shape:
        raise ValueError(f"coarse values have shape {coarse.shape}; the coarse grid "
                         f"needs {shape}")
    return coarse


def maximize_2d(
    f: Callable[[float, float], float],
    box: SearchBox,
    coarse: Optional[np.ndarray] = None,
) -> Tuple[Tuple[float, float], float]:
    """Coarse grid scan plus compass (pattern) search with shrinking steps.

    Returns ((x, y), max) of the best point found inside the box. ``coarse``,
    when given, holds f(xs[i], ys[j]) in entry [i, j], where xs and ys are the
    ``coarse_axis`` of the box's intervals, and replaces the scan's calls to
    f; the first maximum in row-major order wins either way, and a NaN never
    does. The refinement always calls f.
    """
    if len(box.intervals) != 2:
        raise ValueError("maximize_2d needs a two-axis SearchBox")
    (xlo, xhi), (ylo, yhi) = box.intervals
    xs, ys = coarse_axis(xlo, xhi), coarse_axis(ylo, yhi)
    if coarse is None:
        coarse = [[float(f(x, y)) for y in ys] for x in xs]
    coarse = _coarse_values(coarse, (len(xs), len(ys)))
    # a NaN never wins, and an all-NaN or all -inf scan starts at the first
    # point with -inf, as in a scan that keeps the first strictly larger value
    scan = np.where(np.isnan(coarse), -np.inf, coarse)
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    best_x, best_y, best_v = float(xs[i]), float(ys[j]), float(scan[i, j])
    step_x = (xhi - xlo) / (_COARSE_GRID - 1)
    step_y = (yhi - ylo) / (_COARSE_GRID - 1)
    for _ in range(_REFINE_ITERS):
        moved = False
        for dx, dy in ((step_x, 0.0), (-step_x, 0.0), (0.0, step_y), (0.0, -step_y)):
            cx = min(max(best_x + dx, xlo), xhi)
            cy = min(max(best_y + dy, ylo), yhi)
            v = float(f(cx, cy))
            if v > best_v:
                best_x, best_y, best_v = cx, cy, v
                moved = True
        if not moved:
            step_x *= 0.5
            step_y *= 0.5
            if step_x < 1e-14 * max(1.0, abs(best_x)) and \
               step_y < 1e-14 * max(1.0, abs(best_y)):
                break
    return (best_x, best_y), best_v


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over equally spaced samples (odd count)."""
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number >= 3 of samples")
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum()
                            + 2.0 * values[2:-1:2].sum()))


def split_interval(lo: float, hi: float, cuts: Sequence[float]) -> Tuple[Tuple[float, float], ...]:
    """Partition [lo, hi] at the interior cut points, sorted and deduplicated."""
    pts = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return tuple((pts[i], pts[i + 1]) for i in range(len(pts) - 1))


def integrate_piecewise(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    cuts: Sequence[float] = (),
    min_panels: int = 1,
) -> float:
    """Adaptive Simpson on [lo, hi] split at the given kink locations.

    min_panels > 1 additionally pre-splits the range uniformly so that
    localized mass far from the interval midpoint cannot hide from the
    initial Simpson stencil.
    """
    if hi <= lo:
        return 0.0
    all_cuts = list(cuts)
    if min_panels > 1:
        all_cuts.extend(np.linspace(lo, hi, min_panels + 1)[1:-1])
    return sum(integrate_adaptive(f, a, b) for a, b in split_interval(lo, hi, all_cuts))


PANEL_NODES = 16          # Gauss-Legendre nodes per panel
_FIRST_PANELS, _MAX_PANELS, _PANEL_REL_TOL, _MAX_FLOOR = 4, 1024, 1e-12, 1e-3
_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(PANEL_NODES))


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     cuts: Sequence[float] = (), shift: float = math.inf):
    """Gauss-Legendre integral of the vectorized ``f`` over [lo, hi] cut at ``cuts``.

    Each piece between cuts gets P equal panels of PANEL_NODES nodes. f takes
    all nodes as one array and returns a value per node, or rows of them (the
    result is then an array). P doubles from 4 until two estimates agree to
    1e-12 of sum |f| w (so zero and cancelling integrals end too); the finer
    one is returned. An f that reads t + shift keeps only 2^-52 |t| / |shift|
    of relative accuracy, so the tolerance is then at least 2^-50 max(|lo|,
    |hi|) / |shift|. Raises ToleranceNotMet (with the last estimate) past 1024
    panels per piece or that floor past 1e-3, and ValueError on a non-finite f.
    """
    lo, hi = _require_finite(lo, "lo"), _require_finite(hi, "hi")
    if not lo < hi:
        raise ValueError("integration bounds must satisfy lo < hi")
    rel_tol = max(_PANEL_REL_TOL, 2.0**-50 * max(abs(lo), abs(hi)) / abs(shift))
    if rel_tol > _MAX_FLOOR:
        raise ToleranceNotMet(f"t + {shift!r} cannot resolve the shift on [{lo}, {hi}]", math.nan)
    x, w = _legendre()
    ends = np.array(split_interval(lo, hi, cuts))
    panels, previous = _FIRST_PANELS, None
    while True:
        edges = ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * np.linspace(0.0, 1.0, panels + 1)
        half = 0.5 * np.diff(edges, axis=1)[..., None]
        nodes = ((edges[:, :-1, None] + half) + half * x).ravel()
        values = np.asarray(f(nodes), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"integrand returned a non-finite value on [{lo}, {hi}]")
        terms = values * (half * w).ravel()
        estimate = terms.sum(axis=-1)
        if previous is not None and np.all(
                np.abs(estimate - previous) <= rel_tol * np.abs(terms).sum(axis=-1)):
            return float_or_array(estimate)
        if panels >= _MAX_PANELS:
            raise ToleranceNotMet(f"Gauss-Legendre panels on [{lo}, {hi}] did not converge "
                                  f"with {panels} panels per piece", float_or_array(estimate))
        panels, previous = 2 * panels, estimate
