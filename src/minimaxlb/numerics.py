"""Deterministic special functions, quadrature, root finding, and
optimization shared by the rest of the package.

Everything here is a pure function of its inputs: no randomness, no global
state, bit-reproducible across runs. Optimizers are coarse-grid scans with
local refinement, by safeguarded Newton steps on the gradient and Hessian or,
without derivatives, by golden-section search, so they only promise the best
*found* value, never a global-optimality certificate.
"""
from __future__ import annotations

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


# coarse grid points per axis and golden-section steps of the optimizers; the
# Newton refinement's budget, stationary gradient norm and resolution, relative to the value
_COARSE_GRID = 64
_REFINE_ITERS = 200
_NEWTON_EVALS, _STATIONARY, _RESOLUTION = 100, 1e-10, 2.0**-50


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned search region of maximize_2d: its coarse grid and the box
    that clamps the Newton refinement."""

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


def _require_finite(x, name: str):
    """x as a float, or as a float ndarray taken elementwise; every entry must be finite."""
    if isinstance(x, np.ndarray) and x.ndim:
        if not np.isfinite(x).all():
            raise ValueError(f"every {name} must be finite")
        return x.astype(float, copy=False)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def normal_pdf(x):
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi); over an ndarray,
    math.exp of each entry (np.exp may round differently), as the scalar calls."""
    x = _require_finite(x, "x")
    if isinstance(x, float):
        return math.exp(-0.5 * x * x) / _SQRT_2PI
    with np.errstate(over="ignore"):  # x * x = inf, and exp(-inf) = 0 as for a float
        return np.frompyfunc(math.exp, 1, 1)(-0.5 * x * x).astype(float) / _SQRT_2PI


def normal_cdf(x):
    """Standard normal CDF via the complementary error function.

    Phi(x) = erfc(-x/sqrt(2))/2, accurate to ~1 ulp over the whole line; over
    an ndarray, math.erfc of each entry (numpy has none), as the scalar calls.
    """
    x = _require_finite(x, "x")
    if isinstance(x, float):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-x / math.sqrt(2.0)).astype(float)


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
    spec: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Adaptive Simpson integral of ``f`` over [a, b].

    Deterministic recursion with per-subinterval tolerance splitting; raises
    ToleranceNotMet (carrying the best estimate) if max_depth is exhausted.
    No caller is left in the package, which integrates with integrate_panels;
    the tests use it as an independent reference, and perfbench's tracer hooks
    it by name.
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
    """Golden-section search for a maximum on [lo, hi], to 1e-14 of its width."""
    a, b, width = lo, hi, 1e-14 * (hi - lo)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = float(f(c)), float(f(d))
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if b - a <= width or not a < c < d < b:
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


def coarse_axis(lo: float, hi: float) -> np.ndarray:
    """The optimizers' coarse grid on [lo, hi]: maximize_1d scans it, and
    maximize_2d scans the product of the box's two axes."""
    return np.linspace(lo, hi, _COARSE_GRID)


def maximize_1d(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """Coarse grid scan plus golden-section refinement around the best cell.

    Returns (argmax, max) of the best point found; the result is never below
    the best coarse-grid value, and the first maximum of the scan wins. It
    serves the objectives without derivatives: the Hellinger sup, the constants.
    """
    lo = _require_finite(lo, "lo")
    hi = _require_finite(hi, "hi")
    if not lo < hi:
        raise ValueError("maximize_1d requires lo < hi")
    xs = coarse_axis(lo, hi)
    vals = [float(f(x)) for x in xs]
    i = max(range(_COARSE_GRID), key=lambda k: vals[k])
    best_x, best_v = float(xs[i]), vals[i]
    bl = float(xs[max(i - 1, 0)])
    br = float(xs[min(i + 1, _COARSE_GRID - 1)])
    if br > bl:
        gx, gv = _golden_max(f, bl, br, _REFINE_ITERS)
        if gv >= best_v:
            best_x, best_v = gx, gv
    return best_x, best_v


def maximize_2d(
    f: Callable[[float, float], Tuple[float, Sequence[float], Sequence[Sequence[float]]]],
    box: SearchBox,
    coarse: Optional[np.ndarray] = None,
) -> Tuple[Tuple[float, float], float]:
    """Coarse grid scan plus safeguarded Newton refinement (``maximize_newton``).

    f(x, y) returns (value, gradient, Hessian). Returns ((x, y), max) of the
    best point found inside the box; the result is never below f at the
    coarse argmax, where the refinement starts. ``coarse``, when given, holds
    the values f(xs[i], ys[j])[0] in entry [i, j], where xs and ys are the
    ``coarse_axis`` of the box's intervals, and replaces the scan's calls to
    f; the first maximum in row-major order wins either way, and a NaN never
    does.
    """
    if len(box.intervals) != 2:
        raise ValueError("maximize_2d needs a two-axis SearchBox")
    (xlo, xhi), (ylo, yhi) = box.intervals
    xs, ys = coarse_axis(xlo, xhi), coarse_axis(ylo, yhi)
    if coarse is None:
        coarse = [[float(f(x, y)[0]) for y in ys] for x in xs]
    coarse = np.asarray(coarse, dtype=float)
    if coarse.shape != (len(xs), len(ys)):
        raise ValueError(f"coarse values have shape {coarse.shape}, not {(len(xs), len(ys))}")
    # a NaN never wins, and an all-NaN or all -inf scan starts at the first point
    scan = np.where(np.isnan(coarse), -np.inf, coarse)
    i, j = np.unravel_index(np.argmax(scan), scan.shape)
    cell = ((xhi - xlo) / (_COARSE_GRID - 1), (yhi - ylo) / (_COARSE_GRID - 1))
    (x, y), value, _ = maximize_newton(f, (xs[i], ys[j]), (xlo, ylo), (xhi, yhi), cell)
    return (x, y), value


def refine_coarse_max(f, xs: np.ndarray, values: np.ndarray) -> Tuple[Tuple[float], float, str]:
    """``maximize_newton`` of f(x) = (value, [gradient], [[Hessian]]) from the first
    argmax of the coarse ``values`` at the ascending ``xs``, inside [xs[i-1], xs[i+1]]."""
    i = int(np.argmax(values))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    return maximize_newton(f, (xs[i],), (lo,), (hi,), (0.5 * (hi - lo),))


def _newton_step(grad: list, hess: list) -> Optional[list]:
    """-H^-1 grad by elimination on [-H | grad], or None when a pivot is not
    positive, that is, when H is not negative definite (Sylvester)."""
    rows = [[-h for h in row] + [g] for row, g in zip(hess, grad)]
    for i, pivot in enumerate(rows):
        if not pivot[i] > 0.0:
            return None
        for row in rows[i + 1:]:
            row[:] = [x - row[i] / pivot[i] * y for x, y in zip(row, pivot)]
    step = []
    for i in reversed(range(len(rows))):
        step.insert(0, (rows[i][-1] - _dot(rows[i][i + 1:-1], step)) / rows[i][i])
    return step


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def maximize_newton(f, start: Sequence[float], lo: Sequence[float], hi: Sequence[float],
                    scale: Sequence[float]) -> Tuple[Tuple[float, ...], float, str]:
    """Safeguarded Newton ascent of f(*x) = (value, gradient, Hessian) from ``start``
    in the box [lo, hi]: the Newton step where the Hessian is negative definite,
    else a gradient step ``scale`` long per axis, clamped to the box and halved
    until the value increases, so the result is never below f(start). A point
    with a non-finite value, gradient or Hessian scores -inf, and a gain below
    _RESOLUTION |value| is rounding. Returns (x, value, reason): "stationary"
    (negative definite, and |gradient| <= 1e-10 |value| or a Newton gain below
    the resolution), "box", "step floor" or "budget" (_NEWTON_EVALS evaluations).
    """
    def evaluate(x):
        value, grad, hess = f(*x)
        grad, hess = [float(g) for g in grad], [[float(h) for h in row] for row in hess]
        finite = all(map(math.isfinite, (value, *grad, *(h for row in hess for h in row))))
        return (float(value) if finite else -math.inf), grad, hess

    def clamp(x):
        return [min(max(v, a), b) for v, a, b in zip(x, lo, hi)]

    x, lo, hi, scale = ([float(v) for v in vector] for vector in (start, lo, hi, scale))
    (value, grad, hess), evals, reason = evaluate(x), 1, "step floor"
    while value > -math.inf:
        resolution, norm = _RESOLUTION * abs(value), math.hypot(*grad)
        step = _newton_step(grad, hess)
        if step is None:
            step = [g * s / norm for g, s in zip(grad, scale)] if norm > 0.0 else grad
        elif norm <= _STATIONARY * abs(value) or 0.5 * _dot(step, grad) <= resolution:
            reason = "stationary"
            break
        moved = [v + s for v, s in zip(x, step)]
        clamped = [c - v for c, v in zip(clamp(moved), x)]
        slope = _dot(grad, clamped)     # the gain of the step t * clamped is about t * slope
        t = 1.0
        while t * slope > resolution and evals < _NEWTON_EVALS:
            evals += 1
            trial = clamp([v + t * c for v, c in zip(x, clamped)])
            trial_value, trial_grad, trial_hess = evaluate(trial)
            if trial_value > value:
                x, value, grad, hess = trial, trial_value, trial_grad, trial_hess
                break
            t *= 0.5
        else:
            reason = ("budget" if evals >= _NEWTON_EVALS else
                      "box" if t == 1.0 and clamp(moved) != moved else "step floor")
            break
    return tuple(x), value, reason


def composite_simpson(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule over equally spaced samples (odd count).

    No caller is left in the package; perfbench's tracer still hooks it by name."""
    n = values.shape[0]
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number >= 3 of samples")
    return float(h / 3.0 * (values[0] + values[-1]
                            + 4.0 * values[1:-1:2].sum()
                            + 2.0 * values[2:-1:2].sum()))


def cut_points(lo: float, hi: float, cuts: Sequence[float]) -> list[float]:
    """lo, hi and the cuts inside (lo, hi), sorted and deduplicated: the ends of
    the pieces that partition [lo, hi]."""
    return sorted({lo, hi, *(c for c in cuts if lo < c < hi)})


PANEL_NODES = 16          # Gauss-Legendre nodes per panel
_FIRST_PANELS, _MAX_PANELS, _PANEL_REL_TOL = 4, 1024, 1e-12

# The 16-point Gauss-Legendre rule on [-1, 1], equal to
# numpy.polynomial.legendre.leggauss(16), which would start LAPACK on first use.
# The rule is symmetric: these are its positive nodes and their weights.
_GL_POSITIVE = ((0.09501250983763744, 0.18945061045506864),
                (0.2816035507792589, 0.18260341504492364),
                (0.45801677765722737, 0.16915651939500265),
                (0.6178762444026438, 0.1495959888165767),
                (0.755404408355003, 0.12462897125553407),
                (0.8656312023878318, 0.0951585116824926),
                (0.9445750230732326, 0.062253523938647456),
                (0.9894009349916499, 0.027152459411754176))
GL_NODES = np.array([-x for x, _ in reversed(_GL_POSITIVE)] + [x for x, _ in _GL_POSITIVE])
GL_WEIGHTS = np.array([w for _, w in reversed(_GL_POSITIVE)] + [w for _, w in _GL_POSITIVE])
GL_NODES.flags.writeable = GL_WEIGHTS.flags.writeable = False


def panel_nodes(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on every panel
    [left[i], right[i]], flattened in panel order."""
    half = 0.5 * (right - left)[..., None]
    return ((left[..., None] + half) + half * GL_NODES).ravel(), (half * GL_WEIGHTS).ravel()


def integrate_panels(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     cuts: Sequence[float] = ()):
    """Gauss-Legendre integral of the vectorized ``f`` over [lo, hi] cut at ``cuts``.

    Each piece between cuts gets P equal panels of PANEL_NODES nodes. f takes
    all nodes as one array and returns a value per node, or rows of them (the
    result is then an array). P doubles from 4 until two estimates agree to
    1e-12 of sum |f| w (so zero and cancelling integrals end too); the finer
    one is returned. Raises ToleranceNotMet (with the last estimate) past 1024
    panels per piece, and ValueError on a non-finite f.
    """
    lo, hi = _require_finite(lo, "lo"), _require_finite(hi, "hi")
    if not lo < hi:
        raise ValueError("integration bounds must satisfy lo < hi")
    ends = np.array(cut_points(lo, hi, cuts))
    panels, previous = _FIRST_PANELS, None
    while True:
        fractions = np.arange(panels + 1) / panels  # np.linspace(0, 1, panels + 1), exactly
        edges = ends[:-1, None] + (ends[1:] - ends[:-1])[:, None] * fractions
        nodes, weights = panel_nodes(edges[:, :-1], edges[:, 1:])
        values = np.asarray(f(nodes), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"integrand returned a non-finite value on [{lo}, {hi}]")
        terms = values * weights
        estimate = terms.sum(axis=-1)
        if previous is not None and np.all(
                np.abs(estimate - previous) <= _PANEL_REL_TOL * np.abs(terms).sum(axis=-1)):
            return float_or_array(estimate)
        if panels >= _MAX_PANELS:
            raise ToleranceNotMet(f"Gauss-Legendre panels on [{lo}, {hi}] did not converge "
                                  f"with {panels} panels per piece", float_or_array(estimate))
        panels, previous = 2 * panels, estimate
