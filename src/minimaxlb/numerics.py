"""Deterministic special functions, quadrature, root finding, and
optimization shared by the rest of the package.

Everything here is a pure function of its inputs: no randomness, no global
state, bit-reproducible across runs. maximize_unimodal finds the one root of a
slope that its caller proves changes sign once, from + to -, by bracketed Newton
steps. The other optimizers refine a coarse-grid scan, by safeguarded Newton
steps on the gradient and Hessian in two variables or, without derivatives, by
k-section search, whose round after a scan or round won by the box's edge spaces
its points geometrically toward that edge; so they only promise the best *found*
value, never a global-optimality certificate.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

# The package's one numpy binding, which the other modules import: numpy, loaded on its
# first attribute access unless it is loaded already (importlib.util.LazyLoader), so the
# closed-form commands, which compute in floats, start without it.
np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_Z_MAX = 12.0  # standard normal mass beyond is ~1e-33


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


# coarse grid points per axis of the optimizers and interior points of a k-section
# round; the Newton refinement's budget, stationary gradient norm and resolution,
# relative to the value
_COARSE_GRID, _SECTIONS = 64, 16
_NEWTON_EVALS, _STATIONARY, _RESOLUTION = 100, 1e-10, 2.0**-50
# delta * OPEN_EDGE is delta^-, where a sup over the open interval [0, delta) is read
OPEN_EDGE = 1.0 - 1e-12


@dataclass(frozen=True)
class SearchBox:
    """Axis-aligned search region of maximize_2d: the box whose coarse grid its
    caller scans and that clamps the Newton refinement."""

    intervals: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            if not lo < hi:
                raise ValueError(f"interval ({lo}, {hi}) must satisfy lo < hi")


def float_or_array(x):
    """x as a float when it is a scalar (a Python number skips numpy), else as a float ndarray."""
    return float(x) if isinstance(x, (float, int)) or np.ndim(x) == 0 else np.asarray(x, float)


def math_elementwise(fn: Callable[[float], float], x):
    """The math function fn of a float, or of each entry of an ndarray: math's
    rounding, which numpy's own ufuncs do not always match. fn maps the entries as
    a list of floats, which costs a third less than wrapping fn in a ufunc."""
    x = float_or_array(x)
    if isinstance(x, float):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def check_n(n: int) -> int:
    """The sample-size rule: a positive integer within the float range."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > sys.float_info.max:
        raise ValueError("n is too large: --n must be at most about 1.8e308")
    return int(n)


def _require_finite(x, name: str):
    """x as a float, or as a float ndarray taken elementwise; every entry must be finite.
    A Python int or float (bool and numpy.float64 too) is never an array: numpy stays unloaded."""
    if not isinstance(x, (float, int)) and isinstance(x, np.ndarray) and x.ndim:
        if not np.isfinite(x).all():
            raise ValueError(f"every {name} must be finite")
        return x.astype(float, copy=False)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def normal_pdf(x: float) -> float:
    """Standard normal density phi(x) = exp(-x^2/2)/sqrt(2*pi) of a finite float."""
    x = _require_finite(x, "x")
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_cdf(x: float) -> float:
    """Standard normal CDF of a finite float via the complementary error function.

    Phi(x) = erfc(-x/sqrt(2))/2, accurate to ~1 ulp over the whole line.
    """
    x = _require_finite(x, "x")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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

    Returns the midpoint of the final bracket of width <= tol. No library
    caller is left (solve_kepler runs Newton); perfbench's tracer hooks it by name.
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def coarse_axis(lo: float, hi: float) -> np.ndarray:
    """The optimizers' coarse grid np.linspace(lo, hi, _COARSE_GRID): maximize_1d scans
    it; maximize_2d starts from a cell of the box's two axes, which its caller scans."""
    return np.linspace(lo, hi, _COARSE_GRID)


def _scores(values, points: np.ndarray) -> np.ndarray:
    """An objective's values at the points as floats, NaN as -inf: a NaN never wins."""
    values = np.asarray(values, dtype=float)
    if values.shape != points.shape:
        raise ValueError(f"the objective returned shape {values.shape} for {points.shape} points")
    return np.where(np.isnan(values), -np.inf, values)


def maximize_1d(f: Callable[[np.ndarray], np.ndarray], lo: float,
                hi: float) -> Tuple[float, float]:
    """Coarse grid scan plus k-section refinement around the best cell.

    f maps an array of points to the array of their values. The scan is one call
    on the coarse axis. Each refinement round is one call on _SECTIONS interior
    points of the bracket; the next bracket is the two neighbours of the best
    point known in it, until it is 1e-14 of its first width or floats cannot
    split it. The rounds space their points equally, except the round after the
    scan or a round whose best point is lo or hi: its points run geometrically
    from the bracket's width down to that stop width toward the edge. If the
    edge still wins, the search ends there: for an objective unimodal in the
    bracket, a maximum farther than the stop width inside would lift the points
    between it and the edge above the edge. Returns (argmax, max) of the best
    point found; the result is never below the best coarse-grid value, the first
    maximum (in x) wins, and a NaN never does. It serves the one objective without
    derivatives, the Hellinger sup, whose maximum sits on its box edge, in one scan
    and one round.
    """
    lo = _require_finite(lo, "lo")
    hi = _require_finite(hi, "hi")
    if not lo < hi:
        raise ValueError("maximize_1d requires lo < hi")
    xs = coarse_axis(lo, hi)
    vals = _scores(f(xs), xs)
    i = int(np.argmax(vals))
    # the points known in the bracket, ascending: its ends and the best point
    known = slice(max(i - 1, 0), i + 2)
    px, pv = xs[known], vals[known]
    width = 1e-14 * (px[-1] - px[0])
    # -1 (lo) or 1 (hi) when the scan or a uniform round was won by an edge
    edge = -1 if xs[i] == lo else 1 if xs[i] == hi else 0
    while px[-1] - px[0] > width:
        if edge:
            # ascending offsets from the edge, from the stop width to the bracket's width
            span = px[-1] - px[0]
            steps = span * (width / span) ** (np.arange(_SECTIONS, 0, -1) / _SECTIONS)
            inner = px[0] + steps if edge < 0 else px[-1] - steps[::-1]
            # the distinct points strictly inside (a numpy.unique would import numpy.ma)
            inner = inner[(np.diff(inner, prepend=px[0]) > 0.0) & (inner < px[-1])]
            if not inner.size:
                break  # the bracket is at floating-point resolution
        else:
            inner = np.linspace(px[0], px[-1], _SECTIONS + 2)[1:-1]
            if not (px[0] < inner[0] and np.all(np.diff(inner) > 0.0) and inner[-1] < px[-1]):
                break  # the bracket is at floating-point resolution
        order = np.argsort(np.concatenate((px, inner)), kind="stable")
        px = np.concatenate((px, inner))[order]
        pv = np.concatenate((pv, _scores(f(inner), inner)))[order]
        j = int(np.argmax(pv))
        if edge and px[j] in (lo, hi):
            break  # the edge beat every point down to the stop width from it
        edge = -1 if px[j] == lo else 1 if px[j] == hi else 0
        px, pv = px[max(j - 1, 0):j + 2], pv[max(j - 1, 0):j + 2]
    j = int(np.argmax(pv))
    return float(px[j]), float(pv[j])


def maximize_2d(f: Callable[[float, float], tuple], box: SearchBox, cell: Tuple[int, int],
                best: float, start: Optional[Tuple[float, float]] = None
                ) -> Tuple[Tuple[float, float], float]:
    """Safeguarded Newton refinement (``maximize_newton``) of f(x, y) = (value,
    gradient, Hessian) in the box from the caller's coarse scan: ``cell`` = (i, j) is
    its argmax on the grid xs x ys, the ``coarse_axis`` of the box's intervals, and
    ``best`` its value there (-inf where f is NaN), which the caller evaluates or reads
    from a table. A ``start`` inside the box, the caller's guess at the argmax, is
    refined first, and its result is kept if it reaches ``best``; otherwise, and
    without a start, the refinement runs from (xs[i], ys[j]). Returns ((x, y), max)
    of the best point found, never below f at the coarse argmax."""
    if len(box.intervals) != 2:
        raise ValueError("maximize_2d needs a two-axis SearchBox")
    i, j = cell
    if not (0 <= i < _COARSE_GRID and 0 <= j < _COARSE_GRID):
        raise ValueError(f"coarse cell {cell} lies off the {_COARSE_GRID} x {_COARSE_GRID} grid")
    (xlo, xhi), (ylo, yhi) = box.intervals
    step = ((xhi - xlo) / (_COARSE_GRID - 1), (yhi - ylo) / (_COARSE_GRID - 1))
    if start is not None:
        (x, y), value, _ = maximize_newton(f, start, (xlo, ylo), (xhi, yhi), step)
        if value >= best:
            return (x, y), value
    (x, y), value, _ = maximize_newton(f, (coarse_axis(xlo, xhi)[i], coarse_axis(ylo, yhi)[j]),
                                       (xlo, ylo), (xhi, yhi), step)
    return (x, y), value


def maximize_unimodal(f: Callable[[float], Tuple[float, float, float]], lo: float, hi: float,
                      start: float) -> Tuple[float, float]:
    """(argmax, max) of f(x) = (value, slope, curvature) over [lo, hi] for a slope that
    changes sign at most once there, from + to -: f(hi) unless lo < hi and the slope at hi
    is <= 0, else f at the slope's root. Newton on the slope runs from ``start`` (clamped
    to lo, or the midpoint if it is not below hi), bisecting the shrinking bracket where
    the curvature is >= 0 or a step would leave it, until a step's gain slope^2 /
    (2 |curvature|) is below 2^-54 of the value; a NaN slope inside counts as negative. When
    the bracket closes on two adjacent floats, f(lo) is read too. The max is the best value
    read, the argmax the first point that reached it."""
    argmax, (best, slope, _) = hi, f(hi)
    if not (slope <= 0.0 and lo < hi):
        return argmax, best
    x = max(start, lo) if start < hi else 0.5 * (lo + hi)
    while True:
        value, slope, curvature = f(x)
        if value > best:
            argmax, best = x, value
        lo, hi = (x, hi) if slope > 0.0 else (lo, x)
        step = -slope / curvature if curvature < 0.0 else math.nan
        if 0.5 * slope * step <= 2.0**-54 * value:
            return argmax, best
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        if not lo < x < hi:
            value = f(lo)[0]
            return (lo, value) if value > best else (argmax, best)


def maximize_newton(f, start: Sequence[float], lo: Sequence[float], hi: Sequence[float],
                    scale: Sequence[float]) -> Tuple[Tuple[float, float], float, str]:
    """Safeguarded Newton ascent of f(x0, x1) = (value, gradient, Hessian) from ``start``
    in the box [lo, hi]: the Newton step where the Hessian is negative definite, else a
    gradient step ``scale`` long per axis, clamped to the box and halved until the value
    increases, so the result is never below f(start). A point with a non-finite value,
    gradient or Hessian scores -inf, and a gain below _RESOLUTION |value| is rounding.
    Returns (x, value, reason): "stationary" (negative definite, and |gradient| <= 1e-10
    |value| or a Newton gain below the resolution), "box", "step floor" or "budget"
    (_NEWTON_EVALS evaluations). It serves maximize_2d.

    One loop in plain floats: the Newton step eliminates on [-H | g] in the general
    n-variable order and sums dot products from 0.0 as sum() does: the same bits.
    """
    def evaluate(x0, x1):
        value, (g0, g1), ((h00, h01), (h10, h11)) = f(x0, x1)
        finite = all(map(math.isfinite, (value, g0, g1, h00, h01, h10, h11)))
        return (float(value) if finite else -math.inf), g0, g1, h00, h01, h10, h11
    x0, x1, lo0, lo1, hi0, hi1, s0, s1 = map(float, (*start, *lo, *hi, *scale))

    (value, g0, g1, h00, h01, h10, h11), evals, reason = evaluate(x0, x1), 1, "step floor"
    while value > -math.inf:
        resolution, norm = _RESOLUTION * abs(value), math.hypot(g0, g1)
        factor = -h10 / -h00 if -h00 > 0.0 else math.nan
        pivot = -h11 - factor * -h01
        if pivot > 0.0:  # both pivots of -H are positive: H is negative definite
            d1 = (g1 - factor * g0) / pivot
            d0 = (g0 - (0.0 + -h01 * d1)) / -h00
            if norm <= _STATIONARY * abs(value) or 0.5 * (0.0 + d0 * g0 + d1 * g1) <= resolution:
                reason = "stationary"
                break
        else:
            d0, d1 = (g0 * s0 / norm, g1 * s1 / norm) if norm > 0.0 else (g0, g1)
        m0, m1 = x0 + d0, x1 + d1
        c0, c1 = min(max(m0, lo0), hi0) - x0, min(max(m1, lo1), hi1) - x1
        t = 1.0
        while t * (0.0 + g0 * c0 + g1 * c1) > resolution and evals < _NEWTON_EVALS:
            evals += 1
            t0, t1 = min(max(x0 + t * c0, lo0), hi0), min(max(x1 + t * c1, lo1), hi1)
            trial = evaluate(t0, t1)
            if trial[0] > value:
                (x0, x1), (value, g0, g1, h00, h01, h10, h11) = (t0, t1), trial
                break
            t *= 0.5
        else:  # a NaN step is never clamped
            box = any(min(max(m, a), b) != m and m == m
                      for m, a, b in ((m0, lo0, hi0), (m1, lo1, hi1)))
            reason = ("budget" if evals >= _NEWTON_EVALS
                      else "box" if t == 1.0 and box else "step floor")
            break
    return (x0, x1), value, reason


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
_PASS_NODES = 2**13       # nodes in one call of an integrand: it caps a batch's memory


@functools.cache  # each numpy table is built on its first use, then shared read-only
def _fractions(panels: int) -> np.ndarray:
    """The panel edges on [0, 1] of a pass of P panels: np.linspace(0, 1, P + 1), exactly."""
    return _read_only(np.arange(panels + 1) / panels)


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


@functools.cache
def gauss_legendre() -> Tuple[np.ndarray, np.ndarray]:
    """The rule's nodes and weights on [-1, 1], ascending, as read-only arrays."""
    pairs = [(-x, w) for x, w in reversed(_GL_POSITIVE)] + list(_GL_POSITIVE)
    return tuple(_read_only(np.array(column)) for column in zip(*pairs))


def panel_nodes(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on the panels between
    consecutive ``edges`` (last axis), in panel order along the last axis."""
    left = edges[..., :-1, None]
    half = 0.5 * (edges[..., 1:, None] - left)
    shape, (nodes, weights) = edges.shape[:-1] + (-1,), gauss_legendre()
    return ((left + half) + half * nodes).reshape(shape), (half * weights).reshape(shape)


def integrate_panels(f: Callable[..., np.ndarray], lo, hi, cuts=(), args: Sequence = ()):
    """Gauss-Legendre integrals of the vectorized ``f`` over [lo, hi] cut at ``cuts``.

    lo and hi are floats, or arrays of R rows with one independent integral per
    row; cuts is a sequence shared by every row, or an (R, C) array with one row
    of cuts each, where cuts outside (lo, hi) and repeated cuts add nothing (so
    ragged rows pad with them). Each piece between cuts gets P equal panels of
    PANEL_NODES nodes, P = 4, 8, 16, ... f takes the nodes of a call as an array
    with a line per piece and, for each of ``args`` (a float or one value per
    row), a column of the pieces' row values; it returns a value per node, or
    rows of them (the result is then an array). A pass evaluates the pieces that
    still refine, of every row, in calls of whole pieces that hold at most
    _PASS_NODES nodes, or one piece.

    A piece stops doubling P once its last two estimates agree to 1e-12 of its
    sum |f| w, and a row once the differences of its pieces sum to 1e-12 of
    their sum |f| w (so zero and cancelling integrals end too); the finer
    estimates are kept. A row's integral is the sum of its pieces, so it does
    not depend on the other rows. The result is a float for float ends, else
    one value per row. Raises ToleranceNotMet past 1024 panels per piece, with
    the last estimates, and ValueError on a non-finite f.
    """
    lo, hi = _require_finite(lo, "lo"), _require_finite(hi, "hi")
    single = isinstance(lo, float) and isinstance(hi, float)
    lo, hi = np.atleast_1d(lo), np.atleast_1d(hi)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    if not (lo < hi).all():
        raise ValueError("integration bounds must satisfy lo < hi")
    cuts = np.asarray(cuts, dtype=float)
    ends = np.empty((lo.size, 2 + cuts.shape[-1]))
    ends[:, 0], ends[:, 1], ends[:, 2:] = lo, hi, cuts
    np.minimum(np.maximum(ends, lo[:, None], out=ends), hi[:, None], out=ends)
    ends.sort(axis=1)
    pieces = ends[:, 1:] > ends[:, :-1]
    row = np.nonzero(pieces)[0]  # each row's pieces, in order
    left = ends[:, :-1][pieces]
    width = ends[:, 1:][pieces] - left
    starts = np.searchsorted(row, np.arange(lo.size))  # each row's first piece
    args = [np.broadcast_to(_require_finite(a, "integrand argument"), lo.shape)[row, None]
            for a in args]
    estimate = change = mass = None
    active, panels = np.arange(row.size), _FIRST_PANELS
    while True:
        fractions = _fractions(panels)
        per_call = max(_PASS_NODES // (panels * PANEL_NODES), 1)
        for start in range(0, active.size, per_call):
            chunk = active[start:start + per_call]
            nodes, weights = panel_nodes(left.take(chunk)[:, None]
                                         + width.take(chunk)[:, None] * fractions)
            terms = np.asarray(f(nodes, *(a[chunk] for a in args))) * weights
            if estimate is None:  # change is written in the second pass, before it is read
                estimate, mass, change = np.empty((3,) + terms.shape[:-2] + (row.size,))
                lines = tuple(range(terms.ndim - 2))  # the integrand's rows
            fresh = np.add.reduce(terms, axis=-1)
            size = np.add.reduce(np.abs(terms, out=terms), axis=-1)
            if not np.isfinite(size).all():  # a sum of |f| w is finite if every term is
                bad = row[chunk[np.nonzero(~np.isfinite(size))[-1][0]]]
                raise ValueError(f"integrand returned a non-finite value on "
                                 f"[{ends[bad, 0]}, {ends[bad, -1]}]")
            if panels > _FIRST_PANELS:
                change[..., chunk] = np.abs(fresh - estimate.take(chunk, axis=-1))
            estimate[..., chunk], mass[..., chunk] = fresh, size
        if panels > _FIRST_PANELS:
            tolerance = _PANEL_REL_TOL * mass
            settled = (change <= tolerance).all(axis=lines)
            settled |= (np.add.reduceat(change, starts, axis=-1)
                        <= np.add.reduceat(tolerance, starts, axis=-1)).all(axis=lines)[row]
            active = np.nonzero(~settled)[0]
        if not active.size or panels >= _MAX_PANELS:
            break
        panels *= 2
    result = np.add.reduceat(estimate, starts, axis=-1)
    result = float_or_array(result[..., 0] if single else result)
    if active.size:
        failed = row[active[0]]
        raise ToleranceNotMet(f"Gauss-Legendre panels on [{lo[failed]}, {hi[failed]}] did not "
                              f"converge with {panels} panels per piece", result)
    return result
