import inspect
import math
import random

import numpy as np
import pytest
from scipy import integrate

from minimaxlb import numerics
from minimaxlb.numerics import (PANEL_NODES, BracketError, QuadratureSpec, SearchBox,
                                ToleranceNotMet, check_n, coarse_axis, find_root_bisect,
                                gauss_legendre,
                                integrate_adaptive, integrate_panels, maximize_1d,
                                maximize_2d, maximize_newton, normal_cdf, normal_pdf)


@pytest.mark.parametrize("x, value", [
    (0.5, 0.5), (1, 1.0), (True, 1.0), (np.float64(0.5), 0.5), (np.int64(2), 2.0),
    (np.array(0.5), 0.5), (math.nan, "x must be finite, got nan"),
    (math.inf, "x must be finite, got inf"), (np.array([1.0, math.nan]), "every x must be finite")])
def test_require_finite_keeps_its_rule_for_every_kind_of_input(x, value):
    # a Python int or float never reaches numpy, and every input reads as it did when
    # each was first tested against np.ndarray: a plain float or the same message
    for f, of in ((lambda x: numerics._require_finite(x, "x"), lambda v: v),
                  (normal_cdf, lambda v: numerics._gaussian_tail(-v)),
                  (normal_pdf, lambda v: math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi))):
        if isinstance(value, str):
            with pytest.raises(ValueError) as info:
                f(x)
            assert str(info.value) == value
        else:
            result = f(x)
            assert type(result) is float and result == of(value)


def test_require_finite_passes_an_array_through():
    x = np.array([0.5, 1.0])
    assert numerics._require_finite(x, "x") is x
    for f in (normal_cdf, normal_pdf):
        with pytest.raises(TypeError) as info:
            f(x)
        with pytest.raises(TypeError) as expected:
            float(x)
        assert str(info.value) == str(expected.value)


def test_normal_pdf_values():
    assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)
    assert normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-15)
    assert normal_pdf(-1.0) == normal_pdf(1.0)


def test_normal_pdf_rejects_nonfinite():
    with pytest.raises(ValueError):
        normal_pdf(math.inf)
    with pytest.raises(ValueError):
        normal_cdf(math.nan)


def test_normal_cdf_values():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(8.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(2.0) == pytest.approx(0.9772498680518208, abs=1e-15)


def test_normal_cdf_symmetry():
    for x in np.linspace(-8.0, 8.0, 161):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_matches_mpmath():
    # 2,000 derandomized draws over [-37.5, 8], down to the smallest Phi above the subnormals,
    # each within 1e-15 relative of 50-digit mpmath.ncdf; erfc(-x/sqrt 2)/2 rounded -x/sqrt 2
    # first, and erfc's condition number x^2 carried that to 1.9e-13 near -37.5
    mpmath = pytest.importorskip("mpmath")
    xs = np.random.default_rng(47).uniform(-37.5, 8.0, 2000).tolist() + [-37.5, -1.0, 0.0, 8.0]
    with mpmath.workdps(50):
        for x in xs:
            want = mpmath.ncdf(x)
            assert abs(normal_cdf(x) - want) <= 1e-15 * want, (x, normal_cdf(x), want)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()  # -0.0 and 0.0 differ, as do NaNs' payloads


def test_coarse_axis_returns_a_fresh_writeable_array():
    axis = coarse_axis(0.0, 1.0)
    axis[:] = 7.0
    assert _bits(coarse_axis(0.0, 1.0)) == _bits(np.linspace(0.0, 1.0, 64))
    assert coarse_axis(0.0, 1e-322).flags.writeable


@pytest.mark.parametrize("fn", [math.exp, math.erfc, math.sin, math.expm1, math.log2])
def test_math_elementwise_is_the_math_function_per_entry(fn):
    rng = np.random.default_rng(7)
    grid = rng.uniform(0.01, 30.0, size=(6, 9)) * rng.choice([-1.0, 1.0], size=(6, 9))
    if fn is math.log2:
        grid = np.abs(grid)
    for x in (grid, grid[::2, 1::3], grid.T, grid[0], grid[:0], np.empty((3, 0)),
              np.array(grid[1, 1])):
        got = numerics.math_elementwise(fn, x)
        if x.ndim == 0:
            assert type(got) is float and got == fn(float(x))
            continue
        assert got.shape == x.shape and got.dtype == np.float64
        assert _bits(got) == _bits([fn(v) for v in x.ravel().tolist()])
    with pytest.raises(OverflowError):
        numerics.math_elementwise(math.exp, np.array([0.0, 1000.0]))
    with pytest.raises(OverflowError):
        numerics.math_elementwise(math.exp, np.array(1000.0))


def test_integrate_adaptive_basics():
    assert integrate_adaptive(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    cos_sq = lambda t: math.cos(math.pi * t / 2.0) ** 2
    assert integrate_adaptive(cos_sq, -1.0, 1.0) == pytest.approx(1.0, abs=1e-10)
    gauss = lambda t: normal_pdf(t)
    expected = normal_cdf(10.0) - normal_cdf(-10.0)
    assert integrate_adaptive(gauss, -10.0, 10.0) == pytest.approx(expected, abs=1e-10)


def test_integrate_adaptive_additivity():
    spec = QuadratureSpec()
    f = lambda t: math.exp(-t) * math.sin(3.0 * t)
    whole = integrate_adaptive(f, 0.0, 2.0, spec)
    parts = integrate_adaptive(f, 0.0, 0.7, spec) + integrate_adaptive(f, 0.7, 2.0, spec)
    assert abs(whole - parts) <= 2.0 * spec.abs_tol


def test_integrate_adaptive_tolerance_failure_carries_estimate():
    f = lambda x: abs(x - 1.0 / 3.0) ** -0.4
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14, max_depth=10)
    with pytest.raises(ToleranceNotMet) as err:
        integrate_adaptive(f, 0.0, 1.0, spec)
    exact, _ = integrate.quad(f, 0.0, 1.0, points=[1.0 / 3.0])
    assert err.value.estimate == pytest.approx(exact, abs=0.05)


def test_integrate_adaptive_rejects_bad_input():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda t: float("inf"), 0.0, 1.0)


def test_bisect_roots():
    assert find_root_bisect(lambda x: x, -1.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-12)
    kepler_lhs = lambda x: x + math.sin(math.pi * x) / math.pi
    assert find_root_bisect(kepler_lhs, -1.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-12)
    root = find_root_bisect(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-11)


def test_bisect_requires_bracket():
    with pytest.raises(BracketError):
        find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)


def test_maximize_1d_smooth():
    x, v = maximize_1d(lambda t: -((t - 0.3) ** 2), 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == pytest.approx(0.0, abs=1e-12)
    x, v = maximize_1d(lambda t: t * (1.0 - t), 0.0, 1.0)
    assert (x, v) == (pytest.approx(0.5, abs=1e-7), pytest.approx(0.25, abs=1e-12))


def test_maximize_1d_reaches_paper_constant():
    obj = lambda x: (-0.25 + 0.5 * np.exp(-x * x / 8.0)) * x * x
    _, v = maximize_1d(obj, 0.0, 10.0)
    assert v == pytest.approx(0.28953, abs=5e-4)


def test_maximize_1d_never_below_coarse_grid():
    f = lambda x: np.sin(17.0 * x) + 0.3 * np.sin(51.0 * x)
    xs = np.linspace(0.0, 3.0, 64)
    coarse_best = f(xs).max()
    _, v = maximize_1d(f, 0.0, 3.0)
    assert v >= coarse_best - 1e-15


def _quadratic_2d(a, b):
    # -(a - 0.3)^2 - (b + 1.2)^2 with its gradient and Hessian
    return (-(a - 0.3) ** 2 - (b + 1.2) ** 2, (-2.0 * (a - 0.3), -2.0 * (b + 1.2)),
            ((-2.0, 0.0), (0.0, -2.0)))


def _plane_2d(a, b):
    return a + b, (1.0, 1.0), ((0.0, 0.0), (0.0, 0.0))


def _bumps_2d(a, b):
    # a high bump at (0.3, -1.2) and a low one at (-0.6, 0.9), width 0.1
    value, grad, hess = 0.0, np.zeros(2), np.zeros((2, 2))
    for height, center in ((1.0, (0.3, -1.2)), (0.5, (-0.6, 0.9))):
        d = np.array([a, b]) - center
        e = height * math.exp(-(d @ d) / 0.1)
        value, grad = value + e, grad - e * 2.0 * d / 0.1
        hess += e * (4.0 * np.outer(d, d) / 0.01 - 2.0 * np.eye(2) / 0.1)
    return value, grad, hess


def _coarse_2d(f, box):
    """f's values on maximize_2d's coarse grid of the box, one call a point."""
    xs, ys = (coarse_axis(lo, hi) for lo, hi in box.intervals)
    return [[float(f(x, y)[0]) for y in ys] for x in xs]


def first_coarse_max(coarse):
    """The cell (i, j) and value of the first maximum, in row-major order, of a coarse
    scan, a NaN scoring -inf (a scan of NaNs or -infs starts at cell (0, 0)): the start and
    guard maximize_2d takes, found as the diffeo sup found them on its whole table."""
    scan = np.asarray(coarse, dtype=float)
    scan = np.where(np.isnan(scan), -np.inf, scan)
    k = int(np.argmax(scan))
    return divmod(k, scan.shape[1]), float(scan.flat[k])


def test_maximize_2d():
    box = SearchBox(intervals=((-1.0, 1.0), (-2.0, 2.0)))
    (x, y), v = maximize_2d(_quadratic_2d, box, *first_coarse_max(_coarse_2d(_quadratic_2d, box)))
    assert (x, y) == (pytest.approx(0.3, abs=1e-12), pytest.approx(-1.2, abs=1e-12))
    assert v == pytest.approx(0.0, abs=1e-20)
    (x, y), v = maximize_2d(_bumps_2d, box, *first_coarse_max(_coarse_2d(_bumps_2d, box)))
    assert (x, y) == (pytest.approx(0.3, abs=1e-9), pytest.approx(-1.2, abs=1e-9))
    assert v == pytest.approx(1.0, abs=1e-15)
    # the maximum on a corner: the box stops the ascent
    box = SearchBox(intervals=((0.0, 1.0), (0.0, 1.0)))
    (x, y), v = maximize_2d(_plane_2d, box, *first_coarse_max(_coarse_2d(_plane_2d, box)))
    assert (x, y) == (1.0, 1.0)
    assert v == 2.0


def test_maximize_newton_stop_reasons():
    # a plane climbs to its corner, where the box stops it
    assert maximize_newton(_plane_2d, (0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.1, 0.1)) == \
        ((1.0, 1.0), 2.0, "box")


def _reference_newton(f, start, lo, hi, scale):
    """maximize_newton as it was written for any number of variables, with lists,
    a general elimination and sum(): the reference its two-variable float path
    must reproduce bit for bit."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def newton_step(grad, hess):
        rows = [[-h for h in row] + [g] for row, g in zip(hess, grad)]
        for i, pivot in enumerate(rows):
            if not pivot[i] > 0.0:
                return None
            for row in rows[i + 1:]:
                row[:] = [x - row[i] / pivot[i] * y for x, y in zip(row, pivot)]
        step = []
        for i in reversed(range(len(rows))):
            step.insert(0, (rows[i][-1] - dot(rows[i][i + 1:-1], step)) / rows[i][i])
        return step

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
        resolution, norm = numerics._RESOLUTION * abs(value), math.hypot(*grad)
        step = newton_step(grad, hess)
        if step is None:
            step = [g * s / norm for g, s in zip(grad, scale)] if norm > 0.0 else grad
        elif norm <= numerics._STATIONARY * abs(value) or 0.5 * dot(step, grad) <= resolution:
            reason = "stationary"
            break
        moved = [v + s for v, s in zip(x, step)]
        clamped = [c - v for c, v in zip(clamp(moved), x)]
        slope = dot(grad, clamped)
        t = 1.0
        while t * slope > resolution and evals < numerics._NEWTON_EVALS:
            evals += 1
            trial = clamp([v + t * c for v, c in zip(x, clamped)])
            trial_value, trial_grad, trial_hess = evaluate(trial)
            if trial_value > value:
                x, value, grad, hess = trial, trial_value, trial_grad, trial_hess
                break
            t *= 0.5
        else:
            reason = ("budget" if evals >= numerics._NEWTON_EVALS else
                      "box" if t == 1.0 and clamp(moved) != moved else "step floor")
            break
    return tuple(x), value, reason


def _newton_case(rng, dims, kind):
    """A quadratic g.u + u.H u/2 in u = x - centre, optionally bumpy (plus sum of
    b sin 3x), with its exact derivatives, a box and a start inside it. kind picks
    H negative definite, indefinite, or with overflowing and zero entries; a zero
    gradient at the centre; or values that turn NaN or infinite past a cut."""
    centre = [rng.uniform(-2.0, 2.0) for _ in range(dims)]
    grad0 = [0.0] * dims if kind == "zero gradient" else [rng.uniform(-3.0, 3.0)
                                                         for _ in range(dims)]
    if kind == "definite":
        a = [[rng.uniform(-1.0, 1.0) for _ in range(dims)] for _ in range(dims)]
        hess = [[-sum(a[k][i] * a[k][j] for k in range(dims)) - 0.1 * (i == j)
                 for j in range(dims)] for i in range(dims)]
    elif kind == "extreme":
        grad0 = [rng.choice([0.0, -0.0, 1e-300, 1e300, -1.0, 1.0]) for _ in range(dims)]
        hess = [[rng.choice([-1e-300, 1e300, -1e300, 0.0, -0.0, 1e-300, -1.0])
                 for _ in range(dims)] for _ in range(dims)]
    else:
        hess = [[rng.uniform(-3.0, 3.0) for _ in range(dims)] for _ in range(dims)]
    bump = rng.choice([0.0, 0.5, 2.0])
    cut = rng.uniform(-0.5, 0.5)

    def f(*x):
        u = [xi - ci for xi, ci in zip(x, centre)]
        value = sum(g * v for g, v in zip(grad0, u)) + 0.5 * sum(
            u[i] * hess[i][j] * u[j] for i in range(dims) for j in range(dims))
        grad = [grad0[i] + sum(hess[i][j] * u[j] for j in range(dims)) for i in range(dims)]
        h = [list(row) for row in hess]
        for i in range(dims):
            value += bump * math.sin(3.0 * x[i])
            grad[i] += 3.0 * bump * math.cos(3.0 * x[i])
            h[i][i] -= 9.0 * bump * math.sin(3.0 * x[i])
        if kind in ("nan", "inf", "-inf") and x[0] > cut:
            value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[kind]
        return value, tuple(grad), tuple(map(tuple, h))

    width = rng.choice([1e-3, 0.1, 1.0, 10.0, 1e6])   # small boxes clamp the steps
    lo = [rng.uniform(-width, 0.0) for _ in range(dims)]
    hi = [a + rng.uniform(1e-9, 2.0 * width) for a in lo]
    start = [rng.uniform(a, b) for a, b in zip(lo, hi)]
    scale = [rng.choice([1e-6, 0.01, 0.5, 3.0]) for _ in range(dims)]
    return f, start, lo, hi, scale


def test_maximize_newton_matches_the_general_elimination_bit_for_bit():
    rng = random.Random(20261019)
    kinds = ("definite", "indefinite", "zero gradient", "extreme", "nan", "inf", "-inf")
    reasons = set()
    for k in range(252):
        args = _newton_case(rng, 2, kinds[k % len(kinds)])
        want = _reference_newton(*args)
        got = maximize_newton(*args)
        assert got == want and repr(got) == repr(want), (k, got, want)
        reasons.add(got[2])
    # steps that overflow the elimination: a NaN step is never clamped, so it is
    # not "box"; and a plane that never flattens spends the evaluation budget
    nan_step = (lambda a, b: (1.0, (0.0, 1.0), ((-1e-300, -1.0), (1e10, 3.0))),
                (0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (0.1, 0.1))
    budget = (lambda a, b: (a + b, (1.0, 1.0), ((1.0, 0.0), (0.0, 1.0))),
              (0.0, 0.0), (0.0, 0.0), (1e300, 1e300), (1.0, 1.0))
    for args in (nan_step, budget):
        assert maximize_newton(*args) == _reference_newton(*args)
    assert maximize_newton(*nan_step)[2] == "step floor"
    assert maximize_newton(*budget)[2] == "budget"
    assert {"stationary", "box", "step floor", "budget"} <= reasons


def _tie_on_edges_1d(x):
    # the two ends of [-1, 1] tie at 0, the maximum; the first (x = -1) wins
    return -abs(abs(x) - 1.0)


def _tie_on_corners_2d(x, y):
    # the four corners tie at the maximum; the first in row-major order wins
    return x * x + 0.25 * y * y


def test_maximize_1d_first_maximum_wins():
    assert maximize_1d(_tie_on_edges_1d, -1.0, 1.0) == (-1.0, 0.0)


def test_maximize_1d_calls_its_objective_once_a_scan_or_round():
    # the scan is one call on 64 points; each k-section round one call on 16
    calls = []

    def f(x):
        calls.append(x.size)
        return -(x - 0.3) ** 2
    x, v = maximize_1d(f, 0.0, 1.0)
    assert calls[0] == 64 and set(calls[1:]) == {16}
    assert x == pytest.approx(0.3, abs=1e-7) and v == pytest.approx(0.0, abs=1e-12)
    # an interior maximum shrinks its bracket of two cells by 2/17 a round or more,
    # to 1e-14 of its width
    assert len(calls) - 1 <= math.ceil(math.log(1e14) / math.log(17.0 / 2.0))
    # the argmax on the domain's edge, which wins the scan: one round, geometric toward
    # the edge, which still wins it
    calls.clear()
    assert maximize_1d(lambda x: f(x + 0.6), 0.0, 1.0) == (0.0, -0.09)
    assert len(calls) - 1 == 1
    # a NaN never wins
    assert maximize_1d(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)[1] <= 0.5


def _tie_on_corners_2d_derivatives(x, y):
    return _tie_on_corners_2d(x, y), (2.0 * x, 0.5 * y), ((2.0, 0.0), (0.0, 0.5))


def test_maximize_2d_coarse_values_match_the_scan():
    # maximize_2d refines from the cell of its caller's scan: the first maximum in
    # row-major order, so a tie on the four corners starts at (lo, lo)
    box = SearchBox(intervals=((-1.0, 1.0), (-2.0, 2.0)))
    xs, ys = (coarse_axis(lo, hi) for lo, hi in box.intervals)
    coarse = np.array([[_tie_on_corners_2d(x, y) for y in ys] for x in xs])
    assert first_coarse_max(coarse) == ((0, 0), 2.0)
    assert maximize_2d(_tie_on_corners_2d_derivatives, box, *first_coarse_max(coarse)) == \
        ((-1.0, -2.0), 2.0)
    # two maxima off the diagonal: a transposed table starts on the lower one
    coarse = np.array([[_bumps_2d(x, y)[0] for y in ys] for x in xs])
    scanned = maximize_2d(_bumps_2d, box, *first_coarse_max(coarse))
    assert maximize_2d(_bumps_2d, box, *first_coarse_max(coarse.T)) != scanned
    # a NaN never wins the scan
    nan_left = lambda a, b: (math.nan, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))) if a < 0.0 \
        else _plane_2d(a, b)
    assert maximize_2d(nan_left, box, *first_coarse_max(_coarse_2d(nan_left, box))) == \
        ((1.0, 2.0), 3.0)


def test_maximize_2d_keeps_a_start_only_at_the_coarse_best():
    box = SearchBox(intervals=((-1.0, 1.0), (-2.0, 2.0)))
    coarse = _coarse_2d(_bumps_2d, box)
    scanned = maximize_2d(_bumps_2d, box, *first_coarse_max(coarse))
    points = []

    def counted(a, b):
        points.append((a, b))
        return _bumps_2d(a, b)
    # a start next to the high bump is refined alone, in fewer steps than the scan's
    (x, y), v = maximize_2d(counted, box, *first_coarse_max(coarse), start=(0.3001, -1.2001))
    started = len(points)
    points.clear()
    maximize_2d(counted, box, *first_coarse_max(coarse))
    assert 0 < started < len(points)
    assert (x, y) == (pytest.approx(0.3, abs=1e-9), pytest.approx(-1.2, abs=1e-9))
    assert v >= np.max(coarse) and v == pytest.approx(scanned[1], abs=1e-15)
    # a start on the low bump ends below the coarse best, so the coarse argmax is refined
    assert maximize_2d(_bumps_2d, box, *first_coarse_max(coarse), start=(-0.6, 0.9)) == scanned
    # and so is it after a start where f is NaN
    nan_left = lambda a, b: (math.nan, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0))) if a < 0.0 \
        else _plane_2d(a, b)
    assert maximize_2d(nan_left, box, *first_coarse_max(_coarse_2d(nan_left, box)),
                       start=(-0.5, 0.0)) == ((1.0, 2.0), 3.0)


def test_maximize_2d_refinement_never_below_the_coarse_best():
    box = SearchBox(intervals=((-1.0, 1.0), (-2.0, 2.0)))
    xs, ys = (coarse_axis(lo, hi) for lo, hi in box.intervals)
    points = []

    def cliff(a, b):
        # the quadratic, but NaN right of a = 0.2 and with an infinite gradient
        # below b = -1.3, so the maximum at (0.3, -1.2) is out of reach
        points.append((a, b))
        value, grad, hess = _quadratic_2d(a, b)
        if a > 0.2:
            return math.nan, grad, hess
        return value, (grad if b >= -1.3 else (math.inf, 0.0)), hess

    coarse = np.array([[cliff(x, y)[0] for y in ys] for x in xs])
    coarse_best = np.nanmax(coarse)
    points.clear()
    (x, y), v = maximize_2d(cliff, box, *first_coarse_max(coarse))
    assert len(points) <= 100
    assert math.isfinite(v) and v >= coarse_best
    assert x <= 0.2 and y >= -1.3
    assert v == pytest.approx(-(0.2 - 0.3) ** 2, abs=1e-3)
    # a -inf or NaN scan stays at its first point
    flat = lambda a, b: (-math.inf, (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    assert maximize_2d(flat, box, *first_coarse_max(_coarse_2d(flat, box))) == \
        ((-1.0, -2.0), -math.inf)


def test_maximize_2d_rejects_a_cell_off_the_grid():
    box = SearchBox(intervals=((0.0, 1.0), (0.0, 1.0)))
    for cell in ((64, 0), (0, 64), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="off the 64 x 64 grid"):
            maximize_2d(_plane_2d, box, cell, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=5)
    with pytest.raises(ValueError):
        SearchBox(intervals=((1.0, 0.0),))


def _counting(f):
    """f, recording the node count of each call."""
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return f(t)
    return counted, sizes


def test_gauss_legendre_table_is_leggauss():
    # the literal table keeps the mixture quadrature's output what leggauss gave
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    table = gauss_legendre()
    assert np.array_equal(table[0], nodes) and np.array_equal(table[1], weights)


def test_integrate_panels_exact_on_polynomials_of_degree_2m_minus_1():
    rng = np.random.default_rng(7)
    for degree in (0, 1, 5, 2 * PANEL_NODES - 1):
        p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
        exact = p.integ()(2.0) - p.integ()(-1.0)
        f, sizes = _counting(p)
        assert integrate_panels(f, -1.0, 2.0) == pytest.approx(exact, rel=1e-14, abs=1e-14)
        assert len(sizes) == 2  # the first two estimates already agree


def _kinked(t):
    # C^2 with a kink in the third derivative at 1/3
    return np.abs(t - 1.0 / 3.0) ** 3 * np.exp(t)


def _kinked_integral():
    a = 1.0 / 3.0
    anti = lambda t, s: s * math.exp(t) * ((t - a) ** 3 - 3 * (t - a) ** 2 + 6 * (t - a) - 6)
    return (anti(1.0, 1.0) - anti(a, 1.0)) + (anti(a, -1.0) - anti(0.0, -1.0))


def test_integrate_panels_cut_at_the_kink_converges_geometrically():
    exact = _kinked_integral()
    cut, cut_sizes = _counting(_kinked)
    assert integrate_panels(cut, 0.0, 1.0, (1.0 / 3.0,)) == pytest.approx(exact, rel=1e-14)
    assert len(cut_sizes) == 2
    # without the cut the rule still converges, at a higher panel count
    uncut, uncut_sizes = _counting(_kinked)
    assert integrate_panels(uncut, 0.0, 1.0) == pytest.approx(exact, rel=1e-12)
    assert max(uncut_sizes) > 4 * max(cut_sizes)


def test_integrate_panels_unresolved_integrand_raises_with_estimate():
    f = lambda x: np.abs(x - 1.0 / 3.0) ** -0.4
    with pytest.raises(ToleranceNotMet) as err:
        integrate_panels(f, 0.0, 1.0)
    exact, _ = integrate.quad(lambda x: abs(x - 1.0 / 3.0) ** -0.4, 0.0, 1.0,
                              points=[1.0 / 3.0])
    assert err.value.estimate == pytest.approx(exact, abs=0.05)


def test_integrate_panels_tolerance_is_relative():
    base = lambda t: np.exp(-t) * np.cos(3.0 * t)
    (f, f_sizes), (g, g_sizes) = _counting(base), _counting(lambda t: 1e-30 * base(t))
    exact = (1.0 - math.exp(-2.0) * (math.cos(6.0) - 3.0 * math.sin(6.0))) / 10.0
    assert integrate_panels(f, 0.0, 2.0) == pytest.approx(exact, rel=1e-14)
    assert integrate_panels(g, 0.0, 2.0) == pytest.approx(1e-30 * exact, rel=1e-14)
    assert g_sizes == f_sizes
    # a zero integral ends as well
    assert integrate_panels(lambda t: np.sin(t), -1.0, 1.0) == pytest.approx(0.0, abs=1e-16)


def test_integrate_panels_shift_floor():
    # there is no shift floor: (t + h) - t differs from h by up to ulp(t)/2 at
    # every node, so an integrand that forms it cannot reach 1e-12 at h = 1e-9
    # and the rule raises, with no floor to loosen it to; the same integrand
    # reading h itself converges
    h = 1e-9
    with pytest.raises(ToleranceNotMet):
        integrate_panels(lambda t: ((t + h) - t) / h * np.exp(-0.5 * t * t), -12.0, 12.0)
    got = integrate_panels(lambda t: np.full_like(t, h) / h * np.exp(-0.5 * t * t), -12.0, 12.0)
    assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
    assert "shift" not in inspect.signature(integrate_panels).parameters


def test_integrate_panels_stacked_rows_and_determinism():
    rows = lambda t: np.stack((np.exp(t), t * t))
    first = integrate_panels(rows, 0.0, 1.0, (0.5,))
    assert first == pytest.approx([math.e - 1.0, 1.0 / 3.0], rel=1e-14)
    assert np.array_equal(integrate_panels(rows, 0.0, 1.0, (0.5,)), first)
    f = lambda t: np.exp(-0.5 * t * t)
    assert integrate_panels(f, -12.0, 12.0) == integrate_panels(f, -12.0, 12.0)


def test_integrate_panels_rows_are_independent():
    # one integral per row: a row that converges at the first comparison leaves
    # the later passes and equals its own one-row call, and so does the row that
    # needs more panels; a padded cut outside a row's interval adds nothing
    def rows(t, kind):
        return np.where(kind == 0.0, np.exp(-t), _kinked(t))

    calls = []

    def counted(t, kind):
        calls.append(kind[:, 0].tolist())
        return rows(t, kind)
    got = integrate_panels(counted, np.zeros(2), 1.0, [[0.5, 7.0], [0.5, 0.5]],
                           (np.array([0.0, 1.0]),))
    assert calls[2:] and all(set(kinds) == {1.0} for kinds in calls[2:])
    assert got[0] == integrate_panels(lambda t: np.exp(-t), 0.0, 1.0, (0.5,))
    assert got[1] == integrate_panels(lambda t: _kinked(t), 0.0, 1.0, (0.5,))
    assert got[1] == pytest.approx(_kinked_integral(), rel=1e-12)


def test_integrate_panels_refines_only_the_pieces_that_need_it():
    # the smooth piece stops at the first comparison; the kinked one doubles on
    f, sizes = _counting(lambda t: np.where(t < 1.0, np.exp(t), _kinked(t - 1.0)))
    got = integrate_panels(f, 0.0, 2.0, (1.0,))
    assert got == pytest.approx(math.e - 1.0 + _kinked_integral(), rel=1e-12)
    assert sizes[:2] == [2 * 4 * PANEL_NODES, 2 * 8 * PANEL_NODES]
    assert sizes[2:] == [16 * 2**k * PANEL_NODES for k in range(len(sizes) - 2)]


def test_integrate_panels_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        integrate_panels(lambda t: np.where(t > 0.9, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_panels(lambda t: t, 1.0, 0.0)


def test_check_n():
    assert check_n(10) == 10
    for bad in (0, -3):
        with pytest.raises(ValueError, match="positive integer"):
            check_n(bad)
    with pytest.raises(ValueError, match="--n"):
        check_n(10 ** 400)
