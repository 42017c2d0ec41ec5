import math

import numpy as np
import pytest
from scipy import integrate

from minimaxlb.numerics import (PANEL_NODES, BracketError, QuadratureSpec, SearchBox,
                                ToleranceNotMet, check_n, coarse_axis, find_root_bisect,
                                gaussian_partial_second_moment,
                                integrate_adaptive, integrate_panels, maximize_1d,
                                maximize_2d, normal_cdf, normal_pdf)


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


def test_partial_second_moment_closed_form():
    assert gaussian_partial_second_moment(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_partial_second_moment(-math.inf) == 1.0
    assert gaussian_partial_second_moment(math.inf) == 0.0
    # independent oracle: direct numerical integration of z^2 phi(z) over [1, inf)
    oracle, _ = integrate.quad(lambda z: z * z * normal_pdf(z), 1.0, np.inf)
    assert gaussian_partial_second_moment(1.0) == pytest.approx(oracle, abs=1e-8)


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
    obj = lambda x: (-0.25 + 0.5 * math.exp(-x * x / 8.0)) * x * x
    _, v = maximize_1d(obj, 0.0, 10.0)
    assert v == pytest.approx(0.28953, abs=5e-4)


def test_maximize_1d_never_below_coarse_grid():
    f = lambda x: math.sin(17.0 * x) + 0.3 * math.sin(51.0 * x)
    xs = np.linspace(0.0, 3.0, 64)
    coarse_best = max(f(float(x)) for x in xs)
    _, v = maximize_1d(f, 0.0, 3.0)
    assert v >= coarse_best - 1e-15


def test_maximize_2d():
    box = SearchBox(intervals=((-1.0, 1.0), (-1.0, 1.0)))
    (x, y), v = maximize_2d(lambda a, b: -(a * a + b * b), box)
    assert abs(x) < 1e-6 and abs(y) < 1e-6
    assert v == pytest.approx(0.0, abs=1e-10)
    box = SearchBox(intervals=((0.0, 1.0), (0.0, 1.0)))
    (x, y), v = maximize_2d(lambda a, b: a + b, box)
    assert (x, y) == (1.0, 1.0)
    assert v == pytest.approx(2.0, abs=1e-12)


def _tie_on_edges_1d(x):
    # the two ends of [-1, 1] tie at 0, the maximum; the first (x = -1) wins
    return -abs(abs(x) - 1.0)


def _tie_on_corners_2d(x, y):
    # the four corners tie at the maximum; the first in row-major order wins
    return x * x + 0.25 * y * y


def test_maximize_1d_coarse_values_match_the_scan():
    xs = coarse_axis(-1.0, 1.0)
    coarse = np.array([_tie_on_edges_1d(x) for x in xs])
    scanned = maximize_1d(_tie_on_edges_1d, -1.0, 1.0)
    assert maximize_1d(_tie_on_edges_1d, -1.0, 1.0, coarse=coarse) == scanned
    assert scanned == (-1.0, 0.0)
    f = lambda t: math.sin(17.0 * t) + 0.3 * math.sin(51.0 * t)
    coarse = np.array([f(x) for x in coarse_axis(0.0, 3.0, 101)])
    assert maximize_1d(f, 0.0, 3.0, 101, coarse=coarse) == maximize_1d(f, 0.0, 3.0, 101)


def test_maximize_2d_coarse_values_match_the_scan():
    box = SearchBox(intervals=((-1.0, 1.0), (-2.0, 2.0)))
    xs, ys = (coarse_axis(lo, hi) for lo, hi in box.intervals)
    coarse = np.array([[_tie_on_corners_2d(x, y) for y in ys] for x in xs])
    scanned = maximize_2d(_tie_on_corners_2d, box)
    assert maximize_2d(_tie_on_corners_2d, box, coarse) == scanned
    assert scanned == ((-1.0, -2.0), 2.0)
    # an interior maximum off the diagonal, so a transposed table would miss it
    f = lambda a, b: -(a - 0.3) ** 2 - (b + 1.2) ** 2
    coarse = np.array([[f(x, y) for y in ys] for x in xs])
    assert maximize_2d(f, box, coarse) == maximize_2d(f, box)
    assert maximize_2d(f, box, coarse.T) != maximize_2d(f, box)
    # a NaN never wins the scan
    nan_left = lambda a, b: math.nan if a < 0.0 else a + b
    assert maximize_2d(nan_left, box) == ((1.0, 2.0), 3.0)


def test_maximize_coarse_values_of_the_wrong_shape_are_rejected():
    box = SearchBox(intervals=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="shape"):
        maximize_2d(lambda a, b: a + b, box, np.zeros((64, 63)))
    with pytest.raises(ValueError, match="shape"):
        maximize_2d(lambda a, b: a + b, box, np.zeros(64 * 64))
    with pytest.raises(ValueError, match="shape"):
        maximize_1d(lambda t: t, 0.0, 1.0, coarse=np.zeros(63))


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
    # (t + h) - t differs from h by up to ulp(t)/2 at every node: without its
    # shift the rule cannot reach 1e-12 at h = 1e-9, with it the floor applies
    h = 1e-9
    f = lambda t: ((t + h) - t) / h * np.exp(-0.5 * t * t)
    with pytest.raises(ToleranceNotMet):
        integrate_panels(f, -12.0, 12.0)
    got = integrate_panels(f, -12.0, 12.0, shift=h)
    assert got == pytest.approx(math.sqrt(2.0 * math.pi), rel=2.0**-50 * 12.0 / h)
    # a floor past 1e-3 leaves nothing to compute: t + h cannot resolve h at all
    with pytest.raises(ToleranceNotMet, match="cannot resolve"):
        integrate_panels(f, -12.0, 12.0, shift=1e-14)


def test_integrate_panels_stacked_rows_and_determinism():
    rows = lambda t: np.stack((np.exp(t), t * t))
    first = integrate_panels(rows, 0.0, 1.0, (0.5,))
    assert first == pytest.approx([math.e - 1.0, 1.0 / 3.0], rel=1e-14)
    assert np.array_equal(integrate_panels(rows, 0.0, 1.0, (0.5,)), first)
    f = lambda t: np.exp(-0.5 * t * t)
    assert integrate_panels(f, -12.0, 12.0) == integrate_panels(f, -12.0, 12.0)


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
