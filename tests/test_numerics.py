import math

import numpy as np
import pytest
from scipy import integrate

from minimaxlb.numerics import (BracketError, QuadratureSpec, SearchBox,
                                ToleranceNotMet, find_root_bisect,
                                gaussian_partial_second_moment,
                                integrate_adaptive, maximize_1d, maximize_2d,
                                normal_cdf, normal_pdf)


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


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_depth=5)
    with pytest.raises(ValueError):
        SearchBox(intervals=((1.0, 0.0),))
