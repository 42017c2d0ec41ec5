import math

import numpy as np
import pytest
from scipy import integrate

from minimaxlb import estimators
from minimaxlb.estimators import (Constant, PluginMLE, PreTest,
                                  local_minimax_risk, plugin_risk_at,
                                  pretest_risk_at)
from minimaxlb.numerics import coarse_axis, gaussian_partial_second_moment, normal_cdf, normal_pdf


def test_constant_risk():
    assert local_minimax_risk(Constant(), 2.0, 1) == 1.0
    assert local_minimax_risk(Constant(), 1.0, 100) == 25.0
    assert local_minimax_risk(Constant(), 1e-6, 10) == pytest.approx(2.5e-12, rel=1e-12)
    with pytest.raises(ValueError):
        local_minimax_risk(Constant(), 0.0, 1)


def test_plugin_risk_values():
    assert plugin_risk_at(0.0, 7) == 0.5
    assert plugin_risk_at(30.0, 100) == pytest.approx(1.0, abs=1e-15)
    # m = 2: Phi(2) - 2 phi(2) + 4 Phi(-2), cross-checked by direct integration
    got = plugin_risk_at(1.0, 4)
    closed = normal_cdf(2.0) - 2.0 * normal_pdf(2.0) + 4.0 * normal_cdf(-2.0)
    assert got == pytest.approx(closed, abs=1e-15)
    part, _ = integrate.quad(lambda z: z * z * normal_pdf(z), -2.0, 40.0)
    tail, _ = integrate.quad(normal_pdf, -40.0, -2.0)
    assert got == pytest.approx(part + 4.0 * tail, abs=1e-6)
    with pytest.raises(ValueError):
        plugin_risk_at(-0.1, 4)


def test_plugin_risk_monotone_and_bounded():
    ms = np.linspace(0.0, 10.0, 2001)
    vals = [plugin_risk_at(float(m), 1) for m in ms]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert all(0.5 <= v <= 1.0 for v in vals)
    # f'(m) = 2 m Phi(-m): numeric derivative check
    for m in (0.5, 1.0, 3.0):
        eps = 1e-6
        num = (plugin_risk_at(m + eps, 1) - plugin_risk_at(m - eps, 1)) / (2 * eps)
        assert num == pytest.approx(2.0 * m * normal_cdf(-m), abs=1e-6)


def test_pretest_risk_values():
    # theta = 0, n = 16, Hodges threshold: cutoff is exactly 2
    got = pretest_risk_at(0.0, 16, 16**-0.25)
    assert got == pytest.approx(gaussian_partial_second_moment(2.0), abs=1e-15)
    # large theta: cutoff -> -inf, full second moment, vanishing tail term
    assert pretest_risk_at(50.0, 16, 16**-0.25) == pytest.approx(1.0 + 0.0, abs=1e-12)
    # cutoff exactly zero: 0.5 + n theta^2 / 2
    theta = 0.25
    got = pretest_risk_at(theta, 16, theta)
    assert got == pytest.approx(0.5 + 16.0 * theta * theta / 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        pretest_risk_at(0.5, 16, 0.0)


def test_local_minimax_plugin():
    assert local_minimax_risk(PluginMLE(), 50.0, 100) == pytest.approx(1.0, abs=1e-12)
    assert local_minimax_risk(PluginMLE(), 1e-9, 100) == pytest.approx(0.5, abs=1e-6)
    # monotonicity shortcut agrees with a dense scan
    for delta, n in [(0.5, 10), (2.0, 4), (10.0, 100)]:
        shortcut = local_minimax_risk(PluginMLE(), delta, n)
        scanned = max(plugin_risk_at(float(t), n)
                      for t in np.linspace(0.0, delta * (1.0 - 1e-12), 257))
        assert shortcut >= scanned - 1e-10
        assert shortcut == pytest.approx(scanned, abs=1e-6)


@pytest.mark.parametrize("delta,n", [(1.0, 16), (100.0, 100), (100.0, 10**4),
                                     (0.2, 10**4), (3.0, 4)])
def test_local_minimax_pretest_vs_dense_grid(delta, n):
    got = local_minimax_risk(PreTest(), delta, n)
    c_n = n**-0.25
    # dense oracle over the bump window plus the plateau tail
    hi = delta * (1.0 - 1e-12)
    pts = np.linspace(0.0, min(hi, c_n + 12.0 / math.sqrt(n)), 10**5)
    oracle = max(pretest_risk_at(float(t), n, c_n) for t in pts)
    oracle = max(oracle, max(pretest_risk_at(float(t), n, c_n)
                             for t in np.linspace(0.0, hi, 10**4)))
    assert got == pytest.approx(oracle, rel=1e-6)
    assert got >= oracle - 1e-9


def test_constant_estimator_spec():
    # best constant c = delta/2 reproduces the closed form
    assert local_minimax_risk(Constant(1.0), 2.0, 1) == \
        pytest.approx(local_minimax_risk(Constant(), 2.0, 1), rel=1e-9)
    # off-center constants do worse
    assert local_minimax_risk(Constant(1.5), 2.0, 1) > 1.0


def test_negative_theta_dominated():
    # re-verify the reduction: risk of the plug-in on theta in (-delta, 0)
    # never exceeds the value at theta = 0
    def plugin_risk_negative(theta, n):
        m = math.sqrt(n) * theta  # m < 0
        val, _ = integrate.quad(lambda z: (z + m) ** 2 * normal_pdf(z), -m, 40.0)
        return val

    for n in (1, 4, 16):
        for theta in np.linspace(-2.0, -1e-3, 25):
            assert plugin_risk_negative(float(theta), n) <= 0.5 + 1e-9


def test_pretest_superefficient_but_worse_locally():
    for n in (2, 4, 16, 100):
        at_zero = pretest_risk_at(0.0, n, n**-0.25)
        assert at_zero < plugin_risk_at(0.0, n)
    for n in (4, 16, 100):
        for delta in (n**-0.25, 0.5, 1.0, 2.0):
            if delta < n**-0.25:
                continue
            assert local_minimax_risk(PreTest(), delta, n) > \
                local_minimax_risk(PluginMLE(), delta, n)


def test_risk_range_invariant():
    for n in (1, 10, 100):
        for delta in (0.01, 0.5, 1.0, 10.0):
            cap = max(1.0, n * delta * delta / 4.0) + 1.0
            assert 0.0 <= local_minimax_risk(Constant(), delta, n) <= cap
            assert 0.0 <= local_minimax_risk(PluginMLE(), delta, n) <= cap


def test_pretest_threshold_validation():
    with pytest.raises(ValueError):
        PreTest(threshold=-1.0)
    assert local_minimax_risk(PreTest(threshold=0.5), 1.0, 16) == \
        local_minimax_risk(PreTest(), 1.0, 16)


def test_risks_at_huge_theta():
    # n theta^2 overflows to inf where the tail probability underflows to 0:
    # the term is 0, not inf * 0 = NaN, and both risks tend to 1
    assert plugin_risk_at(1e300, 10) == 1.0
    assert pretest_risk_at(1e300, 10, 10 ** -0.25) == 1.0


@pytest.mark.parametrize("n", [10**20, 10**100, 10**300], ids=["1e20", "1e100", "1e300"])
@pytest.mark.parametrize("delta", [1e-3, 1.0, 1e3])
def test_local_minimax_pretest_at_large_n(n, delta):
    # the risk bump of height about n^(1/2) sits at m = sqrt(n) theta near
    # k = n^(1/4); a golden search in theta stops at an absolute width of
    # 1e-14 and read 2.4% below it at n = 1e100
    root_n, c_n = math.sqrt(n), n ** -0.25
    k = root_n * c_n
    ms = np.linspace(max(0.0, k - 40.0), min(k + 40.0, root_n * delta * (1.0 - 1e-12)), 20001)
    scan = pretest_risk_at(ms / root_n, n, c_n).max()
    assert local_minimax_risk(PreTest(), delta, n) >= scan * (1.0 - 1e-12)


_THRESHOLDS = [None, 0.01, 0.5, 2.0]


@pytest.mark.parametrize("n", [1, 16, 10**4, 10**6])
@pytest.mark.parametrize("threshold", _THRESHOLDS)
def test_pretest_derivatives_in_m_match_central_differences(n, threshold):
    c_n = n ** -0.25 if threshold is None else threshold
    k = math.sqrt(n) * c_n
    f = lambda m: estimators._pretest_objective(n, c_n, m)
    for m in sorted({0.5 * k, k - 3.0, k - 1.0, k - 0.1, k, k + 0.7, k + 2.5, 2.0 * k + 1.0}):
        if m < 1e-3:
            continue
        value, (grad,), ((hess,),) = f(m)
        h = 1e-4
        fd_grad = (f(m + h)[0] - f(m - h)[0]) / (2.0 * h)
        fd_hess = (f(m + h)[1][0] - f(m - h)[1][0]) / (2.0 * h)
        assert fd_grad == pytest.approx(grad, rel=1e-6, abs=1e-6 * value), (m, grad, fd_grad)
        assert fd_hess == pytest.approx(hess, rel=1e-6, abs=1e-6 * value), (m, hess, fd_hess)


@pytest.mark.parametrize("threshold", _THRESHOLDS)
def test_broadcast_risk_equals_the_scalar_calls(threshold):
    # the sup's array scans: pretest_risk_at and normal_cdf take math's exp and
    # erfc of each entry, so they equal the scalar calls on both coarse windows
    # of the default figure's rows, and pick the same argmax
    for n in (10, 100):
        c_n = n ** -0.25 if threshold is None else threshold
        for delta in np.geomspace(1e-2, 1e2, 50):
            hi = delta * (1.0 - 1e-12)
            for top in (hi, min(hi, c_n + 10.0 / math.sqrt(n))):
                thetas = coarse_axis(0.0, math.sqrt(n) * top) / math.sqrt(n)
                want = [pretest_risk_at(float(t), n, c_n) for t in thetas]
                assert pretest_risk_at(thetas, n, c_n).tolist() == want
                cuts = math.sqrt(n) * (c_n - thetas)
                assert normal_cdf(cuts).tolist() == [normal_cdf(float(c)) for c in cuts]


def test_broadcast_risk_where_n_theta_squared_overflows():
    # the tail probability is 0 where n theta^2 overflows: the term is 0, with
    # no overflow warning (a RuntimeWarning fails the test)
    thetas = np.array([0.0, 0.5, 1e150, 1e300])
    got = pretest_risk_at(thetas, 10, 10 ** -0.25)
    assert got.tolist() == [pretest_risk_at(float(t), 10, 10 ** -0.25) for t in thetas]
    assert got[-1] == 1.0
    with pytest.raises(ValueError):
        pretest_risk_at(np.array([0.5, -1e-9]), 10, 10 ** -0.25)
    with pytest.raises(ValueError):
        normal_cdf(np.array([0.0, math.inf]))
