import math

import numpy as np
import pytest
from scipy import integrate, special

from minimaxlb import estimators
from minimaxlb.estimators import (Constant, PluginMLE, PreTest,
                                  local_minimax_risk, pretest_risk_at)
from minimaxlb.numerics import coarse_axis, normal_cdf, normal_pdf


def partial_second_moment(c):
    """E[Z^2 1{Z >= c}] = c phi(c) + 1 - Phi(c) for standard normal Z, by parts."""
    return c * normal_pdf(c) + 1.0 - normal_cdf(c)


def plugin_risk(theta, n):
    """The risk of max(mean, 0) as E[Z^2 1{Z >= -m}] + m^2 P(Z < -m), m = sqrt(n) theta:
    Phi(m) - m phi(m) + m^2 Phi(-m), the tail written in m, not in n theta^2."""
    m = math.sqrt(n) * theta
    below = normal_cdf(-m)
    return partial_second_moment(-m) + (m * m * below if below else 0.0)


def test_partial_second_moment_closed_form():
    assert partial_second_moment(0.0) == pytest.approx(0.5, abs=1e-15)
    # independent oracle: direct numerical integration of z^2 phi(z) over [c, inf)
    for c in (-2.0, 1.0, 3.0):
        oracle, _ = integrate.quad(lambda z: z * z * normal_pdf(z), c, np.inf)
        assert partial_second_moment(c) == pytest.approx(oracle, abs=1e-8)


def test_constant_risk():
    assert local_minimax_risk(Constant(), 2.0, 1) == 1.0
    assert local_minimax_risk(Constant(), 1.0, 100) == 25.0
    assert local_minimax_risk(Constant(), 1e-6, 10) == pytest.approx(2.5e-12, rel=1e-12)
    with pytest.raises(ValueError):
        local_minimax_risk(Constant(), 0.0, 1)


def test_plugin_risk_values():
    # the plug-in max(mean, 0) is the pre-test at threshold 0
    assert pretest_risk_at(0.0, 7, 0.0) == 0.5
    assert pretest_risk_at(30.0, 100, 0.0) == pytest.approx(1.0, abs=1e-15)
    # m = 2: Phi(2) - 2 phi(2) + 4 Phi(-2), cross-checked by direct integration
    got = pretest_risk_at(1.0, 4, 0.0)
    closed = normal_cdf(2.0) - 2.0 * normal_pdf(2.0) + 4.0 * normal_cdf(-2.0)
    assert got == pytest.approx(closed, abs=1e-15)
    part, _ = integrate.quad(lambda z: z * z * normal_pdf(z), -2.0, 40.0)
    tail, _ = integrate.quad(normal_pdf, -40.0, -2.0)
    assert got == pytest.approx(part + 4.0 * tail, abs=1e-6)
    with pytest.raises(ValueError):
        pretest_risk_at(-0.1, 4, 0.0)


def test_plugin_risk_monotone_and_bounded():
    ms = np.linspace(0.0, 10.0, 2001)
    vals = [pretest_risk_at(float(m), 1, 0.0) for m in ms]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    assert all(0.5 <= v <= 1.0 for v in vals)
    # f'(m) = 2 m Phi(-m): numeric derivative check
    for m in (0.5, 1.0, 3.0):
        eps = 1e-6
        num = (pretest_risk_at(m + eps, 1, 0.0) - pretest_risk_at(m - eps, 1, 0.0)) / (2 * eps)
        assert num == pytest.approx(2.0 * m * normal_cdf(-m), abs=1e-6)


def test_pretest_risk_values():
    # theta = 0, n = 16, Hodges threshold: cutoff is exactly 2
    got = pretest_risk_at(0.0, 16, 16**-0.25)
    assert got == pytest.approx(partial_second_moment(2.0), abs=1e-15)
    # large theta: cutoff -> -inf, full second moment, vanishing tail term
    assert pretest_risk_at(50.0, 16, 16**-0.25) == pytest.approx(1.0 + 0.0, abs=1e-12)
    # cutoff exactly zero: 0.5 + n theta^2 / 2
    theta = 0.25
    got = pretest_risk_at(theta, 16, theta)
    assert got == pytest.approx(0.5 + 16.0 * theta * theta / 2.0, abs=1e-15)
    for c_n in (-1e-300, -0.5, math.nan):
        with pytest.raises(ValueError, match="c_n must be >= 0"):
            pretest_risk_at(0.5, 16, c_n)


@pytest.mark.parametrize("n", [1, 10, 10**6])
def test_plugin_risk_is_the_pretest_at_threshold_zero(n):
    # one formula serves both: at c_n = 0 the pre-test's risk is the plug-in's closed
    # form to 1 ulp (its tail n theta^2 Phi(-m) takes one rounding fewer than m^2 Phi(-m))
    for theta in np.linspace(0.0, 40.0 / math.sqrt(n), 4001):
        want = plugin_risk(float(theta), n)
        assert abs(pretest_risk_at(float(theta), n, 0.0) - want) <= math.ulp(want)
    for delta in np.geomspace(1e-3, 1e3, 61):
        assert local_minimax_risk(PluginMLE(), float(delta), n) == \
            pretest_risk_at(float(delta) * (1.0 - 1e-12), n, 0.0)
    # the threshold 0 is the plug-in's, not a pre-test the CLI offers
    with pytest.raises(ValueError, match="threshold must be positive"):
        PreTest(0.0)


def test_local_minimax_plugin():
    assert local_minimax_risk(PluginMLE(), 50.0, 100) == pytest.approx(1.0, abs=1e-12)
    assert local_minimax_risk(PluginMLE(), 1e-9, 100) == pytest.approx(0.5, abs=1e-6)
    # monotonicity shortcut agrees with a dense scan
    for delta, n in [(0.5, 10), (2.0, 4), (10.0, 100)]:
        shortcut = local_minimax_risk(PluginMLE(), delta, n)
        scanned = max(pretest_risk_at(float(t), n, 0.0)
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
    # the best constant c = delta/2 is the only one: Constant takes no value, and its
    # risk keeps the bits of n max(|c|, |c - delta^-|)^2 at c = delta/2, the worse end
    with pytest.raises(TypeError):
        Constant(1.0)
    for n in (1, 7, 100, 10**6):
        for delta in np.geomspace(1e-6, 1e6, 37):
            c = float(delta) / 2.0
            worst = max(abs(c), abs(c - float(delta) * (1.0 - 1e-12)))
            assert local_minimax_risk(Constant(), float(delta), n) == n * worst * worst
    # off-center constants do worse: their sup over [0, 2) is above the best constant's
    scan = np.linspace(0.0, 2.0 * (1.0 - 1e-12), 1001)
    assert max((1.5 - scan) ** 2) > local_minimax_risk(Constant(), 2.0, 1) == 1.0


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
        assert at_zero < pretest_risk_at(0.0, n, 0.0)
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
    assert pretest_risk_at(1e300, 10, 0.0) == 1.0
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
    scan = max(pretest_risk_at(float(m) / root_n, n, c_n) for m in ms)
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
        value, grad, hess = f(m)
        h = 1e-4
        fd_grad = (f(m + h)[0] - f(m - h)[0]) / (2.0 * h)
        fd_hess = (f(m + h)[1] - f(m - h)[1]) / (2.0 * h)
        assert fd_grad == pytest.approx(grad, rel=1e-6, abs=1e-6 * value), (m, grad, fd_grad)
        assert fd_hess == pytest.approx(hess, rel=1e-6, abs=1e-6 * value), (m, hess, fd_hess)


# the closed_form_grid benchmark's seed-0 rows and the default figure's rows
_SUP_ROWS = ([(10 ** k, float(d)) for k in range(7) for d in np.geomspace(1e-3, 1e3, 25)]
             + [(n, float(d)) for n in (10, 100) for d in np.geomspace(1e-2, 1e2, 50)])


def _mp_pretest_sup(delta, n, c_n, dps=50):
    """The pre-test sup at dps digits, from the same float inputs: R at delta^-, or R at the
    root of R', bisected on [k/2, min(sqrt(n) delta^-, k + 2/k)] to an absolute 1e-12 in m,
    where R(m) = c phi(c) + Phi(-c) + m^2 Phi(c), R'(m) = k (k - 2m) phi(c) + 2m Phi(c),
    c = k - m and k = sqrt(n) c_n. Past k + 2/k, where R' < 0, mpmath's ncdf loses its
    digits at c ~ -1e12, so the reference reads R' only inside the bracket."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        root_n = mpmath.sqrt(n)
        k, top = root_n * mpmath.mpf(c_n), root_n * mpmath.mpf(delta * (1.0 - 1e-12))

        def risk(m):
            c = k - m
            return c * mpmath.npdf(c) + mpmath.ncdf(-c) + m * m * mpmath.ncdf(c)

        def slope(m):
            c = k - m
            return k * (k - 2 * m) * mpmath.npdf(c) + 2 * m * mpmath.ncdf(c)

        if top < k + 2 / k and slope(top) >= 0:
            return risk(top)
        a, b = k / 2, min(top, k + 2 / k)
        for _ in range(int(mpmath.log((b - a) * 1e12, 2)) + 1):
            mid = (a + b) / 2
            a, b = (mid, b) if slope(mid) > 0 else (a, mid)
        return risk(a)


@pytest.mark.parametrize("threshold", _THRESHOLDS)
def test_pretest_sup_matches_mpmath(threshold):
    # every figure and closed_form_grid row and every threshold, within 2e-15 of the
    # 50-digit sup (the worst reads 9.8e-16, a row whose sup sits at delta^-)
    for n, delta in _SUP_ROWS:
        c_n = n ** -0.25 if threshold is None else threshold
        want = _mp_pretest_sup(delta, n, c_n)
        got = local_minimax_risk(PreTest(threshold), delta, n)
        assert abs(got - want) <= 2e-15 * want, (n, delta, got, float(want))


@pytest.mark.parametrize("threshold,delta,n", [
    # the dense scan reads 1.00000000034951; Newton's |gradient| <= 1e-10 |value| stop
    # read 1.0000000003491372, short of the bump of 3.5e-10 above the plateau 1
    (0.1, 5.623413251903491, 3),
    # draws that moved by over 1e-14 when the sup became the slope's root, all up
    (0.061459237439126305, 1059.733, 7),
    (0.004223644744265215, 99.07859012538518, 1344),
    (0.0012548515847640655, 383.10401813973795, 15089),
    (0.0019977317251816127, 0.0651033338239481, 7925),
    (0.0035311449210753214, 126.32728563971492, 1952),
    (0.0010746139990565457, 201.13198323260366, 22880),
    (0.003297375687838099, 108.57578926976703, 2419),
    (0.0026241272421411864, 2109.9515545752133, 3503),
])
def test_pretest_sup_reaches_a_small_bump(threshold, delta, n):
    want = _mp_pretest_sup(delta, n, threshold)
    got = local_minimax_risk(PreTest(threshold), delta, n)
    assert abs(got - want) <= 1e-15 * want, (got, float(want))


@pytest.mark.parametrize("n", [10**20, 10**100, 10**300], ids=["1e20", "1e100", "1e300"])
def test_hodges_sup_at_large_n_matches_mpmath(n):
    # the bump of height about sqrt(n) sits about sqrt(2 log k) below k = n^(1/4) in m
    # (18.5 at n = 1e300, k = 1e75), so there m needs over 75 digits: the reference
    # takes 250; at n = 1e100 and 1e300 the 2 x 64-point scan read 1.45e-15 and 1.21e-15 low
    want = _mp_pretest_sup(1.0, n, n ** -0.25, dps=250)
    got = local_minimax_risk(PreTest(), 1.0, n)
    assert abs(got - want) <= 1e-15 * want, (got, float(want))


def test_pretest_sup_beats_a_dense_scan_in_few_evaluations(monkeypatch):
    # derandomized: n up to 1e300, delta over the range where sqrt(n) delta is finite,
    # Hodges or a threshold in [1e-3, 10]; the scan covers the bracket of the slope's
    # root and the 40 below k, where the bump sits for large k
    calls, objective = [], estimators._pretest_objective
    monkeypatch.setattr(estimators, "_pretest_objective",
                        lambda *args: calls.append(args) or objective(*args))
    rng, checked, most = np.random.default_rng(37), 0, 0
    for _ in range(300):
        n = int(10.0 ** rng.uniform(0.0, 300.0 if rng.random() < 0.5 else 12.0))
        root_n = math.sqrt(n)
        delta = float(10.0 ** rng.uniform(-300.0, 300.0 - math.log10(root_n)))
        threshold = None if rng.random() < 0.5 else float(10.0 ** rng.uniform(-3.0, 1.0))
        c_n = n ** -0.25 if threshold is None else threshold
        k, hi = root_n * c_n, delta * (1.0 - 1e-12)
        calls.clear()
        got, evals = local_minimax_risk(PreTest(threshold), delta, n), len(calls)
        most = max(most, evals)
        assert evals <= 12, (threshold, delta, n, evals)
        ms = np.concatenate((np.linspace(max(0.0, min(0.5 * k, k - 40.0)), k + 2.0 / k, 2001),
                             np.linspace(max(0.0, k - 40.0), k, 2001)))
        scan = max([pretest_risk_at(min(float(m) / root_n, hi), n, c_n)
                    for m in ms if m <= root_n * hi] + [pretest_risk_at(hi, n, c_n)])
        assert got >= scan * (1.0 - 1e-15), (threshold, delta, n, got, scan)
        checked += scan > 1.0 + 1e-9  # a bump above the plateau 1, not only delta^-
    assert checked >= 50 and most >= 5


def test_pretest_slope_changes_sign_once():
    # R'(m) = 2m phi(x) S(m), x = m - k, with S(m) = M(x) - k (2m - k) / (2m) and the Mills
    # ratio M(x) = Phi(-x)/phi(x) = sqrt(pi/2) erfcx(x/sqrt(2)): on a fine m grid S is
    # + up to max(k/2, k - t_k), - from k + 2/k, and changes sign once, from + to -: the
    # unimodality the pre-test sup reads its one root from
    for k in np.geomspace(1e-6, 1e12, 37):
        ms = np.concatenate((np.linspace(0.0, k + 4.0 / k + 40.0, 4001)[1:],
                             np.linspace(max(k - 40.0, 0.0), k + 2.0 / k, 4001)[1:]))
        ms = np.unique(ms)
        with np.errstate(over="ignore"):  # M = inf far below k, where S > 0
            s = math.sqrt(math.pi / 2.0) * special.erfcx((ms - k) / math.sqrt(2.0)) \
                - k * (2.0 * ms - k) / (2.0 * ms)
        rise = 0.5 * k
        if math.log(k / (normal_cdf(1.0) * math.sqrt(2.0 * math.pi))) >= 0.5:
            rise = max(rise, k - math.sqrt(2.0 * math.log(k / (normal_cdf(1.0)
                                                               * math.sqrt(2.0 * math.pi)))))
        assert (s[ms <= rise] > 0.0).all() and (s[ms >= k + 2.0 / k] < 0.0).all(), k
        signs = np.sign(s)  # 0 only at a grid point on the root, as m = 1/k at k = 1e-6
        assert (np.diff(signs) <= 0.0).all() and signs[0] > 0.0 > signs[-1], k


@pytest.mark.parametrize("threshold", _THRESHOLDS)
def test_pretest_objective_value_is_the_risk_bit_for_bit(threshold):
    # each step of the sup's root search reads the risk from its one phi and Phi, and
    # must keep every bit of pretest_risk_at: here on 64 points of [0, delta) and 64 of
    # the bump window next to the threshold
    for n, delta in _SUP_ROWS:
        c_n = n ** -0.25 if threshold is None else threshold
        root_n, hi = math.sqrt(n), delta * (1.0 - 1e-12)
        for top in (hi, min(hi, c_n + 10.0 / root_n)):
            for m in coarse_axis(0.0, root_n * top).tolist():
                assert estimators._pretest_objective(n, c_n, m)[0] == \
                    pretest_risk_at(m / math.sqrt(n), n, c_n), (n, delta, m)


def test_broadcast_risk_where_n_theta_squared_overflows():
    # the tail probability is 0 where n theta^2 overflows: the term is 0, with
    # no overflow warning (a RuntimeWarning fails the test)
    assert pretest_risk_at(1e150, 10, 10 ** -0.25) == 1.0
    assert pretest_risk_at(1e300, 10, 10 ** -0.25) == 1.0
    with pytest.raises(ValueError):
        pretest_risk_at(-1e-9, 10, 10 ** -0.25)
    with pytest.raises(ValueError):
        normal_cdf(math.inf)


def test_pretest_risk_matches_mpmath():
    # c phi(c) + Phi(-c) + n theta^2 Phi(c), c = sqrt(n) (c_n - theta), against a 60-digit
    # evaluation at the same float inputs, with the tail taken as ncdf(-c): 1 - ncdf(c)
    # loses it past c ~ 17 even at 60 digits. Where c > 0 the float form reads Phi(-c)
    # itself; 1 - Phi(c) read 0.0 at theta = 0 where the risk is 7.8e-22. The risk's
    # relative conditioning in c is about c^2, so a draw may miss by 1e-15 (1 + c^2)
    mpmath = pytest.importorskip("mpmath")

    def exact(theta, n, c_n):
        with mpmath.workdps(60):
            theta, n = mpmath.mpf(theta), mpmath.mpf(n)
            c = mpmath.sqrt(n) * (mpmath.mpf(c_n) - theta)
            return float(c * mpmath.npdf(c) + mpmath.ncdf(-c) + n * theta**2 * mpmath.ncdf(c)), \
                float(c)

    for theta, n, c_n in ((0.0, 10**4, 0.1), (0.0, 10**8, 0.001), (0.0, 10**6, 0.008),
                          (1e-9, 10**4, 0.1)):
        want, _ = exact(theta, n, c_n)
        assert abs(pretest_risk_at(theta, n, c_n) - want) <= 1e-14 * want, (theta, n, c_n)
    rng, checked = np.random.default_rng(33), 0
    for _ in range(2000):
        n = int(10.0 ** rng.uniform(0.0, 12.0))
        c_n = n ** -0.25 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-4.0, 1.0))
        theta = 0.0 if rng.random() < 0.1 else abs(c_n + rng.uniform(-5.0, 5.0) / math.sqrt(n))
        want, c = exact(theta, n, c_n)
        if want < 1e-290:  # past the float range of its terms
            continue
        got = pretest_risk_at(theta, n, c_n)
        assert abs(got - want) <= 1e-15 * (1.0 + c * c) * want, (theta, n, c_n, got, want)
        checked += 1
    assert checked >= 1500
