import math
import re

import numpy as np
import pytest
from scipy import integrate

from minimaxlb.models import GaussianLocation, UniformScale, chi_sq_iid, hellinger_sq_iid

GAUSS = GaussianLocation(1.0)
UNIF = UniformScale()


def density(family, theta, x):
    """The reference density p_theta(x), written from the formulas:
    exp((x - theta)^2 (-0.5/sigma^2)) / (sigma sqrt(2 pi)) and 1{0 <= x <= theta} / theta."""
    if isinstance(family, GaussianLocation):
        sigma = family.sigma
        return np.exp((x - theta)**2 * (-0.5 / sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    return ((0.0 <= x) & (x <= theta)) / theta


def _kernel(family, theta, x):
    """The root sqrt(k) of the density's kernel k/d, as the grid oracles write it."""
    out = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(x)))
    family._write_kernel(family._kernel_units(theta), family._kernel_units(x), out)
    return out


def hellinger_oracle(family, t1, t2):
    """Brute-force integral of (sqrt(p1) - sqrt(p2))^2."""
    if isinstance(family, GaussianLocation):
        lo = min(t1, t2) - 15.0 * family.sigma
        hi = max(t1, t2) + 15.0 * family.sigma
        pts = None
    else:
        lo, hi = 0.0, max(t1, t2)
        pts = [min(t1, t2)]
    f = lambda x: (math.sqrt(density(family, t1, x)) - math.sqrt(density(family, t2, x))) ** 2
    val, _ = integrate.quad(f, lo, hi, points=pts, limit=200)
    return val


def chi_sq_oracle(family, t_num, t_den):
    if isinstance(family, GaussianLocation):
        lo = min(t_num, t_den) - 15.0 * family.sigma
        hi = max(t_num, t_den) + 15.0 * family.sigma
        pts = None
    else:
        lo, hi = 0.0, t_den
        pts = [t_num]
    f = lambda x: (density(family, t_num, x) / density(family, t_den, x) - 1.0) ** 2 \
        * density(family, t_den, x)
    val, _ = integrate.quad(f, lo, hi, points=pts, limit=200)
    return val


def test_density_examples():
    # the density sqrt(k)^2/d from the family's root kernel and divisor
    assert _kernel(GAUSS, 0.0, 0.0)**2 / GAUSS._divisor(0.0) == pytest.approx(0.39894228, abs=1e-8)
    assert _kernel(UNIF, 2.0, 1.0)**2 / UNIF._divisor(2.0) == 0.5
    assert _kernel(UNIF, 2.0, 3.0) == 0.0


def test_density_rejects_bad_theta():
    # the grid oracles check theta and x before they write a kernel
    ts, xs = np.linspace(0.5, 3.0, 26)[:, None], np.linspace(-1.0, 4.0, 101)
    for family in (GaussianLocation(0.5), GAUSS, UNIF):
        rejected_inputs = [(math.nan, 0.5), (1.0, math.inf), (ts, np.array([0.0, math.nan]))]
        if family is UNIF:  # theta > 0
            rejected_inputs += [(0.0, 0.5), (-1.0, 0.5), (np.array([[1.0], [0.0]]), xs)]
        for theta, x in rejected_inputs:
            with pytest.raises(ValueError, match="must be finite|requires theta > 0"):
                family.check_theta(theta), family.check_x(x)
    assert UNIF.check_theta(2.0) == 2.0 and GAUSS.check_x(xs) is xs


@pytest.mark.parametrize("family", [GaussianLocation(0.5), GAUSS, GaussianLocation(3.0), UNIF],
                         ids=["gauss-0.5", "gauss-1", "gauss-3", "uniform"])
def test_root_density_is_the_closed_form_root(family):
    # sqrt(p) = sqrt(k)/sqrt(d) with the kernel's closed-form root squares to the density
    # formula's p within 4 ulp, on a broadcast grid and at a point
    ts, xs = np.linspace(0.5, 3.0, 26)[:, None], np.linspace(-1.0, 4.0, 101)
    for theta, x in ((ts, xs), (2.0, 1.5)):
        root = _kernel(family, theta, x) / np.sqrt(family._divisor(theta))
        p = np.asarray(density(family, theta, x))
        assert root.shape == p.shape == np.broadcast_shapes(np.shape(theta), np.shape(x))
        assert np.all(np.abs(root**2 - p) <= 4.0 * np.spacing(p))


@pytest.mark.parametrize("sigma", [7.5e-155, 2.0**-40, 0.75, 1.0, 3.0, 1e5, 2.0**300, 1e153])
def test_gaussian_kernel_keeps_the_bits_of_the_unscaled_formula(sigma):
    # x - theta is read in units of a power of two near 1/sigma, and the power is folded
    # into the exponent's constant: every bit of the formula where it neither over- nor
    # underflows
    family = GaussianLocation(sigma)
    theta, x = sigma * np.linspace(-3.0, 3.0, 13)[:, None], sigma * np.linspace(-9.0, 9.0, 101)
    assert family._divisor(theta) == sigma * math.sqrt(2.0 * math.pi)
    assert np.array_equal(_kernel(family, theta, x), np.exp((x - theta)**2 * (-0.25 / sigma**2)))


@pytest.mark.parametrize("sigma", [1e154, 1.3e154])
def test_gaussian_density_past_the_square_of_the_float_range(sigma):
    # (x - theta)^2 of 2 sigma overflows: the kernel reads it in units near sigma
    family, d = GaussianLocation(sigma), sigma * math.sqrt(2.0 * math.pi)
    want = math.exp(-2.0) / d
    assert _kernel(family, 0.0, 2.0 * sigma)**2 / d == pytest.approx(want, rel=1e-15)
    assert (_kernel(family, sigma, -sigma) / math.sqrt(d)) ** 2 == pytest.approx(want, rel=1e-15)


def test_fisher_info():
    assert GAUSS.fisher_info(0.7) == 1.0
    assert GaussianLocation(2.0).fisher_info(-3.0) == 0.25
    assert UNIF.fisher_info(1.0) == math.inf


def test_hellinger_closed_forms_vs_oracle():
    assert GAUSS.hellinger_sq(0.3, 0.0) == 0.0
    got = UNIF.hellinger_sq(1.0, 0.5)
    assert got == pytest.approx(2.0 * (1.0 - 1.5**-0.5), abs=1e-12)
    assert got == pytest.approx(hellinger_oracle(UNIF, 1.0, 1.5), abs=1e-8)
    got = GAUSS.hellinger_sq(0.0, 1.0)
    assert got == pytest.approx(hellinger_oracle(GAUSS, 0.0, 1.0), abs=1e-8)


@pytest.mark.parametrize("family,pairs", [
    (GAUSS, [(0.0, 0.5), (-1.0, 2.0), (0.0, 4.0)]),
    (GaussianLocation(0.5), [(0.0, 0.25), (1.0, 1.8)]),
    (UNIF, [(1.0, 1.2), (0.5, 2.0), (2.0, 2.001)]),
])
def test_divergences_match_integral_oracle(family, pairs):
    for t1, t2 in pairs:
        # H^2(P_t2, P_t1) is the divergence of the shift t2 - t1 from t1
        assert family.hellinger_sq(t1, t2 - t1) == pytest.approx(
            hellinger_oracle(family, t1, t2), abs=1e-7)
        lo, hi = min(t1, t2), max(t1, t2)
        val = family.chi_sq(hi, lo - hi)
        assert val == pytest.approx(chi_sq_oracle(family, lo, hi), abs=1e-7)


def test_hellinger_symmetry_and_range():
    for t1, t2 in [(0.0, 1.0), (-2.0, 5.0), (0.25, 0.5)]:
        a = GAUSS.hellinger_sq(t1, t2 - t1)
        assert a == GAUSS.hellinger_sq(t2, t1 - t2)
        assert 0.0 <= a <= 2.0
    for t1, t2 in [(1.0, 2.0), (0.5, 0.75)]:
        a = UNIF.hellinger_sq(t1, t2 - t1)
        assert a == UNIF.hellinger_sq(t2, t1 - t2)
        assert 0.0 <= a <= 2.0


def test_chi_sq_examples():
    assert GAUSS.chi_sq(0.4, 0.0) == 0.0
    assert UNIF.chi_sq(1.0, 1.0) == math.inf
    assert GAUSS.chi_sq(0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_chi_sq_overflow_is_divergent():
    # exp(50^2) is beyond the float range: effectively infinite
    assert GAUSS.chi_sq(0.0, 50.0) == math.inf
    assert chi_sq_iid(GAUSS, 0.0, 50.0, 100) == math.inf


def test_hellinger_iid():
    assert hellinger_sq_iid(GAUSS, 0.0, 0.7, 1) == GAUSS.hellinger_sq(0.0, 0.7)
    assert hellinger_sq_iid(UNIF, 3.0, 0.0, 17) == 0.0
    got = hellinger_sq_iid(UNIF, 1.0, 1e-6, 10**6)
    assert got == pytest.approx(2.0 - 2.0 * math.exp(-0.5), abs=1e-5)
    with pytest.raises(ValueError):
        hellinger_sq_iid(GAUSS, 0.0, 1.0, 0)


def test_hellinger_tensorization_identity():
    for m, n in [(1, 1), (2, 3), (5, 7), (10, 90)]:
        h2m = hellinger_sq_iid(GAUSS, 0.0, 0.4, m)
        h2one = hellinger_sq_iid(GAUSS, 0.0, 0.4, 1)
        h2mn = hellinger_sq_iid(GAUSS, 0.0, 0.4, m + n)
        lhs = 1.0 - h2mn / 2.0
        rhs = (1.0 - h2m / 2.0) * (1.0 - h2one / 2.0) ** n
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_chi_sq_iid():
    assert chi_sq_iid(GAUSS, 0.1, 0.2, 1) == GAUSS.chi_sq(0.1, 0.2)
    assert chi_sq_iid(GAUSS, 1.0, 0.0, 5) == 0.0
    got = chi_sq_iid(GAUSS, 0.0, 0.1, 10)
    assert got == pytest.approx(math.expm1(0.1), abs=1e-12)
    assert chi_sq_iid(UNIF, 1.0, 1.0, 3) == math.inf
    with pytest.raises(ValueError):
        chi_sq_iid(GAUSS, 0.0, 1.0, 0)


def test_local_ratio_gaussian_quadratic():
    for sigma in (0.5, 1.0, 2.0):
        fam = GaussianLocation(sigma)
        target = fam.fisher_info(0.0) / 4.0
        for h in (1e-2, 1e-3, 1e-4):
            assert abs(fam.hellinger_sq(0.0, h) / (h * h) - target) <= 10.0 * h


def test_local_ratio_uniform_blows_up():
    # Taylor oracle: 2(1 - (1+h)^(-1/2))/h^2 = 1/h - 3/4 + O(h) at theta = 1
    h = 1e-4
    got = UNIF.hellinger_sq(1.0, h) / (h * h)
    assert got == pytest.approx(1.0 / h - 0.75, abs=1.0)
    assert UNIF.hellinger_sq(1.0, 1e-5) / 1e-10 > got  # diverges as h -> 0


def test_divergences_accept_arrays():
    theta = np.array([1.0, 1.5, 2.0, 3.0])
    for family in (GAUSS, UNIF):
        for n in (1, 7):
            for h in (0.2, 0.0, -0.5):
                got = hellinger_sq_iid(family, theta, h, n)
                assert got == pytest.approx([hellinger_sq_iid(family, float(t), h, n)
                                             for t in theta], rel=1e-14, abs=0.0)
    # chi_sq marks a divergent entry inf: Unif(0, t + h) is not dominated by Unif(0, t) for h > 0
    assert list(UNIF.chi_sq(theta, 0.5)) == [math.inf] * 4
    assert list(UNIF.chi_sq(theta, -0.5)) == [0.5 / (t - 0.5) for t in theta]
    per = chi_sq_iid(GAUSS, np.array([0.0, 7.0]), 0.1, 3)
    assert list(per) == [chi_sq_iid(GAUSS, 0.0, 0.1, 3)] * 2
    assert list(chi_sq_iid(GAUSS, np.zeros(2), 50.0, 3)) == [math.inf] * 2
    with pytest.raises(ValueError, match="finite"):
        GAUSS.hellinger_sq(np.array([0.0, math.nan]), 0.1)
    with pytest.raises(ValueError, match="requires theta > 0"):
        UNIF.hellinger_sq(np.array([1.0, -1.0]), 2.5)
    with pytest.raises(ValueError, match=re.escape("requires theta + h > 0")):
        UNIF.hellinger_sq(np.array([1.0, 2.0]), -1.5)
    # the kernel broadcasts: the oracle grid is sqrt(k) at t down axis 0
    ts, xs = np.linspace(0.5, 3.0, 6), np.linspace(-1.0, 4.0, 11)
    for family in (GAUSS, UNIF):
        grid = _kernel(family, ts[:, None], xs[None, :])
        assert grid.shape == (6, 11)
        one_by_one = [[_kernel(family, float(t), float(x)) for x in xs] for t in ts]
        assert grid == pytest.approx(np.array(one_by_one), rel=1e-15, abs=0.0)
        assert grid**2 / family._divisor(ts[:, None]) == pytest.approx(
            density(family, ts[:, None], xs), rel=1e-15, abs=0.0)
    with pytest.raises(ValueError, match="requires theta > 0"):
        UNIF.check_theta(np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError, match="x must be finite"):
        GAUSS.check_x(np.array([[0.0, math.inf]]))
