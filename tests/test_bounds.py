import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize, special

from minimaxlb import bounds, numerics
from minimaxlb.bounds import (DegenerateKernelError, Identity, MaxZero,
                              PolyKernel, PowerMax, chi2_mixture_bound,
                              density_lam_constant, diffeo_bound,
                              diffeo_bound_sup,
                              hellinger_mixture_bound,
                              hellinger_mixture_bound_sup,
                              lam_constant,
                              two_point_hellinger_bound, twopoint_bound_sup, van_trees_value,
                              vt_kepler_bound)
from minimaxlb.estimators import PluginMLE, local_minimax_risk
from minimaxlb.mixtures import MixtureSpec, default_grid, mixture_chi_sq
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.numerics import coarse_axis, maximize_1d, maximize_2d, maximize_newton
from minimaxlb.priors import Cosine, GaussianPrior, KeplerCosine, UniformPrior, solve_kepler
from minimaxlb.sweep import SweepConfig, sweep_row_values

GAUSS = GaussianLocation(1.0)
PI2 = math.pi**2


def test_functional_eval():
    assert MaxZero()(-1.0) == 0.0
    assert MaxZero()(2.0) == 2.0
    assert PowerMax(0.5)(4.0) == 2.0
    assert PowerMax(0.5)(-1.0) == 0.0
    assert Identity()(-3.5) == -3.5
    ts = np.array([-1.0, 0.0, 0.25, 4.0])
    for f in (MaxZero(), PowerMax(0.5), Identity()):
        assert list(f(ts)) == [f(float(t)) for t in ts]
    with pytest.raises(ValueError):
        PowerMax(1.5)


def test_hellinger_mixture_bound_approaches_van_trees():
    # Identity functional: A -> 1/(I(Q) + n I) and the bracket follows as h -> 0
    v = hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 1e-4)
    assert v == pytest.approx(0.5, abs=1e-3)
    far = hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 1e-2)
    assert abs(v - 0.5) < abs(far - 0.5)


def test_hellinger_mixture_bound_zero_numerator():
    # prior mass entirely below the kink: psi(t) - psi(t-h) vanishes
    v = hellinger_mixture_bound(GAUSS, 1, Cosine(-5.0, 1.0), MaxZero(), 0.5)
    assert v == 0.0


def test_hellinger_mixture_bound_powermax():
    # kinked integrands with unbounded derivative at the origin stay finite
    v = hellinger_mixture_bound(GAUSS, 4, GaussianPrior(0.0, 1.0), PowerMax(0.5), 0.2)
    assert math.isfinite(v) and v >= 0.0
    # alpha = 1 coincides with MaxZero pointwise, so the bounds agree
    a = hellinger_mixture_bound(GAUSS, 4, GaussianPrior(0.0, 1.0), PowerMax(1.0), 0.2)
    b = hellinger_mixture_bound(GAUSS, 4, GaussianPrior(0.0, 1.0), MaxZero(), 0.2)
    assert a == pytest.approx(b, rel=1e-10)


def test_diffeo_sup_monotone_in_delta():
    # mathematically monotone pointwise in xi; the searched sup must not
    # jitter below that on the figure grid
    values = [diffeo_bound_sup(float(d), 10).value
              for d in np.geomspace(0.05, 50.0, 12)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_diffeo_sup_dominates_probe_points():
    res = diffeo_bound_sup(1.0, 10)
    probes = [(-3.0, 0.5), (0.0, 1.0), (0.5, 0.1), (2.0, 2.0), (8.0, 0.01)]
    for xi1, xi2 in probes:
        assert res.value >= diffeo_bound(1.0, 10, xi1, xi2) - 1e-12


def test_hellinger_mixture_bound_rejects():
    with pytest.raises(ValueError):
        hellinger_mixture_bound(GAUSS, 1, UniformPrior(0.0, 1.0), Identity(), 0.1)
    with pytest.raises(ValueError):
        hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 0.0)
    with pytest.raises(ValueError, match="underflows to 0"):
        # H^2 ~ h^2/2 underflows at h = 1e-170
        hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 1e-170)


@pytest.mark.parametrize("prior", [Cosine(0.0, 1.0), GaussianPrior(0.0, 1.0),
                                   KeplerCosine.for_constraint(0.75)],
                         ids=["cosine", "gaussian", "kepler"])
@pytest.mark.parametrize("n", [1, 10])
def test_hellinger_mixture_bound_tends_to_van_trees(prior, n):
    # every integral reads h itself, so the h -> 0 limit holds to rounding
    vt = van_trees_value(GAUSS, n, prior, MaxZero())
    for h in (1e-100, -1e-100):
        assert hellinger_mixture_bound(GAUSS, n, prior, MaxZero(), h) == \
            pytest.approx(vt, rel=1e-14, abs=0.0)
    assert hellinger_mixture_bound(GAUSS, n, prior, MaxZero(), 1e-9) == \
        pytest.approx(vt, rel=1e-7, abs=0.0)


def test_powermax_difference_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def exact(alpha, t, h):
        with mpmath.workprec(1500):  # t - h is exact at this precision
            psi = lambda x: x ** mpmath.mpf(alpha) if x > 0 else mpmath.mpf(0)
            t, h = mpmath.mpf(t), mpmath.mpf(h)
            return float(psi(t) - psi(t - h))

    ts = [-2.0, -1e-3, 1e-300, 1e-9, 0.3, 1.0, 7.5, 1e6, 1e15]
    hs = [1e-100, 1e-12, -1e-12, 1e-3, -1e-3, 0.5, -0.5, 2.0, -2.0, 1e7]
    for alpha in (1.0, 0.5, 0.01, 0.77):
        f = PowerMax(alpha)
        for h in hs:
            got = f.difference(np.array(ts), h)
            for t, value in zip(ts, got):
                want = exact(alpha, t, h)
                for value in (value, f.difference(t, h)):
                    assert abs(value - want) <= 4.0 * math.ulp(want), (alpha, t, h, value, want)
    assert MaxZero() == PowerMax(1.0)
    assert list(Identity().difference(np.array(ts), 1e-9)) == [1e-9] * len(ts)


def test_golden_search_is_relative_to_its_bracket():
    # the uniform-family sup scales as s^2 with the prior, down to tiny s
    def sup(s):
        prior = Cosine(3.0 * s, s)
        return hellinger_mixture_bound_sup(UniformScale(), 10, prior, MaxZero(),
                                           *bounds.default_shift_range(prior)).value / s**2
    assert sup(1e-13) == pytest.approx(sup(1.0), rel=1e-12)
    assert sup(1e-12) == pytest.approx(sup(1.0), rel=1e-12)


@pytest.mark.parametrize("n, prior, h_lo, h_hi", [
    (1, Cosine(3.0, 1.0), 1e-4, 10.0),     # argmax in the coarse scan's first cell
    (10, Cosine(3.0, 1.0), 0.002, 0.1),    # argmax between two coarse points
    (100, GaussianPrior(40.0, 1.0), 0.005, 0.2),
])
def test_interior_hellinger_sup_is_a_true_sup(n, prior, h_lo, h_hi):
    # the uniform family's bound peaks at an interior shift, so the k-section
    # refinement decides the value: no point of a dense scan may beat it
    res = hellinger_mixture_bound_sup(UniformScale(), n, prior, MaxZero(), h_lo, h_hi)
    assert h_lo < abs(res.argmax["h"]) < h_hi
    assert not np.isclose(abs(res.argmax["h"]), coarse_axis(h_lo, h_hi), rtol=1e-6).any()
    dense = np.linspace(h_lo, h_hi, 2001)
    scan = max(hellinger_mixture_bound(UniformScale(), n, prior, MaxZero(), sign * dense).max()
               for sign in (1.0, -1.0))
    assert res.value >= scan * (1.0 - 1e-12)
    assert res.value == hellinger_mixture_bound(UniformScale(), n, prior, MaxZero(),
                                                res.argmax["h"])


def test_batched_hellinger_sup_memory_stays_capped():
    # PowerMax(0.01) cuts every shift into about 41 pieces a kink; batches of shifts
    # are integrated in calls of at most numerics._PASS_NODES nodes, so a sup peaks
    # below the 1,282,314 bytes that tracemalloc read when each shift was its own call
    tracemalloc.start()
    try:
        res = hellinger_mixture_bound_sup(GAUSS, 1, Cosine(0.0, 1.0), PowerMax(0.01), 1e-4, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.value == pytest.approx(0.0851491448844875, rel=1e-12)
    assert peak <= 1_282_314


def test_hellinger_mixture_sup_symmetric():
    res = hellinger_mixture_bound_sup(GAUSS, 1, GaussianPrior(0.0, 1.0),
                                      Identity(), 1e-3, 5.0)
    assert res.value <= 0.5 + 1e-9  # van Trees ceiling is the h -> 0 limit
    plus = hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 0.3)
    minus = hellinger_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), -0.3)
    assert plus == pytest.approx(minus, rel=1e-9)


def test_hellinger_mixture_sup_below_plugin_risk():
    # MaxZero at n = 100 with a delta-scaled prior stays below the plug-in risk
    delta, n = 0.5, 100
    res = hellinger_mixture_bound_sup(GAUSS, n, Cosine(0.0, delta), MaxZero(),
                                      1e-4 * delta, 10.0 * delta)
    assert res.value > 0.0
    assert n * res.value <= local_minimax_risk(PluginMLE(), delta, n)


def test_chi2_bound_lambda_zero_is_mixture_hcr():
    h = 0.05
    prior = GaussianPrior(0.0, 1.0)
    got = chi2_mixture_bound(GAUSS, 1, prior, Identity(), h, 0.0)
    num, _ = bounds.delta_psi_moments(prior, Identity(), h)
    denom = mixture_chi_sq(MixtureSpec(GAUSS, 1, prior, h))
    assert got == num * num / denom
    assert got == pytest.approx(h * h / denom, rel=1e-7)


def _gaussian_phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _maxzero_first_moment(h):
    """int (max(t, 0) - max(t - h, 0)) dN(0, 1)(t) = phi(0) - phi(h) + h Phi(-h)."""
    return _gaussian_phi(0.0) - _gaussian_phi(h) + h * 0.5 * math.erfc(h / math.sqrt(2.0))


@pytest.mark.parametrize("h", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0])
def test_delta_psi_first_moment_closed_form(h):
    got, _ = bounds.delta_psi_moments(GaussianPrior(0.0, 1.0), MaxZero(), h)
    assert got == pytest.approx(_maxzero_first_moment(h), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h", [1e-3, 0.01, 0.0123, 0.012336767982401253, 0.0124,
                               0.1, 1.0, 3.0])
def test_chi2_bound_gaussian_closed_form(h):
    # n = 1, N(0, 1) prior: chi^2(Mh||M0) = exp(2 h^2) - 1; 0.012336767982401253
    # is the shift where adaptive Simpson converged falsely on the numerator
    exact = _maxzero_first_moment(h) ** 2 / math.expm1(2.0 * h * h)
    got = chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), MaxZero(), h, 0.0)
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_chi2_bound_divergent_and_lambda_one():
    assert chi2_mixture_bound(UniformScale(), 1, Cosine(2.0, 0.5), Identity(),
                              0.1, 0.0) == 0.0
    assert chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(),
                              0.1, 1.0) == 0.0
    with pytest.raises(ValueError):
        chi2_mixture_bound(GAUSS, 2, GaussianPrior(0.0, 1.0), Identity(), 0.1, 0.5)
    with pytest.raises(ValueError):
        chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 0.1, 1.5)


def test_chi2_bound_closed_form_matches_L_scan():
    # brute-force the pre-optimized expression over a dense L grid
    h, lam = 0.4, 0.3
    prior = GaussianPrior(0.0, 1.0)
    f = MaxZero()
    grid = default_grid(GAUSS, prior, h)
    from minimaxlb.mixtures import mixture_chi_sq_interpolated_grid
    num, second = bounds.delta_psi_moments(prior, f, h)
    denom = mixture_chi_sq_interpolated_grid(GAUSS, prior, h, lam, grid)
    a = num * num / denom
    b = second
    best = 0.0
    for big_l in np.geomspace(1e-4, 1e6, 20001):
        val = (1.0 - lam) ** 2 / (1.0 + big_l * lam) * max(
            a - lam * (1.0 + 1.0 / big_l) / (1.0 - lam) ** 2 * b, 0.0)
        best = max(best, val)
    got = chi2_mixture_bound(GAUSS, 1, prior, f, h, lam, grid=grid)
    assert got == pytest.approx(best, rel=1e-6)


def test_van_trees_values():
    assert van_trees_value(GAUSS, 1, Cosine(0.0, 1.0), Identity()) == \
        pytest.approx(1.0 / (PI2 + 1.0), abs=1e-10)
    assert van_trees_value(GAUSS, 1, Cosine(0.0, 1.0), MaxZero()) == \
        pytest.approx(0.25 / (PI2 + 1.0), abs=1e-10)
    # dilating the prior by delta scales I(Q) by delta^-2
    delta = 0.3
    got = van_trees_value(GAUSS, 5, Cosine(0.0, delta), Identity())
    assert got == pytest.approx(1.0 / (PI2 / delta**2 + 5.0), abs=1e-10)
    # the family's information 1/sigma^2 enters n times
    got = van_trees_value(GaussianLocation(2.0), 8, Cosine(0.0, 1.0), Identity())
    assert got == pytest.approx(1.0 / (PI2 + 8.0 / 4.0), rel=1e-14)
    with pytest.raises(ValueError, match="divergent Fisher information"):
        van_trees_value(UniformScale(), 1, Cosine(2.0, 0.5), Identity())
    with pytest.raises(ValueError):
        van_trees_value(GAUSS, 1, UniformPrior(0.0, 1.0), Identity())


def test_van_trees_powermax_numerator():
    # independent check of the substitution: int_0^inf a t^(a-1) q(t) dt
    alpha = 0.5
    oracle, _ = integrate.quad(
        lambda t: alpha * t ** (alpha - 1.0) * math.exp(-t * t / 2.0) / math.sqrt(2 * math.pi),
        0.0, 12.0, points=[0.0], limit=200)
    got = van_trees_value(GAUSS, 1, GaussianPrior(0.0, 1.0), PowerMax(alpha))
    assert got == pytest.approx(oracle * oracle / 2.0, rel=1e-7)
    # each window below reaches below 0, so the singular weight t^(alpha-1) sits at
    # the lower end, where QUADPACK's algebraic weight integrates it exactly
    for prior in (GaussianPrior(1.0, 1.0), Cosine(0.5, 1.0), KeplerCosine.for_constraint(0.75)):
        lo, hi = prior.window()
        assert lo < 0.0 < hi
        for alpha in (0.3, 0.77, 0.9, 0.99):
            oracle, _ = integrate.quad(prior.density, 0.0, hi, weight="alg",
                                       wvar=(alpha - 1.0, 0.0), epsabs=0.0, epsrel=1e-13,
                                       limit=200)
            assert PowerMax(alpha).slope_mass(prior) == pytest.approx(alpha * oracle, rel=1e-12)


def test_powermax_slope_mass_far_from_zero():
    # a window many widths above 0 keeps its digits: int a t^(a-1) q ~ a mu^(a-1)
    for mu in (1e6, 1e10):
        for alpha in (0.01, 0.5, 0.9):
            got = PowerMax(alpha).slope_mass(GaussianPrior(mu, 1.0))
            assert got == pytest.approx(alpha * mu ** (alpha - 1.0), rel=1e-11)


def test_powermax_slope_mass_refines_only_the_pieces_that_need_it(monkeypatch):
    # of the 41 graded pieces only the few around the prior's bulk double past
    # 8 panels: one shared panel count evaluated 165,312 nodes, its last pass 83,968
    nodes = []

    def counted(f, *args):
        return numerics.integrate_panels(lambda u: nodes.append(u.size) or f(u), *args)
    monkeypatch.setattr(bounds, "integrate_panels", counted)
    prior = GaussianPrior(5.0, 3.0)
    got = PowerMax(0.01).slope_mass(prior)
    oracle, _ = integrate.quad(prior.density, 0.0, prior.window()[1], weight="alg",
                               wvar=(-0.99, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)
    assert got == pytest.approx(0.01 * oracle, rel=1e-13)
    assert sum(nodes) < 20_000 and nodes[-1] < 4_000


def test_maxzero_slope_mass_is_the_prior_mass_above_zero():
    assert MaxZero().slope_mass(GaussianPrior(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert MaxZero().slope_mass(GaussianPrior(13.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert MaxZero().slope_mass(GaussianPrior(-13.0, 1.0)) == 0.0
    # far from 0 the prior's window still resolves: the value is 1 / (1 + 1)
    for mu in (1e6, 1e10, 1e12):
        assert van_trees_value(GAUSS, 1, GaussianPrior(mu, 1.0), MaxZero()) == \
            pytest.approx(0.5, rel=1e-14)
    for prior in (GaussianPrior(1e8, 0.01), Cosine(1e9, 1.0),
                  KeplerCosine.for_constraint(0.75, 1e6, 0.01)):
        assert MaxZero().slope_mass(prior) == pytest.approx(1.0, abs=1e-14)


def _vt_grid_oracle(delta, n, points=10001):
    best = 0.0
    for a in np.linspace(0.0, 1.0, points):
        sol = solve_kepler(float(a))
        best = max(best, n * a * a / (sol.min_fisher / delta**2 + n))
    return best


def test_vt_kepler_bound():
    res = vt_kepler_bound(100.0, 10**4, 1.0)
    assert abs(res.value - 1.0) <= 1e-2
    assert res.value <= 1.0
    res = vt_kepler_bound(1.0, 100, 1.0)
    assert res.value == pytest.approx(_vt_grid_oracle(1.0, 100), abs=1e-6)
    assert 0.0 <= res.argmax["a"] <= 1.0
    with pytest.raises(ValueError):
        vt_kepler_bound(0.0, 100, 1.0)
    with pytest.raises(ValueError):
        vt_kepler_bound(1.0, 100, -1.0)


def test_vt_kepler_monotone_in_delta_and_n():
    deltas = np.geomspace(1e-2, 1e2, 20)
    for n in (10, 100):
        vals = [vt_kepler_bound(float(d), n, 1.0).value for d in deltas]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    ns = [1, 2, 5, 10, 30, 100, 10**3, 10**4]
    for d in (0.5, 2.0):
        vals = [vt_kepler_bound(d, n, 1.0).value for n in ns]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bound", [
    lambda delta: vt_kepler_bound(delta, 10, 1.0),
    lambda delta: diffeo_bound(delta, 10, 0.0, 1.0),
], ids=["vt", "diffeo"])
def test_delta_squared_underflow_rejected(bound):
    # pi^2 / delta^2 would divide by zero
    with pytest.raises(ValueError, match="underflows"):
        bound(1e-170)
    bound(1e-150)  # delta^2 = 1e-300 is still a normal float


def _diffeo_quad_oracle(delta, n, xi1, xi2):
    g = lambda z: 1.0 / (1.0 + (xi1 + z * xi2) ** 2)
    phi = lambda z: math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    num, _ = integrate.quad(lambda z: g(z) * phi(z), -xi1 / xi2, 40.0, limit=400)
    den, _ = integrate.quad(lambda z: g(z) ** 2 * phi(z), -40.0, 40.0, limit=400)
    s = 4.0 * n * xi2 * xi2
    return s * num * num / (math.pi**2 / delta**2 + s * den)


def test_diffeo_bound_values():
    got = diffeo_bound(1.0, 100, 0.0, 1.0)
    assert got == pytest.approx(_diffeo_quad_oracle(1.0, 100, 0.0, 1.0), abs=1e-8)
    # indicator mass vanishes as xi1 -> -inf, already at the validated range's end
    assert diffeo_bound(1.0, 100, -10.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    # constant-g, full-indicator limit approaches the ceiling 1
    assert diffeo_bound(1e4, 10**4, 5.0, 1e-3) == pytest.approx(1.0, abs=1e-2)
    with pytest.raises(ValueError):
        diffeo_bound(1.0, 100, 0.0, 0.0)


_Z_WINDOW = 12.0  # the moments are integrals over the 12-sigma window of Z
_XI1_GRID = np.linspace(-10.0, 10.0, 41)
_XI2_GRID = np.geomspace(1e-3, 1e4, 36)


def _diffeo_moments_by_quad(xi1, xi2):
    """E[g 1{Z > z0}] and E[g^2] over the window, by adaptive quadrature told
    the kink z0 and the points z0 +- 1/xi2 where g has fallen to half."""
    z0 = -xi1 / xi2
    g = lambda z: 1.0 / (1.0 + (xi1 + z * xi2) ** 2)
    phi = lambda z: math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

    def quad(f, lo):
        if lo >= _Z_WINDOW:
            return 0.0
        points = [p for p in (z0, z0 - 1.0 / xi2, z0 + 1.0 / xi2) if lo < p < _Z_WINDOW]
        return integrate.quad(f, lo, _Z_WINDOW, points=points or None, epsabs=0.0,
                              epsrel=1e-13, limit=500)[0]

    return (quad(lambda z: g(z) * phi(z), max(z0, -_Z_WINDOW)),
            quad(lambda z: g(z) ** 2 * phi(z), -_Z_WINDOW))


def test_diffeo_moments_match_adaptive_quadrature():
    for xi1 in _XI1_GRID:
        for xi2 in _XI2_GRID:
            got = bounds._diffeo_moments(float(xi1), float(xi2))
            want = _diffeo_moments_by_quad(float(xi1), float(xi2))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (xi1, xi2)


def test_diffeo_indicator_moments_sum_to_the_faddeeva_closed_form():
    # E[g 1{Z > z0}] at xi1 and at -xi1 add up to E[g(Z)] over the whole line,
    # and E[1/(1 + X^2)] = sqrt(pi/2) Re w((mu + i)/(s sqrt 2))/s for X ~ N(mu, s^2)
    for xi1 in _XI1_GRID:
        for xi2 in _XI2_GRID:
            xi1, xi2 = float(xi1), float(xi2)
            total = bounds._diffeo_moments(xi1, xi2)[0] + bounds._diffeo_moments(-xi1, xi2)[0]
            closed = math.sqrt(math.pi / 2.0) * special.wofz(
                (xi1 + 1j) / (xi2 * math.sqrt(2.0))).real / xi2
            assert total == pytest.approx(closed, rel=1e-13, abs=0.0), (xi1, xi2)


def test_diffeo_bound_rejects_outside_validated_range():
    for xi1, xi2 in ((0.5, 1e6), (0.5, 2e4), (0.5, 9.9e-4), (-30.0, 1.0),
                     (10.5, 1.0), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="lies outside"):
            diffeo_bound(1.0, 10, xi1, xi2)
    # the corners of the sup's box pass, exp(log 1e4) = 10000.00000000001 included
    for xi1 in bounds.DIFFEO_XI1_RANGE:
        for xi2 in bounds.DIFFEO_XI2_RANGE:
            assert 0.0 <= diffeo_bound(1.0, 10, xi1, math.exp(math.log(xi2))) <= 1.0


def test_diffeo_bound_never_exceeds_ceiling():
    for delta in (0.1, 1.0, 10.0, 100.0):
        for n in (1, 10, 100):
            for xi1 in (-5.0, -1.0, 0.0, 1.0, 5.0):
                for xi2 in (1e-3, 0.1, 1.0, 10.0):
                    assert diffeo_bound(delta, n, xi1, xi2) <= 1.0 + 1e-12


def test_diffeo_bound_sup():
    res = diffeo_bound_sup(1e-3, 10)
    assert res.value <= 1e-4  # denominator pi^2 delta^-2 dominates
    res = diffeo_bound_sup(100.0, 10**4)
    assert 0.95 <= res.value <= 1.0001


def test_diffeo_bound_sup_matches_dense_grid():
    delta, n = 2.0, 100
    res = diffeo_bound_sup(delta, n)
    xi1s = np.linspace(-10.0, 10.0, 512)
    lxi2s = np.linspace(*(math.log(x) for x in bounds.DIFFEO_XI2_RANGE), 512)
    best, arg = 0.0, (0.0, 0.0)
    for x1 in xi1s:
        for lx2 in lxi2s:
            v = diffeo_bound(delta, n, float(x1), math.exp(float(lx2)))
            if v > best:
                best, arg = v, (float(x1), float(lx2))
    # zoom pass around the global-grid argmax to sharpen the oracle
    dx = (xi1s[1] - xi1s[0]) * 2.0
    dl = (lxi2s[1] - lxi2s[0]) * 2.0
    for x1 in np.linspace(arg[0] - dx, arg[0] + dx, 64):
        for lx2 in np.linspace(arg[1] - dl, arg[1] + dl, 64):
            best = max(best, diffeo_bound(delta, n, float(x1), math.exp(float(lx2))))
    assert res.value == pytest.approx(best, abs=1e-4)


def _diffeo_sup_without_table(delta, n):
    """diffeo_bound_sup's search with the coarse scan calling diffeo_bound."""
    (x1, lx2), value = maximize_2d(
        lambda a, b: diffeo_bound(delta, n, a, math.exp(b), derivatives=True),
        bounds._DIFFEO_BOX)
    return value, {"xi1": x1, "xi2": math.exp(lx2)}


@pytest.mark.parametrize("delta,n", [
    (1e-3, 10), (0.01, 10), (2.0, 100), (100.0, 10**4),
    # 4 n xi2^2 overflows on part of the grid: those cells are NaN and never win
    pytest.param(1.0, 10**306, id="1.0-1e306",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_diffeo_sup_moment_table_matches_the_scan(delta, n):
    res = diffeo_bound_sup(delta, n)
    assert (res.value, res.argmax) == _diffeo_sup_without_table(delta, n)


def test_sweep_row_diffeo_matches_the_scan_with_sigma():
    config = SweepConfig("fixed-n-vary-delta", (10,), (0.5,), sigma=2.0,
                         methods=("diffeo",), estimators=())
    value, _ = _diffeo_sup_without_table(0.25, 10)
    assert sweep_row_values(10, 0.5, config) == {"bound_diffeo": 4.0 * value}


@pytest.mark.parametrize("delta,n,sup_fisher", [
    (1e-3, 10, 1.0), (0.3, 1, 1.0), (1.0, 100, 0.25), (1e3, 10**6, 1.0), (5.0, 2**60 + 1, 4.0)])
def test_vt_kepler_fisher_table_matches_the_scan(delta, n, sup_fisher):
    # the scan solves the Kepler equation at every coarse a; the refinement
    # runs in the Kepler root y inside the best coarse cell
    solutions = [solve_kepler(float(a)) for a in coarse_axis(0.0, 1.0)]
    values = [n * a * a / (sol.min_fisher / delta**2 + n * sup_fisher)
              for a, sol in zip(coarse_axis(0.0, 1.0), solutions)]
    i = max(range(len(values)), key=values.__getitem__)
    ys = [sol.y_a for sol in solutions]
    lo, hi = ys[max(i - 1, 0)], ys[min(i + 1, len(ys) - 1)]
    (y,), value, reason = maximize_newton(
        lambda y: bounds._vt_kepler_objective(delta, n, sup_fisher, y),
        (ys[i],), (lo,), (hi,), (0.5 * (hi - lo),))
    res = vt_kepler_bound(delta, n, sup_fisher)
    assert (res.value, res.argmax) == (value, {"a": bounds._kepler_mass(y)})
    assert reason == "stationary" and value >= max(values) * (1.0 - 1e-13)


def _central_differences(f, x, h):
    """Central differences of f's value (the gradient) and of f's gradient (the
    Hessian) at x, for f returning (value, gradient, Hessian)."""
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(len(x))
    grad = [(f(x + e)[0] - f(x - e)[0]) / (2.0 * h) for e in steps]
    hess = [(np.asarray(f(x + e)[1]) - np.asarray(f(x - e)[1])) / (2.0 * h) for e in steps]
    return np.array(grad), np.array(hess)


def _assert_derivatives_match(f, x, h, rel):
    value, grad, hess = f(np.asarray(x, dtype=float))
    fd_grad, fd_hess = _central_differences(f, x, h)
    scale = abs(value) + np.abs(grad).max() + np.abs(hess).max()
    assert value > 0.0
    assert np.abs(fd_grad - grad).max() <= rel * scale, (x, grad, fd_grad)
    assert np.abs(fd_hess - hess).max() <= rel * scale, (x, hess, fd_hess)


@pytest.mark.parametrize("delta,n", [(1.0, 10), (0.05, 100), (30.0, 1000)])
def test_diffeo_derivatives_match_central_differences(delta, n):
    # the kink z0 = -xi1/xi2 at the center of phi, near it, far out, and xi2
    # next to both ends of the validated range
    points = [(0.7, 1.9), (1e-3, 1.0), (0.0, 0.5), (-0.02, 3.0), (0.7, 1.2e-3),
              (-0.002, 1.1e-3), (2.0, 9e3), (-5.0, 8e3), (-1.0, 0.2), (9.5, 30.0)]
    f = lambda x: diffeo_bound(delta, n, x[0], math.exp(x[1]), derivatives=True)
    for xi1, xi2 in points:   # the bound varies with xi1 on the scale xi2
        _assert_derivatives_match(f, (xi1, math.log(xi2)), 1e-4 * min(xi2, 1.0), 1e-6)


@pytest.mark.parametrize("delta,n,sup_fisher", [(1.0, 10, 1.0), (0.05, 100, 0.25),
                                                 (30.0, 10**4, 4.0)])
def test_vt_derivatives_match_central_differences(delta, n, sup_fisher):
    # both sides of the kink of |y| at 0 (a = 1/2), and y next to 1, where
    # the mass a flattens
    f = lambda x: bounds._vt_kepler_objective(delta, n, sup_fisher, x[0])
    for y in (-0.95, -0.4, -1e-3, 1e-3, 0.3, 0.43, 0.6, 0.9, 0.99, 0.999):
        _assert_derivatives_match(f, (y,), 1e-5 * min(abs(y), 1.0 - abs(y)), 1e-6)


_FIGURE_ROWS = [(n, float(d)) for n in (10, 100) for d in np.geomspace(1e-2, 1e2, 50)]
_CLOSED_FORM_ROWS = [(10**k, float(d)) for k in range(7) for d in np.geomspace(1e-3, 1e3, 25)]


def test_diffeo_moment_table_matches_the_scalar_kernel():
    # the table's array passes pad their rows with empty pieces, which moves
    # only the order of the sums; no coarse argmax of the default figure moves
    xi2, e_ind, e_sq = bounds._diffeo_moment_table()
    xi1s, log_xi2s = (coarse_axis(lo, hi) for lo, hi in bounds._DIFFEO_BOX.intervals)
    scalar = np.array([[bounds._diffeo_moments(float(a), math.exp(b)) for b in log_xi2s]
                       for a in xi1s])
    assert np.array_equal(xi2, np.broadcast_to([math.exp(b) for b in log_xi2s], xi2.shape))
    for got, want in ((e_ind, scalar[..., 0]), (e_sq, scalar[..., 1])):
        assert (np.abs(got - want) <= 1e-15 * want).all()
    for n, delta in _FIGURE_ROWS:
        assert np.argmax(bounds._diffeo_ratio(delta, n, xi2, e_ind, e_sq)) == np.argmax(
            bounds._diffeo_ratio(delta, n, xi2, scalar[..., 0], scalar[..., 1]))


def test_newton_refinement_is_stationary_on_the_figure_rows(monkeypatch):
    # every diffeo sup of the default figure, and every vt sup of it and of
    # the benchmark's closed-form grid, ends at a stationary point
    reasons = []
    newton = numerics.maximize_newton

    def recorded(*args):
        result = newton(*args)
        reasons.append(result[2])
        return result
    monkeypatch.setattr(numerics, "maximize_newton", recorded)
    for n, delta in _FIGURE_ROWS:
        diffeo_bound_sup(delta, n)
    for n, delta in _FIGURE_ROWS + _CLOSED_FORM_ROWS:
        vt_kepler_bound(delta, n, 1.0)
    assert len(reasons) == 375
    assert set(reasons) == {"stationary"}


def test_vt_sup_matches_a_brent_search_of_the_closed_form():
    # in the Kepler root y the bound is n a(y)^2 / (pi^2 (1 + y)^2 / delta^2 + n),
    # a(y) = (1 + y + sin(pi y)/pi)/2, with no Kepler equation to solve; a
    # search in a reads solve_kepler's bisection noise and overshoots by 4e-14
    for n, delta in _FIGURE_ROWS + _CLOSED_FORM_ROWS:
        def closed_form(y):
            a = 0.5 * (1.0 + y + math.sin(math.pi * y) / math.pi)
            return n * a * a / (math.pi**2 * (1.0 + y) ** 2 / delta**2 + n)
        brent = optimize.minimize_scalar(lambda y: -closed_form(y), bounds=(0.0, 1.0),
                                         method="bounded", options={"xatol": 1e-12})
        want = max(-brent.fun, closed_form(1.0))
        assert vt_kepler_bound(delta, n, 1.0).value == pytest.approx(want, rel=2e-15, abs=0.0)


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_sups_after_the_first_skip_the_coarse_integrals(monkeypatch):
    # the first calls may build the process's tables; later rows only refine
    diffeo_bound_sup(1.0, 10)
    vt_kepler_bound(1.0, 10, 1.0)
    diffeo_calls = _count_calls(monkeypatch, bounds, "diffeo_bound")
    moment_calls = _count_calls(monkeypatch, bounds, "_diffeo_moments")
    kepler_calls = _count_calls(monkeypatch, bounds, "solve_kepler")
    diffeo_bound_sup(0.3, 100)
    assert 0 < diffeo_calls[0] <= 20
    assert 0 < moment_calls[0] <= 20
    vt_kepler_bound(0.3, 100, 1.0)
    assert kepler_calls[0] == 0   # the refinement runs in the Kepler root itself


def test_two_point_bound():
    assert two_point_hellinger_bound(GAUSS, 1, Identity(), 0.4, 0.4) == 0.0
    # n-fold Hellinger saturates: clamp to zero
    assert two_point_hellinger_bound(GAUSS, 100, Identity(), 0.0, 3.0) == 0.0
    a = two_point_hellinger_bound(GAUSS, 3, MaxZero(), 0.1, 0.7)
    b = two_point_hellinger_bound(GAUSS, 3, MaxZero(), 0.7, 0.1)
    assert a == b
    assert a > 0.0


def test_two_point_uniform_limit():
    n = 10**6
    for b in (0.5, 1.0, 2.0):
        got = two_point_hellinger_bound(UniformScale(), n, Identity(), 1.0, 1.0 + b / n)
        limit = max(-0.25 + 0.5 * math.exp(-b / 2.0), 0.0) * (b / n) ** 2
        assert got == pytest.approx(limit, rel=1e-4)


@pytest.mark.parametrize("n", [10, 10**6, 10**20, 10**100, 10**300],
                         ids=["1e1", "1e6", "1e20", "1e100", "1e300"])
def test_twopoint_sup_is_the_regular_constant_at_any_n(n):
    # the objective depends on eps = sqrt(n) t alone; a golden search in t
    # stops at an absolute width of 1e-14 and lost 2.8e-5 of it at n = 1e100
    got = twopoint_bound_sup(1.0, n)
    assert got.value == pytest.approx(lam_constant("regular_twopoint")[1], rel=1e-12)
    assert math.sqrt(n) * got.argmax["theta2"] == pytest.approx(1.5872568987921421, rel=1e-15)


@pytest.mark.parametrize("delta,n", [(1e-3, 1), (0.3, 10), (0.5, 10), (1.0, 100), (1e3, 10**6)])
def test_twopoint_sup_is_at_least_a_dense_scan(delta, n):
    # one maximum in eps: below eps*/sqrt(n) the sup sits at delta^-
    ts = np.linspace(0.0, min(delta * (1.0 - 1e-12), 3.0 / math.sqrt(n)), 20001)
    scan = max(n * two_point_hellinger_bound(GaussianLocation(1.0), n, MaxZero(), 0.0, float(t))
               for t in ts)
    got = twopoint_bound_sup(delta, n).value
    assert scan * (1.0 - 1e-15) <= got <= scan * (1.0 + 1e-8)


def test_lam_constants():
    assert lam_constant("regular_twopoint")[1] == pytest.approx(0.28953, abs=5e-4)
    assert lam_constant("uniform_twopoint")[1] == pytest.approx(0.0558, abs=5e-4)
    assert lam_constant("uniform_diffeo")[1] == pytest.approx(0.0635**2, abs=1e-4)


def test_lam_objective_edge_values():
    assert bounds.regular_twopoint_objective(0.0) == 0.0
    assert bounds.regular_twopoint_objective(10.0) < 0.0
    assert bounds.uniform_twopoint_objective(0.0) == 0.0
    assert bounds.uniform_twopoint_objective(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    # small-c limit sampling: the bracket behaves like sqrt(c)/2 - c
    c = 1e-6
    assert bounds.uniform_diffeo_objective(c) == pytest.approx(c / 4.0, rel=5e-3)


EPANECHNIKOV = PolyKernel(coeffs=(0.75, 0.0, -0.75), order=1)
TILTED = PolyKernel(coeffs=(0.75, 0.3, -0.75), order=1)


def test_density_constant_degenerate_kernel():
    with pytest.raises(DegenerateKernelError):
        density_lam_constant(1, 1.0, EPANECHNIKOV)


def test_density_constant_invalid_kernel():
    bad = PolyKernel(coeffs=(1.0, 0.0, -0.75), order=1)  # integrates to 1.5
    with pytest.raises(ValueError):
        density_lam_constant(1, 1.0, bad)
    with pytest.raises(ValueError):
        density_lam_constant(2, 1.0, TILTED)  # s mismatch


def _density_constant_trapezoid_oracle(s, M, kernel, points=10**6 + 1):
    us = np.linspace(-1.0, 1.0, points)
    k = np.zeros_like(us)
    for j, c in enumerate(kernel.coeffs):
        k += c * us**j
    deriv = kernel.derivative(s)
    kd = deriv(us)
    ks0 = abs(float(deriv(0.0)))
    k_sq = np.trapezoid(k * k, us)
    m_s = np.trapezoid(k * np.abs(us) ** s, us) / math.factorial(s - 1)
    kds_abs = np.trapezoid(np.abs(kd), us)
    expo = 2.0 * s / (2.0 * s + 1.0)
    pref = (8.0 * s**expo / (4.0 + 8.0 * s) * math.pi ** (-2.0 / (2.0 * s + 1.0))
            * (ks0 / M) ** (2.0 * expo) * k_sq**expo)
    bracket = M * k_sq / ks0 - math.sqrt(math.pi**2 * (4.0 + 8.0 * s)) * abs(m_s) \
        * (1.0 + M * kds_abs / ks0)
    return pref * max(bracket, 0.0) ** 2


def test_density_constant_matches_trapezoid_oracle():
    got = density_lam_constant(1, 1.0, TILTED)
    oracle = _density_constant_trapezoid_oracle(1, 1.0, TILTED)
    assert got == pytest.approx(oracle, rel=1e-6, abs=1e-12)
    assert got >= 0.0


# an order-2 kernel with vanishing second moment, so the bracket stays positive
QUADRATIC_ORDER2 = PolyKernel(coeffs=(9.0 / 8.0, 0.0, -15.0 / 8.0), order=2)


@pytest.mark.parametrize("M, previous", [(1.0, 0.36110923444810655),
                                         (4.0, 0.6287276949204624)])
def test_density_constant_positive_for_an_order_two_kernel(M, previous):
    got = density_lam_constant(2, M, QUADRATIC_ORDER2)
    assert got > 0.0
    assert got == pytest.approx(_density_constant_trapezoid_oracle(2, M, QUADRATIC_ORDER2),
                                rel=1e-6)
    # the value of the adaptive quadrature that the exact polynomial integrals replaced
    assert got == pytest.approx(previous, rel=1e-14)


def test_density_constant_bracket_clamp():
    # small slope at zero makes the subtracted term dominate: clamped to 0
    nearly_flat = PolyKernel(coeffs=(0.75, 0.05, -0.75), order=1)
    assert density_lam_constant(1, 1.0, nearly_flat) == 0.0
