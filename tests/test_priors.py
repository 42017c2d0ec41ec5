import math
import re

import numpy as np
import pytest
from scipy import integrate, optimize

from minimaxlb import priors
from minimaxlb.priors import (Cosine, GaussianPrior, KeplerCosine,
                              UniformPrior, prior_density, solve_kepler)

PI2 = math.pi**2


def test_prior_density_examples():
    assert prior_density(Cosine(0.0, 1.0), 0.0) == 1.0
    assert prior_density(Cosine(0.0, 1.0), 1.0) == 0.0
    assert prior_density(Cosine(0.0, 1.0), -1.0) == 0.0
    assert prior_density(GaussianPrior(0.0, 1.0), 0.0) == pytest.approx(0.39894228, abs=1e-8)


@pytest.mark.parametrize("prior", [
    Cosine(0.0, 1.0),
    Cosine(2.0, 0.5),
    GaussianPrior(0.0, 1.0),
    GaussianPrior(-1.0, 3.0),
    UniformPrior(-1.0, 1.0),
    KeplerCosine.for_constraint(0.75),
    KeplerCosine.for_constraint(0.3, center=1.0, scale=0.4),
])
def test_density_normalizes(prior):
    lo, hi = prior.support()
    if math.isinf(lo):
        mu, sd = prior.mu, prior.sigma
        lo, hi = mu - 12.0 * sd, mu + 12.0 * sd
    total, _ = integrate.quad(lambda t: prior_density(prior, t), lo, hi,
                              epsabs=1e-13, epsrel=1e-13)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_prior_fisher_info_values():
    assert Cosine(0.0, 1.0).fisher_info() == pytest.approx(PI2, abs=1e-12)
    assert Cosine(0.0, 2.0).fisher_info() == pytest.approx(PI2 / 4.0, abs=1e-12)
    assert GaussianPrior(0.0, 2.0).fisher_info() == 0.25
    assert UniformPrior(0.0, 1.0).fisher_info() == math.inf


def test_prior_center_is_any_finite_float():
    # a prior integrates in its centred coordinate, so no center is too far from 0
    assert GaussianPrior(1e16, 1.0).mu == 1e16
    assert Cosine(-1e300, 1.0).support() == (-1e300, -1e300)
    for make, name in ((lambda c: GaussianPrior(c, 1.0), "mu"),
                       (lambda c: Cosine(c, 1.0), "center"),
                       (lambda c: KeplerCosine.for_constraint(0.75, c), "center")):
        for center in (1e12, -1e16, 1e300):
            c, near = make(center).centred()
            (base_c, base), (lo, hi) = make(0.0).centred(), near.window()
            assert c == pytest.approx(center + base_c, rel=1e-15)
            # the moved prior is the prior at 0, its window centred at 0 up to
            # the rounding of the window's ends near the center
            assert near.dispersion() == base.dispersion()
            assert abs(0.5 * lo + 0.5 * hi) <= 2.0 * math.ulp(center)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {bad!r}")):
                make(bad)


@pytest.mark.parametrize("prior", [Cosine(0.5, 2.0), KeplerCosine.for_constraint(0.75, 1.0, 3.0),
                                   GaussianPrior(-1.0, 0.5), UniformPrior(0.0, 2.0)],
                         ids=["cosine", "kepler", "gaussian", "uniform"])
def test_log_ratio_is_the_log_density_difference(prior):
    lo, hi = prior.window()
    for h in (0.3, -0.05, 1e-3):
        t = np.linspace(lo, hi, 201)[1:-1]
        q, qh = prior.density(t), prior.density(t + h)
        both = (q > 0.0) & (qh > 0.0)
        assert prior.log_ratio(t[both], h) == pytest.approx(np.log(qh[both] / q[both]),
                                                            rel=1e-9, abs=1e-12)
    # it reads h itself: at a tiny shift it is h times d log q/dt, not rounding
    t, h = 0.37 * lo + 0.63 * hi, 1e-200
    slope = (math.log(prior.density(t + 1e-7)) - math.log(prior.density(t - 1e-7))) / 2e-7
    assert prior.log_ratio(t, h) == pytest.approx(h * slope, rel=1e-6, abs=1e-300)


def test_solve_kepler_half():
    sol = solve_kepler(0.5)
    assert sol.y_a == 0.0
    assert sol.w_a == 2.0
    assert sol.min_fisher == pytest.approx(PI2, abs=1e-12)
    assert (sol.s_minus, sol.s_plus) == (-1.0, 1.0)


def test_solve_kepler_one():
    sol = solve_kepler(1.0)
    assert sol.y_a == 1.0
    assert sol.w_a == 1.0
    assert sol.min_fisher == pytest.approx(4.0 * PI2, abs=1e-12)
    assert (sol.s_minus, sol.s_plus) == (0.0, 1.0)


def test_solve_kepler_three_quarters_vs_brentq():
    sol = solve_kepler(0.75)
    oracle = optimize.brentq(lambda y: y + math.sin(math.pi * y) / math.pi - 0.5,
                             -1.0, 1.0, xtol=1e-14)
    assert sol.y_a == pytest.approx(oracle, abs=1e-12)
    assert sol.s_plus == 1.0
    assert sol.s_plus - sol.s_minus == pytest.approx(sol.w_a, abs=1e-15)


def test_kepler_residuals_dense():
    worst = 0.0
    for a in np.linspace(0.0, 1.0, 1000):
        sol = solve_kepler(float(a))
        res = abs(sol.y_a + math.sin(math.pi * sol.y_a) / math.pi - (2.0 * a - 1.0))
        worst = max(worst, res)
    assert worst <= 1e-12


def _kepler_masses():
    """10,000 masses a: uniform ones, a within 1e-13 of 0, 1/2 and 1, and 1 - 2^-53."""
    rng = np.random.default_rng(22)
    near = [np.clip(c + rng.uniform(-1e-13, 1e-13, 300), 0.0, 1.0) for c in (0.0, 0.5, 1.0)]
    return [float(a) for a in np.concatenate([rng.uniform(0.0, 1.0, 9097), *near,
                                              [1.0 - 2.0**-53, 2.0**-54, 0.5 + 2.0**-53]])]


def test_kepler_newton_residual_on_ten_thousand_masses():
    # bisection to a 1e-13 bracket left residuals up to 5.673e-14 on these masses
    # (two above 5.67e-14); the Newton solve stops at 2 ulp of |2a - 1|
    masses = _kepler_masses()
    assert len(masses) == 10_000
    for a in masses:
        y, m = solve_kepler(a).y_a, 2.0 * a - 1.0
        residual = abs(y + math.sin(math.pi * y) / math.pi - m)
        assert residual <= 5.67e-14 and residual <= 2.0 * math.ulp(abs(m)), (a, residual)
        assert -1.0 <= y <= 1.0 and math.copysign(1.0, y) == math.copysign(1.0, m)


def test_kepler_newton_makes_at_most_six_evaluations(monkeypatch):
    # the solve is capped at 8; its starts reach 2 ulp well before the cap
    counts, sin = [], math.sin

    class CountingMath:  # the solver's math module, with its sin counted
        def __getattr__(self, name):
            return getattr(math, name)

        def sin(self, x):
            counts[-1] += 1
            return sin(x)
    monkeypatch.setattr(priors, "math", CountingMath())
    for a in _kepler_masses():
        counts.append(0)
        solve_kepler(a)
    assert max(counts) <= 6
    assert counts.count(0) == 0  # every solve evaluates the residual at least once


def test_kepler_eta_oddness_convention():
    # t + sin(pi t)/pi is identical to the form t - sin(-pi t)/pi
    for t in np.linspace(-1.0, 1.0, 41):
        lhs = t + math.sin(math.pi * t) / math.pi
        rhs = t - math.sin(-math.pi * t) / math.pi
        assert lhs == rhs


def test_solve_kepler_validation():
    with pytest.raises(ValueError):
        solve_kepler(-0.1)
    with pytest.raises(ValueError):
        solve_kepler(1.1)


def test_min_fisher_constrained():
    assert solve_kepler(0.5).min_fisher == pytest.approx(PI2, abs=1e-9)
    assert solve_kepler(1.0).min_fisher == pytest.approx(4.0 * PI2, abs=1e-10)
    v = solve_kepler(0.9).min_fisher
    assert v >= PI2
    assert v == pytest.approx(solve_kepler(0.1).min_fisher, abs=1e-10)


def test_min_fisher_monotone_in_constraint():
    grid = np.linspace(0.5, 1.0, 501)  # resolution 1e-3
    vals = [solve_kepler(float(a)).min_fisher for a in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v > PI2 for v in vals[1:])  # pi^2 attained only at a = 1/2
    for a in (0.3, 0.8):
        assert solve_kepler(a).min_fisher == pytest.approx(
            solve_kepler(1.0 - a).min_fisher, abs=1e-12)


def test_kepler_density():
    assert KeplerCosine.for_constraint(0.5).density(0.0) == pytest.approx(1.0, abs=1e-15)
    assert KeplerCosine.for_constraint(1.0).density(-0.2) == 0.0
    assert KeplerCosine.for_constraint(1.0).density(1.2) == 0.0
    mass, _ = integrate.quad(KeplerCosine.for_constraint(0.75).density, 0.0, 1.0,
                             epsabs=1e-13, epsrel=1e-13)
    assert mass == pytest.approx(0.75, abs=1e-8)


def test_kepler_density_matches_cosine_at_half():
    for t in np.linspace(-1.0, 1.0, 101):
        assert KeplerCosine.for_constraint(0.5).density(float(t)) == pytest.approx(
            prior_density(Cosine(0.0, 1.0), float(t)), abs=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.75, 0.9])
def test_kepler_fisher_info_by_quadrature(a):
    sol = solve_kepler(a)
    w, c = sol.w_a, 0.5 * (sol.s_plus + sol.s_minus)
    amp, k = 2.0 / w, math.pi / w

    def integrand(t):
        # q = amp cos^2(k (t-c)), q' = -amp k sin(2 k (t-c))
        q = amp * math.cos(k * (t - c)) ** 2
        dq = -amp * k * math.sin(2.0 * k * (t - c))
        return dq * dq / q

    val, _ = integrate.quad(integrand, sol.s_minus, sol.s_plus, limit=200)
    assert val == pytest.approx(sol.min_fisher, abs=1e-6)


def test_dilate():
    d = Cosine(0.0, 1.0).dilate(0.0, 2.0)
    assert d == Cosine(0.0, 2.0)
    assert d.fisher_info() == pytest.approx(PI2 / 4.0, abs=1e-12)
    assert GaussianPrior(0.0, 1.0).dilate(3.0, 1.0) == GaussianPrior(3.0, 1.0)
    twice = Cosine(0.0, 1.0).dilate(1.0, 2.0).dilate(0.5, 3.0)
    once = Cosine(0.0, 1.0).dilate(0.5 + 3.0 * 1.0, 6.0)
    assert twice == once
    kc = KeplerCosine.for_constraint(0.75).dilate(0.0, 0.5)
    assert kc.fisher_info() == pytest.approx(
        4.0 * solve_kepler(0.75).min_fisher, abs=1e-9)
    with pytest.raises(ValueError):
        Cosine(0.0, 1.0).dilate(0.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: Cosine(math.inf, 1.0),
    lambda: GaussianPrior(math.nan, 1.0),
    lambda: KeplerCosine.for_constraint(0.75, -math.inf),
    lambda: UniformPrior(-math.inf, 1.0),
    lambda: UniformPrior(0.0, math.nan),
    lambda: Cosine(0.0, 1.0).dilate(math.inf, 1.0),
    lambda: GaussianPrior(0.0, 1.0).dilate(math.nan, 2.0),
    lambda: UniformPrior(0.0, 1.0).dilate(math.inf, 1.0),
    lambda: KeplerCosine.for_constraint(0.75).dilate(-math.inf, 1.0),
])
def test_prior_location_must_be_finite(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_dilate_density_is_location_scale_map():
    base = KeplerCosine.for_constraint(0.8)
    moved = base.dilate(1.5, 0.25)
    for t in np.linspace(1.0, 2.0, 17):
        expected = prior_density(base, (t - 1.5) / 0.25) / 0.25
        assert prior_density(moved, float(t)) == pytest.approx(expected, abs=1e-13)


def test_check_nice():
    Cosine(0.0, 1.0).check_nice()
    GaussianPrior(0.0, 1.0).check_nice()
    KeplerCosine.for_constraint(0.6).check_nice()
    with pytest.raises(ValueError, match="prior is not nice: .+; .+"):
        UniformPrior(-1.0, 1.0).check_nice()


CONTRACT_PRIORS = {
    "cosine": Cosine(0.0, 1.0),
    "cosine-dilated": Cosine(0.0, 1.0).dilate(2.0, 0.5),
    "gaussian": GaussianPrior(0.0, 1.0),
    "gaussian-dilated": GaussianPrior(0.0, 1.0).dilate(-1.0, 3.0),
    "kepler": KeplerCosine.for_constraint(0.75),
    "kepler-dilated": KeplerCosine.for_constraint(0.75).dilate(1.0, 0.4),
}


@pytest.mark.parametrize("prior", CONTRACT_PRIORS.values(), ids=CONTRACT_PRIORS.keys())
def test_prior_contract(prior):
    """What the quadrature layer relies on from every nice prior type."""
    lo, hi = prior.window()
    total, _ = integrate.quad(prior.density, lo, hi, epsabs=1e-13, epsrel=1e-13)
    assert total == pytest.approx(1.0, abs=1e-10)
    # the window lies in the support, and every finite support end lies in the window
    s_lo, s_hi = prior.support()
    assert s_lo <= lo < hi <= s_hi
    assert all(lo <= e <= hi for e in (s_lo, s_hi) if math.isfinite(e))
    c, s = 0.7, 2.5
    moved = prior.dilate(c, s)
    m_lo, m_hi = moved.window()
    for t in np.linspace(m_lo, m_hi, 41):
        assert moved.density(t) == pytest.approx(prior.density((t - c) / s) / s,
                                                 abs=1e-13)
    assert moved.fisher_info() == pytest.approx(prior.fisher_info() / s**2, rel=1e-12)


@pytest.mark.parametrize("prior", [Cosine(0.5, 2.0), GaussianPrior(1.0, 0.5),
                                   UniformPrior(-1.0, 2.0),
                                   KeplerCosine.for_constraint(0.3, -1.0, 2.0)],
                         ids=["cosine", "gaussian", "uniform", "kepler"])
def test_prior_density_accepts_arrays(prior):
    ts = np.linspace(-4.0, 4.0, 801)
    batch = prior_density(prior, ts)
    assert isinstance(batch, np.ndarray) and batch.shape == ts.shape
    one_by_one = [prior_density(prior, float(t)) for t in ts]
    assert all(type(v) is float for v in one_by_one)
    assert batch == pytest.approx(one_by_one, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("prior", [Cosine(0.0, 1.0), Cosine(2.0, 0.5), GaussianPrior(0.0, 1.0),
                                   GaussianPrior(-1.0, 3.0), KeplerCosine.for_constraint(0.75),
                                   KeplerCosine.for_constraint(0.3, center=1.0, scale=0.4)])
def test_mass_above_is_the_density_integral(prior):
    # Q((x, inf)) at points across the support, against quadrature of the density
    lo, hi = prior.window()
    for x in np.linspace(lo, hi, 9)[1:-1]:
        tail, _ = integrate.quad(prior.density, x, hi, epsabs=0.0, epsrel=1e-13)
        assert prior.mass_above(float(x)) == pytest.approx(tail, rel=1e-12, abs=1e-15)


def test_mass_above_lies_in_the_unit_interval_and_is_exact_past_the_ends():
    for prior in (Cosine(0.0, 1.0), Cosine(-3.0, 1e-3), KeplerCosine.for_constraint(1e-8),
                  KeplerCosine.for_constraint(1.0 - 1e-8, 5.0, 2.0)):
        lo, hi = prior.support()
        assert prior.mass_above(hi) == prior.mass_above(hi + 1.0) == 0.0
        assert prior.mass_above(lo) == prior.mass_above(lo - 1.0) == 1.0
        masses = [prior.mass_above(float(x)) for x in np.linspace(lo, hi, 201)]
        assert all(0.0 <= m <= 1.0 for m in masses)
        assert masses == sorted(masses, reverse=True)
    # the far tails of the Gaussian prior read 0 and 1, and its top tail keeps its digits
    gauss = GaussianPrior(0.0, 1.0)
    assert gauss.mass_above(1e300) == 0.0 and gauss.mass_above(-1e300) == 1.0
    assert gauss.mass_above(40.0) == 0.0 and gauss.mass_above(-40.0) == 1.0
    assert GaussianPrior(1e300, 1e-150).mass_above(0.0) == 1.0
    assert gauss.mass_above(37.0) == pytest.approx(5.725571222524e-300, rel=1e-12)
    # KeplerCosine.for_constraint(a) puts mass a above its center, down to a = 1e-8
    for a in (1e-8, 1e-3, 0.3, 0.5, 0.75, 1.0 - 1e-8):
        assert KeplerCosine.for_constraint(a).mass_above(0.0) == pytest.approx(a, rel=1e-14)


def test_gaussian_mass_above_matches_mpmath():
    # Q((x - mu)/sigma) of the float x, mu and sigma, within 1e-15 relative of 50 digits, at
    # 1,000 derandomized draws: sigma log-uniform in [1e-100, 1e100], mu within 1e3 sigma of
    # 0 and (x - mu)/sigma in [-8, 37], where a rounded argument of erfc would be 1e-13 off
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(47)
    sigmas = np.exp(rng.uniform(math.log(1e-100), math.log(1e100), 1000)).tolist()
    mus = [float(u) * s for u, s in zip(rng.uniform(-1e3, 1e3, 1000), sigmas)]
    xs = [mu + float(z) * s for mu, z, s in zip(mus, rng.uniform(-8.0, 37.0, 1000), sigmas)]
    with mpmath.workdps(50):
        for x, mu, sigma in zip(xs, mus, sigmas):
            z = (mpmath.mpf(x) - mpmath.mpf(mu)) / mpmath.mpf(sigma)
            want = mpmath.erfc(z / mpmath.sqrt(2)) / 2
            got = GaussianPrior(mu, sigma).mass_above(x)
            assert abs(got - want) <= 1e-15 * want, (x, mu, sigma, got, want)
