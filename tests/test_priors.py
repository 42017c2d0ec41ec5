import math

import numpy as np
import pytest
from scipy import integrate, optimize

from minimaxlb.numerics import QuadratureSpec, integrate_adaptive
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
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    total = integrate_adaptive(lambda t: prior_density(prior, t), lo, hi, tight)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_prior_fisher_info_values():
    assert Cosine(0.0, 1.0).fisher_info().value == pytest.approx(PI2, abs=1e-12)
    assert Cosine(0.0, 2.0).fisher_info().value == pytest.approx(PI2 / 4.0, abs=1e-12)
    assert GaussianPrior(0.0, 2.0).fisher_info().value == 0.25
    assert UniformPrior(0.0, 1.0).fisher_info().is_divergent


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
    sol = solve_kepler(0.75, tol=1e-13)
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
    mass = integrate_adaptive(lambda t: KeplerCosine.for_constraint(0.75).density(t), 0.0, 1.0)
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
    assert d.fisher_info().value == pytest.approx(PI2 / 4.0, abs=1e-12)
    assert GaussianPrior(0.0, 1.0).dilate(3.0, 1.0) == GaussianPrior(3.0, 1.0)
    twice = Cosine(0.0, 1.0).dilate(1.0, 2.0).dilate(0.5, 3.0)
    once = Cosine(0.0, 1.0).dilate(0.5 + 3.0 * 1.0, 6.0)
    assert twice == once
    kc = KeplerCosine.for_constraint(0.75).dilate(0.0, 0.5)
    assert kc.fisher_info().value == pytest.approx(
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
    assert Cosine(0.0, 1.0).check_nice().is_nice
    assert GaussianPrior(0.0, 1.0).check_nice().is_nice
    assert KeplerCosine.for_constraint(0.6).check_nice().is_nice
    report = UniformPrior(-1.0, 1.0).check_nice()
    assert not report.is_nice
    assert report.reasons


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
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)
    assert integrate_adaptive(prior.density, lo, hi, tight) == pytest.approx(1.0, abs=1e-10)
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
    assert moved.fisher_info().value == pytest.approx(prior.fisher_info().value / s**2,
                                                      rel=1e-12)


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
