import functools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, optimize, special

from minimaxlb import bounds, numerics, priors
from minimaxlb.bounds import (DegenerateKernelError, Identity, MaxZero,
                              PolyKernel, PowerMax, chi2_mixture_bound,
                              density_lam_constant, diffeo_bound,
                              diffeo_bound_sup,
                              hellinger_mixture_bound,
                              hellinger_mixture_bound_sup,
                              lam_constant,
                              two_point_hellinger_bound, twopoint_bound_sup, van_trees_value,
                              vt_kepler_bound)
from minimaxlb.cli import main
from minimaxlb.estimators import PluginMLE, local_minimax_risk
from minimaxlb.mixtures import MixtureSpec, default_grid, mixture_chi_sq
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.numerics import coarse_axis, maximize_1d, maximize_2d
from minimaxlb.priors import Cosine, GaussianPrior, KeplerCosine, UniformPrior, solve_kepler
from minimaxlb.sweep import SweepConfig, sweep_row_values
from test_numerics import first_coarse_max

GAUSS = GaussianLocation(1.0)
PI2 = math.pi**2


def test_functional_eval():
    # psi is read through its difference; psi(0) = 0, so difference(t, t) = psi(t)
    assert MaxZero().difference(-1.0, -1.0) == 0.0
    assert MaxZero().difference(2.0, 2.0) == 2.0
    assert PowerMax(0.5).difference(4.0, 4.0) == 2.0
    assert PowerMax(0.5).difference(-1.0, -1.0) == 0.0
    assert Identity().difference(-3.5, -3.5) == -3.5
    for f in (MaxZero(), PowerMax(0.5), Identity()):
        assert type(f.difference(2, 2)) is float  # of a float, or a number, a float
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


def test_interpolated_chi2_bound_scales_as_sigma_squared():
    # bound --method chi2 --sigma S --prior gaussian:0:S --h 0.1S --lambda 0.5: the grid's
    # joint densities are about 1/S^2, and their squares leave the float range past
    # S = 1e77 or below 1e-77; no RuntimeWarning, which the test settings make an error
    def scaled(s):
        family, prior = GaussianLocation(s), GaussianPrior(0.0, s)
        return chi2_mixture_bound(family, 1, prior, MaxZero(), 0.1 * s, 0.5).value / s**2

    for s in (1e-100, 1e-80, 1e80, 1e100):
        assert scaled(s) == pytest.approx(scaled(1.0), rel=1e-12, abs=0.0)


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
    assert res.value <= local_minimax_risk(PluginMLE(), delta, n)  # both n-scaled


def test_chi2_bound_lambda_zero_is_mixture_hcr():
    h = 0.05
    prior = GaussianPrior(0.0, 1.0)
    got = chi2_mixture_bound(GAUSS, 1, prior, Identity(), h, 0.0).value
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
    got = chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), MaxZero(), h, 0.0).value
    assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_chi2_bound_divergent_and_lambda_one():
    divergent = chi2_mixture_bound(UniformScale(), 1, Cosine(2.0, 0.5), Identity(), 0.1, 0.0)
    assert divergent.value == 0.0
    assert divergent.notes == ("divergent denominator; trivial bound 0",)
    assert chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(),
                              0.1, 1.0).value == 0.0
    with pytest.raises(ValueError):
        chi2_mixture_bound(GAUSS, 2, GaussianPrior(0.0, 1.0), Identity(), 0.1, 0.5)
    with pytest.raises(ValueError):
        chi2_mixture_bound(GAUSS, 1, GaussianPrior(0.0, 1.0), Identity(), 0.1, 1.5)


def test_chi2_bound_closed_form_matches_L_scan():
    # brute-force the pre-optimized expression over a dense L grid
    h, lam = 0.4, 0.3
    prior = GaussianPrior(0.0, 1.0)
    f = MaxZero()
    from minimaxlb.mixtures import mixture_chi_sq_interpolated_grid
    num, second = bounds.delta_psi_moments(prior, f, h)
    denom = mixture_chi_sq_interpolated_grid(GAUSS, prior, h, lam, default_grid(GAUSS, prior, h))
    a = num * num / denom
    b = second
    best = 0.0
    for big_l in np.geomspace(1e-4, 1e6, 20001):
        val = (1.0 - lam) ** 2 / (1.0 + big_l * lam) * max(
            a - lam * (1.0 + 1.0 / big_l) / (1.0 - lam) ** 2 * b, 0.0)
        best = max(best, val)
    got = chi2_mixture_bound(GAUSS, 1, prior, f, h, lam).value
    assert got == pytest.approx(best, rel=1e-6)


def test_van_trees_values():
    assert van_trees_value(GAUSS, 1, Cosine(0.0, 1.0), Identity()) == \
        pytest.approx(1.0 / (PI2 + 1.0), abs=1e-10)
    assert van_trees_value(GAUSS, 1, Cosine(0.0, 1.0), MaxZero()) == \
        pytest.approx(0.25 / (PI2 + 1.0), abs=1e-10)
    # dilating the prior by delta scales I(Q) by delta^-2
    delta = 0.3
    got = van_trees_value(GAUSS, 5, Cosine(0.0, delta), Identity())
    assert got == pytest.approx(5.0 / (PI2 / delta**2 + 5.0), abs=1e-10)
    # the family's information 1/sigma^2 enters n times
    got = van_trees_value(GaussianLocation(2.0), 8, Cosine(0.0, 1.0), Identity())
    assert got == pytest.approx(8.0 / (PI2 + 8.0 / 4.0), rel=1e-14)
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


def _every_cut_check(prior, f, h):
    """The overflow check that evaluates psi(t) - psi(t - h) at the window's ends and
    every quadrature cut, not only at the kinks: the oracle of ``_checked_cuts``."""
    c, near = prior.centred()
    lo, hi = near.window()
    cuts = f.cuts(h, hi - lo) - c
    ends = np.concatenate((np.full(np.shape(h) + (2,), (lo, hi)), np.clip(cuts, lo, hi)), -1)
    with np.errstate(over="ignore"):
        finite = np.isfinite(f.difference(c + ends, np.expand_dims(h, -1)) ** 2).all(axis=-1)
    if not finite.all():
        bad = float(np.atleast_1d(h)[~np.atleast_1d(finite)][0])
        raise ValueError(f"h={bad!r} is too large: (psi(t) - psi(t - h))^2 overflows")
    return cuts


def _check_outcome(check, prior, f, h):
    try:
        return check(prior, f, h).tolist()
    except ValueError as exc:
        return str(exc)


def test_overflow_check_at_the_kinks_decides_as_at_every_cut():
    # |psi(t) - psi(t - h)| is monotone between the kinks 0 and h, so the check at the
    # window's ends and the kinks raises, with the same message, where the one at every
    # cut raises; off-centre priors near 1e154 and shifts up to 1.6e308 reach the square's
    # overflow, for alpha = 1 and below; at alpha = 0.999, |h| = 1.9133e154 overflows at
    # a kink inside the window, 0 (h < 0) or h (h > 0), and at neither end
    rng = np.random.default_rng(40)
    fixed = [1e300, 1.6e308, 1.3e154, 1.4e154, 1.9133e154, 2.0, 1e-3]
    sizes = np.concatenate((fixed, 10.0 ** rng.uniform(-4.0, 308.2, 24),
                            10.0 ** rng.uniform(150.0, 160.0, 12)))
    shifts = np.concatenate((sizes, -sizes))
    raised = 0
    for prior in (Cosine(0.0, 1.0), GaussianPrior(0.0, 1.0), KeplerCosine.for_constraint(0.75),
                  Cosine(1.2e154, 3.0), Cosine(0.0, 4.2e153), Cosine(2e154, 4.2e153),
                  KeplerCosine.for_constraint(0.3, -1.1e154, 2e153)):
        for f in (MaxZero(), PowerMax(0.999), PowerMax(0.5), PowerMax(0.01), Identity()):
            for h in shifts.tolist():
                got = _check_outcome(bounds._checked_cuts, prior, f, h)
                assert got == _check_outcome(_every_cut_check, prior, f, h), (prior, f, h)
                raised += isinstance(got, str)
            # an array of shifts names the first one that overflows, as the oracle does
            assert _check_outcome(bounds._checked_cuts, prior, f, shifts) == \
                _check_outcome(_every_cut_check, prior, f, shifts), (prior, f)
    assert 0 < raised < 7 * 5 * len(shifts) // 2


def test_maxzero_slope_mass_is_the_prior_mass_above_zero():
    assert MaxZero().slope_mass(GaussianPrior(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert MaxZero().slope_mass(GaussianPrior(13.0, 1.0)) == pytest.approx(1.0, abs=1e-15)
    # a window wholly below 0 still reads the mass above it, Phi(-13)
    assert MaxZero().slope_mass(GaussianPrior(-13.0, 1.0)) == \
        pytest.approx(6.117164399549880e-39, rel=1e-15, abs=0.0)
    # far from 0 the prior's window still resolves: the value is 1 / (1 + 1)
    for mu in (1e6, 1e10, 1e12):
        assert van_trees_value(GAUSS, 1, GaussianPrior(mu, 1.0), MaxZero()) == \
            pytest.approx(0.5, rel=1e-14)
    for prior in (GaussianPrior(1e8, 0.01), Cosine(1e9, 1.0),
                  KeplerCosine.for_constraint(0.75, 1e6, 0.01)):
        assert MaxZero().slope_mass(prior) == pytest.approx(1.0, abs=1e-14)


def test_van_trees_value_matches_mpmath():
    # the mass above 0 and the value n m^2 / (I(Q) + n / sigma^2), each to 1e-15 relative
    # or 4 ulp of a 50-digit reference read off the prior's float parameters, at 40
    # derandomized priors of each kind: cosine centres within 1.5 halfwidths of 0, Kepler
    # masses a in [1e-8, 1 - 1e-8] and Gaussian mu/sigma in [-37, 8] (below -12 the 12-sigma
    # window lies below 0), with n log-uniform up to 1e6 and family sigma 1 or 0.3
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(45)
    scales = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 120)).tolist()
    masses = np.exp(rng.uniform(math.log(1e-8), math.log(0.5), 40))
    masses = np.where(np.arange(40) % 2, masses, 1.0 - masses).tolist()
    cases = [Cosine(float(rng.uniform(-1.5, 1.5)) * s, s) for s in scales[:40]]
    cases += [KeplerCosine.for_constraint(a, 0.0, s) for a, s in zip(masses, scales[40:80])]
    cases += [GaussianPrior(float(rng.uniform(-37.0, 8.0)) * s, s) for s in scales[80:]]
    ns = np.exp(rng.uniform(0.0, math.log(1e6), 120)).astype(int).tolist()

    def close(got, want):
        return abs(got - want) <= max(1e-15 * want, 4.0 * math.ulp(float(want)))

    with mpmath.workdps(50):
        for i, (prior, n) in enumerate(zip(cases, ns)):
            sigma = (1.0, 0.3)[i % 2]
            if isinstance(prior, GaussianPrior):
                mu, s = mpmath.mpf(prior.mu), mpmath.mpf(prior.sigma)
                mass, info = mpmath.erfc(-mu / (s * mpmath.sqrt(2))) / 2, 1 / s**2
            else:
                c, w = mpmath.mpf(prior.center), mpmath.mpf(prior.halfwidth)
                phi = mpmath.pi * min(max((c + w) / w, 0), 2)
                mass, info = (phi - mpmath.sin(phi)) / (2 * mpmath.pi), (mpmath.pi / w)**2
            value = n * mass**2 / (info + n / mpmath.mpf(sigma)**2)
            got = MaxZero().slope_mass(prior)
            assert close(got, mass), (prior, got, mass)
            got = van_trees_value(GaussianLocation(sigma), n, prior, MaxZero())
            assert close(got, value), (prior, n, sigma, got, value)


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


def _diffeo_moments_by_mpmath(mpmath, xi1, xi2):
    """E[g 1{Z > z0}] and E[g^2] as mpmath numbers at the working precision, by
    tanh-sinh quadrature on the 12-sigma window, cut at the kink z0 and at z0 +- 16^j/xi2
    (g's poles sit 1/xi2 off the real axis); cuts at z0 +- 2^j/xi2, the kernel's, give
    the same 40 digits at 1.7 times the cost."""
    x1, x2 = mpmath.mpf(xi1), mpmath.mpf(xi2)
    z0, step, top = -x1 / x2, 1 / x2, mpmath.mpf(_Z_WINDOW)
    cuts = {-top, top, z0}
    while step < 2 * top:
        cuts |= {z0 - step, z0 + step}
        step *= 16
    cuts = sorted(z for z in cuts if -top <= z <= top)
    above = [z for z in cuts if z >= z0]
    unit = 1 / mpmath.sqrt(2 * mpmath.pi)
    g_phi = lambda z: unit * mpmath.exp(-z * z / 2) / (1 + (x1 + z * x2) ** 2)
    return (mpmath.quad(g_phi, above) if len(above) > 1 else mpmath.mpf(0),
            mpmath.quad(lambda z: g_phi(z) / (1 + (x1 + z * x2) ** 2), cuts))


def test_diffeo_moments_match_mpmath():
    # both moments to the 1.3e-14 relative the kernel is validated to, against a 40-digit
    # quadrature, at the box's corners, at four argmaxes of the default figure's sups and
    # at 8 derandomized points of the box
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(36)
    points = [(xi1, xi2) for xi1 in bounds.DIFFEO_XI1_RANGE for xi2 in bounds.DIFFEO_XI2_RANGE]
    points += [tuple(diffeo_bound_sup(delta, n).argmax.values())
               for n, delta in ((10, 0.01), (10, 1.0), (100, 0.3), (100, 100.0))]
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = bounds._DIFFEO_BOX.intervals
    points += [(float(rng.uniform(x1_lo, x1_hi)), math.exp(rng.uniform(lx2_lo, lx2_hi)))
               for _ in range(8)]
    for xi1, xi2 in points:
        with mpmath.workdps(40):
            want = tuple(map(float, _diffeo_moments_by_mpmath(mpmath, xi1, xi2)))
        got = bounds._diffeo_moments(xi1, xi2)
        assert got == pytest.approx(want, rel=1.3e-14, abs=0.0), (xi1, xi2, got, want)


def test_diffeo_bound_matches_mpmath():
    # the value to 1e-13 relative of a 40-digit reference, (xi2 e_ind)^2 / (u + xi2^2 e_sq)
    # with u = (pi / (2 s))^2 from 40-digit moments, at 24 derandomized points of the box,
    # s = sqrt(n) delta log-uniform in [1e-150, 1e150], each reached through a split whose n
    # is log-uniform up to 1e307 where delta stays above 1e-161
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = bounds._DIFFEO_BOX.intervals
    for _ in range(24):
        xi1, xi2 = float(rng.uniform(x1_lo, x1_hi)), math.exp(rng.uniform(lx2_lo, lx2_hi))
        log_s = rng.uniform(-150.0, 150.0)
        n = int(10.0 ** rng.uniform(0.0, min(307.0, 2.0 * (log_s + 161.0))))
        delta = 10.0**log_s / math.sqrt(n)
        s = math.sqrt(n) * delta
        with mpmath.workdps(40):
            e_ind, e_sq = _diffeo_moments_by_mpmath(mpmath, xi1, xi2)
            x2, u = mpmath.mpf(xi2), (mpmath.pi / (2 * mpmath.mpf(s))) ** 2
            want = float((x2 * e_ind) ** 2 / (u + x2 * x2 * e_sq))
        got = diffeo_bound(delta, n, xi1, xi2)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (xi1, xi2, delta, n, got, want)


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


def _diffeo_u(delta, n):
    """u = (pi / (2 s))^2 at s = sqrt(n) delta, the one input of the diffeo bound that is
    not a moment; inf where it overflows, below s ~ 1.2e-154."""
    h = math.pi / (2.0 * (math.sqrt(n) * delta))
    return h * h


def _diffeo_grid(delta, n, xi1s, lxi2s):
    """The diffeo bound on the grid xi1s x exp(lxi2s), one xi2 column a moment pass."""
    columns = []
    for lx2 in lxi2s:
        xi2 = math.exp(float(lx2))
        _, above, g2_phi_w = _diffeo_moment_terms(xi1s, xi2)
        columns.append(bounds._diffeo_ratio(_diffeo_u(delta, n), xi2, above.sum(axis=-1),
                                            g2_phi_w.sum(axis=-1)))
    return np.stack(columns, axis=1)


def test_diffeo_bound_sup_matches_dense_grid():
    delta, n = 2.0, 100
    res = diffeo_bound_sup(delta, n)
    xi1s = np.linspace(-10.0, 10.0, 512)
    lxi2s = np.linspace(*(math.log(x) for x in bounds.DIFFEO_XI2_RANGE), 512)
    grid = _diffeo_grid(delta, n, xi1s, lxi2s)
    i, j = np.unravel_index(np.argmax(grid), grid.shape)
    # zoom pass around the global-grid argmax to sharpen the oracle
    dx = (xi1s[1] - xi1s[0]) * 2.0
    dl = (lxi2s[1] - lxi2s[0]) * 2.0
    zoom = _diffeo_grid(delta, n, np.linspace(xi1s[i] - dx, xi1s[i] + dx, 64),
                        np.linspace(lxi2s[j] - dl, lxi2s[j] + dl, 64))
    best = max(grid.max(), zoom.max())
    assert res.value == pytest.approx(best, abs=1e-4)


def _diffeo_objective(delta, n):
    return lambda a, b: diffeo_bound(delta, n, a, math.exp(b), derivatives=True)


def _diffeo_sup_without_table(delta, n):
    """diffeo_bound_sup's search from the coarse argmax alone (no start), with the
    coarse values from diffeo_bound itself."""
    f = _diffeo_objective(delta, n)
    xi1s, log_xi2s = (coarse_axis(lo, hi) for lo, hi in bounds._DIFFEO_BOX.intervals)
    coarse = [[float(f(a, b)[0]) for b in log_xi2s] for a in xi1s]
    (x1, lx2), value = maximize_2d(f, bounds._DIFFEO_BOX, *first_coarse_max(coarse))
    return value, {"xi1": x1, "xi2": math.exp(lx2)}


def _diffeo_coarse(delta, n):
    """The diffeo bound on the whole coarse grid, from the test-built moment table."""
    return bounds._diffeo_ratio(_diffeo_u(delta, n), *_diffeo_moment_table())


def _diffeo_scan_start_sup(delta, n):
    """diffeo_bound_sup's search from the first maximum of the whole coarse table, as it
    ran before the argmax path: ((xi1, log xi2), value)."""
    return maximize_2d(_diffeo_objective(delta, n), bounds._DIFFEO_BOX,
                       *first_coarse_max(_diffeo_coarse(delta, n)))


@pytest.mark.parametrize("delta,n", [
    (1e-3, 10), (0.01, 10), (2.0, 100), (100.0, 10**4), (1e-4, 1),
    # s = 1e153, where (pi / (2 s))^2 is about 2.5e-306 and nothing overflows
    pytest.param(1.0, 10**306, id="1.0-1e306",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_diffeo_sup_moment_table_matches_the_scan(delta, n):
    # off the argmax path the sup is the scan's search bit for bit; on it, Newton
    # starts elsewhere and stops at the same maximum up to its rounding, and up to
    # 5.3e-5 apart in (xi1, log xi2) where the top is flattest, near s = 1e-3
    res = diffeo_bound_sup(delta, n)
    value, argmax = _diffeo_sup_without_table(delta, n)
    if bounds._diffeo_start(math.sqrt(n) * delta) is None:
        assert (res.value, res.argmax) == (value, argmax)
    else:
        assert abs(res.value - value) <= 4e-15 * value, (res.value, value)
        assert abs(res.argmax["xi1"] - argmax["xi1"]) <= 1e-4, (res.argmax, argmax)
        assert abs(math.log(res.argmax["xi2"] / argmax["xi2"])) <= 1e-4, (res.argmax, argmax)


def test_sweep_row_diffeo_matches_the_scan_with_sigma():
    config = SweepConfig("fixed-n-vary-delta", (10,), (0.5,), sigma=2.0,
                         methods=("diffeo",), estimators=())
    value = diffeo_bound_sup(0.25, 10).value
    assert sweep_row_values(10, 0.5, config) == {"bound_diffeo": 4.0 * value}
    scanned, _ = _diffeo_sup_without_table(0.25, 10)
    assert abs(value - scanned) <= 4e-15 * scanned


@pytest.mark.parametrize("delta,n,sup_fisher", [
    (1e-3, 10, 1.0), (0.3, 1, 1.0), (1.0, 100, 0.25), (1e3, 10**6, 1.0), (5.0, 2**60 + 1, 4.0)])
def test_vt_kepler_fisher_table_matches_the_scan(delta, n, sup_fisher):
    # the oracle scans a Fisher table in the mass a, solving the Kepler equation
    # at every coarse a, and refines by a golden-section search in a inside the best
    # coarse cell; the sup runs in the Kepler root y, where a and the information are
    # explicit
    def bound(a):
        return n * a * a / (solve_kepler(a).min_fisher / delta**2 + n * sup_fisher)
    grid = coarse_axis(0.0, 1.0).tolist()
    values = [bound(a) for a in grid]
    i = max(range(len(values)), key=values.__getitem__)
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        left, right = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        lo, hi = (lo, right) if bound(left) >= bound(right) else (left, hi)
    a, value = max(((a, bound(a)) for a in (lo, hi, grid[i])), key=lambda p: p[1])
    res = vt_kepler_bound(delta, n, sup_fisher)
    assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)
    # a flat maximum fixes its argmax only to about sqrt(eps) (5e-9 here)
    assert res.argmax["a"] == pytest.approx(a, rel=1e-7)
    assert res.value >= max(bound(float(a)) for a in np.linspace(0.0, 1.0, 2001))


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
    # y next to 0 and next to 1, where the mass a flattens
    k = math.pi**2 / (n * delta * delta)

    def f(x):
        value, grad, hess = bounds._vt_kepler_objective(k, sup_fisher, x[0])
        return value, [grad], [[hess]]
    for y in (1e-3, 0.05, 0.3, 0.43, 0.6, 0.9, 0.99, 0.999):
        _assert_derivatives_match(f, (y,), 1e-5 * min(y, 1.0 - y), 1e-6)


def _quotient_derivatives_by_numpy(num, dnum, hnum, den, dden, hden):
    """The quotient rule on numpy vectors and matrices: the reference for the
    float assembly of the Newton objectives, which must keep its every bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = num / den
        grad = (dnum - value * dden) / den
        return value, grad, (hnum - value * hden - np.outer(grad, dden)
                             - np.outer(dden, grad)) / den


def _diffeo_derivatives_by_numpy(delta, n, xi1, xi2):
    """diffeo_bound(delta, n, xi1, xi2, derivatives=True) assembled in numpy, in
    u = (pi / (2 s))^2: the bound P^2 / (u + Y), P = xi2 E[g 1{Z > z0}], Y = xi2^2 E[g^2]."""
    (i0, i1, i2, i3, i4), (s0, s1, s2, s3, s4) = bounds._diffeo_moments(
        xi1, xi2, derivatives=True)
    x = xi2
    p, dp = x * i0, np.array([i1, x * i2])
    hp = np.array([[(i2 - i0) / x, i3 - 2.0 * i1], [i3 - 2.0 * i1, x * (i4 - 2.0 * i2)]])
    dy = np.array([x * s1, x * x * (s0 + s2)])
    hy = np.array([[s2 - s0, x * (s3 - s1)], [x * (s3 - s1), x * x * (s0 + s4)]])
    _, grad, hess = _quotient_derivatives_by_numpy(
        p * p, 2.0 * p * dp, 2.0 * (np.outer(dp, dp) + p * hp),
        _diffeo_u(delta, n) + x * x * s0, dy, hy)
    return bounds._diffeo_ratio(_diffeo_u(delta, n), xi2, i0, s0), grad, hess


def _vt_objective_by_numpy(k, sup_fisher, y):
    """bounds._vt_kepler_objective assembled in numpy."""
    pi = math.pi
    a, da, dda = bounds._kepler_mass(y), math.cos(0.5 * pi * y) ** 2, -0.5 * pi * math.sin(pi * y)
    return _quotient_derivatives_by_numpy(
        a * a, np.array([2.0 * a * da]), np.array([[2.0 * (da * da + a * dda)]]),
        k * (1.0 + y) ** 2 + sup_fisher, np.array([2.0 * k * (1.0 + y)]), np.array([[2.0 * k]]))


def _assert_same_floats(got, want, where):
    """Each entry of got is a Python float with the bits of want's entry, or
    both are NaN."""
    got, want = list(got), list(want)
    assert len(got) == len(want), where
    for g, w in zip(got, want):
        assert type(g) is float, (where, g)
        assert (np.float64(g).tobytes() == np.float64(w).tobytes()
                or (math.isnan(g) and math.isnan(w))), (where, g, w)


def _assert_same_derivatives(got, want, where):
    (value, grad, hess), (want_value, want_grad, want_hess) = got, want
    assert len(hess) == len(want_hess), where
    _assert_same_floats([value, *grad, *(h for row in hess for h in row)],
                        [want_value, *want_grad, *np.ravel(want_hess)], where)


def test_diffeo_derivatives_are_the_numpy_assembly_bit_for_bit():
    # xi2 at and next to both ends of the validated range, and n = 10**306, where the
    # bound, written in u = (pi / (2 s))^2, keeps every cell finite
    rng = np.random.default_rng(20)
    lx2_lo, lx2_hi = bounds._DIFFEO_BOX.intervals[1]
    ends = (lx2_lo, lx2_lo + 1e-9, lx2_lo + 1e-3, lx2_hi - 1e-3, lx2_hi - 1e-9, lx2_hi)
    for i in range(200):
        delta = float(10.0 ** rng.uniform(-3.0, 3.0))
        n = 10**306 if i % 10 == 0 else int(10.0 ** rng.uniform(0.0, 6.0))
        xi1 = float(rng.uniform(-10.0, 10.0))
        lx2 = ends[i % 20 // 2] if i % 20 < 12 else float(rng.uniform(lx2_lo, lx2_hi))
        got = diffeo_bound(delta, n, xi1, math.exp(lx2), derivatives=True)
        _assert_same_derivatives(got, _diffeo_derivatives_by_numpy(
            delta, n, xi1, math.exp(lx2)), (delta, n, xi1, lx2))
        value, grad, hess = got
        assert all(map(math.isfinite, [value, *grad, *hess[0], *hess[1]])), (delta, n, got)


def test_vt_derivatives_are_the_numpy_assembly_bit_for_bit():
    rng = np.random.default_rng(21)
    fixed = (1e-3, 0.999, 0.0, 0.5, 1.0)
    for i in range(200):
        delta = float(10.0 ** rng.uniform(-3.0, 3.0))
        n = 10**306 if i % 25 == 0 else int(10.0 ** rng.uniform(0.0, 6.0))
        k = math.pi**2 / (n * delta * delta)
        sup_fisher = float(10.0 ** rng.uniform(-2.0, 2.0))
        y = fixed[i] if i < len(fixed) else float(rng.uniform(0.0, 1.0))
        value, grad, hess = bounds._vt_kepler_objective(k, sup_fisher, y)
        _assert_same_derivatives((value, [grad], [[hess]]),
                                 _vt_objective_by_numpy(k, sup_fisher, y), (k, sup_fisher, y))


def _diffeo_moment_terms(xi1, xi2):
    """_diffeo_moments' nodes z and its terms g phi w above the kink and g^2 phi w,
    for a float xi1 or, a row each, an array of them."""
    xi1 = np.asarray(xi1, dtype=float)
    z0 = (-xi1 / xi2)[..., None]
    offsets, step = [0.0], 1.0 / xi2
    while step < 2.0 * bounds._Z_MAX:
        offsets += (-step, step)
        step *= 2.0
    fixed = bounds._z_fixed()
    ends = np.empty(z0.shape[:-1] + (len(fixed) + len(offsets),))
    ends[..., :len(fixed)], ends[..., len(fixed):] = fixed, z0 + offsets
    ends = np.sort(np.minimum(np.maximum(ends, -bounds._Z_MAX), bounds._Z_MAX))
    z, w = numerics.panel_nodes(ends)
    u = xi1[..., None] + z * xi2
    g = 1.0 / (1.0 + u * u)
    g_phi_w = g * np.exp(-0.5 * z * z) * (w / bounds._SQRT_2PI)
    return z, np.where(z > z0, g_phi_w, 0.0), g * g_phi_w


def _diffeo_moments_by_cumprod(xi1, xi2):
    """_diffeo_moments(xi1, xi2, derivatives=True) with z, z^2, z^3, z^4 from
    np.cumprod over a stride-0 view of z: the reference for its powers."""
    z, above, g2_phi_w = _diffeo_moment_terms(xi1, xi2)
    powers = np.cumprod(np.broadcast_to(z, (4, z.size)), axis=0)
    return ((float(above.sum(axis=-1)), *(powers * above).sum(axis=1).tolist()),
            (float(g2_phi_w.sum(axis=-1)), *(powers * g2_phi_w).sum(axis=1).tolist()))


def test_diffeo_moment_powers_are_the_cumprod_bit_for_bit():
    rng = np.random.default_rng(22)
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = bounds._DIFFEO_BOX.intervals
    points = [(x1, math.exp(lx2)) for x1 in (x1_lo, x1_hi) for lx2 in (lx2_lo, lx2_hi)]
    points += [(float(rng.uniform(x1_lo, x1_hi)), math.exp(rng.uniform(lx2_lo, lx2_hi)))
               for _ in range(120)]
    for xi1, xi2 in points:
        (got_ind, got_sq) = bounds._diffeo_moments(xi1, xi2, derivatives=True)
        (want_ind, want_sq) = _diffeo_moments_by_cumprod(xi1, xi2)
        _assert_same_floats((*got_ind, *got_sq), (*want_ind, *want_sq), (xi1, xi2))


_FIGURE_ROWS = [(n, float(d)) for n in (10, 100) for d in np.geomspace(1e-2, 1e2, 50)]
_CLOSED_FORM_ROWS = [(10**k, float(d)) for k in range(7) for d in np.geomspace(1e-3, 1e3, 25)]


@functools.cache
def _diffeo_moment_table():
    """xi2, e_ind and e_sq on maximize_2d's coarse grid over the diffeo box, entry [i, j]
    at (xi1s[i], exp(log_xi2s[j])), by _diffeo_moments at each point: the whole table the
    sup scanned before its envelope, and the envelope's oracle. Read-only, as shared."""
    xi1s, log_xi2s = (coarse_axis(lo, hi) for lo, hi in bounds._DIFFEO_BOX.intervals)
    e_ind, e_sq = np.moveaxis([[bounds._diffeo_moments(a, math.exp(b)) for b in log_xi2s]
                               for a in xi1s.tolist()], -1, 0)
    table = (np.broadcast_to([math.exp(b) for b in log_xi2s], e_ind.shape), e_ind, e_sq)
    for part in table:
        part.flags.writeable = False
    return table


def _upper_envelope(points):
    """The points (B, A, flat indices), A and B positive integers, whose A / (u + B) is at
    least every other point's at some u in [0, inf], the ends as limits: the upper convex
    hull of (B, A), collinear points kept, from the largest A / B (the tangent from the
    origin, u = 0) to the largest A (u = inf)."""
    tops = {}
    for b, a, flats in points:  # of the points at one B, those of the largest A
        if b not in tops or a > tops[b][0]:
            tops[b] = (a, list(flats))
        elif a == tops[b][0]:
            tops[b][1].extend(flats)
    hull = []
    for b in sorted(tops):
        a, flats = tops[b]
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (a - hull[-2][1])
                                  > (hull[-1][1] - hull[-2][1]) * (b - hull[-2][0])):
            hull.pop()
        hull.append((b, a, flats))
    first = max(range(len(hull)), key=lambda k: Fraction(hull[k][1], hull[k][0]))
    last = max(range(len(hull)), key=lambda k: (hull[k][1], k))
    return hull[first:last + 1]


_REWRITE_ENVELOPE = ("rewrite the envelope from the repository root with: PYTHONPATH=src:tests "
                     "python -c \"import numpy, test_bounds; numpy.save('src/minimaxlb/diffeo_"
                     "envelope.npy', test_bounds.build_diffeo_envelope())\"")


def build_diffeo_envelope():
    """The package's diffeo_envelope.npy: flat index, xi2, e_ind and e_sq stacked, column
    k a cell of the test-built table, in row-major order. The bound of a cell is A / (u + B)
    in u = (pi / (2 s))^2, with A = (xi2 e_ind)^2 and B = xi2^2 e_sq, so a cell is kept if
    it is on the upper envelope of these curves over u >= 0, of the whole table, in exact
    arithmetic. Cell (0, 0) comes first: a scan of 0s (u = inf) starts there."""
    xi2, e_ind, e_sq = _diffeo_moment_table()
    x2 = [Fraction(x) for x in xi2[0].tolist()]
    a = [[(x * Fraction(e)) ** 2 for x, e in zip(x2, row)] for row in e_ind.tolist()]
    b = [[x * x * Fraction(e) for x, e in zip(x2, row)] for row in e_sq.tolist()]
    unit = max(f.denominator for row in a + b for f in row)  # a power of 2: A, B in its units
    grid = len(x2)
    cells = [(int(b[i][j] * unit), int(a[i][j] * unit), [i * grid + j])
             for i in range(grid) for j in range(grid) if a[i][j] > 0]
    flat = np.array(sorted({0} | {k for _, _, flats in _upper_envelope(cells) for k in flats}))
    return np.array([flat.astype(float), xi2.flat[flat], e_ind.flat[flat], e_sq.flat[flat]])


def test_diffeo_envelope_matches_its_build():
    # the shipped envelope is the build above; another host's exp may round otherwise, so
    # each moment may sit 1e-15 off the build, but the cells may not move
    flat, xi2, e_ind, e_sq = bounds._diffeo_file("diffeo_envelope.npy", 4)
    built = build_diffeo_envelope()
    assert not any(part.flags.writeable for part in (flat, xi2, e_ind, e_sq))
    assert np.array_equal(flat, built[0]) and np.array_equal(xi2, built[1]), _REWRITE_ENVELOPE
    moments = np.stack((e_ind, e_sq))
    assert (np.abs(moments - built[2:]) <= 1e-15 * built[2:]).all(), _REWRITE_ENVELOPE
    assert flat[0] == 0 and (np.diff(flat) > 0).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diffeo_sup_scans_its_envelope_as_the_whole_table(monkeypatch):
    # the sup's coarse cell and guard, the first maximum of its envelope cells and its
    # value, are the whole table's, bit for bit, over 1e5 derandomized (delta, n): delta
    # log-uniform over the CLI's range, where delta^2 neither overflows nor underflows to 0
    # (below s ~ 1.2e-154 (pi / (2 s))^2 overflows and every cell reads 0), and n
    # log-uniform up to 1.8e308, where 4 n xi2^2 of the unscaled form overflows in the
    # columns of the largest xi2 past 4.5e299, and in every column past 4.5e307
    rng = np.random.default_rng(36)
    deltas = [2.3e-162, 2.3e-154, 3e-154, 1.0, 1.3e154, 0.1, 1e-150, 1e-153]
    ns = [1, 1, 10**300, 4 * 10**307, 1, 45 * 10**306, 10**299, int(sys.float_info.max)]
    # where the unscaled table's first maximum was a cell that won only once columns of
    # large xi2 overflowed: (34, 27), (35, 31), (36, 34), (37, 37) and (41, 46)
    deltas += [2.7210300524199257e-154, 2.5023788820253765e-154, 2.4505185720370454e-154,
               2.3997330360451746e-154, 2.349999999999964e-154]
    ns += [int(n) for n in (2.7080430780783753e+307, 3.497572130338002e+306,
                            7.535290728488921e+305, 1.6234291744932124e+305,
                            1.6234291744932143e+303)]
    deltas += (10.0 ** rng.uniform(-161.6, 154.1, 100_000 - len(deltas))).tolist()
    ns += [int(n) for n in 10.0 ** rng.uniform(0.0, 308.25, len(deltas) - len(ns))]
    got = []
    monkeypatch.setattr(bounds, "maximize_2d", lambda f, box, cell, best, start:
                        got.append((cell, best)) or ((0.0, 0.0), 0.0))
    for delta, n in zip(deltas, ns):
        diffeo_bound_sup(delta, n)
    xi2, e_ind, e_sq = (part.reshape(1, -1) for part in _diffeo_moment_table())
    # _diffeo_ratio's float operations in its order, a draw a row: A / (u + B)
    a, b = (xi2 * e_ind) * (xi2 * e_ind), xi2 * xi2 * e_sq
    rows = 16  # draws a block, each a row of the table's 4,096 cells
    for start in range(0, len(deltas), rows):
        block = slice(start, start + rows)
        value = a / ([[_diffeo_u(delta, n)] for delta, n in zip(deltas[block], ns[block])] + b)
        first = np.argmax(value, axis=1).tolist()  # the first maximum a row
        for k, (cell, got_best) in enumerate(got[block]):
            want = (divmod(first[k], 64), float(value[k, first[k]]))
            assert (cell, got_best) == want, (deltas[start + k], ns[start + k], cell, want)


# the argmax path's knots: 80 a decade of s = sqrt(n) delta over [1e-3, 1e4]
_PATH_KNOTS = np.linspace(math.log(1e-3), math.log(1e4), 561)
_REWRITE_PATH = ("rewrite the path from the repository root with: PYTHONPATH=src:tests "
                 "python -c \"import numpy, test_bounds; numpy.save('src/minimaxlb/diffeo_path"
                 ".npy', test_bounds.build_diffeo_argmax_path())\"")


def _polished(s, x):
    """(xi1, log xi2) after plain Newton steps on the bound at n = 1, delta = s from x,
    up to the first that moves it by at most 1e-11 on each axis: the argmax to its
    rounding."""
    for _ in range(8):
        _, (g0, g1), ((h00, h01), (h10, h11)) = _diffeo_objective(s, 1)(*x)
        det = h00 * h11 - h01 * h10
        d0, d1 = (h11 * g0 - h01 * g1) / det, (h00 * g1 - h10 * g0) / det
        x = (x[0] - d0, x[1] - d1)
        if max(abs(d0), abs(d1)) <= 1e-11:
            return x
    raise AssertionError(f"plain Newton steps did not settle at s={s!r}")


def build_diffeo_argmax_path():
    """The package's diffeo_path.npy: log s, xi1 and log xi2 stacked, column k the
    scan-start sup's argmax at n = 1, delta = s = exp(_PATH_KNOTS[k]), polished."""
    argmaxes = [_polished(math.exp(knot), _diffeo_scan_start_sup(math.exp(knot), 1)[0])
                for knot in _PATH_KNOTS]
    return np.vstack((_PATH_KNOTS, np.transpose(argmaxes)))


def test_diffeo_argmax_path_matches_its_build():
    # the shipped path is the build above. Plain Newton steps from a polished knot wander
    # over up to 3.6e-12 in (xi1, log xi2) on the rounding of the bound's gradient, where
    # the top is flattest, near s = 1e4; another host's exp may round otherwise, so each
    # knot may sit 1e-10 off the build
    knots, xi1s, lxi2s = bounds._diffeo_file("diffeo_path.npy", 3)
    built = build_diffeo_argmax_path()
    assert knots.shape == _PATH_KNOTS.shape, _REWRITE_PATH
    assert (np.abs(knots - built[0]) <= 1e-15 * np.abs(built[0])).all(), _REWRITE_PATH
    assert (np.abs(np.stack((xi1s, lxi2s)) - built[1:]) <= 1e-10).all(), _REWRITE_PATH
    # the path lies inside the box, off its edges
    (x1_lo, x1_hi), (lx2_lo, lx2_hi) = bounds._DIFFEO_BOX.intervals
    assert (x1_lo < xi1s).all() and (xi1s < x1_hi).all()
    assert (lx2_lo < lxi2s).all() and (lxi2s < lx2_hi).all()


def test_diffeo_sup_on_the_argmax_path_is_the_scan_start_sup(monkeypatch):
    # over the path's range of s, the default figure's rows and n = 1e300, a sup started
    # on the path makes one Newton run of one evaluation (about 5 from the coarse argmax),
    # which ends stationary, within 4e-15 of the scan-start sup and at or above the best
    # coarse value of the whole table
    reasons = []
    newton = numerics.maximize_newton

    def recorded(*args):
        result = newton(*args)
        reasons.append(result[2])
        return result
    monkeypatch.setattr(numerics, "maximize_newton", recorded)
    evaluations = _count_calls(monkeypatch, bounds, "diffeo_bound")
    rows = [(1, float(s)) for s in np.geomspace(1e-3, 1e4, 2001)] + _FIGURE_ROWS + [
        (10**300, 1e-150), (10**300, 1e-148)]  # n = 1e300 at s = 1 and 100
    for n, delta in rows:
        assert bounds._diffeo_start(math.sqrt(n) * delta) is not None, (n, delta)
        reasons.clear()
        evaluations[0] = 0
        res = diffeo_bound_sup(delta, n)
        assert reasons == ["stationary"] and evaluations[0] == 1, (n, delta, reasons, evaluations)
        assert res.value >= _diffeo_coarse(delta, n).max(), (n, delta)
        (_, _), value = _diffeo_scan_start_sup(delta, n)
        assert abs(res.value - value) <= 4e-15 * value, (n, delta, res.value, value)


@pytest.mark.parametrize("delta,n", [(1e-4, 1), (1e5, 1), (1.0, 10**306), (1e150, 10**300),
                                     (9.99e-4, 1), (1.001e4, 1)])
def test_diffeo_sup_off_the_argmax_path_is_the_scan_start_sup(delta, n):
    # outside the path's range of s no start is given, and the sup is the scan's
    # search bit for bit; s = sqrt(n) delta is finite for every row
    assert bounds._diffeo_start(math.sqrt(n) * delta) is None
    res = diffeo_bound_sup(delta, n)
    (x1, lx2), value = _diffeo_scan_start_sup(delta, n)
    assert (res.value, res.argmax) == (max(value, 0.0), {"xi1": x1, "xi2": math.exp(lx2)})


def test_a_cold_diffeo_sup_reads_its_table(monkeypatch):
    # the envelope and the argmax path ship with the package: a fresh process's first sup
    # reads both files and makes the one moment pass of its one Newton evaluation, not
    # 4,096 more to build the coarse table
    moment_calls = _count_calls(monkeypatch, bounds, "_diffeo_moments")
    loaded, load = [], np.load
    monkeypatch.setattr(np, "load", lambda path, *args: loaded.append(path.name) or load(path))
    bounds._diffeo_file.cache_clear()
    diffeo_bound_sup(0.01, 10)
    assert moment_calls[0] == 1
    assert sorted(loaded) == ["diffeo_envelope.npy", "diffeo_path.npy"]


def test_newton_refinement_is_stationary_on_the_figure_rows(monkeypatch):
    # every diffeo sup of the default figure ends at a stationary point; the vt sups
    # of it and of the benchmark's closed-form grid run no maximize_newton
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
    assert len(reasons) == 100
    assert set(reasons) == {"stationary"}


def test_vt_sup_matches_a_brent_search_of_the_closed_form():
    # in the Kepler root y the bound is n a(y)^2 / (pi^2 (1 + y)^2 / delta^2 + n),
    # a(y) = (1 + y + sin(pi y)/pi)/2, with no Kepler equation to solve; a
    # search in a would read solve_kepler's rounding (its residual is 2 ulp)
    for n, delta in _FIGURE_ROWS + _CLOSED_FORM_ROWS:
        def closed_form(y):
            a = 0.5 * (1.0 + y + math.sin(math.pi * y) / math.pi)
            return n * a * a / (math.pi**2 * (1.0 + y) ** 2 / delta**2 + n)
        brent = optimize.minimize_scalar(lambda y: -closed_form(y), bounds=(0.0, 1.0),
                                         method="bounded", options={"xatol": 1e-12})
        want = max(-brent.fun, closed_form(1.0))
        assert vt_kepler_bound(delta, n, 1.0).value == pytest.approx(want, rel=2e-15, abs=0.0)


def _mp_vt_sup(delta, n, sup_fisher, dps=50):
    """The vt sup at dps digits, from the same float inputs: f = a^2 / E at the root of
    phi = 2 a' E - a E', bisected on [0, 1] to 1e-20 in y, where a = (1 + y + sin(pi y)/pi)/2,
    E = k (1 + y)^2 + J and k = pi^2 / (n delta^2): n a^2 / D divided through by n."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        pi, J = mpmath.pi, mpmath.mpf(sup_fisher)
        k = pi * pi / (mpmath.mpf(n) * mpmath.mpf(delta) ** 2)

        def parts(y):
            a = (1 + y + mpmath.sin(pi * y) / pi) / 2
            return a, k * (1 + y) ** 2 + J

        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(67):
            mid = (lo + hi) / 2
            (a, e), da = parts(mid), mpmath.cos(pi * mid / 2) ** 2
            lo, hi = (mid, hi) if 2 * da * e - a * 2 * k * (1 + mid) > 0 else (lo, mid)
        a, e = parts((lo + hi) / 2)
        return a * a / e


def test_vt_sup_matches_mpmath(monkeypatch):
    # the 275 figure and closed-form rows, and derandomized draws: n up to 1e300, delta
    # over the range the scale rule accepts, J = sup_fisher in [1e-2, 1e2]; each sup is
    # within 6e-16 of its 50-digit value (the coarse scan and Newton refinement it
    # replaced read 9.0e-16 low on a figure row) in at most 6 evaluations on the rows
    # and 20 on the draws. Where n delta^2 is so small that the sup is subnormal, it
    # reads at most the smallest normal float
    calls = _count_calls(monkeypatch, bounds, "_vt_kepler_objective")
    rng = np.random.default_rng(38)
    draws = [(int(10.0 ** rng.uniform(0.0, 300.0)), float(10.0 ** rng.uniform(-161.6, 154.0)),
              float(10.0 ** rng.uniform(-2.0, 2.0))) for _ in range(600)]
    cases = [(n, delta, 1.0, 6) for n, delta in _FIGURE_ROWS + _CLOSED_FORM_ROWS] + [
        (n, delta, sup_fisher, 20) for n, delta, sup_fisher in draws]
    for n, delta, sup_fisher, most in cases:
        calls[0] = 0
        got = vt_kepler_bound(delta, n, sup_fisher).value
        assert calls[0] <= most, (n, delta, sup_fisher, calls[0])
        want = _mp_vt_sup(delta, n, sup_fisher)
        if want < sys.float_info.min:
            assert 0.0 <= got <= sys.float_info.min, (n, delta, sup_fisher, got)
        else:
            assert abs(got - want) <= 6e-16 * want, (n, delta, sup_fisher, got, float(want))


def _vt_slope_parts(r, y):
    """a, a', a'', E and E' of the vt objective a^2 / E at J = 1 and k = r, E = r (1 + y)^2 + 1,
    with a' = cos^2(pi y / 2) written as sin^2(pi (1 - y) / 2), exact next to y = 1."""
    a = 0.5 * (1.0 + y + np.sin(np.pi * y) / np.pi)
    da, dda = np.sin(0.5 * np.pi * (1.0 - y)) ** 2, -0.5 * np.pi * np.sin(np.pi * y)
    return a, da, dda, r * (1.0 + y) ** 2 + 1.0, 2.0 * r * (1.0 + y)


def test_vt_slope_changes_sign_once():
    # the proof the vt sup reads its one root from, at J = 1 and r = k = pi^2 / (n delta^2):
    # phi = 2 a' E - a E' is r + 2 > 0 at y = 0 and -4r < 0 at y = 1, and at its zero
    # phi' = 2 a'' E + a' E' - a E'' equals 2 a'' E - 2 a r / E < 0; on a fine y grid, dense
    # next to y = 1, where the root sits for small r, the sign changes once, from + to -
    y = np.unique(np.concatenate((np.linspace(0.0, 1.0, 4001),
                                  1.0 - np.geomspace(1e-16, 1e-3, 2001))))
    for r in np.geomspace(1e-30, 1e30, 61):
        a, da, _, e, de = _vt_slope_parts(r, y)
        phi = 2.0 * da - a * de / e  # phi / E, whose sign is phi's
        assert phi[0] == pytest.approx((r + 2.0) / (r + 1.0), rel=1e-15), r
        assert phi[-1] == pytest.approx(-4.0 * r / e[-1], rel=1e-15), r
        changes = np.nonzero(np.diff(np.sign(phi)))[0]
        assert phi[0] > 0.0 > phi[-1] and len(changes) == 1, r
        lo, hi = y[changes[0]], y[changes[0] + 1]
        for _ in range(60):  # the zero, bisected in its cell
            mid = 0.5 * (lo + hi)
            a, da, _, e, de = _vt_slope_parts(r, mid)
            lo, hi = (mid, hi) if 2.0 * da * e - a * de > 0.0 else (lo, mid)
        a, da, dda, e, de = _vt_slope_parts(r, 0.5 * (lo + hi))
        at_zero = 2.0 * dda * e - 2.0 * a * r / e
        assert 2.0 * dda * e + da * de - a * 2.0 * r == pytest.approx(at_zero, rel=1e-6), r
        assert at_zero < 0.0, r


def _count_calls(monkeypatch, module, name):
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_sups_after_the_first_skip_the_coarse_integrals(monkeypatch):
    # every diffeo sup reads the process's one copy of its envelope cells and only
    # refines. A vt sup, the first included, scans and refines in the Kepler root itself
    # and solves no Kepler equation
    kepler_calls = _count_calls(monkeypatch, priors, "solve_kepler")
    vt_kepler_bound(1.0, 10, 1.0)
    assert kepler_calls[0] == 0
    diffeo_bound_sup(1.0, 10)
    diffeo_calls = _count_calls(monkeypatch, bounds, "diffeo_bound")
    moment_calls = _count_calls(monkeypatch, bounds, "_diffeo_moments")
    diffeo_bound_sup(0.3, 100)
    assert 0 < diffeo_calls[0] <= 20
    assert 0 < moment_calls[0] <= 20
    vt_kepler_bound(0.3, 100, 1.0)
    assert kepler_calls[0] == 0


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
        limit = n * max(-0.25 + 0.5 * math.exp(-b / 2.0), 0.0) * (b / n) ** 2
        assert got == pytest.approx(limit, rel=1e-4)


def test_two_point_bound_matches_mpmath(capsys):
    # n [(1 - H^2_n)/4]_+ (psi(theta1) - psi(theta2))^2 to 4e-15 relative of a 60-digit
    # evaluation, at theta2 = theta1 (1 +- r) from r = 1e-12 up and on the CLI: the
    # difference of two powers lost up to 2e-2 of itself at alpha = 0.01. Where the bracket
    # nears 0, it also carries the rounding of H^2_n, a float near 1: 4 ulp(1)/4 of n dpsi^2
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(30)

    def exact(sigma, n, alpha, theta1, theta2):
        with mpmath.workdps(60):
            lo, hi = sorted((mpmath.mpf(theta1), mpmath.mpf(theta2)))
            if sigma is None:  # the uniform family: 1 - H^2/2 = sqrt(lo/hi)
                affinity = mpmath.sqrt(lo / hi)
            else:
                affinity = mpmath.exp(-((hi - lo) / sigma) ** 2 / 8)
            psi = lambda t: t ** mpmath.mpf(alpha) if t > 0 else mpmath.mpf(0)
            scale = n * (psi(hi) - psi(lo)) ** 2
            return max((2 * affinity**n - 1) / 4, 0) * scale, scale

    cases = []
    for _ in range(1200):
        alpha, n = rng.choice([0.01, 0.1, 0.5, 1.0]), int(rng.choice([1, 3, 10, 100]))
        r, sign = 10.0 ** rng.uniform(-12.0, math.log10(3.0)), rng.choice([-1.0, 1.0])
        if rng.random() < 0.5:  # Gaussian, theta1 of either sign, theta2 across 0 for r > 1
            sigma = float(10.0 ** rng.uniform(-2.0, 2.0))
            theta1 = float(rng.choice([-1.0, 1.0]) * sigma * 10.0 ** rng.uniform(-2.0, 1.0))
        else:  # uniform, theta2 > 0
            sigma, theta1 = None, float(10.0 ** rng.uniform(-3.0, 3.0))
            sign = sign if r < 1.0 else 1.0
        cases.append((sigma, n, float(alpha), theta1, float(theta1 * (1.0 + sign * r))))
    positive = 0
    for sigma, n, alpha, theta1, theta2 in cases:
        family = UniformScale() if sigma is None else GaussianLocation(sigma)
        got = two_point_hellinger_bound(family, n, PowerMax(alpha), theta1, theta2)
        want, scale = exact(sigma, n, alpha, theta1, theta2)
        assert abs(got - want) <= 4e-15 * want + 2.0**-52 * scale, \
            (sigma, n, alpha, theta1, theta2, got, want)
        positive += want > 0
    assert positive > len(cases) // 2
    argv = ["bound", "--method", "twopoint", "--functional", "powermax", "--alpha", "0.01",
            "--theta1", "1", "--theta2", "1.000000000001"]
    assert main(argv) == 0
    value = float(capsys.readouterr().out.split("value=")[1].split()[0])
    want, _ = exact(1.0, 1, 0.01, 1.0, 1.000000000001)  # 2.5004445226675134e-29
    assert abs(value - want) <= 4e-15 * want, (value, want)


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
    scan = max(two_point_hellinger_bound(GaussianLocation(1.0), n, MaxZero(), 0.0, float(t))
               for t in ts)
    got = twopoint_bound_sup(delta, n).value
    assert scan * (1.0 - 1e-15) <= got <= scan * (1.0 + 1e-8)


def test_twopoint_sup_matches_mpmath():
    # the sup is the regular two-point objective (-1/4 + exp(-eps^2/8)/2) eps^2 at
    # eps = min(eps*, sqrt(n) delta^-), to 1e-15 relative of a 60-digit evaluation,
    # over the CLI's n range and eps from far below eps* to far above it
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    cases = [(1e-8, 1), (1e-8, 10**300), (1e3, 1), (1e3, 10**300)] + [
        (float(10.0 ** rng.uniform(-8.0, 3.0)), int(10.0 ** rng.uniform(0.0, 300.0)))
        for _ in range(1000)]
    eps_star, clamped = bounds._twopoint_argmax(), 0
    for delta, n in cases:
        got = twopoint_bound_sup(delta, n)
        with mpmath.workdps(60):
            eps = min(mpmath.mpf(eps_star), mpmath.sqrt(n) * (delta * numerics.OPEN_EDGE))
            want = (mpmath.exp(-eps * eps / 8) / 2 - mpmath.mpf(1) / 4) * eps * eps
            assert abs(got.value - want) <= 1e-15 * want, (delta, n, got.value, float(want))
        clamped += eps < eps_star
    assert 0 < clamped < len(cases)


def test_lam_constants():
    assert lam_constant("regular_twopoint")[1] == pytest.approx(0.28953, abs=5e-4)
    assert lam_constant("uniform_twopoint")[1] == pytest.approx(0.0558, abs=5e-4)
    assert lam_constant("uniform_diffeo")[1] == pytest.approx(0.0635**2, abs=1e-4)


def test_regular_twopoint_constant_is_at_the_root():
    # the constant reads the two-point sup's Newton argmax eps* = sqrt(8 u*), u* the
    # root of -2 + 4 exp(-u) (1 - u), not a k-section of its flat objective
    mpmath = pytest.importorskip("mpmath")
    argmax, value = lam_constant("regular_twopoint")
    with mpmath.workdps(50):
        root = float(mpmath.sqrt(8 * mpmath.findroot(
            lambda u: 4 * mpmath.exp(-u) * (1 - u) - 2, mpmath.mpf("0.3"))))
    assert abs(argmax - root) <= 4 * math.ulp(root), (argmax, root)
    assert argmax == bounds._twopoint_argmax()
    assert value == bounds.regular_twopoint_objective(argmax)


def test_uniform_constants_are_at_the_roots():
    # each uniform constant reads the Newton root of its objective's derivative, not a
    # k-section of its flat top (which read 1.7e-9 and 4.2e-9 relative off the roots)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        bracket = lambda c: c / (2 * mpmath.sqrt(2 - 2 * mpmath.exp(-c / 2))) - c
        roots = {"uniform_twopoint": mpmath.findroot(
                     lambda eta: mpmath.diff(lambda e: (2 * mpmath.exp(-e) - 1) * e * e, eta),
                     mpmath.mpf("0.44")),
                 "uniform_diffeo": mpmath.findroot(lambda c: mpmath.diff(bracket, c),
                                                   mpmath.mpf("0.0656"))}
    objectives = {"uniform_twopoint": bounds.uniform_twopoint_objective,
                  "uniform_diffeo": bounds.uniform_diffeo_objective}
    for name, want in (("uniform_twopoint", 0.44285440100238858),
                       ("uniform_diffeo", 0.06562092625502635)):
        root = float(roots[name])
        assert abs(root - want) <= math.ulp(want), (name, root)
        argmax, value = lam_constant(name)
        assert abs(argmax - root) <= 4 * math.ulp(root), (name, argmax, root)
        assert value == objectives[name](argmax)


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
