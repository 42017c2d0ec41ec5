"""Property tests of the paper's invariants over the ranges the CLI accepts,
judged by the same checks as `minimaxlb selftest`, and of the Kepler prior's
definition."""
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from minimaxlb import checks, numerics
from minimaxlb.bounds import (DIFFEO_XI1_RANGE, DIFFEO_XI2_RANGE, MaxZero, diffeo_bound,
                              diffeo_bound_sup, van_trees_value, vt_kepler_bound)
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.mixtures import MixtureSpec, mixture_hellinger_sq
from minimaxlb.priors import Cosine, GaussianPrior, KeplerCosine
from minimaxlb.sweep import SweepConfig, sweep_row_values

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _assert_passes(check):
    name, ok, detail = check
    assert ok, f"{name}: {detail}"


@settings(PROPERTY, max_examples=500)
@given(n=st.integers(1, 10**6), delta=st.floats(1e-3, 1e3))
def test_vt_and_twopoint_below_every_risk(n, delta):
    config = SweepConfig("fixed-n-vary-delta", (n,), (delta,), methods=("vt", "twopoint"))
    _assert_passes(checks.bound_dominance([sweep_row_values(n, delta, config)]))


@settings(PROPERTY, max_examples=20)
@given(n=st.integers(1, 10**6), delta=st.floats(1e-3, 1e3))
def test_diffeo_below_every_risk(n, delta):
    config = SweepConfig("fixed-n-vary-delta", (n,), (delta,), methods=("diffeo",))
    _assert_passes(checks.bound_dominance([sweep_row_values(n, delta, config)]))


@settings(PROPERTY, max_examples=20)
@given(n=st.integers(1, 10**6), scaled_delta=st.floats(1e-3, 1e3))
def test_bounds_and_risks_depend_on_delta_sqrt_n_only(n, scaled_delta):
    # the pre-test risk is left out: its n^(-1/4) threshold is not a function
    # of delta sqrt(n) (Hodges' superefficiency), so it does not rescale
    delta = scaled_delta / math.sqrt(n)
    config = SweepConfig("fixed-n-vary-delta", (n,), (delta,),
                         estimators=("constant", "plugin"))
    row = sweep_row_values(n, delta, config)
    assert row == pytest.approx(sweep_row_values(1, delta * math.sqrt(n), config),
                                rel=1e-12, abs=0.0)


@PROPERTY
@given(family=st.sampled_from([GaussianLocation(0.5), GaussianLocation(2.0), UniformScale()]),
       theta1=st.floats(0.1, 5.0), theta2=st.floats(0.1, 5.0),
       n=st.integers(1, 1000), m=st.integers(1, 1000))
def test_hellinger_tensorizes(family, theta1, theta2, n, m):
    _assert_passes(checks.hellinger_tensorization([(family, theta2, theta1 - theta2, n, m)]))


@settings(PROPERTY, max_examples=60)
@given(make=st.sampled_from([lambda c: Cosine(c, 0.7), lambda c: KeplerCosine.for_constraint(0.3, c),
                             lambda c: GaussianPrior(c, 1.5)]),
       center=st.floats(-1e12, 1e12), log_h=st.floats(-9.0, 0.0), sign=st.sampled_from([1.0, -1.0]),
       n=st.integers(1, 100))
def test_mixture_hellinger_is_translation_invariant(make, center, log_h, sign, n):
    # every integral runs in the prior's centred coordinate, so moving the prior
    # moves nothing, however far out and however small the shift
    h = sign * 10.0**log_h
    family = GaussianLocation(1.0)
    at_zero = mixture_hellinger_sq(MixtureSpec(family, n, make(0.0), h))
    assert mixture_hellinger_sq(MixtureSpec(family, n, make(center), h)) == \
        pytest.approx(at_zero, rel=1e-13, abs=0.0)


@PROPERTY
@given(a=st.floats(0.0, 1.0))
def test_kepler_residual(a):
    _assert_passes(checks.kepler_residual([a]))


@PROPERTY
@given(a=st.floats(0.0, 1.0), offset=st.floats(-10.0, 10.0), log_scale=st.floats(-3.0, 3.0))
def test_kepler_prior_puts_mass_a_above_its_center(a, offset, log_scale):
    scale = 10.0**log_scale
    center = offset * scale
    prior = KeplerCosine.for_constraint(a, center, scale)
    # the cos^2 CDF (u + 1)/2 + sin(pi u)/(2 pi) on the support center +- halfwidth
    u = min(max((center - prior.center) / prior.halfwidth, -1.0), 1.0)
    above = 1.0 - ((u + 1.0) / 2.0 + math.sin(math.pi * u) / (2.0 * math.pi))
    assert above == pytest.approx(a, abs=1e-13)


@PROPERTY
@given(n=st.integers(1, 10**6), delta=st.floats(1e-3, 1e3))
def test_vt_bound_is_van_trees_at_the_kepler_prior(n, delta):
    # the figure's vt bound is the general van Trees value, maximized over the
    # mass a of the least-favorable Kepler prior on the delta-neighborhood
    result = vt_kepler_bound(delta, n, 1.0)
    prior = KeplerCosine.for_constraint(result.argmax["a"], 0.0, delta)
    value = n * van_trees_value(GaussianLocation(1.0), n, prior, MaxZero())
    assert value == pytest.approx(result.value, rel=1e-12, abs=0.0)


def _diffeo_van_trees_in_eta(delta, n, xi1, xi2):
    """n E[phi'(eta) 1{eta > 0}]^2 / (xi2^-2 + n E[phi'(eta)^2]) for eta ~ N(xi1, xi2^2)
    and phi(eta) = (2 delta/pi) arctan(eta), by adaptive quadrature in eta over
    xi1 +- 40 xi2, cut at xi1, xi1 +- xi2, xi1 +- 4 xi2, 0 and +-2^j."""
    slope = lambda eta: (2.0 * delta / math.pi) / (1.0 + eta * eta)
    density = lambda eta: (math.exp(-0.5 * ((eta - xi1) / xi2) ** 2)
                           / (xi2 * math.sqrt(2.0 * math.pi)))

    def expect(f, lo):
        lo, hi = max(lo, xi1 - 40.0 * xi2), xi1 + 40.0 * xi2
        cuts = {lo, hi, 0.0, *(xi1 + k * xi2 for k in (-4, -1, 0, 1, 4)),
                *(sign * 2.0**j for sign in (-1.0, 1.0) for j in range(-4, 40))}
        cuts = sorted(c for c in cuts if lo <= c <= hi)
        return sum(integrate.quad(lambda eta: f(eta) * density(eta), a, b, epsabs=0.0,
                                  epsrel=1e-12, limit=200)[0] for a, b in zip(cuts, cuts[1:]))

    mean, second = expect(slope, 0.0), expect(lambda eta: slope(eta) ** 2, -math.inf)
    return n * mean * mean / (xi2**-2 + n * second)


@settings(PROPERTY, max_examples=50)
@given(xi1=st.floats(*DIFFEO_XI1_RANGE),
       log_xi2=st.floats(*(math.log(x) for x in DIFFEO_XI2_RANGE)),
       delta=st.floats(1e-2, 1e2), n=st.integers(1, 10**4))
def test_diffeo_bound_is_van_trees_in_eta(xi1, log_xi2, delta, n):
    # Gill & Levit's van Trees inequality for phi(eta) with a N(xi1, xi2^2)
    # prior on eta: the quadrature in eta shares nothing with the z-kernel; the
    # kernel's 12-sigma window drops mass below 1e-30
    xi2 = math.exp(log_xi2)
    assert diffeo_bound(delta, n, xi1, xi2) == pytest.approx(
        _diffeo_van_trees_in_eta(delta, n, xi1, xi2), rel=1e-10, abs=1e-30)


@settings(PROPERTY, max_examples=50)
@given(n=st.integers(1, 10**6), delta=st.floats(1e-3, 1e3))
def test_newton_refinement_stops_stationary(n, delta):
    # the figure's two sups end at a stationary point, never at the step floor,
    # the box or the evaluation budget
    newton, reasons = numerics.maximize_newton, []

    def recorded(*args):
        result = newton(*args)
        reasons.append(result[2])
        return result
    with mock.patch.object(numerics, "maximize_newton", recorded):
        diffeo_bound_sup(delta, n)
        vt_kepler_bound(delta, n, 1.0)
    assert reasons == ["stationary", "stationary"]
