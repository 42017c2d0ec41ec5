"""Property tests of the paper's invariants over the ranges the CLI accepts,
judged by the same checks as `minimaxlb selftest`, and of the Kepler prior's
definition."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxlb import checks
from minimaxlb.bounds import MaxZero, van_trees_value, vt_kepler_bound
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.priors import KeplerCosine
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
    _assert_passes(checks.hellinger_tensorization([(family, theta1, theta2, n, m)]))


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
