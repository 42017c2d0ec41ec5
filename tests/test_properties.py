"""Property tests of the paper's invariants over the ranges the CLI accepts,
judged by the same checks as `minimaxlb selftest`."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxlb import checks
from minimaxlb.models import GaussianLocation, UniformScale
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
