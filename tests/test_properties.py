"""Property tests of the paper's invariants over the ranges the CLI accepts,
judged by the same checks as `minimaxlb selftest`, and of the Kepler prior's
definition."""
import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from minimaxlb import checks, numerics
from minimaxlb.bounds import (DIFFEO_XI1_RANGE, DIFFEO_XI2_RANGE, Identity, MaxZero,
                              PowerMax, default_shift_range, diffeo_bound, diffeo_bound_sup,
                              hellinger_mixture_bound, hellinger_mixture_bound_sup,
                              hellinger_mixture_terms, two_point_hellinger_bound, vt_kepler_bound)
from minimaxlb.cli import main
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
@given(log_n=st.floats(0.0, 300.0), scaled_delta=st.floats(1e-3, 1e3),
       scaled_threshold=st.floats(1e-3, 1e3))
def test_bounds_and_risks_depend_on_delta_sqrt_n_only(log_n, scaled_delta, scaled_threshold):
    # n log-uniform over the CLI's range; the pre-test risk reads its threshold c_n only
    # through k = sqrt(n) c_n, so it rescales at a fixed k: threshold k/sqrt(n) at n against
    # k at n = 1 (the Hodges choice n^(-1/4) fixes no k, which is its superefficiency)
    n = int(10.0**log_n)
    delta = scaled_delta / math.sqrt(n)
    rows = [sweep_row_values(m, d, SweepConfig("fixed-n-vary-delta", (m,), (d,), threshold=c))
            for m, d, c in ((n, delta, scaled_threshold / math.sqrt(n)),
                            (1, delta * math.sqrt(n), scaled_threshold))]
    assert rows[0] == pytest.approx(rows[1], rel=1e-12, abs=0.0)


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


@settings(PROPERTY, max_examples=60)
@given(make=st.sampled_from([lambda c: Cosine(c, 1.0), lambda c: KeplerCosine.for_constraint(0.75, c),
                             lambda c: GaussianPrior(c, 1.0)]),
       functional=st.sampled_from([MaxZero(), PowerMax(0.5)]),
       family=st.sampled_from([GaussianLocation(1.0), UniformScale()]), n=st.integers(1, 100),
       shifts=st.lists(st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-6.0, 0.5)),
                       min_size=1, max_size=6))
def test_a_batch_of_shifts_equals_its_scalar_calls(make, functional, family, n, shifts):
    # each shift is one row of the batch's quadratures, which converges and sums on
    # its own; the batch also holds a shift past the window, where H^2 = 2 unread
    prior = make(0.0 if family == GaussianLocation(1.0) else 40.0)  # uniform: theta > 0
    lo, hi = prior.window()
    h = np.array([sign * (hi - lo) * 10.0**power for sign, power in shifts] + [1.25 * (hi - lo)])
    batch = hellinger_mixture_bound(family, n, prior, functional, h)
    assert batch.tolist() == [hellinger_mixture_bound(family, n, prior, functional, x)
                              for x in h.tolist()]


@settings(PROPERTY, max_examples=60)
@given(family=st.sampled_from([GaussianLocation(0.3), GaussianLocation(1.0), UniformScale()]),
       make=st.sampled_from([lambda c: Cosine(c, 1.0), lambda c: GaussianPrior(c, 1.0),
                             lambda c: KeplerCosine.for_constraint(0.75, c)]),
       center=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
       functional=st.sampled_from([Identity(), MaxZero(), PowerMax(0.5), PowerMax(0.01)]),
       n=st.integers(1, 10**4),
       shifts=st.lists(st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-4.0, 0.5)),
                       min_size=1, max_size=6))
def test_the_hellinger_bound_is_zero_where_4h2_reaches_1(family, make, center, functional, n,
                                                          shifts):
    # Cauchy-Schwarz, (int Dpsi dQ)^2 <= int Dpsi^2 dQ, gives A <= B wherever 4 H^2 >= 1,
    # where the bound integrates no moment; on every row it is the terms' n [sqrt(A) -
    # sqrt(B)]_+^2 bit for bit. The batch also holds both signs of a shift past the window
    prior = make(center + (0.0 if family.location else 40.0))  # uniform: theta > 0
    lo, hi = prior.window()
    h = np.array([sign * (hi - lo) * 10.0**power for sign, power in shifts]
                 + [1.25 * (hi - lo), -1.25 * (hi - lo)])
    a, b = hellinger_mixture_terms(family, n, prior, functional, h)
    far = 4.0 * mixture_hellinger_sq(MixtureSpec(family, n, prior, h)) >= 1.0
    assert (a[far] <= b[far]).all()
    root = np.sqrt(a) - np.sqrt(b)
    assert hellinger_mixture_bound(family, n, prior, functional, h).tolist() == \
        (n * np.where(root > 0.0, root * root, 0.0)).tolist()


@settings(PROPERTY, max_examples=20)
@given(sigma=st.sampled_from([0.3, 1.0]),
       make=st.sampled_from([lambda c, w: Cosine(c, w), lambda c, w: GaussianPrior(c, w),
                             lambda c, w: KeplerCosine.for_constraint(0.75, c, w)]),
       center=st.floats(-2.0, 2.0), log_width=st.floats(-1.0, 1.0),
       functional=st.sampled_from([MaxZero(), PowerMax(0.5)]), n=st.integers(1, 10**4))
def test_the_gaussian_family_hellinger_sup_is_a_true_sup_over_both_signs(
        sigma, make, center, log_width, functional, n):
    # one search of the envelope of both signs: no point of a dense scan of either
    # sign beats it, and the reported signed shift gives the reported value
    family, prior = GaussianLocation(sigma), make(center, 10.0**log_width)
    h_lo, h_hi = default_shift_range(prior)
    res = hellinger_mixture_bound_sup(family, n, prior, functional, h_lo, h_hi)
    dense = np.linspace(h_lo, h_hi, 2001)
    scan = hellinger_mixture_bound(family, n, prior, functional, np.concatenate((dense, -dense)))
    assert res.value >= scan.max() * (1.0 - 1e-12)
    assert h_lo <= abs(res.argmax["h"]) <= h_hi
    assert res.value == hellinger_mixture_bound(family, n, prior, functional, res.argmax["h"])


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
    _assert_passes(checks.vt_van_trees([(delta, n)]))


@PROPERTY
@given(log_sigma=st.floats(-2.0, 2.0), log_delta=st.floats(-2.0, 2.0),
       n=st.integers(1, 10**4), theta1=st.floats(-3.0, 3.0), theta2=st.floats(-3.0, 3.0))
def test_bounds_rescale_exactly_in_sigma(log_sigma, log_delta, n, theta1, theta2):
    # N(theta, sigma^2) is N(theta/sigma, 1) rescaled: the vt bound at Fisher
    # information 1/sigma^2 and the two-point bound at sigma theta scale by sigma^2
    sigma, delta = 10.0**log_sigma, 10.0**log_delta
    assert vt_kepler_bound(delta, n, sigma**-2).value == pytest.approx(
        sigma**2 * vt_kepler_bound(delta / sigma, n, 1.0).value, rel=1e-13, abs=0.0)
    scaled = two_point_hellinger_bound(GaussianLocation(sigma), n, MaxZero(),
                                       sigma * theta1, sigma * theta2)
    unit = two_point_hellinger_bound(GaussianLocation(1.0), n, MaxZero(), theta1, theta2)
    assert scaled == pytest.approx(sigma**2 * unit, rel=1e-13, abs=0.0)


@PROPERTY
@given(uniform=st.booleans(), n=st.integers(1, 10**6),
       f=st.sampled_from([MaxZero(), Identity(), PowerMax(0.5)]),
       log1=st.floats(-300.0, 3.0), log2=st.floats(-300.0, 3.0),
       sign1=st.sampled_from([-1.0, 1.0]), sign2=st.sampled_from([-1.0, 1.0]))
def test_two_point_bound_is_symmetric_in_its_points(uniform, n, f, log1, log2, sign1, sign2):
    # the distance is read at the smaller point with a non-negative shift, so a pair
    # and its swap give the same bits, and a far smaller uniform point (theta2 +
    # (theta1 - theta2) rounding to 0) is no longer rejected
    family = UniformScale() if uniform else GaussianLocation(1.0)
    theta1, theta2 = 10.0**log1, 10.0**log2
    if not uniform:
        theta1, theta2 = sign1 * theta1, sign2 * theta2
    value = two_point_hellinger_bound(family, n, f, theta1, theta2)
    assert value >= 0.0
    assert two_point_hellinger_bound(family, n, f, theta2, theta1) == value


def _csv_cell(argv, column):
    """The float in ``column`` of the one CSV row a minimaxlb command prints last."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    header, row = (line.split(",") for line in out.getvalue().splitlines()[-2:])
    return float(row[header.index(column)])


@settings(PROPERTY, max_examples=100)
@given(log_sigma=st.floats(-2.0, 2.0), log_delta=st.floats(-2.0, 2.0), n=st.integers(1, 10**6))
def test_bound_sigma_equals_the_sweeps_rescaling(log_sigma, log_delta, n):
    # bound --sigma reads the vt bound at Fisher information 1/sigma^2; the sweep
    # rescales the unit problem at delta/sigma by sigma^2
    s, d = repr(10.0**log_sigma), repr(10.0**log_delta)
    bound = _csv_cell(["bound", "--method", "vt", "--sigma", s, "--delta", d, "--n", str(n)],
                      "value")
    sweep = _csv_cell(["sweep", "--sigma", s, "--methods", "vt", "--estimators", "constant",
                       "--delta", d, "--n", str(n)], "bound_vt")
    assert bound == pytest.approx(sweep, rel=1e-13, abs=0.0)


_CELL = 1.0 / (numerics._COARSE_GRID - 1)  # a coarse cell's share of the box


@PROPERTY
@given(lo=st.floats(-10.0, 10.0), log_width=st.floats(-3.0, 3.0),
       where=st.sampled_from(["lo", "hi", "first cell", "last cell", "interior", "constant"]),
       u=st.floats(0.0, 1.0), log_near=st.floats(-15.0, 0.0), bump=st.booleans(),
       log_scale=st.floats(-1.0, 1.0))
def test_maximize_1d_never_below_a_dense_scan(lo, log_width, where, u, log_near, bump,
                                              log_scale):
    # a unimodal objective with its maximum on an edge, in the first or last coarse
    # cell (down to below the stop width from the edge), inside, or everywhere
    width = 10.0**log_width
    hi, cell, scale = lo + width, _CELL * width, 10.0**log_scale * width
    peak = {"lo": lo - 10.0**(-2.0 * u) * cell, "hi": hi + 10.0**(-2.0 * u) * cell,
            "first cell": lo + 10.0**log_near * cell, "last cell": hi - 10.0**log_near * cell,
            "interior": lo + (0.05 + 0.9 * u) * width, "constant": lo}[where]
    calls = []

    def f(x):
        calls.append(x.size)
        if where == "constant":
            return np.zeros_like(x)
        z = (x - peak) / scale
        return np.exp(-0.5 * z * z) if bump else -z * z
    x, value = numerics.maximize_1d(f, lo, hi)
    searched = len(calls)
    dense = f(np.linspace(lo, hi, 200_001))
    assert value >= dense.max() - 1e-15 * np.abs(dense).max()
    assert lo <= x <= hi and f(np.array([x]))[0] == value
    if where in ("lo", "hi") and not bump:
        # the edge wins the scan, then the geometric round toward it (a bump's top
        # is flat to rounding within the stop width of hi, and there the first
        # maximum, inside, wins)
        assert (x, searched) == ((lo if where == "lo" else hi), 1 + 1)


def _maximize_1d_uniform_after_the_scan(f, lo, hi):
    """numerics.maximize_1d as it was while a uniform round followed every scan, and
    only a uniform round won by an edge was followed by the geometric one."""
    xs = numerics.coarse_axis(lo, hi)
    vals = numerics._scores(f(xs), xs)
    i = int(np.argmax(vals))
    known = slice(max(i - 1, 0), i + 2)
    px, pv = xs[known], vals[known]
    width = 1e-14 * (px[-1] - px[0])
    edge = 0
    while px[-1] - px[0] > width:
        if edge:
            span = px[-1] - px[0]
            steps = span * (width / span) ** (np.arange(numerics._SECTIONS, 0, -1)
                                              / numerics._SECTIONS)
            inner = px[0] + steps if edge < 0 else px[-1] - steps[::-1]
            inner = inner[(np.diff(inner, prepend=px[0]) > 0.0) & (inner < px[-1])]
            if not inner.size:
                break
        else:
            inner = np.linspace(px[0], px[-1], numerics._SECTIONS + 2)[1:-1]
            if not (px[0] < inner[0] and np.all(np.diff(inner) > 0.0) and inner[-1] < px[-1]):
                break
        order = np.argsort(np.concatenate((px, inner)), kind="stable")
        px = np.concatenate((px, inner))[order]
        pv = np.concatenate((pv, numerics._scores(f(inner), inner)))[order]
        j = int(np.argmax(pv))
        if edge and px[j] in (lo, hi):
            break
        edge = -1 if px[j] == lo else 1 if px[j] == hi else 0
        px, pv = px[max(j - 1, 0):j + 2], pv[max(j - 1, 0):j + 2]
    j = int(np.argmax(pv))
    return float(px[j]), float(pv[j])


@settings(PROPERTY, max_examples=500)
@given(lo=st.floats(-10.0, 10.0), log_width=st.floats(-3.0, 3.0),
       where=st.sampled_from(["lo", "hi", "first cell", "last cell", "interior", "flat",
                              "nan"]),
       u=st.floats(0.0, 1.0), log_near=st.floats(-15.0, 0.0), bump=st.booleans(),
       log_scale=st.floats(-1.0, 1.0))
def test_maximize_1d_scan_won_by_an_edge_skips_the_uniform_round(lo, log_width, where, u,
                                                                 log_near, bump, log_scale):
    # against the search that followed every scan with a uniform round: a scan won
    # inside keeps every call and the result bit for bit; a scan won by an edge goes
    # to the geometric round at once, one call fewer where the edge then wins both
    # searches, and never lower beyond rounding at the stop width
    width = 10.0**log_width
    hi, cell, scale = lo + width, _CELL * width, 10.0**log_scale * width
    peak = {"lo": lo - 10.0**(-2.0 * u) * cell, "hi": hi + 10.0**(-2.0 * u) * cell,
            "first cell": lo + 10.0**log_near * cell, "last cell": hi - 10.0**log_near * cell,
            "interior": lo + (0.05 + 0.9 * u) * width, "flat": lo,
            "nan": lo + (0.05 + 0.9 * u) * width}[where]

    def objective(calls):
        def f(x):
            calls.append(x.copy())
            if where == "flat":
                return np.zeros_like(x)
            z = (x - peak) / scale
            value = np.exp(-0.5 * z * z) if bump else -z * z
            # NaN past a cut a little beyond the peak
            return np.where(x > peak + 0.1 * (hi - peak), np.nan, value) if where == "nan" \
                else value
        return f

    calls, reference = [], []
    x, value = numerics.maximize_1d(objective(calls), lo, hi)
    ref_x, ref_value = _maximize_1d_uniform_after_the_scan(objective(reference), lo, hi)
    scan = numerics._scores(objective([])(calls[0]), calls[0])
    if 0 < int(np.argmax(scan)) < len(scan) - 1:
        assert (x, value) == (ref_x, ref_value)
        assert len(calls) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(calls, reference))
        return
    finite = scan[np.isfinite(scan)]
    assert value >= ref_value - 1e-15 * np.abs(finite).max()
    if x == ref_x and x in (lo, hi):
        assert len(calls) == len(reference) - 1


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


@settings(PROPERTY, max_examples=1000)
@given(log_n=st.floats(0.0, 307.0), where=st.floats(0.0, 1.0),
       xi1=st.floats(*DIFFEO_XI1_RANGE),
       log_xi2=st.floats(*(math.log(x) for x in DIFFEO_XI2_RANGE)))
def test_diffeo_reads_delta_and_n_only_through_s(log_n, where, xi1, log_xi2):
    # for the same float s = sqrt(n) delta, the sup and the bound with and without its
    # derivatives are (s, 1)'s bit for bit: n log-uniform up to 1e307 and delta spread over
    # the range the scale check passes, with s in [1e-160, 1e153]; below s ~ 1.2e-154,
    # (pi / (2 s))^2 overflows and the bound reads 0
    n = int(10.0**log_n)
    half_log_n = 0.5 * math.log10(n)
    lo, hi = max(-161.6, -160.0 - half_log_n), min(154.0, 153.0 - half_log_n)
    delta = 10.0 ** (lo + where * (hi - lo))
    s, xi2 = math.sqrt(n) * delta, math.exp(log_xi2)
    sup, at_s = diffeo_bound_sup(delta, n), diffeo_bound_sup(s, 1)
    assert (sup.value, sup.argmax) == (at_s.value, at_s.argmax), (delta, n)
    assert diffeo_bound(delta, n, xi1, xi2) == diffeo_bound(s, 1, xi1, xi2), (delta, n)
    assert (diffeo_bound(delta, n, xi1, xi2, derivatives=True)
            == diffeo_bound(s, 1, xi1, xi2, derivatives=True)), (delta, n)


@settings(PROPERTY, max_examples=50)
@given(n=st.integers(1, 10**6), delta=st.floats(1e-3, 1e3))
def test_newton_refinement_stops_stationary(n, delta):
    # the diffeo sup ends at a stationary point, never at the step floor, the box or
    # the evaluation budget; the vt sup runs no maximize_newton
    newton, reasons = numerics.maximize_newton, []

    def recorded(*args):
        result = newton(*args)
        reasons.append(result[2])
        return result
    with mock.patch.object(numerics, "maximize_newton", recorded):
        diffeo_bound_sup(delta, n)
        vt_kepler_bound(delta, n, 1.0)
    assert reasons == ["stationary"]
