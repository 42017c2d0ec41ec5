import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from minimaxlb import mixtures
from minimaxlb.mixtures import (CoverageWarning, GridSpec, MixtureSpec,
                                default_grid, mixture_chi_sq,
                                mixture_chi_sq_interpolated_grid,
                                mixture_hellinger_oracle, mixture_hellinger_sq)
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.priors import (Cosine, GaussianPrior, KeplerCosine, UniformPrior,
                              prior_density)

GAUSS = GaussianLocation(1.0)


def family_density(family, theta, x):
    """The reference density p_theta(x), written from the formulas:
    exp((x - theta)^2 (-0.5/sigma^2)) / (sigma sqrt(2 pi)) and 1{0 <= x <= theta} / theta."""
    if isinstance(family, GaussianLocation):
        sigma = family.sigma
        return np.exp((x - theta)**2 * (-0.5 / sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    return ((0.0 <= x) & (x <= theta)) / theta


def gaussian_mixture_h2_closed_form(sigma, sigma_q, h, n):
    """Independent derivation for Gaussian family + Gaussian prior.

    Both parts are location families, so the inner divergence is constant in
    t and the identity collapses to closed form.
    """
    h2_q = -2.0 * math.expm1(-h * h / (8.0 * sigma_q**2))
    bc = 1.0 - h2_q / 2.0
    h2_n = -2.0 * math.expm1(-n * h * h / (8.0 * sigma**2))
    return h2_q + bc * h2_n


def test_mixture_hellinger_zero_shift():
    spec = MixtureSpec(GAUSS, 1, GaussianPrior(0.0, 1.0), 0.0)
    assert mixture_hellinger_sq(spec) == 0.0


def test_mixture_hellinger_disjoint_supports():
    # a shift by the support width leaves the joint measures disjoint
    assert mixture_hellinger_sq(MixtureSpec(GAUSS, 1, Cosine(0.0, 1.0), 2.0)) == 2.0


@pytest.mark.parametrize("sigma,sigma_q,h,n", [
    (1.0, 1.0, 0.1, 1),
    (1.0, 1.0, 0.5, 4),
    (0.5, 2.0, 0.2, 10),
])
def test_mixture_hellinger_gaussian_closed_form(sigma, sigma_q, h, n):
    spec = MixtureSpec(GaussianLocation(sigma), n, GaussianPrior(0.0, sigma_q), h)
    expected = gaussian_mixture_h2_closed_form(sigma, sigma_q, h, n)
    assert mixture_hellinger_sq(spec) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("sigma,sigma_q", [(1.0, 1.0), (0.5, 2.0)])
@pytest.mark.parametrize("n", [1, 10, 100])
def test_mixture_hellinger_gaussian_closed_form_relative(sigma, sigma_q, n):
    # relative accuracy down to h = 1e-4, where H^2 is ~1e-9
    for h in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
        spec = MixtureSpec(GaussianLocation(sigma), n, GaussianPrior(0.0, sigma_q), h)
        expected = gaussian_mixture_h2_closed_form(sigma, sigma_q, h, n)
        assert mixture_hellinger_sq(spec) == pytest.approx(expected, rel=2e-12, abs=0.0)


@pytest.mark.parametrize("mu", [0.0, 1e3, 1e6, 1e9, 1e15])
@pytest.mark.parametrize("n", [1, 100])
def test_mixture_divergences_read_the_shift_at_any_center(mu, n):
    # N(mu, 1) prior, Gaussian family: H^2 = -2 expm1(-h^2 (1 + n)/8) and
    # chi^2 = expm1(h^2 (1 + n)); no integrand forms (t + h) - t
    for h in (1e-2, 1e-6, 1e-10, -1e-6):
        spec = MixtureSpec(GAUSS, n, GaussianPrior(mu, 1.0), h)
        assert mixture_hellinger_sq(spec) == pytest.approx(
            -2.0 * math.expm1(-h * h * (1 + n) / 8.0), rel=1e-13, abs=0.0)
        assert mixture_chi_sq(spec) == pytest.approx(math.expm1(h * h * (1 + n)),
                                                     rel=1e-13, abs=0.0)


def _sin_minus_x_cos(x):
    """sin x - x cos x by its Taylor series sum_k (-1)^k (2k+2) x^(2k+3) / (2k+3)!."""
    total, k, term = 0.0, 0, math.inf
    while abs(term) > 1e-17 * abs(total):
        term = (-1) ** k * (2 * k + 2) * x ** (2 * k + 3) / math.factorial(2 * k + 3)
        total += term
        k += 1
    return total


@pytest.mark.parametrize("prior", [Cosine(0.0, 1.0), KeplerCosine.for_constraint(0.75)],
                         ids=["cosine", "kepler"])
@pytest.mark.parametrize("sigma,n", [(1.0, 1), (0.5, 10)])
def test_mixture_hellinger_location_factorization(prior, sigma, n):
    # a location family over a cos^2 prior of support width W factorizes:
    # 1 - H^2(Mh, M0)/2 = BC_Q(h) (1 - H^2_n(h)/2), where the prior's
    # Bhattacharyya coefficient is BC_Q(h) = ((W - |h|) cos x + (W/pi) sin x)/W,
    # x = pi |h| / W, and 1 - BC_Q = 2 sin^2(x/2) - (sin x - x cos x)/pi
    lo, hi = prior.support()
    width = hi - lo
    family = GaussianLocation(sigma)
    for h in (1e-4, 1e-3, 3e-3, 1e-2, 0.03, 0.1, 0.3, 0.5 * width, 0.75 * width):
        x = math.pi * h / width
        keep_n = math.exp(-n * h * h / (8.0 * sigma**2))  # 1 - H^2_n(h)/2
        for shift in (h, -h):
            got = mixture_hellinger_sq(MixtureSpec(family, n, prior, shift))
            if h >= 1e-2:
                keep = ((width - h) * math.cos(x) + (width / math.pi) * math.sin(x)) / width
                if keep * keep_n > 1e-3:  # 1 - H^2/2 is then well conditioned
                    assert 1.0 - got / 2.0 == pytest.approx(keep * keep_n, rel=1e-12)
            else:
                gap = 2.0 * math.sin(x / 2.0) ** 2 - _sin_minus_x_cos(x) / math.pi
                exact = 2.0 * gap + 2.0 * (1.0 - gap) * -math.expm1(-n * h * h / (8.0 * sigma**2))
                assert got == pytest.approx(exact, rel=1e-12, abs=0.0)


def _bhattacharyya_h2(prior, sigma, n, h):
    """H^2(Mh, M0) = 2 - 2 exp(-n h^2 / (8 sigma^2)) int sqrt(q(t) q(t + h)) dt for the
    Gaussian location family, the Bhattacharyya product, by a 40-digit mpmath.quad cut
    at the prior's support ends and their shifts."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        h_ = mpmath.mpf(h)
        if isinstance(prior, GaussianPrior):
            mu, sd = mpmath.mpf(prior.mu), mpmath.mpf(prior.sigma)
            q = lambda t: mpmath.npdf(t, mu, sd)
            cuts = [-mpmath.inf, mu - h_ / 2, mpmath.inf]
        else:  # a cos^2 bump: Cosine or KeplerCosine
            c, w = mpmath.mpf(prior.center), mpmath.mpf(prior.halfwidth)
            q = lambda t: mpmath.cos(mpmath.pi * (t - c) / (2 * w)) ** 2 / w \
                if abs(t - c) < w else mpmath.mpf(0)
            lo, hi = max(c - w, c - w - h_), min(c + w, c + w - h_)
            cuts = [e for e in sorted({c - w, c + w, c - w - h_, c + w - h_}) if lo <= e <= hi]
        overlap = mpmath.quad(lambda t: mpmath.sqrt(q(t) * q(t + h_)), cuts) \
            if len(cuts) > 1 else 0
        return float(2 - 2 * mpmath.exp(-n * h_ ** 2 / (8 * mpmath.mpf(sigma) ** 2)) * overlap)


def test_mixture_hellinger_matches_the_bhattacharyya_product():
    # an independent formula, to 4e-15 relative, over cosine, Gaussian and Kepler priors
    # (centred, off-centre and scaled), n in [1, 1e4], sigma in [0.3, 3] and |h| from
    # 1e-4 to 2 prior widths, both signs; 240 such draws read at most 2.1e-15
    rng = np.random.default_rng(12)
    priors = [Cosine(0.0, 1.0), Cosine(3.5, 0.2), GaussianPrior(0.0, 1.0),
              GaussianPrior(-7.0, 2.5), KeplerCosine.for_constraint(0.75),
              KeplerCosine.for_constraint(0.3, 2.0, 0.5)]
    for k in range(24):
        prior = priors[k % len(priors)]
        n = int(round(10.0 ** rng.uniform(0.0, 4.0)))
        sigma = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
        h = float(rng.choice((-1.0, 1.0)) * prior.dispersion()
                  * 10.0 ** rng.uniform(-4.0, math.log10(2.0)))
        got = mixture_hellinger_sq(MixtureSpec(GaussianLocation(sigma), n, prior, h))
        assert got == pytest.approx(_bhattacharyya_h2(prior, sigma, n, h), rel=4e-15, abs=0.0), \
            (prior, n, sigma, h)


def test_mixture_hellinger_matches_oracle():
    cases = [
        (GAUSS, GaussianPrior(0.0, 1.0), 0.1),
        (GAUSS, Cosine(0.0, 1.0), 0.3),
    ]
    for family, prior, h in cases:
        spec = MixtureSpec(family, 1, prior, h)
        grid = default_grid(family, prior, h)
        oracle = mixture_hellinger_oracle(family, prior, h, grid)
        assert mixture_hellinger_sq(spec) == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("family, prior, h", [  # the selftest's three decomposition cases
    (GAUSS, GaussianPrior(0.0, 1.0), 0.1),
    (GAUSS, Cosine(0.0, 1.0), 0.3),
    (GaussianLocation(0.5), KeplerCosine.for_constraint(0.75), 0.2),
])
def test_mixture_hellinger_is_even_in_the_shift(family, prior, h):
    # the decomposition integrates at |h| (t -> t - h turns H^2(M-h, M0) into
    # H^2(M0, Mh)); the oracle sums the -h joint mixtures themselves, cell by cell
    minus = mixture_hellinger_sq(MixtureSpec(family, 1, prior, -h))
    oracle = mixture_hellinger_oracle(family, prior, -h, default_grid(family, prior, -h))
    assert minus == pytest.approx(oracle, abs=1e-6)
    assert minus == mixture_hellinger_sq(MixtureSpec(family, 1, prior, h))


def test_mixture_hellinger_quadratic_law():
    for prior in (GaussianPrior(0.0, 1.0), Cosine(0.0, 1.0)):
        info_q = prior.fisher_info()
        for n in (1, 5):
            target = (info_q + n) / 4.0
            for h in (1e-2, 1e-3):
                got = mixture_hellinger_sq(MixtureSpec(GAUSS, n, prior, h))
                assert abs(got / (h * h) - target) <= 10.0 * h


def test_mixture_hellinger_monotone_in_n():
    values = [mixture_hellinger_sq(MixtureSpec(GAUSS, n, GaussianPrior(0.0, 1.0), 0.2))
              for n in (1, 2, 5, 10, 100)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 2.0 for v in values)


def test_mixture_chi_sq_gaussian_closed_form():
    # q_h^2/q integrates to exp(h^2/s^2); the family term is constant:
    # chi^2 = exp((n+1) h^2) - 1 for unit variances.
    for n, h in [(1, 0.05), (3, 0.05), (1, 0.2)]:
        spec = MixtureSpec(GAUSS, n, GaussianPrior(0.0, 1.0), h)
        got = mixture_chi_sq(spec)
        assert got == pytest.approx(math.expm1((n + 1) * h * h), rel=1e-9)


@pytest.mark.parametrize("n", [1, 10, 100])
def test_mixture_chi_sq_gaussian_closed_form_relative(n):
    # the integrand carries no "- 1", so small shifts keep their relative accuracy
    for h in np.geomspace(1e-3, 1.0, 61):
        h = float(h)
        got = mixture_chi_sq(MixtureSpec(GAUSS, n, GaussianPrior(0.0, 1.0), h))
        assert got == pytest.approx(math.expm1((n + 1) * h * h), rel=1e-10, abs=0.0)


def test_mixture_chi_sq_uniform_family_padded_window():
    # the window 13 +- 12 widened by 2|h| reaches t + h < 0 in the prior's far
    # tail, where Unif(0, t + h) does not exist: chi^2_n is read only above 0
    from scipy import integrate
    prior, h, n = GaussianPrior(13.0, 1.0), -0.6, 3

    def identity(t):
        q0, qh = prior.density(t), prior.density(t + h)
        per = (t / (t + h)) ** n - 1.0 if t + h > 0.0 else 0.0
        return (qh - q0) ** 2 / q0 + qh * qh / q0 * per
    oracle, _ = integrate.quad(identity, -0.2, 26.2, points=[12.4, 13.6], epsabs=0.0,
                               epsrel=1e-12, limit=200)
    got = mixture_chi_sq(MixtureSpec(UniformScale(), n, prior, h))
    assert got == pytest.approx(oracle, rel=1e-10)


def test_mixture_chi_sq_against_grid_oracle():
    h = 0.05
    spec = MixtureSpec(GAUSS, 1, GaussianPrior(0.0, 1.0), h)
    grid = default_grid(GAUSS, GaussianPrior(0.0, 1.0), h)
    oracle = mixture_chi_sq_interpolated_grid(GAUSS, GaussianPrior(0.0, 1.0), h, 0.0, grid)
    assert mixture_chi_sq(spec) == pytest.approx(oracle, abs=1e-5)


@pytest.mark.parametrize("prior,h,lam", [(GaussianPrior(0.0, 1.0), 0.1, 0.5),
                                         (Cosine(0.0, 1.0), 0.5, 0.9),
                                         (UniformPrior(-1.0, 1.0), 0.3, 0.25),
                                         (KeplerCosine.for_constraint(0.75), -0.2, 0.1),
                                         (GaussianPrior(1.0, 0.5), -0.05, 0.75),
                                         (GaussianPrior(0.0, 1.0), 1.0, 0.0)])
def test_interpolated_chi_sq_grid_holds_three_grids(prior, h, lam):
    # bit for bit the value the out-of-place formula gives on the whole grid, which
    # the oracle builds in place in its block buffers, with less memory alive than
    # three 401 x 401 grids
    grid = default_grid(GAUSS, prior, h)
    ts = np.linspace(grid.t_lo, grid.t_hi, grid.t_points)[:, None]
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.x_points)
    g0 = family_density(GAUSS, ts, xs) * prior_density(prior, ts)
    gh = family_density(GAUSS, ts + h, xs) * prior_density(prior, ts + h)
    mix = lam * gh + (1.0 - lam) * g0
    ratio = np.divide((gh - g0) ** 2, mix, out=np.zeros_like(mix), where=mix > 0.0)
    wt = mixtures._trapezoid_weights(grid.t_lo, grid.t_hi, grid.t_points)
    wx = mixtures._trapezoid_weights(grid.x_lo, grid.x_hi, grid.x_points)
    want = (1.0 - lam) ** 2 * float(wt @ (ratio @ wx))
    del g0, gh, mix, ratio
    tracemalloc.start()
    try:
        got = mixture_chi_sq_interpolated_grid(GAUSS, prior, h, lam, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 3.2 * 401 * 401 * 8


@pytest.mark.parametrize("sigma", [1e153, 1e154, 1.3e154])
def test_hellinger_oracle_at_the_largest_family_scales(sigma):
    # the grid spans about 20 sigma, where (x - theta)^2 overflows, and its joint
    # densities are about 1/sigma^2, whose squares underflow: the value is the sigma = 1 one
    family, prior, h = GaussianLocation(sigma), GaussianPrior(0.0, sigma), 0.1 * sigma
    value = mixture_hellinger_oracle(family, prior, h, default_grid(family, prior, h))
    assert abs(value - 0.0049937552050797595) <= 1e-13


def test_grid_oracles_stream_their_rows():
    # the default 2001 x 2001 grid, built a block of t-rows at a time: the
    # full-grid oracles peaked at 61 and 95 MiB and gave these values
    prior, h = GaussianPrior(0.0, 1.0), 0.1
    grid = default_grid(GAUSS, prior, h)
    assert (grid.t_points, grid.x_points) == (2001, 2001)
    for oracle, want in ((lambda: mixture_hellinger_oracle(GAUSS, prior, h, grid),
                          0.0049937552050797595),
                         (lambda: mixture_chi_sq_interpolated_grid(GAUSS, prior, h, 0.5, grid),
                          0.004975205671290736)):
        tracemalloc.start()
        try:
            got = oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 8 * 2**20


@pytest.mark.parametrize("family,prior,h", [
    *((GaussianLocation(sigma), prior, h) for sigma in (0.5, 1.0, 3.0)
      for prior, h in ((Cosine(0.0, 1.0), 0.3), (GaussianPrior(0.0, 1.0), 0.1),
                       (KeplerCosine.for_constraint(0.75), 0.2))),
    (UniformScale(), UniformPrior(1.0, 2.0), 0.2), (UniformScale(), GaussianPrior(13.0, 1.0), -0.5)])
def test_hellinger_oracle_is_the_brute_force_sum(family, prior, h):
    # the closed-form roots change no term of the oracle's meaning: the sum of
    # w_t w_x (sqrt(gh) - sqrt(g0))^2 with g = p_t(x) q(t) built on the whole grid
    grid = default_grid(family, prior, h)
    ts = np.linspace(grid.t_lo, grid.t_hi, grid.t_points)[:, None]
    xs = np.linspace(grid.x_lo, grid.x_hi, grid.x_points)
    g0 = family_density(family, ts, xs) * prior.density(ts)
    gh = family_density(family, ts + h, xs) * prior.density(ts + h)
    wt = mixtures._trapezoid_weights(grid.t_lo, grid.t_hi, grid.t_points)
    wx = mixtures._trapezoid_weights(grid.x_lo, grid.x_hi, grid.x_points)
    want = float(wt @ ((np.sqrt(gh) - np.sqrt(g0)) ** 2 @ wx))
    assert mixture_hellinger_oracle(family, prior, h, grid) == pytest.approx(want, rel=1e-14,
                                                                            abs=0.0)


def test_grid_oracles_check_their_axes_once(monkeypatch):
    # each oracle checks its x-axis once, not once a block of t-rows (1,002 times
    # on the default 2001 x 2001 grid), and its t and t + h axes once each
    counts = {"check_x": 0, "check_theta": 0}
    for name in counts:
        def counted(self, *args, name=name, check=getattr(GaussianLocation, name)):
            counts[name] += 1
            return check(self, *args)
        monkeypatch.setattr(GaussianLocation, name, counted)
    prior, h = GaussianPrior(0.0, 1.0), 0.1
    grid = default_grid(GAUSS, prior, h)
    for oracle in (lambda: mixture_hellinger_oracle(GAUSS, prior, h, grid),
                   lambda: mixture_chi_sq_interpolated_grid(GAUSS, prior, h, 0.5, grid)):
        counts.update(check_x=0, check_theta=0)
        oracle()
        assert counts["check_x"] <= 2 and counts["check_theta"] <= 2


def _in_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


def _hellinger_terms(r0, rh):
    return np.square(rh - r0)


def test_grid_helper_exception_is_raised_in_the_caller(capfd):
    # the second half of the t-rows runs in a helper thread: its exception reaches
    # the caller once the helper has ended, and the thread prints nothing
    prior, h = GaussianPrior(0.0, 1.0), 0.1
    grid = default_grid(GAUSS, prior, h)
    halves = set()

    def integrand(r0, rh):
        halves.add(_in_helper())
        if _in_helper():
            raise KeyError("second half")
        return _hellinger_terms(r0, rh)

    threads = threading.active_count()
    with pytest.raises(KeyError, match="second half"):
        mixtures._grid_trapezoid(integrand, GAUSS, prior, h, grid, root=True)
    assert halves == {False, True}
    assert threading.active_count() == threads
    assert capfd.readouterr().err == ""


def test_grid_helper_runs_in_the_callers_errstate():
    # the helper runs in a copy of the caller's context, which holds numpy's errstate:
    # an overflow there raises as it would in the caller
    prior, h = Cosine(0.0, 1.0), 0.3
    grid = default_grid(GAUSS, prior, h)

    def integrand(r0, rh):
        if _in_helper():
            np.multiply(np.full(1, 1e300), 1e300)
        return _hellinger_terms(r0, rh)

    threads = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        mixtures._grid_trapezoid(integrand, GAUSS, prior, h, grid, root=True)
    assert threading.active_count() == threads


def test_grid_oracles_called_from_many_threads_give_their_serial_bits():
    # four callers at once (eight threads on two cores) with a short switch interval:
    # each oracle keeps its rows, buffers and helper to itself
    cases = [(prior, h, lam) for prior, h in ((Cosine(0.0, 1.0), 0.3),
                                              (GaussianPrior(0.0, 1.0), 0.1))
             for lam in (None, 0.5)]

    def oracle(prior, h, lam):
        grid = default_grid(GAUSS, prior, h)
        if lam is None:
            return mixture_hellinger_oracle(GAUSS, prior, h, grid)
        return mixture_chi_sq_interpolated_grid(GAUSS, prior, h, lam, grid)

    want = [oracle(*case) for case in cases]
    got = [[] for _ in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=lambda i=i: got[i].extend(
            oracle(*cases[i]) for _ in range(5))) for i in range(len(cases))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [[value] * 5 for value in want]


def test_mixture_chi_sq_divergent_cases():
    assert mixture_chi_sq(MixtureSpec(GAUSS, 1, GaussianPrior(0.0, 1.0), 0.0)) == 0.0
    unif_prior = UniformPrior(1.0, 2.0)
    assert mixture_chi_sq(MixtureSpec(UniformScale(), 1, unif_prior, 0.1)) == math.inf
    assert mixture_chi_sq(MixtureSpec(GAUSS, 1, Cosine(0.0, 1.0), 0.1)) == math.inf
    assert mixture_chi_sq(
        MixtureSpec(GAUSS, 1, KeplerCosine.for_constraint(0.75), 0.1)) == math.inf


def test_mixture_chi_sq_compact_priors_not_dominated():
    # a shifted compact support is never contained in itself, so every
    # compact prior yields an infinite chi-squared at h != 0
    for prior in (UniformPrior(0.0, 1.0), Cosine(0.0, 1.0),
                  KeplerCosine.for_constraint(0.6)):
        assert mixture_chi_sq(MixtureSpec(GAUSS, 1, prior, 0.25)) == math.inf
    spec = MixtureSpec(UniformScale(), 2, UniformPrior(1.0, 2.0), -0.1)
    assert mixture_chi_sq(spec) == math.inf


def test_oracle_zero_shift():
    grid = default_grid(GAUSS, GaussianPrior(0.0, 1.0), 0.0)
    got = mixture_hellinger_oracle(GAUSS, GaussianPrior(0.0, 1.0), 0.0, grid)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_grid_must_resolve_its_cells():
    # the oracle grids read parameters on the absolute axis: a node may move by
    # at most 2^-16 of a cell, so N(1e8, 1) has a default grid and N(1e9, 1) none
    grid = default_grid(GAUSS, GaussianPrior(1e8, 1.0), 0.1)
    assert grid.t_lo == 1e8 - 12.1
    for prior in (GaussianPrior(1e9, 1.0), GaussianPrior(1e13, 1.0), Cosine(-1e12, 1.0)):
        with pytest.raises(ValueError, match="too far from 0"):
            default_grid(GAUSS, prior, 0.1)
    with pytest.raises(ValueError, match="the x-grid"):
        GridSpec(t_lo=0.0, t_hi=1.0, x_lo=1e12, x_hi=1e12 + 1.0)


def test_grid_must_resolve_the_family_kernel():
    # the default grid of a unit Gaussian prior has cells of 0.012: at family sigma 1e-3
    # they are 12 sigma wide and the Hellinger oracle read 4.054 (H^2 <= 2), at 0.01 it
    # read 3.4e-9 off; at 0.03 they are 0.41 sigma and the oracle is the identity's value
    prior, h = GaussianPrior(0.0, 1.0), 0.1
    for sigma in (1e-3, 0.01):
        family = GaussianLocation(sigma)
        grid = default_grid(family, prior, h)
        for oracle in (lambda: mixture_hellinger_oracle(family, prior, h, grid),
                       lambda: mixture_chi_sq_interpolated_grid(family, prior, h, 0.5, grid)):
            with pytest.raises(ValueError, match=f"t-cell 0.012 is wider than half the "
                                                 f"family's sigma {sigma!r}"):
                oracle()
    family = GaussianLocation(0.03)
    oracle = mixture_hellinger_oracle(family, prior, h, default_grid(family, prior, h))
    identity = mixture_hellinger_sq(MixtureSpec(family, 1, prior, h))
    assert oracle == pytest.approx(identity, rel=1e-15, abs=0.0)
    assert UniformScale.kernel_width is None  # a uniform density has no width to resolve


def test_grid_validation_and_coverage_warning():
    with pytest.raises(TypeError):  # every grid has 2001 x 2001 nodes
        GridSpec(t_lo=0.0, t_hi=1.0, x_lo=0.0, x_hi=1.0, t_points=101)
    with pytest.raises(ValueError):
        GridSpec(t_lo=1.0, t_hi=0.0, x_lo=0.0, x_hi=1.0)
    tight = GridSpec(t_lo=-1.0, t_hi=1.0, x_lo=-1.0, x_hi=1.0)
    with pytest.warns(CoverageWarning):
        mixture_hellinger_oracle(GAUSS, GaussianPrior(0.0, 1.0), 0.1, tight)


def test_coverage_warning_names_the_oracle_caller():
    tight = GridSpec(t_lo=-1.0, t_hi=1.0, x_lo=-1.0, x_hi=1.0)
    prior = GaussianPrior(0.0, 1.0)
    for oracle in (lambda: mixture_hellinger_oracle(GAUSS, prior, 0.1, tight),
                   lambda: mixture_chi_sq_interpolated_grid(GAUSS, prior, 0.1, 0.5, tight)):
        with pytest.warns(CoverageWarning) as caught:
            oracle()
        assert [w.filename for w in caught] == [__file__] * 2


def test_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(GAUSS, 0, GaussianPrior(0.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        MixtureSpec(GAUSS, 1, GaussianPrior(0.0, 1.0), math.inf)


def test_mixture_hellinger_uniform_family_first_principles():
    # independent oracle: for Unif(0, t) vs Unif(0, t+h) with h > 0 the inner
    # x-integral is piecewise flat and closes to
    #   t (sqrt(q/t) - sqrt(q_h/(t+h)))^2 + h q_h/(t+h),
    # leaving a plain 1-D trapezoid over t
    from minimaxlb.priors import prior_density

    prior = Cosine(2.0, 0.5)
    h = 0.15
    ts = np.linspace(1.3, 2.7, 200001)

    def inner(t):
        q0 = prior_density(prior, t)
        qh = prior_density(prior, t + h)
        a = math.sqrt(q0 / t) - math.sqrt(qh / (t + h))
        return t * a * a + h * qh / (t + h)

    vals = np.array([inner(float(t)) for t in ts])
    oracle = np.trapezoid(vals, ts)
    got = mixture_hellinger_sq(MixtureSpec(UniformScale(), 1, prior, h))
    assert got == pytest.approx(oracle, abs=1e-8)


def test_uniform_family_requires_positive_support():
    with pytest.raises(ValueError):
        mixture_hellinger_sq(MixtureSpec(UniformScale(), 1, GaussianPrior(0.0, 1.0), 0.1))
    # positive-support prior works
    spec = MixtureSpec(UniformScale(), 1, Cosine(2.0, 0.5), 0.1)
    val = mixture_hellinger_sq(spec)
    assert 0.0 < val < 2.0
    # a positive window whose shift reaches t <= 0, where q(t) q(t+h) > 0 in the far tail
    spec = MixtureSpec(UniformScale(), 1, GaussianPrior(13.0, 1.0), 2.0)
    assert 0.0 < mixture_hellinger_sq(spec) < 2.0
