"""The paper's invariants as checks over caller-supplied cases.

Each check returns ``(name, ok, detail)`` and fixes its own tolerance, so
``minimaxlb selftest`` (the case lists of ``selftest_checks``) and the
acceptance suite (wider case lists) judge by the same rule.
"""
from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from . import bounds, mixtures, models, numerics, priors
from .sweep import SweepConfig, run_sweep

Check = Tuple[str, bool, str]


def kepler_residual(a_values: Iterable[float]) -> Check:
    """|y_a + sin(pi y_a)/pi - (2a - 1)| <= 1e-12 for every mass constraint a."""
    worst = 0.0
    for a in a_values:
        y = priors.solve_kepler(float(a)).y_a
        worst = max(worst, abs(y + math.sin(math.pi * y) / math.pi - (2.0 * a - 1.0)))
    return "kepler-residual", worst <= 1e-12, f"max residual {worst:.2e}"


def hellinger_tensorization(cases: Iterable[Tuple[models.Family, float, float, int, int]]
                            ) -> Check:
    """1 - H^2_{m+n}/2 = (1 - H^2_m/2)(1 - H^2_n/2) to 1e-12 for each
    (family, theta, h, n, m)."""
    worst = 0.0
    for family, theta, h, n, m in cases:
        h2m, h2n, h2mn = (models.hellinger_sq_iid(family, theta, h, k) for k in (m, n, m + n))
        worst = max(worst, abs((1 - h2mn / 2) - (1 - h2m / 2) * (1 - h2n / 2)))
    return "hellinger-tensorization", worst <= 1e-12, f"max defect {worst:.2e}"


def hellinger_decomposition(cases: Iterable[Tuple[models.Family, priors.Prior, float]]
                            ) -> Check:
    """The decomposition path matches the n = 1 grid oracle to 1e-6 for each
    (family, prior, h)."""
    worst = 0.0
    for family, prior, h in cases:
        path = mixtures.mixture_hellinger_sq(mixtures.MixtureSpec(family, 1, prior, h))
        grid = mixtures.default_grid(family, prior, h)
        worst = max(worst, abs(path - mixtures.mixture_hellinger_oracle(family, prior, h, grid)))
    return "hellinger-decomposition", worst <= 1e-6, f"max gap {worst:.2e}"


def vt_van_trees(cases: Iterable[Tuple[float, int]]) -> Check:
    """The vt bound is the van Trees value of the Gaussian family and
    max(theta, 0) at its Kepler prior, to 1e-12 relative, for each (delta, n)."""
    worst = 0.0
    for delta, n in cases:
        vt = bounds.vt_kepler_bound(delta, n, 1.0)
        prior = priors.KeplerCosine.for_constraint(vt.argmax["a"], 0.0, delta)
        value = bounds.van_trees_value(models.GaussianLocation(1.0), n, prior, bounds.MaxZero())
        worst = max(worst, abs(value - vt.value) / vt.value)
    return "vt-van-trees", worst <= 1e-12, f"max relative gap {worst:.2e}"


def bound_dominance(rows: Iterable[Dict[str, float]]) -> Check:
    """In every sweep row the largest bound is at most the smallest risk,
    up to a slack of 1e-9."""
    margin = math.inf
    for row in rows:
        b = max(v for k, v in row.items() if k.startswith("bound_"))
        r = min(v for k, v in row.items() if k.startswith("risk_"))
        margin = min(margin, r - b)
    return "bound-dominance", margin >= -1e-9, f"min margin {margin:.3e}"


# name in bounds.LAM_CONSTANTS -> (the paper's value, tolerance)
_LAM_TARGETS = {"regular_twopoint": (0.28953, 5e-4),
                "uniform_twopoint": (0.0558, 5e-4),
                "uniform_diffeo": (0.0635**2, 1e-4)}


def asymptotic_constants() -> Check:
    """The three scalar constants against 0.28953, 0.0558 and 0.0635^2."""
    gaps = {name: abs(bounds.lam_constant(name)[1] - _LAM_TARGETS[name][0])
            for name in bounds.LAM_CONSTANTS}
    ok = all(gap <= _LAM_TARGETS[name][1] for name, gap in gaps.items())
    return "asymptotic-constants", ok, "gaps " + ", ".join(f"{g:.1e}" for g in gaps.values())


def normal_cdf_symmetry(xs: Iterable[float]) -> Check:
    """Phi(x) + Phi(-x) = 1 to 1e-15."""
    worst = max(abs(numerics.normal_cdf(x) + numerics.normal_cdf(-x) - 1.0) for x in xs)
    return "normal-cdf-symmetry", worst <= 1e-15, f"max defect {worst:.2e}"


def selftest_checks() -> List[Check]:
    """The built-in invariant suite of ``minimaxlb selftest``."""
    gauss = models.GaussianLocation(1.0)
    deltas = tuple(float(d) for d in np.geomspace(1e-2, 1e2, 10))
    return [
        kepler_residual(np.linspace(0.0, 1.0, 101)),
        hellinger_tensorization((gauss, 0.0, 0.4, n, m) for n, m in ((1, 3), (2, 5), (10, 7))),
        hellinger_decomposition([
            (gauss, priors.GaussianPrior(0.0, 1.0), 0.1),
            (gauss, priors.Cosine(0.0, 1.0), 0.3),
            (models.GaussianLocation(0.5), priors.KeplerCosine.for_constraint(0.75), 0.2)]),
        vt_van_trees((delta, n) for delta in deltas for n in (10, 100)),
        bound_dominance(run_sweep(SweepConfig("fixed-n-vary-delta", (10, 100), deltas))),
        asymptotic_constants(),
        normal_cdf_symmetry(np.linspace(-8, 8, 161)),
    ]
