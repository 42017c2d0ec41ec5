"""The figure's computation: the n-scaled bounds and estimator risks at each
(delta, n) point of a grid, one row per point, in grid order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import bounds, estimators

# name -> n-scaled bound at (delta, n) for the unit-variance problem
BOUNDS = {
    "vt": lambda delta, n: bounds.vt_kepler_bound(delta, n, 1.0),
    "diffeo": lambda delta, n: bounds.diffeo_bound_sup(delta, n),
    "twopoint": lambda delta, n: bounds.twopoint_bound_sup(delta, n),
}
# name -> reference estimator given the pre-test threshold (None: n^-1/4),
# whose n-scaled risk is estimators.local_minimax_risk
RISKS = {
    "constant": lambda threshold: estimators.Constant(),
    "plugin": lambda threshold: estimators.PluginMLE(),
    "pretest": estimators.PreTest,
}
SWEEP_METHODS = tuple(BOUNDS)
SWEEP_ESTIMATORS = tuple(RISKS)


@dataclass(frozen=True)
class SweepConfig:
    mode: str                      # "fixed-n-vary-delta" | "fixed-delta-vary-n"
    n_values: Tuple[int, ...]
    delta_values: Tuple[float, ...]
    sigma: float = 1.0
    methods: Tuple[str, ...] = SWEEP_METHODS
    estimators: Tuple[str, ...] = SWEEP_ESTIMATORS
    threshold: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("fixed-n-vary-delta", "fixed-delta-vary-n"):
            raise ValueError(f"unknown sweep mode {self.mode!r}")
        if not self.n_values or not self.delta_values:
            raise ValueError("sweep grids must be non-empty")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n grid must be strictly increasing")
        if any(b <= a for a, b in zip(self.delta_values, self.delta_values[1:])):
            raise ValueError("delta grid must be strictly increasing")
        bounds.check_scale(self.sigma, "sigma")
        estimators.PreTest(self.threshold)  # PreTest's threshold rule, before any row
        for m in self.methods:
            if m not in SWEEP_METHODS:
                raise ValueError(f"unknown method {m!r}")
        for e in self.estimators:
            if e not in SWEEP_ESTIMATORS:
                raise ValueError(f"unknown estimator {e!r}")


def sweep_row_values(n: int, delta: float, config: SweepConfig) -> Dict[str, float]:
    """All n-scaled bound and risk values at one grid point.

    A family sigma != 1 reduces to the unit problem: rescaling the data by
    1/sigma maps delta to delta/sigma and multiplies every n-scaled squared
    risk and bound by sigma^2.
    """
    s = config.sigma
    d = delta / s
    try:
        out = {"bound_" + m: s * s * bound(d, n).value
               for m, bound in BOUNDS.items() if m in config.methods}
        out.update(("risk_" + e, s * s * estimators.local_minimax_risk(
            make(config.threshold), d, n)) for e, make in RISKS.items() if e in config.estimators)
    except ValueError as exc:  # the bounds and risks name delta/sigma "delta"
        if s == 1.0:
            raise
        raise ValueError(f"delta={delta!r}, sigma={s!r} (delta/sigma={d!r}): {exc}") from None
    for name, value in out.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows at delta={delta!r}, sigma={s!r}, n={n}")
    return out


def run_sweep(config: SweepConfig) -> List[Dict[str, float]]:
    """Rows in grid order: outer loop over the fixed axis, inner over the varied."""
    rows = []
    if config.mode == "fixed-n-vary-delta":
        points = [(n, d) for n in config.n_values for d in config.delta_values]
    else:
        points = [(n, d) for d in config.delta_values for n in config.n_values]
    for n, d in points:
        row = {"delta": d, "n": n}
        row.update(sweep_row_values(n, d, config))
        rows.append(row)
    return rows
