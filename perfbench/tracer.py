"""Per-layer tracing from outside the program.

While a ``Tracer`` is installed, every public function named in ``HOOKS`` is
rebound to a counting, timing wrapper in every ``minimaxlb`` module that holds
it (the defining module and each module that imported the name), and the
original bindings are restored on exit.  No file of the program changes.

Each wrapped call is a frame on one stack, so a layer's self time is its
inclusive time minus the time of the traced calls and callbacks beneath it.
Callbacks handed to the quadrature, root-finding and optimizer layers
(integrands, objectives) are wrapped as leaf frames: they are counted and
their time is excluded from the caller's self time.  Per-call latencies are
kept only for the hooks that report a median; hot leaves get counts and
summed time (``prior_density``) or counts only (``normal_cdf``,
``hellinger_sq_iid``), whose time then stays in the caller's self time.

A hook whose target no longer exists, or whose arguments no longer carry what
a metric reads, reports that metric as absent instead of failing the run.
"""
from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    callback_evals: int = 0
    extra: int = 0                       # nodes, edge hits or grid points
    tolerance_not_met: int = 0
    latencies: Optional[List[float]] = None
    depth: int = 0
    absent: set = field(default_factory=set)


def _edge(x: float, lo: float, hi: float) -> bool:
    tol = 1e-9 * (hi - lo)
    return abs(x - lo) <= tol or abs(x - hi) <= tol


# Result readers: (bound arguments, result, module) -> quantity added to Stat.extra.
def _simpson_nodes(args, result, module) -> int:
    return len(args["values"])


def _edge_1d(args, result, module) -> int:
    return int(_edge(result[0], float(args["lo"]), float(args["hi"])))


def _edge_2d(args, result, module) -> int:
    (x, y), _ = result
    (xlo, xhi), (ylo, yhi) = args["box"].intervals
    return int(_edge(x, xlo, xhi) or _edge(y, ylo, yhi))


def _edge_diffeo_sup(args, result, module) -> int:
    box = args.get("box")
    if box is not None:
        (xlo, xhi), (llo, lhi) = box.intervals
    else:
        (xlo, xhi), (lo2, hi2) = module.DIFFEO_XI1_RANGE, module.DIFFEO_XI2_RANGE
        llo, lhi = math.log(lo2), math.log(hi2)
    xi1, xi2 = result.argmax["xi1"], result.argmax["xi2"]
    return int(_edge(xi1, xlo, xhi) or _edge(math.log(xi2), llo, lhi))


def _edge_hellinger_sup(args, result, module) -> int:
    return int(_edge(abs(result.argmax["h"]), float(args["h_lo"]), float(args["h_hi"])))


def _grid_points(args, result, module) -> int:
    return args["grid"].t_points * args["grid"].x_points


@dataclass(frozen=True)
class Hook:
    target: str                          # "module.function" under minimaxlb
    metrics: Tuple[str, ...]
    callback: str = ""                   # metric name of the wrapped first argument
    extra: str = ""                      # metric name of the result reader
    reader: Optional[Callable] = None


HOOKS = (
    # figure_sweep
    Hook("bounds.diffeo_bound_sup", ("calls", "total_s", "p50_ms", "edge_hits"),
         extra="edge_hits", reader=_edge_diffeo_sup),
    Hook("bounds.diffeo_bound", ("calls", "total_s")),
    Hook("numerics.maximize_2d", ("calls", "objective_evals", "self_s", "edge_argmax"),
         callback="objective_evals", extra="edge_argmax", reader=_edge_2d),
    Hook("numerics.composite_simpson", ("calls", "nodes", "self_s"),
         extra="nodes", reader=_simpson_nodes),
    # mixture_bounds
    Hook("bounds.hellinger_mixture_bound_sup", ("calls", "total_s", "p50_ms", "edge_hits"),
         extra="edge_hits", reader=_edge_hellinger_sup),
    Hook("bounds.delta_psi_moments", ("total_s",)),
    Hook("mixtures.mixture_hellinger_sq", ("calls", "total_s", "p50_ms")),
    Hook("mixtures.mixture_chi_sq", ("calls", "total_s")),
    Hook("numerics.integrate_adaptive",
         ("calls", "integrand_evals", "self_s", "tolerance_not_met"),
         callback="integrand_evals"),
    Hook("priors.prior_density", ("calls", "total_s")),
    Hook("models.hellinger_sq_iid", ("calls",)),
    Hook("models.chi_sq_iid", ("calls",)),
    Hook("mixtures.mixture_hellinger_oracle", ("calls", "total_s", "grid_points"),
         extra="grid_points", reader=_grid_points),
    # closed_form_grid
    Hook("numerics.normal_cdf", ("calls",)),
    Hook("numerics.find_root_bisect", ("calls", "f_evals"), callback="f_evals"),
    Hook("priors.solve_kepler", ("calls",)),
    Hook("numerics.maximize_1d", ("calls", "objective_evals", "self_s", "edge_argmax"),
         callback="objective_evals", extra="edge_argmax", reader=_edge_1d),
    Hook("bounds.vt_kepler_bound", ("total_s",)),
    Hook("bounds.two_point_hellinger_bound", ("calls",)),
    Hook("estimators.local_minimax_risk", ("calls", "total_s")),
    Hook("cli.main", ("self_s",)),
)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_ms": "ms",
         "tolerance_not_met": "count"}


def metric_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(f"{h.target}.{m}", UNITS.get(m, "count")) for h in HOOKS for m in h.metrics]


class Tracer:
    """Context manager; ``stats`` accumulates over every installed period."""

    def __init__(self, package: str = "minimaxlb"):
        self.package = package
        self.stats: Dict[str, Stat] = {
            h.target: Stat(latencies=[] if "p50_ms" in h.metrics else None) for h in HOOKS}
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        for hook in HOOKS:
            stat = self.stats[hook.target]
            mod_name, func_name = hook.target.rsplit(".", 1)
            home = sys.modules.get(f"{self.package}.{mod_name}")
            original = getattr(home, func_name, None)
            if not inspect.isfunction(original):
                stat.absent.update(hook.metrics)
                continue
            wrapper = self._wrap(hook, stat, original, home)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- wrappers -----------------------------------------------------------

    def _counted(self, f, stat: Stat):
        stack, clock = self._stack, time.perf_counter

        def callback(*args, **kwargs):
            stat.callback_evals += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return f(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1] += dt
        return callback

    def _wrap(self, hook: Hook, stat: Stat, original, home):
        if hook.metrics == ("calls",):   # a count-only leaf: its time stays the caller's
            def count_only(*args, **kwargs):
                stat.calls += 1
                return original(*args, **kwargs)
            return count_only
        stack, clock = self._stack, time.perf_counter
        signature = inspect.signature(original)
        first = next(iter(signature.parameters), None)
        tolerance_error = getattr(sys.modules.get(f"{self.package}.numerics"),
                                  "ToleranceNotMet", ())
        counted = self._counted
        if hook.callback and first is None:
            stat.absent.add(hook.callback)

        def wrapper(*args, **kwargs):
            if hook.callback and first is not None:
                if args:
                    args = (counted(args[0], stat),) + args[1:]
                elif first in kwargs:
                    kwargs[first] = counted(kwargs[first], stat)
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            except tolerance_error:
                stat.tolerance_not_met += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.self_s += dt - child
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dt
                if stat.latencies is not None:
                    stat.latencies.append(dt)
            if hook.reader is not None and hook.extra not in stat.absent:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stat.extra += hook.reader(bound.arguments, result, home)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                    stat.absent.add(hook.extra)
            return result
        return wrapper

    # -- report -------------------------------------------------------------

    def value(self, target: str, metric: str) -> Optional[float]:
        """The metric's value, or None when it is absent."""
        stat = self.stats[target]
        if metric in stat.absent:
            return None
        if metric == "calls":
            return stat.calls
        if metric in ("total_s", "self_s", "tolerance_not_met"):
            return getattr(stat, metric)
        if metric == "p50_ms":
            return 1e3 * statistics.median(stat.latencies) if stat.latencies else 0.0
        hook = next(h for h in HOOKS if h.target == target)
        return stat.callback_evals if metric == hook.callback else stat.extra
