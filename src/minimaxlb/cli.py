"""Command-line interface: parses arguments, calls the library (the sweep is
``minimaxlb.sweep``, the selftest checks are ``minimaxlb.checks``) and writes
its results as text, CSV and self-contained SVG figures.

Output determinism: identical invocations produce byte-identical CSV and SVG
(shortest round-trip float formatting, no timestamps, fixed palettes). SVG
is written directly as polyline plots to keep the artifact dependency-free.

Exit codes: 0 success, 2 validation error, 3 numerical-tolerance failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bounds, checks, estimators, mixtures, models, numerics, priors
from .sweep import RISKS, SWEEP_ESTIMATORS, SWEEP_METHODS, SweepConfig, run_sweep

CSV_COLUMNS = ("delta", "n", "bound_vt", "bound_diffeo", "bound_twopoint",
               "risk_constant", "risk_plugin", "risk_pretest")


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(rows: Sequence[Sequence[str]], header: Sequence[str]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing helpers

# kind: (expected form, required field count, defaults of the optional fields, constructor)
_PRIOR_FORMS = {
    "cosine": ("cosine[:center[:halfwidth]]", 0, (0.0, 1.0), priors.Cosine),
    "gaussian": ("gaussian[:mu[:sigma]]", 0, (0.0, 1.0), priors.GaussianPrior),
    "kepler": ("kepler:a[:center[:scale]]", 1, (0.0, 1.0),
               priors.KeplerCosine.for_constraint),
    "uniform": ("uniform:lo:hi", 2, (), priors.UniformPrior),
}


def parse_prior(spec: str) -> priors.Prior:
    """Parse a prior spec in one of the forms of ``_PRIOR_FORMS``, e.g. 'cosine:0:1'."""
    head, *fields = spec.split(":")
    kind = head.lower()
    if kind not in _PRIOR_FORMS:
        raise ValueError(f"unknown prior kind {kind!r}")
    form, required, defaults, make = _PRIOR_FORMS[kind]
    if not required <= len(fields) <= required + len(defaults):
        raise ValueError(f"prior {spec!r} has {len(fields)} fields; expected {form}")
    args = [float(p) for p in fields]
    return make(*args, *defaults[len(args) - required:])


# name -> family, given --sigma (read by the Gaussian family only)
_FAMILIES = {
    "gaussian": models.GaussianLocation,
    "uniform": lambda sigma: models.UniformScale(),
}
# name -> functional, given --alpha (read by powermax only)
_FUNCTIONALS = {
    "identity": lambda alpha: bounds.Identity(),
    "maxzero": lambda alpha: bounds.MaxZero(),
    "powermax": bounds.PowerMax,
}


def parse_grid(spec: str) -> Tuple[float, ...]:
    """'log:lo:hi:count' for a log-spaced grid, else a comma list."""
    if spec.startswith("log:"):
        fields = spec.split(":")
        if len(fields) != 4:
            raise ValueError(f"log grid {spec!r} must be written log:lo:hi:count")
        lo, hi, count = float(fields[1]), float(fields[2]), int(fields[3])
        if not (0 < lo < hi and count >= 2):
            raise ValueError("log grid needs 0 < lo < hi and count >= 2")
        return tuple(float(x) for x in np.geomspace(lo, hi, count))
    return tuple(float(x) for x in spec.split(","))


DEFAULT_DELTA_GRID = "log:1e-2:1e2:50"


# ---------------------------------------------------------------------------
# CSV rendering of sweep rows

def rows_to_csv(rows: Sequence[Dict[str, float]]) -> str:
    body = []
    for row in rows:
        cells = []
        for col in CSV_COLUMNS:
            if col == "n":
                cells.append(str(int(row["n"])))
            elif col in row:
                cells.append(fmt(row[col]))
            else:
                cells.append("")
        body.append(cells)
    return _csv(body, CSV_COLUMNS)


# ---------------------------------------------------------------------------
# SVG rendering (self-contained polyline plots, log-log axes)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_Y_FLOOR = 1e-8


Series = namedtuple("Series", "label xs ys dashed color")


def _svg_header(width: int, height: int) -> List[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _decade_ticks(lo: float, hi: float) -> List[float]:
    first = math.ceil(math.log10(lo) - 1e-12)
    last = math.floor(math.log10(hi) + 1e-12)
    return [10.0 ** k for k in range(first, last + 1)]


def render_loglog_svg(series: Sequence[Series], x_label: str, title: str) -> str:
    width, height = 880, 560
    ml, mr, mt, mb = 70, 210, 40, 50
    px_w, px_h = width - ml - mr, height - mt - mb
    xs_all = [x for s in series for x in s.xs]
    ys_all = [max(y, _Y_FLOOR) for s in series for y in s.ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0

    def tx(x: float) -> float:
        return ml + px_w * (math.log10(x) - math.log10(x_lo)) / \
            (math.log10(x_hi) - math.log10(x_lo))

    def ty(y: float) -> float:
        y = max(y, _Y_FLOOR)
        return mt + px_h * (math.log10(y_hi) - math.log10(y)) / \
            (math.log10(y_hi) - math.log10(y_lo))

    out = _svg_header(width, height)
    out.append(f'<text x="{ml}" y="24" font-family="monospace" font-size="15">'
               f'{title}</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{px_w}" height="{px_h}" '
               'fill="none" stroke="#000000" stroke-width="1"/>')
    for xt in _decade_ticks(x_lo, x_hi):
        px = tx(xt)
        out.append(f'<line x1="{px:.3f}" y1="{mt + px_h}" x2="{px:.3f}" '
                   f'y2="{mt + px_h + 5}" stroke="#000000"/>')
        out.append(f'<text x="{px:.3f}" y="{mt + px_h + 20}" font-family="monospace" '
                   f'font-size="11" text-anchor="middle">1e{int(round(math.log10(xt)))}</text>')
    for yt in _decade_ticks(max(y_lo, _Y_FLOOR), y_hi):
        py = ty(yt)
        out.append(f'<line x1="{ml - 5}" y1="{py:.3f}" x2="{ml}" y2="{py:.3f}" '
                   'stroke="#000000"/>')
        out.append(f'<text x="{ml - 8}" y="{py + 4:.3f}" font-family="monospace" '
                   f'font-size="11" text-anchor="end">1e{int(round(math.log10(yt)))}</text>')
    out.append(f'<text x="{ml + px_w / 2:.3f}" y="{height - 12}" '
               f'font-family="monospace" font-size="13" text-anchor="middle">'
               f'{x_label}</text>')
    for k, s in enumerate(series):
        pts = " ".join(f"{tx(x):.3f},{ty(y):.3f}" for x, y in zip(s.xs, s.ys))
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                   f'stroke-width="1.5"{dash}/>')
        ly = mt + 18 * (k + 1)
        lx = ml + px_w + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 26}" y2="{ly - 4}" '
                   f'stroke="{s.color}" stroke-width="1.5"{dash}/>')
        out.append(f'<text x="{lx + 32}" y="{ly}" font-family="monospace" '
                   f'font-size="12">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def sweep_svg(rows: Sequence[Dict[str, float]], config: SweepConfig) -> str:
    x_key = "delta" if config.mode == "fixed-n-vary-delta" else "n"
    group_key = "n" if x_key == "delta" else "delta"
    groups = sorted({row[group_key] for row in rows})
    series: List[Series] = []
    color_idx = 0
    columns = ([("bound_" + m, True) for m in config.methods]
               + [("risk_" + e, False) for e in config.estimators])
    for g in groups:
        sub = [r for r in rows if r[group_key] == g]
        sub.sort(key=lambda r: r[x_key])
        for col, dashed in columns:
            if col not in sub[0]:
                continue
            label = f"{col} ({group_key}={g:g})" if len(groups) > 1 else col
            series.append(Series(
                label=label,
                xs=tuple(r[x_key] for r in sub),
                ys=tuple(r[col] for r in sub),
                dashed=dashed,
                color=_PALETTE[color_idx % len(_PALETTE)]))
            color_idx += 1
    return render_loglog_svg(series, x_key, "n-scaled local minimax risk: "
                                            "bounds (dashed) vs estimators (solid)")


def kepler_svg(a_values: Sequence[float]) -> str:
    """Two-panel figure: constrained prior densities and min Fisher info vs a."""
    width, height = 880, 420
    out = _svg_header(width, height)
    ml, mt, pw, ph = 60, 50, 340, 300
    ts = np.linspace(-1.0, 1.0, 401)
    curves = {a: priors.KeplerCosine.for_constraint(a) for a in a_values}
    dens = {a: q.density(ts) for a, q in curves.items()}
    d_max = max(max(v) for v in dens.values()) or 1.0
    out.append(f'<text x="{ml}" y="26" font-family="monospace" font-size="14">'
               'constrained cosine priors q_a(t)</text>')
    out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               'stroke="#000000"/>')
    for k, a in enumerate(a_values):
        pts = " ".join(
            f"{ml + pw * (t + 1.0) / 2.0:.3f},{mt + ph * (1.0 - v / (1.05 * d_max)):.3f}"
            for t, v in zip(ts, dens[a]))
        color = _PALETTE[k % len(_PALETTE)]
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        out.append(f'<text x="{ml + pw + 8}" y="{mt + 16 * (k + 1)}" '
                   f'font-family="monospace" font-size="12" fill="{color}">'
                   f'a={a:g}</text>')
    ml2 = ml + pw + 120
    a_grid = np.linspace(0.0, 1.0, 101)
    fisher = [priors.solve_kepler(float(a)).min_fisher for a in a_grid]
    f_max = max(fisher)
    out.append(f'<text x="{ml2}" y="26" font-family="monospace" font-size="14">'
               'min Fisher information vs a</text>')
    out.append(f'<rect x="{ml2}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
               'stroke="#000000"/>')
    pts = " ".join(
        f"{ml2 + pw * a:.3f},{mt + ph * (1.0 - v / (1.05 * f_max)):.3f}"
        for a, v in zip(a_grid, fisher))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
               'stroke-width="1.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_kepler(args: argparse.Namespace) -> int:
    if args.a:
        a_values = [float(a) for a in args.a]
    else:
        count = int(args.grid) if args.grid else 101
        if count < 2:
            raise ValueError("kepler grid needs at least 2 points")
        a_values = [float(a) for a in np.linspace(0.0, 1.0, count)]
    rows = []
    for a in a_values:
        sol = priors.solve_kepler(a)
        rows.append((fmt(a), fmt(sol.y_a), fmt(sol.w_a), fmt(sol.min_fisher)))
    _write_text(args.out, _csv(rows, ("a", "y_a", "w_a", "min_fisher")))
    if args.svg:
        svg_as = [float(a) for a in (args.a or ["0.5", "0.75", "1.0"])]
        _write_text(args.svg, kepler_svg(svg_as))
    return 0


# The options of `bound` with their defaults, and the options each method
# reads: setting an option its method does not read is rejected.
_BOUND_DEFAULTS = {"family": "gaussian", "sigma": 1.0, "prior": None,
                   "functional": "maxzero", "alpha": None, "delta": 1.0,
                   "lam": None, "h": None, "xi1": None, "xi2": None,
                   "theta1": None, "theta2": None}
_MIXTURE_READS = ("family", "sigma", "functional", "alpha", "prior", "delta")
_BOUND_READS = {
    "vt": ("sigma", "delta"),
    "diffeo": ("delta", "xi1", "xi2"),
    "twopoint": ("family", "sigma", "functional", "alpha", "theta1", "theta2"),
    "hellinger": _MIXTURE_READS + ("h",),
    "chi2": _MIXTURE_READS + ("h", "lam"),
    "vantrees": _MIXTURE_READS,
}


def _reject_unread_options(args: argparse.Namespace) -> None:
    unread_because = {}
    if args.family != "gaussian":
        unread_because["sigma"] = "with --family uniform"
    if args.functional != "powermax":
        unread_because["alpha"] = "without --functional powermax"
    if args.prior:  # delta only sizes the default prior cosine:0:delta
        unread_because["delta"] = "with --prior"
    reads = _BOUND_READS[args.method]
    for dest, default in _BOUND_DEFAULTS.items():
        if (dest in reads and dest not in unread_because) or getattr(args, dest) == default:
            continue
        flag = "--lambda" if dest == "lam" else "--" + dest
        why = f" {unread_because[dest]}" if dest in reads else ""
        raise ValueError(f"--method {args.method} does not read {flag}{why}")


def _bound_dispatch(args: argparse.Namespace) -> Tuple[bounds.BoundResult, List[str]]:
    """Returns the n-scaled bound result and extra note lines."""
    _reject_unread_options(args)
    if args.functional == "powermax" and args.alpha is None:
        raise ValueError("powermax requires --alpha")
    family = _FAMILIES[args.family](args.sigma)
    functional = _FUNCTIONALS[args.functional](args.alpha)
    n = int(args.n)
    method = args.method
    if method == "vt":
        return bounds.vt_kepler_bound(args.delta, n, family.fisher_info(0.0)), []
    if method == "diffeo":
        if (args.xi1 is None) != (args.xi2 is None):
            raise ValueError("--xi1 and --xi2 must be given together")
        if args.xi1 is None:
            return bounds.diffeo_bound_sup(args.delta, n), []
        value = bounds.diffeo_bound(args.delta, n, args.xi1, args.xi2)
        return bounds.BoundResult(value, {"xi1": args.xi1, "xi2": args.xi2}, "diffeo"), []
    if method == "twopoint":
        if args.theta1 is None or args.theta2 is None:
            raise ValueError("twopoint requires --theta1 and --theta2")
        value = bounds.two_point_hellinger_bound(
            family, n, functional, args.theta1, args.theta2)
        return bounds.BoundResult(value, {"theta1": args.theta1, "theta2": args.theta2},
                                  "twopoint").scaled(n), []
    if not args.prior:  # the default prior cosine:0:delta
        priors.check_scale(args.delta, "--delta", priors.Cosine().fisher_info())
    prior = parse_prior(args.prior) if args.prior else priors.Cosine(0.0, args.delta)
    if method == "hellinger":
        if args.h is None:
            h_lo, h_hi = bounds.default_shift_range(prior)
            return bounds.hellinger_mixture_bound_sup(family, n, prior, functional,
                                                      h_lo, h_hi).scaled(n), []
        value = bounds.hellinger_mixture_bound(family, n, prior, functional, args.h)
        return bounds.BoundResult(value, {"h": args.h}, "hellinger-mixture").scaled(n), []
    if method == "chi2":
        if args.h is None:
            raise ValueError("chi2 requires --h")
        lam = args.lam if args.lam is not None else 0.0
        value = bounds.chi2_mixture_bound(family, n, prior, functional, args.h, lam)
        # a divergent denominator can only have given a zero bound
        divergent = value == 0.0 and lam == 0.0 and mixtures.mixture_chi_sq(
            mixtures.MixtureSpec(family, n, prior, args.h)) == math.inf
        notes = ["note=divergent denominator; trivial bound 0"] if divergent else []
        return bounds.BoundResult(value, {"h": args.h, "lambda": lam},
                                  "chi2-mixture").scaled(n), notes
    value = bounds.van_trees_value(family, n, prior, functional)  # method == "vantrees"
    return bounds.BoundResult(value, {}, "van-trees").scaled(n), []


def cmd_bound(args: argparse.Namespace) -> int:
    result, notes = _bound_dispatch(args)
    lines = [f"method={result.method}", f"value={fmt(result.value)}"]
    lines += [f"{k}={fmt(v)}" for k, v in sorted(result.argmax.items())]
    lines += notes
    print("\n".join(lines))
    row = (fmt(args.delta), str(int(args.n)), args.method, fmt(result.value))
    _write_text(args.out, _csv([row], ("delta", "n", "method", "value")))
    return 0


def _reject_unread_threshold(threshold: Optional[float], flag: str,
                             names: Sequence[str]) -> None:
    if threshold is not None and "pretest" not in names:
        raise ValueError(f"{flag} {','.join(names)} does not read --threshold")


def cmd_risk(args: argparse.Namespace) -> int:
    _reject_unread_threshold(args.threshold, "--estimator", (args.estimator,))
    n = int(args.n)
    value = estimators.local_minimax_risk(RISKS[args.estimator](args.threshold), args.delta, n)
    print(f"value={fmt(value)}")
    row = (fmt(args.delta), str(n), args.estimator, fmt(value))
    _write_text(args.out, _csv([row], ("delta", "n", "estimator", "value")))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    n_values = tuple(int(x) for x in str(args.n).split(","))
    delta_values = parse_grid(args.delta_grid)
    config = SweepConfig(
        mode=("fixed-n-vary-delta" if args.mode == "delta" else "fixed-delta-vary-n"),
        n_values=n_values,
        delta_values=tuple(sorted(delta_values)),
        sigma=args.sigma,
        methods=tuple(args.methods.split(",")) if args.methods else SWEEP_METHODS,
        estimators=(tuple(args.estimators.split(","))
                    if args.estimators else SWEEP_ESTIMATORS),
        threshold=args.threshold,
    )
    _reject_unread_threshold(args.threshold, "--estimators", config.estimators)
    rows = run_sweep(config)
    _write_text(args.out, rows_to_csv(rows))
    if args.svg:
        _write_text(args.svg, sweep_svg(rows, config))
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    rows = []
    for name in bounds.LAM_CONSTANTS:
        arg, value = bounds.lam_constant(name)
        print(f"{name}: value={fmt(value)} argmax={fmt(arg)}")
        rows.append((name, fmt(value), fmt(arg)))
    _write_text(args.out, _csv(rows, ("name", "value", "argmax")))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    failed = 0
    for name, ok, detail in checks.selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: parse_args leaves no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxlb",
        description="Minimax lower bounds, least-favorable priors, and exact "
                    "estimator risks for max(theta, 0) estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kepler", help="solve the Kepler least-favorable geometry")
    p.add_argument("--a", action="append", help="mass constraint in [0,1]; repeatable")
    p.add_argument("--grid", help="number of a values on [0,1]")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="optional SVG output path")
    p.set_defaults(func=cmd_kepler)

    # no prefix matching: a stray --a would otherwise be read as --alpha
    p = sub.add_parser("bound", help="evaluate one lower bound", allow_abbrev=False)
    p.add_argument("--method", required=True,
                   choices=tuple(_BOUND_READS))
    p.add_argument("--family", default=_BOUND_DEFAULTS["family"], choices=tuple(_FAMILIES))
    p.add_argument("--sigma", type=float, default=_BOUND_DEFAULTS["sigma"])
    p.add_argument("--prior", help="prior spec, e.g. cosine:0:1 or gaussian:0:1")
    p.add_argument("--functional", default=_BOUND_DEFAULTS["functional"],
                   choices=tuple(_FUNCTIONALS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", type=float, default=_BOUND_DEFAULTS["delta"])
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--xi1", type=float)
    p.add_argument("--xi2", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("risk", help="local minimax risk of a reference estimator")
    p.add_argument("--estimator", required=True, choices=SWEEP_ESTIMATORS)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("sweep", help="sweep a parameter grid to CSV/SVG")
    p.add_argument("--mode", default="delta", choices=("delta", "n"))
    p.add_argument("--n", default="100",
                   help="sample size or comma list (e.g. 10,100)")
    p.add_argument("--delta", dest="delta_grid", default=DEFAULT_DELTA_GRID,
                   help="delta grid: 'log:lo:hi:count' or comma list")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--methods", help="comma subset of " + ",".join(SWEEP_METHODS))
    p.add_argument("--estimators", help="comma subset of " + ",".join(SWEEP_ESTIMATORS))
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--svg", help="optional SVG output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="the three scalar asymptotic constants")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except numerics.ToleranceNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
