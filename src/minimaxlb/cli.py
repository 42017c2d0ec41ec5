"""Command-line interface: parses arguments, calls the library (the sweep is
``minimaxlb.sweep``, the selftest checks are ``minimaxlb.checks``) and renders
its results as text, CSV and self-contained SVG figures. Each ``cmd_*`` returns
its exit code and outputs; ``main`` writes them once, through ``_write_outputs``.

Output determinism: identical invocations produce byte-identical CSV and SVG
(shortest round-trip float formatting, no timestamps, fixed palettes). SVG
is written directly as polyline plots to keep the artifact dependency-free.

Exit codes: 0 success, 2 validation error (an unwritable output too), 3
numerical-tolerance failure. On 2 or 3 stdout is empty and no file holds
output, but ``selftest`` prints its report when a check fails (exit 3).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from collections import namedtuple
from typing import Dict, List, Optional, Sequence, Tuple

from . import bounds, checks, estimators, models, numerics, priors
from .numerics import np
from .sweep import RISKS, SWEEP_ESTIMATORS, SWEEP_METHODS, SweepConfig, run_sweep

CSV_COLUMNS = ("delta", "n", "bound_vt", "bound_diffeo", "bound_twopoint",
               "risk_constant", "risk_plugin", "risk_pretest")
Outputs = List[Tuple[Optional[str], str]]  # (path, text); a path of None or "-" is stdout


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _write_outputs(outputs: Outputs) -> None:
    """Opens every file, writes every file, then stdout. One file named twice, or a failed
    open, write or close, is a ValueError naming the path (or stdout), with no output written
    to any file; a failed stdout is pointed at the null device, so exit flushes nothing."""
    files, opened = [(path, text) for path, text in outputs if path not in (None, "-")], []
    try:
        if files:  # most calls write stdout alone: that path costs no more than a print
            if len({os.path.realpath(path) for path, _ in files}) < len(files):
                names = " and ".join(path for path, _ in files)
                raise ValueError(f"cannot write two outputs to one file: {names}")
            for path, _ in files:
                opened.append(open(path, "wb"))
            for fh, (path, text) in zip(opened, files):
                with fh:  # closing flushes, so a full device fails here
                    fh.write(text.encode("utf-8"))
        path = "stdout"
        sys.stdout.write("".join([text for where, text in outputs if where in (None, "-")]))
        sys.stdout.flush()
    except OSError as exc:
        for fh, (done, _) in zip(opened, files):
            with contextlib.suppress(OSError):
                fh.close()
                open(done, "wb").close()  # no file keeps a part of the output
        if path == "stdout":
            with contextlib.suppress(OSError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


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
        if not (0 < lo < hi < math.inf and count >= 2):
            raise ValueError("log grid needs 0 < lo < hi < inf and count >= 2")
        return tuple(float(x) for x in np.geomspace(lo, hi, count))
    return tuple(float(x) for x in spec.split(","))


DEFAULT_DELTA_GRID = "log:1e-2:1e2:50"


# ---------------------------------------------------------------------------
# CSV rendering of sweep rows

def rows_to_csv(rows: Sequence[Dict[str, float]]) -> str:
    """n as an integer; a column the sweep did not compute is left empty."""
    body = [[str(int(row["n"])) if col == "n" else fmt(row[col]) if col in row else ""
             for col in CSV_COLUMNS] for row in rows]
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
    if x_hi <= x_lo:  # one grid point (delta, n > 0): the decade to its left
        x_lo = x_hi / 10.0
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
    columns = ([("bound_" + m, True) for m in config.methods]
               + [("risk_" + e, False) for e in config.estimators])
    for g in groups:
        sub = [r for r in rows if r[group_key] == g]
        sub.sort(key=lambda r: r[x_key])
        for col, dashed in columns:
            label = f"{col} ({group_key}={g:g})" if len(groups) > 1 else col
            series.append(Series(
                label=label,
                xs=tuple(r[x_key] for r in sub),
                ys=tuple(r[col] for r in sub),
                dashed=dashed,
                color=_PALETTE[len(series) % len(_PALETTE)]))
    return render_loglog_svg(series, x_key, "n-scaled local minimax risk: "
                                            "bounds (dashed) vs estimators (solid)")


def kepler_grid(points: int) -> List[float]:
    """np.linspace(0.0, 1.0, points) as floats, bit for bit, without numpy."""
    step = 1.0 / (points - 1)
    return [k * step for k in range(points - 1)] + [1.0]


def kepler_svg(a_values: Sequence[float]) -> str:
    """Two-panel figure: constrained prior densities and min Fisher info vs a."""
    width, height = 880, 420
    out = _svg_header(width, height)
    ml, mt, pw, ph = 60, 50, 340, 300
    ts = np.linspace(-1.0, 1.0, 401)
    dens = {a: priors.KeplerCosine.for_constraint(a).density(ts) for a in a_values}
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
    a_grid = kepler_grid(101)
    fisher = [priors.solve_kepler(a).min_fisher for a in a_grid]
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

def cmd_kepler(args: argparse.Namespace) -> Tuple[int, Outputs]:
    if args.a and args.grid is not None:
        raise ValueError("kepler --a does not read --grid")
    grid = 101 if args.grid is None else args.grid
    if not args.a and grid < 2:
        raise ValueError("kepler grid needs at least 2 points")
    a_values = args.a or kepler_grid(grid)
    rows = []
    for a in a_values:
        sol = priors.solve_kepler(a)
        rows.append((fmt(a), fmt(sol.y_a), fmt(sol.w_a), fmt(sol.min_fisher)))
    outputs = [(args.out, _csv(rows, ("a", "y_a", "w_a", "min_fisher")))]
    if args.svg:
        outputs.append((args.svg, kepler_svg(args.a or [0.5, 0.75, 1.0])))
    return 0, outputs


# the name each method of bounds.BOUND_METHODS prints
_BOUND_NAMES = {"vt": "vt-kepler", "diffeo": "diffeo", "twopoint": "twopoint",
                "hellinger": "hellinger-mixture", "chi2": "chi2-mixture", "vantrees": "van-trees"}
# the options of `bound` with their defaults: setting one its method does not read is rejected
_BOUND_DEFAULTS = {"family": "gaussian", "sigma": 1.0, "prior": None,
                   "functional": "maxzero", "alpha": None, "delta": 1.0,
                   "lam": None, "h": None, "xi1": None, "xi2": None,
                   "theta1": None, "theta2": None}


def cmd_bound(args: argparse.Namespace) -> Tuple[int, Outputs]:
    entry = bounds.BOUND_METHODS[args.method]
    reads = entry.args + entry.reads
    unread_because = {dest: why for dest, why, unread in (
        ("sigma", "with --family uniform", args.family != "gaussian"),
        ("alpha", "without --functional powermax", args.functional != "powermax"),
        ("delta", "with --prior", bool(args.prior))) if unread}
    for dest, default in _BOUND_DEFAULTS.items():
        if getattr(args, dest) != default and (dest not in reads or dest in unread_because):
            flag = "--lambda" if dest == "lam" else "--" + dest
            why = f" {unread_because[dest]}" if dest in reads else ""
            raise ValueError(f"--method {args.method} does not read {flag}{why}")
    if args.functional == "powermax" and args.alpha is None:
        raise ValueError("powermax requires --alpha")
    result = bounds.evaluate_bound(
        args.method, args.n, family=_FAMILIES[args.family](args.sigma),
        functional=_FUNCTIONALS[args.functional](args.alpha),
        prior=parse_prior(args.prior) if args.prior else None, delta=args.delta, h=args.h,
        lam=args.lam, xi1=args.xi1, xi2=args.xi2, theta1=args.theta1, theta2=args.theta2)
    lines = [f"method={_BOUND_NAMES[args.method]}", f"value={fmt(result.value)}"]
    lines += [f"{k}={fmt(v)}" for k, v in sorted(result.argmax.items())]
    lines += [f"note={note}" for note in result.notes]
    row = (fmt(args.delta), str(args.n), args.method, fmt(result.value))
    return 0, [(None, "\n".join(lines) + "\n"),
               (args.out, _csv([row], ("delta", "n", "method", "value")))]


def _reject_unread_threshold(threshold: Optional[float], flag: str,
                             names: Sequence[str]) -> None:
    if threshold is not None and "pretest" not in names:
        raise ValueError(f"{flag} {','.join(names)} does not read --threshold")


def cmd_risk(args: argparse.Namespace) -> Tuple[int, Outputs]:
    _reject_unread_threshold(args.threshold, "--estimator", (args.estimator,))
    estimator = RISKS[args.estimator](args.threshold)
    value = estimators.local_minimax_risk(estimator, args.delta, args.n)
    row = (fmt(args.delta), str(args.n), args.estimator, fmt(value))
    return 0, [(None, f"value={fmt(value)}\n"),
               (args.out, _csv([row], ("delta", "n", "estimator", "value")))]


def cmd_sweep(args: argparse.Namespace) -> Tuple[int, Outputs]:
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
    outputs = [(args.out, rows_to_csv(rows))]
    if args.svg:
        outputs.append((args.svg, sweep_svg(rows, config)))
    return 0, outputs


def cmd_constants(args: argparse.Namespace) -> Tuple[int, Outputs]:
    rows, report = [], []
    for name in bounds.LAM_CONSTANTS:
        arg, value = bounds.lam_constant(name)
        report.append(f"{name}: value={fmt(value)} argmax={fmt(arg)}\n")
        rows.append((name, fmt(value), fmt(arg)))
    return 0, [(None, "".join(report)), (args.out, _csv(rows, ("name", "value", "argmax")))]


def cmd_selftest(args: argparse.Namespace) -> Tuple[int, Outputs]:
    results = checks.selftest_checks()
    report = "".join(f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n"
                     for name, ok, detail in results)
    return (0 if all(ok for _, ok, _ in results) else 3), [(None, report)]


# ---------------------------------------------------------------------------

@functools.cache  # one parser per process: parse_args leaves no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxlb",
        description="Minimax lower bounds, least-favorable priors, and exact "
                    "estimator risks for max(theta, 0) estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kepler", help="solve the Kepler least-favorable geometry")
    p.add_argument("--a", action="append", type=float,
                   help="mass constraint in [0,1]; repeatable")
    p.add_argument("--grid", type=int, help="number of a values on [0,1] (default 101)")
    p.set_defaults(func=cmd_kepler)

    # no prefix matching: a stray --a would otherwise be read as --alpha
    p = sub.add_parser("bound", help="evaluate one lower bound", allow_abbrev=False)
    p.add_argument("--method", required=True, choices=tuple(bounds.BOUND_METHODS))
    p.add_argument("--family", choices=tuple(_FAMILIES))
    p.add_argument("--sigma", type=float)
    p.add_argument("--prior", help="prior spec, e.g. cosine:0:1 or gaussian:0:1")
    p.add_argument("--functional", choices=tuple(_FUNCTIONALS))
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--delta", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--xi1", type=float)
    p.add_argument("--xi2", type=float)
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.set_defaults(func=cmd_bound, **_BOUND_DEFAULTS)

    p = sub.add_parser("risk", help="local minimax risk of a reference estimator")
    p.add_argument("--estimator", required=True, choices=SWEEP_ESTIMATORS)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_risk)

    p = sub.add_parser("sweep", help="sweep a parameter grid to CSV/SVG")
    p.add_argument("--mode", default="delta", choices=("delta", "n"))
    p.add_argument("--n", default="100", help="sample size or comma list (e.g. 10,100)")
    p.add_argument("--delta", dest="delta_grid", default=DEFAULT_DELTA_GRID,
                   help="delta grid: 'log:lo:hi:count' or comma list")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--methods", help="comma subset of " + ",".join(SWEEP_METHODS))
    p.add_argument("--estimators", help="comma subset of " + ",".join(SWEEP_ESTIMATORS))
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("constants", help="the three scalar asymptotic constants")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(func=cmd_selftest)
    for name, p in sub.choices.items():  # the outputs each command returns
        if name != "selftest":
            p.add_argument("--out", help="CSV output path (default stdout)")
        if name in ("kepler", "sweep"):
            p.add_argument("--svg", help="optional SVG output path")
    parser.commands = sub.choices  # name -> the command's own parser
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one parse: an argv whose first word names a
    command goes straight to that command's parser, any other through the top-level one."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code, outputs = args.func(args)
        _write_outputs(outputs)
        return code
    except numerics.ToleranceNotMet as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
