"""Seeded workloads of the benchmark and the correctness check of every item.

An item is one closed-loop request: a CLI argv issued through
``minimaxlb.cli.main`` in process, or one call of names exported by
``minimaxlb``.  ``run`` returns the item's output text; ``check`` returns the
problems found in that text (empty when the output is correct).

Seed 0 is the canonical grid of each workload; any other seed draws the same
number of points from the same ranges (log-uniformly for n, delta and h,
uniformly for the Kepler mass a).
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
import warnings
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

SWEEP_COLUMNS = ("delta", "n", "bound_vt", "bound_diffeo", "bound_twopoint",
                 "risk_constant", "risk_plugin", "risk_pretest")
DOMINANCE_SLACK = 1e-9      # the acceptance suite's -1e-9 margin
ORACLE_GAP = 1e-6           # decomposition identity vs 2-D grid oracle
KEPLER_RESIDUAL = 1e-12
CLOSED_FORM_RTOL = 1e-7     # chi2 and van Trees items vs their closed forms


@dataclass(frozen=True)
class Item:
    key: Tuple[str, ...]            # argv, or a description of an API call
    run: Callable[[], str]
    check: Callable[[str], List[str]]


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _plugin_risk(m: float) -> float:
    """n-scaled risk of max(mean, 0) at sqrt(n) theta = m (the sup over [0, delta))."""
    return _normal_cdf(m) - m * _normal_pdf(m) + m * m * _normal_cdf(-m)


# ---------------------------------------------------------------------------
# running items

def run_cli(argv: Sequence[str]) -> str:
    import minimaxlb.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = minimaxlb.cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects the argv
            rc = exc.code
    text = f"rc={rc}\n{out.getvalue()}"
    return text + (f"stderr:\n{err.getvalue()}" if err.getvalue() else "")


def _split_rc(text: str) -> Tuple[str, str]:
    first, _, rest = text.partition("\n")
    return first, rest.split("stderr:\n", 1)[0]


def _csv_rows(body: str) -> Tuple[List[str], List[List[str]]]:
    lines = [ln for ln in body.splitlines() if "," in ln]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _key_values(body: str) -> dict:
    return dict(ln.split("=", 1) for ln in body.splitlines()
                if re.fullmatch(r"[a-z0-9_]+=.*", ln))


# ---------------------------------------------------------------------------
# checks

def check_sweep_row(n: int, delta: float, methods: Sequence[str]):
    def check(text: str) -> List[str]:
        rc, body = _split_rc(text)
        if rc != "rc=0":
            return [f"sweep exited with {rc}"]
        header, rows = _csv_rows(body)
        if tuple(header) != SWEEP_COLUMNS or len(rows) != 1:
            return ["sweep CSV is not one row under the frozen header"]
        cells = dict(zip(header, rows[0]))
        problems = []
        if float(cells["delta"]) != delta or cells["n"] != str(n):
            problems.append("row does not echo its (delta, n)")
        bounds, risks = [], []
        for col in SWEEP_COLUMNS[2:]:
            kind, name = col.split("_", 1)
            wanted = name in methods if kind == "bound" else True
            if (cells[col] != "") != wanted:
                problems.append(f"column {col} is {'missing' if wanted else 'unexpected'}")
                continue
            if not wanted:
                continue
            v = float(cells[col])
            if not (math.isfinite(v) and v >= 0.0):
                problems.append(f"{col}={cells[col]} is not a finite non-negative value")
            (bounds if kind == "bound" else risks).append(v)
        if problems:
            return problems
        if max(bounds) > 1.0 + DOMINANCE_SLACK:
            problems.append(f"a bound exceeds the sigma^2 = 1 ceiling: {max(bounds)!r}")
        if max(bounds) > min(risks) + DOMINANCE_SLACK:
            problems.append(f"bound {max(bounds)!r} above risk {min(risks)!r}")
        return problems
    return check


def check_kepler_table(text: str) -> List[str]:
    rc, body = _split_rc(text)
    if rc != "rc=0":
        return [f"kepler exited with {rc}"]
    header, rows = _csv_rows(body)
    if header != ["a", "y_a", "w_a", "min_fisher"] or not rows:
        return ["kepler CSV has an unexpected header"]
    problems = []
    for a, y, w, fisher in ((float(c) for c in row) for row in rows):
        residual = abs(y + math.sin(math.pi * y) / math.pi - (2.0 * a - 1.0))
        if residual > KEPLER_RESIDUAL:
            problems.append(f"Kepler residual {residual:.2e} at a={a!r}")
        if abs(fisher - 4.0 * math.pi ** 2 / (w * w)) > 1e-12 * fisher:
            problems.append(f"min_fisher != 4 pi^2 / w_a^2 at a={a!r}")
    return problems


def _bound_value(text: str, method: str) -> Tuple[float, List[str]]:
    rc, body = _split_rc(text)
    if rc != "rc=0":
        return math.nan, [f"bound exited with {rc}"]
    fields = _key_values(body)
    if fields.get("method") != method or "value" not in fields:
        return math.nan, [f"bound output lacks method={method} and value="]
    v = float(fields["value"])
    if not (math.isfinite(v) and v >= 0.0):
        return v, [f"bound value {v!r} is not finite and non-negative"]
    return v, []


def check_hellinger_sup(n: int, compact: bool):
    """The n-scaled Bayes-risk bound cannot exceed the plug-in estimator's
    sup risk over the prior's support: [-1, 1] for the compact priors, the
    whole line (sup risk 1) for the Gaussian prior."""
    ceiling = _plugin_risk(math.sqrt(n)) if compact else 1.0

    def check(text: str) -> List[str]:
        v, problems = _bound_value(text, "hellinger-mixture")
        if not problems and v > ceiling + DOMINANCE_SLACK:
            problems.append(f"Hellinger bound {v!r} above plug-in risk {ceiling!r}")
        return problems
    return check


def check_chi2_gaussian(h: float, n: int):
    """Gaussian prior N(0,1), Gaussian family: chi^2(Mh||M0) = exp(h^2 (1+n)) - 1
    (the joint law is Gaussian and the shift moves theta only, whose
    conditional precision is 1 + n), and int dpsi dQ = phi(0) - E(theta-h)_+."""
    num = _normal_pdf(0.0) - (_normal_pdf(h) - h * _normal_cdf(-h))
    exact = n * num * num / math.expm1(h * h * (1.0 + n))

    def check(text: str) -> List[str]:
        v, problems = _bound_value(text, "chi2-mixture")
        if not problems and abs(v - exact) > CLOSED_FORM_RTOL * exact:
            problems.append(f"chi2 bound {v!r} != closed form {exact!r}")
        return problems
    return check


def _kepler_width(a: float) -> float:
    """Support width 2/(|y_a| + 1), y_a solving y + sin(pi y)/pi = 2a - 1."""
    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid + math.sin(math.pi * mid) / math.pi < 2.0 * a - 1.0:
            lo = mid
        else:
            hi = mid
    return 2.0 / (abs(0.5 * (lo + hi)) + 1.0)


def check_van_trees(prior: str, n: int):
    """n (prior mass on theta > 0)^2 / (I(Q) + n) for the maxzero functional:
    mass 1/2 with information pi^2 (cosine) or 1 (Gaussian), and mass a
    with information 4 pi^2 / w_a^2 for the Kepler prior."""
    kind, *args = prior.split(":")
    if kind == "kepler":
        mass, info = float(args[0]), 4.0 * math.pi ** 2 / _kepler_width(float(args[0])) ** 2
    else:
        mass, info = 0.5, {"cosine": math.pi ** 2, "gaussian": 1.0}[kind]
    exact = n * mass * mass / (info + n)

    def check(text: str) -> List[str]:
        v, problems = _bound_value(text, "van-trees")
        if not problems and abs(v - exact) > CLOSED_FORM_RTOL * exact:
            problems.append(f"van Trees value {v!r} != closed form {exact!r}")
        return problems
    return check


def check_oracle(text: str) -> List[str]:
    fields = _key_values(text)
    problems = [ln for ln in text.splitlines() if ln.startswith("warning=")]
    gap = abs(float(fields["decomposition"]) - float(fields["oracle"]))
    if gap > ORACLE_GAP:
        problems.append(f"decomposition vs oracle gap {gap:.2e}")
    return problems


# ---------------------------------------------------------------------------
# the decomposition-oracle item (n = 1), issued through exported names

def _support(prior) -> Tuple[float, float]:
    import minimaxlb
    if isinstance(prior, minimaxlb.GaussianPrior):
        return prior.mu - 12.0 * prior.sigma, prior.mu + 12.0 * prior.sigma
    if isinstance(prior, minimaxlb.Cosine):
        return prior.center - prior.halfwidth, prior.center + prior.halfwidth
    sol = prior.solution
    return (prior.center + prior.scale * sol.s_minus,
            prior.center + prior.scale * sol.s_plus)


def run_oracle(sigma: float, prior_spec: str, h: float) -> str:
    """H^2 of the shifted joint mixtures by the decomposition identity and by
    the brute-force 2001 x 2001 trapezoid grid covering the prior, its
    shift and 8 family sigmas."""
    import minimaxlb
    family = minimaxlb.GaussianLocation(sigma)
    kind, *args = prior_spec.split(":")
    prior = {"gaussian": lambda: minimaxlb.GaussianPrior(*map(float, args)),
             "cosine": lambda: minimaxlb.Cosine(*map(float, args)),
             "kepler": lambda: minimaxlb.KeplerCosine.for_constraint(float(args[0])),
             }[kind]()
    lo, hi = _support(prior)
    t_lo, t_hi = min(lo, lo - h), max(hi, hi - h)
    grid = minimaxlb.GridSpec(t_lo, t_hi, t_lo - 8.0 * sigma, t_hi + 8.0 * sigma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = minimaxlb.mixture_hellinger_sq(minimaxlb.MixtureSpec(family, 1, prior, h))
        oracle = minimaxlb.mixture_hellinger_oracle(family, prior, h, grid)
    lines = [f"decomposition={path!r}", f"oracle={oracle!r}"]
    lines += [f"warning={w.category.__name__}: {w.message}" for w in caught]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workload construction

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return min(max(int(round(_log_uniform(rng, lo, hi))), lo), hi)


def _cli_item(argv: Sequence[str], check) -> Item:
    argv = list(argv)
    return Item(tuple(argv), lambda: run_cli(argv), check)


def _sweep_item(n: int, delta: float, methods: Sequence[str] = ("vt", "diffeo", "twopoint")
                ) -> Item:
    argv = ["sweep", "--n", str(n), "--delta", repr(float(delta))]
    if tuple(methods) != ("vt", "diffeo", "twopoint"):
        argv[1:1] = ["--methods", ",".join(methods)]
    return _cli_item(argv, check_sweep_row(n, delta, methods))


def figure_sweep(seed: int) -> List[Item]:
    """The default figure: n in {10, 100} x 50 log-spaced delta in [1e-2, 1e2]."""
    if seed == 0:
        points = [(n, float(d)) for n in (10, 100) for d in np.geomspace(1e-2, 1e2, 50)]
    else:
        rng = random.Random(seed)
        points = [(_log_uniform_int(rng, 10, 100), _log_uniform(rng, 1e-2, 1e2))
                  for _ in range(100)]
    return [_sweep_item(n, d) for n, d in points]


def closed_form_grid(seed: int) -> List[Item]:
    """vt and two-point bounds with every estimator risk over n in {1, ..., 1e6}
    x 25 log-spaced delta in [1e-3, 1e3], then a 101-point Kepler table."""
    if seed == 0:
        points = [(10 ** k, float(d)) for k in range(7) for d in np.geomspace(1e-3, 1e3, 25)]
        kepler = ["kepler", "--grid", "101"]
    else:
        rng = random.Random(seed)
        points = [(_log_uniform_int(rng, 1, 10 ** 6), _log_uniform(rng, 1e-3, 1e3))
                  for _ in range(7 * 25)]
        kepler = ["kepler"]
        for _ in range(101):
            kepler += ["--a", repr(rng.uniform(0.0, 1.0))]
    items = [_sweep_item(n, d, ("vt", "twopoint")) for n, d in points]
    return items + [_cli_item(kepler, check_kepler_table)]


MIXTURE_PRIORS = (("cosine:0:1", True), ("gaussian:0:1", False), ("kepler:0.75", True))
ORACLE_CASES = ((1.0, "gaussian:0:1", 0.1), (1.0, "cosine:0:1", 0.3),
                (0.5, "kepler:0.75", 0.2))   # the selftest's three cases


def mixture_bounds(seed: int) -> List[Item]:
    """van Trees for the three priors at the larger n; chi2 (lambda = 0) with
    a Gaussian prior at h in {0.01, 0.1, 1}; Hellinger sups for the three
    priors x n in {1, 100}; the n = 1 decomposition oracle for the
    selftest's three cases.

    Fifteen items, six cheap ones below three oracles below six sups, so the
    median latency falls on an oracle item, not between two groups."""
    if seed == 0:
        ns, hs = (1, 100), (0.01, 0.1, 1.0)
        oracle_cases = ORACLE_CASES
    else:
        rng = random.Random(seed)
        ns = tuple(_log_uniform_int(rng, 1, 100) for _ in range(2))
        hs = tuple(_log_uniform(rng, 0.01, 1.0) for _ in range(3))
        oracle_cases = tuple((s, p, _log_uniform(rng, 0.1, 0.3)) for s, p, _ in ORACLE_CASES)
    items = [_cli_item(["bound", "--method", "vantrees", "--prior", prior,
                        "--n", str(ns[-1])], check_van_trees(prior, ns[-1]))
             for prior, _ in MIXTURE_PRIORS]
    items += [_cli_item(["bound", "--method", "chi2", "--prior", "gaussian:0:1",
                         "--h", repr(h), "--lambda", "0"], check_chi2_gaussian(h, 1))
              for h in hs]
    items += [_cli_item(["bound", "--method", "hellinger", "--prior", prior, "--n", str(n)],
                        check_hellinger_sup(n, compact))
              for prior, compact in MIXTURE_PRIORS for n in ns]
    for sigma, prior, h in oracle_cases:
        items.append(Item(("oracle", f"sigma={sigma!r}", prior, f"h={h!r}"),
                          lambda s=sigma, p=prior, hh=h: run_oracle(s, p, hh),
                          check_oracle))
    return items


BUILDERS = {"figure_sweep": figure_sweep, "mixture_bounds": mixture_bounds,
            "closed_form_grid": closed_form_grid}


def build(workload: str, seed: int) -> List[Item]:
    return BUILDERS[workload](seed)
