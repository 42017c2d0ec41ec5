import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings

from minimaxlb import bounds, cli, mixtures, priors
from minimaxlb.bounds import Identity, MaxZero, PowerMax, evaluate_bound
from minimaxlb.cli import CSV_COLUMNS, kepler_svg, main, parse_grid, parse_prior, rows_to_csv
from minimaxlb.mixtures import mixture_chi_sq
from minimaxlb.models import GaussianLocation, UniformScale
from minimaxlb.priors import Cosine, GaussianPrior, KeplerCosine, UniformPrior
from minimaxlb.sweep import SweepConfig, run_sweep
from test_cli_fuzz import ARGVS
from test_reach import CLI_CORPUS

GAUSS = GaussianLocation(1.0)
PI2 = math.pi**2


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_parse_prior():
    assert parse_prior("cosine:0:1") == Cosine(0.0, 1.0)
    assert parse_prior("gaussian:1:2") == GaussianPrior(1.0, 2.0)
    assert parse_prior("uniform:-1:1") == UniformPrior(-1.0, 1.0)
    kc = parse_prior("kepler:0.75")
    assert isinstance(kc, KeplerCosine)
    # mass 0.75 above the center 0, by the cos^2 CDF (u + 1)/2 + sin(pi u)/(2 pi)
    u = (0.0 - kc.center) / kc.halfwidth
    assert 1.0 - ((u + 1.0) / 2.0 + math.sin(math.pi * u) / (2.0 * math.pi)) == \
        pytest.approx(0.75, abs=1e-13)
    with pytest.raises(ValueError):
        parse_prior("spike:0")


def test_parse_grid():
    grid = parse_grid("log:1e-2:1e2:5")
    assert len(grid) == 5
    assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e2)
    assert parse_grid("0.5,1,2") == (0.5, 1.0, 2.0)


def test_kepler_command(tmp_path, capsys):
    out = tmp_path / "kepler.csv"
    assert main(["kepler", "--a", "0.5", "--a", "1.0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,y_a,w_a,min_fisher"
    row = lines[1].split(",")
    assert [float(x) for x in row[:3]] == [0.5, 0.0, 2.0]
    assert float(row[3]) == pytest.approx(PI2, abs=1e-12)
    row = lines[2].split(",")
    assert [float(x) for x in row[:3]] == [1.0, 1.0, 1.0]
    assert float(row[3]) == pytest.approx(4.0 * PI2, abs=1e-12)


def test_kepler_grid_monotone(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["kepler", "--grid", "101", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 101
    by_gap = sorted((abs(2.0 * float(r[0]) - 1.0), float(r[3])) for r in rows)
    fishers = [f for _, f in by_gap]
    assert all(b >= a - 1e-9 for a, b in zip(fishers, fishers[1:]))


def test_kepler_grid_is_linspace_bit_for_bit():
    # the a-grid of kepler --grid is built in floats, so the command starts without numpy
    import numpy as np
    for points in [*range(2, 2001), 4097, 10_001, 65_537, 1_000_001]:
        assert cli.kepler_grid(points) == np.linspace(0.0, 1.0, points).tolist(), points


def test_kepler_rejects_a_grid_it_does_not_read(tmp_path, capsys):
    # the table of the given masses does not read --grid; the default grid is 101 a
    out = tmp_path / "k.csv"
    for argv in (["--a", "0.5", "--grid", "3"], ["--grid", "3", "--a", "0.5"]):
        assert main(["kepler", *argv, "--out", str(out)]) == 2
        assert "kepler --a does not read --grid" in capsys.readouterr().err
        assert not out.exists()
    assert main(["kepler", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 101


def test_kepler_svg(tmp_path):
    svg = tmp_path / "kepler.svg"
    out = tmp_path / "k.csv"
    assert main(["kepler", "--a", "0.75", "--out", str(out), "--svg", str(svg)]) == 0
    content = svg.read_text()
    assert content.startswith("<?xml")
    assert "polyline" in content


def test_kepler_svg_solves_once_per_curve(monkeypatch):
    solved = []
    solve = priors.solve_kepler
    monkeypatch.setattr(priors, "solve_kepler", lambda a: solved.append(a) or solve(a))
    kepler_svg([0.5, 0.75, 1.0])
    assert len(solved) == 3 + 101  # one prior per curve, one solve per Fisher point


def test_bound_command_vt(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["bound", "--method", "vt", "--delta", "1", "--n", "100",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    value = float([l for l in printed.splitlines() if l.startswith("value=")][0][6:])
    assert value == pytest.approx(0.749, abs=5e-3)
    assert out.read_text().splitlines()[0] == "delta,n,method,value"


def test_bound_command_twopoint_equal_points(tmp_path, capsys):
    code = main(["bound", "--method", "twopoint", "--theta1", "0.3",
                 "--theta2", "0.3", "--n", "5", "--out", str(tmp_path / "t.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "value=0.0" in printed


def test_bound_command_chi2_divergent_note(tmp_path, capsys):
    code = main(["bound", "--method", "chi2", "--family", "uniform",
                 "--prior", "cosine:2:0.5", "--h", "0.1", "--n", "1",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "value=0.0" in printed
    assert "divergent denominator" in printed


def test_bound_command_diffeo_fixed_point(tmp_path, capsys):
    code = main(["bound", "--method", "diffeo", "--delta", "1", "--n", "100",
                 "--xi1", "0", "--xi2", "1", "--out", str(tmp_path / "d.csv")])
    assert code == 0
    printed = capsys.readouterr().out
    value = float([l for l in printed.splitlines() if l.startswith("value=")][0][6:])
    assert value == pytest.approx(0.2048489, abs=1e-6)


def test_risk_command(tmp_path, capsys):
    assert main(["risk", "--estimator", "constant", "--delta", "2", "--n", "1",
                 "--out", str(tmp_path / "r.csv")]) == 0
    assert "value=1.0" in capsys.readouterr().out
    assert main(["risk", "--estimator", "plugin", "--delta", "1e-9", "--n", "100",
                 "--out", str(tmp_path / "r2.csv")]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) == pytest.approx(0.5, abs=1e-6)


def test_pretest_risk_at_the_largest_n(capsys):
    # the risk bump, about sqrt(n) = 1e154 high, is refined in m = sqrt(n) theta;
    # its derivatives in theta would carry n^(3/2) and overflow
    assert main(["risk", "--estimator", "pretest", "--delta", "1", "--n", str(10**308)]) == 0
    printed = capsys.readouterr()
    assert "Traceback" not in printed.err
    assert float(printed.out.splitlines()[0].split("=")[1]) == pytest.approx(1e154, rel=1e-12)


def _run(argv):
    try:
        rc = main(argv)
    except SystemExit as exc:   # argparse rejects the argv
        rc = exc.code
    return rc


@pytest.mark.parametrize("first,second,codes", [
    (["kepler", "--a", "0.3"], ["kepler", "--grid", "3"], (0, 0)),
    (["risk", "--estimator", "pretest", "--delta", "1"],
     ["risk", "--estimator", "pretest", "--delta", "1", "--n", "4"], (2, 0)),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "0.1"],
     ["bound", "--method", "chi2", "--prior", "gaussian:0:1"], (0, 2)),
])
def test_parser_built_once_keeps_no_state(first, second, codes, monkeypatch, capsys):
    # main reuses one parser per process; a call after another prints what it
    # prints with a freshly built parser
    assert cli.build_parser() is cli.build_parser()
    assert _run(first) == codes[0]
    capsys.readouterr()
    reused = _run(second), capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run(second), capsys.readouterr()
    assert reused == fresh and reused[0] == codes[1]


def test_risk_validation_exit_code(tmp_path):
    assert main(["risk", "--estimator", "plugin", "--delta", "-1", "--n", "10",
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_sweep_deterministic_and_schema(tmp_path):
    args = ["sweep", "--n", "10", "--delta", "log:0.1:10:5",
            "--methods", "vt,twopoint", "--estimators", "constant,plugin"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    svg1, svg2 = tmp_path / "s1.svg", tmp_path / "s2.svg"
    assert main(args + ["--out", str(out1), "--svg", str(svg1)]) == 0
    assert main(args + ["--out", str(out2), "--svg", str(svg2)]) == 0
    assert read(out1) == read(out2)
    assert read(svg1) == read(svg2)
    lines = out1.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 6
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[3] == ""   # bound_diffeo not requested: empty, column kept
    assert cells[7] == ""   # risk_pretest not requested
    assert float(cells[2]) >= 0.0
    assert b"\r" not in read(out1)
    assert svg1.read_text().startswith("<?xml")


def test_sweep_svg_of_one_grid_point(tmp_path):
    # one delta and one n: the x-axis spans the decade left of the point, where its
    # width log10(x_hi) - log10(x_lo) = 0 divided the pixel scale
    svg = tmp_path / "one.svg"
    assert main(["sweep", "--n", "10", "--delta", "1", "--out", str(tmp_path / "one.csv"),
                 "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 6 and "nan" not in text and ">1e0</text>" in text


def test_sweep_vary_n_mode(tmp_path):
    out = tmp_path / "n.csv"
    assert main(["sweep", "--mode", "n", "--n", "10,100", "--delta", "1.0",
                 "--methods", "vt", "--estimators", "constant",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert [row.split(",")[1] for row in lines[1:]] == ["10", "100"]
    # n-scaled vt bound grows with n at fixed delta
    assert float(lines[2].split(",")[2]) > float(lines[1].split(",")[2])


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig("fixed-n-vary-delta", (100, 10), (1.0,))
    with pytest.raises(ValueError):
        SweepConfig("fixed-n-vary-delta", (10,), ())
    with pytest.raises(ValueError):
        SweepConfig("sideways", (10,), (1.0,))
    with pytest.raises(ValueError):
        SweepConfig("fixed-n-vary-delta", (10,), (1.0,), methods=("fano",))
    with pytest.raises(ValueError, match="threshold must be positive and finite"):
        SweepConfig("fixed-n-vary-delta", (10,), (1.0,), threshold=-1e300)
    # a repeated name would draw its series twice
    with pytest.raises(ValueError, match="method 'vt' is given twice"):
        SweepConfig("fixed-n-vary-delta", (10,), (1.0,), methods=("vt", "diffeo", "vt"))
    with pytest.raises(ValueError, match="estimator 'plugin' is given twice"):
        SweepConfig("fixed-n-vary-delta", (10,), (1.0,), estimators=("plugin", "plugin"))


def test_sweep_rows_in_grid_order():
    cfg = SweepConfig("fixed-n-vary-delta", (10, 100), (0.5, 1.0),
                      methods=("vt",), estimators=("constant",))
    rows = run_sweep(cfg)
    assert [(r["n"], r["delta"]) for r in rows] == \
        [(10, 0.5), (10, 1.0), (100, 0.5), (100, 1.0)]
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_sweep_float_cells_roundtrip():
    cfg = SweepConfig("fixed-n-vary-delta", (10,), (0.7,),
                      methods=("vt",), estimators=("constant",))
    rows = run_sweep(cfg)
    line = rows_to_csv(rows).splitlines()[1]
    cells = line.split(",")
    assert float(cells[0]) == 0.7
    assert float(cells[2]) == rows[0]["bound_vt"]  # repr round-trips exactly


def test_constants_command(tmp_path, capsys):
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["constants", "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["constants", "--out", str(out2)]) == 0
    assert read(out1) == read(out2)
    rows = out1.read_text().splitlines()
    assert rows[0] == "name,value,argmax"
    vals = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
    assert vals["regular_twopoint"] == pytest.approx(0.28953, abs=5e-4)
    assert vals["uniform_twopoint"] == pytest.approx(0.0558, abs=5e-4)
    assert vals["uniform_diffeo"] == pytest.approx(0.0635**2, abs=1e-4)
    args = {r.split(",")[0]: float(r.split(",")[2]) for r in rows[1:]}
    assert all(math.isfinite(v) for v in args.values())
    assert "regular_twopoint" in first


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 7
    assert "FAIL" not in printed


def test_selftest_reports_injected_failure(capsys, monkeypatch):
    import minimaxlb.checks as checks

    def broken_checks():
        return [("kepler-residual", False, "tolerance forced to 0")]

    monkeypatch.setattr(checks, "selftest_checks", broken_checks)
    assert main(["selftest"]) == 3
    printed = capsys.readouterr().out
    assert "FAIL kepler-residual" in printed


def test_bound_command_hellinger_and_vantrees(tmp_path, capsys):
    code = main(["bound", "--method", "vantrees", "--functional", "maxzero",
                 "--prior", "cosine:0:1", "--n", "1",
                 "--out", str(tmp_path / "v.csv")])
    assert code == 0
    value = float(capsys.readouterr().out.splitlines()[1].split("=")[1])
    assert value == pytest.approx(0.25 / (PI2 + 1.0), abs=1e-9)
    code = main(["bound", "--method", "hellinger", "--functional", "identity",
                 "--prior", "gaussian:0:1", "--n", "1", "--h", "0.001",
                 "--out", str(tmp_path / "h.csv")])
    assert code == 0
    value = float([l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("value=")][0][6:])
    assert value == pytest.approx(0.5, abs=2e-3)


@pytest.mark.parametrize("n", [1, 7, 10**6])
@pytest.mark.parametrize("options, library", [
    (["--method", "hellinger", "--prior", "gaussian:0:1", "--h", "0.0001"],
     lambda n: bounds.hellinger_mixture_bound(GAUSS, n, GaussianPrior(0.0, 1.0), MaxZero(), 1e-4)),
    (["--method", "chi2", "--prior", "gaussian:0:1", "--h", "0.001", "--lambda", "0"],
     lambda n: bounds.chi2_mixture_bound(GAUSS, n, GaussianPrior(0.0, 1.0), MaxZero(), 1e-3,
                                        0.0).value),
    (["--method", "vantrees", "--prior", "cosine:0:1"],
     lambda n: bounds.van_trees_value(GAUSS, n, Cosine(0.0, 1.0), MaxZero())),
    (["--method", "twopoint", "--theta1", "0", "--theta2", "0.001"],
     lambda n: bounds.two_point_hellinger_bound(GAUSS, n, MaxZero(), 0.0, 0.001)),
], ids=["hellinger", "chi2", "vantrees", "twopoint"])
def test_bound_prints_the_library_value(options, library, n, tmp_path, capsys):
    # every evaluator returns the n-scaled value, and bound prints it unchanged
    value = library(n)
    assert value > 0.0
    assert main(["bound", *options, "--n", str(n), "--out", str(tmp_path / "b.csv")]) == 0
    assert f"\nvalue={value!r}\n" in capsys.readouterr().out


def test_bound_command_validation_exit(tmp_path):
    # lambda > 0 with n > 1 is a documented API restriction
    assert main(["bound", "--method", "chi2", "--prior", "gaussian:0:1",
                 "--h", "0.1", "--lambda", "0.5", "--n", "2",
                 "--out", str(tmp_path / "x.csv")]) == 2


# (argv, exit code, a substring of stdout or stderr): the CLI's input contract
CONTRACT = [
    (["bound", "--method", "vantrees", "--prior", "cosine:0:1:5"], 2,
     "expected cosine[:center[:halfwidth]]"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:0:1:7:8"], 2,
     "expected gaussian[:mu[:sigma]]"),
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75:0:1:9"], 2,
     "expected kepler:a[:center[:scale]]"),
    (["bound", "--method", "vantrees", "--prior", "kepler"], 2,
     "expected kepler:a[:center[:scale]]"),
    (["bound", "--method", "vantrees", "--prior", "cosine"], 0, "method=van-trees"),
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75:0.5:2"], 0,
     "method=van-trees"),
    (["sweep", "--delta", "log:1:2"], 2, "must be written log:lo:hi:count"),
    (["bound", "--method", "vt", "--a", "0.3"], 2, "unrecognized arguments: --a"),
    (["bound", "--method", "vt", "--delta", "1e-300"], 2, "underflows"),
    (["bound", "--method", "diffeo", "--delta", "1e-300"], 2, "underflows"),
    (["sweep", "--n", "10", "--delta", "1e-170"], 2, "underflows"),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "50",
      "--n", "100"], 0, "divergent denominator"),
    (["bound", "--method", "vt", "--family", "uniform", "--functional", "identity",
      "--delta", "1", "--n", "10"], 2, "--method vt does not read --family"),
    (["bound", "--method", "vt", "--family", "gaussian", "--sigma", "1"], 0, "method=vt-kepler"),
    (["bound", "--method", "diffeo", "--sigma", "2"], 2, "--method diffeo does not read --sigma"),
    (["bound", "--method", "twopoint", "--family", "uniform", "--sigma", "2",
      "--theta1", "1", "--theta2", "2"], 2, "does not read --sigma with --family uniform"),
    (["bound", "--method", "vantrees", "--prior", "cosine:0:1", "--delta", "2"], 2,
     "does not read --delta with --prior"),
    (["bound", "--method", "vantrees", "--alpha", "0.5"], 2,
     "does not read --alpha without --functional powermax"),
    (["bound", "--method", "hellinger", "--h", "0.1", "--lambda", "0"], 2,
     "--method hellinger does not read --lambda"),
    (["bound", "--method", "diffeo", "--xi1", "0.5", "--xi2", "20000", "--delta", "0.01",
      "--n", "10"], 2, "xi2=20000.0 lies outside [0.001, 10000]"),
    (["bound", "--method", "diffeo", "--xi1", "-11", "--xi2", "1"], 2, "xi1=-11.0 lies outside"),
    (["bound", "--method", "vt", "--delta", "1e300"], 2, "overflows"),
    (["bound", "--method", "diffeo", "--delta", "1e300"], 2, "overflows"),
    (["sweep", "--n", "10", "--delta", "1,1e200", "--methods", "vt,twopoint"], 2, "overflows"),
    (["risk", "--estimator", "plugin", "--delta", "1e300", "--n", "10"], 0, "value=1.0"),
    (["risk", "--estimator", "constant", "--delta", "1e300", "--n", "10"], 2, "overflows"),
    (["sweep", "--n", "10", "--delta", "1e200", "--methods", "twopoint"], 2, "overflows"),
    (["risk", "--estimator", "plugin", "--delta", "inf", "--n", "10"], 2,
     "delta must be positive and finite, got inf"),
    (["risk", "--estimator", "pretest", "--delta", "inf", "--n", "10"], 2,
     "delta must be positive and finite, got inf"),
    (["risk", "--estimator", "constant", "--delta", "nan", "--n", "10"], 2,
     "delta must be positive and finite, got nan"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:inf:1"], 2, "mu must be finite"),
    (["bound", "--method", "vantrees", "--prior", "cosine:nan:1"], 2, "center must be finite"),
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75:inf"], 2,
     "center must be finite"),
    (["bound", "--method", "hellinger", "--prior", "uniform:-inf:1"], 2,
     "ends must be finite"),
    (["risk", "--estimator", "plugin", "--delta", "1", "--n", "10", "--threshold", "5"], 2,
     "--estimator plugin does not read --threshold"),
    (["sweep", "--estimators", "constant,plugin", "--threshold", "0.5"], 2,
     "--estimators constant,plugin does not read --threshold"),
    (["risk", "--estimator", "pretest", "--delta", "1", "--n", "10", "--threshold", "0.5"], 0,
     "value="),
    (["risk", "--estimator", "pretest", "--delta", "1", "--n", "10", "--threshold", "inf"], 2,
     "threshold must be positive and finite, got inf"),
    (["sweep", "--n", "0", "--delta", "1", "--methods", "twopoint"], 2,
     "n must be a positive integer"),
    (["sweep", "--n", "-5", "--delta", "1", "--methods", "twopoint"], 2,
     "n must be a positive integer"),
    (["sweep", "--n", "10", "--delta", "0", "--methods", "twopoint"], 2,
     "delta must be positive and finite"),
    (["sweep", "--n", "10", "--delta", "1", "--methods", "twopoint", "--estimators", "plugin",
      "--sigma", "1e300"], 2, "sigma=1e+300 is too large: sigma**2 overflows"),
    (["sweep", "--n", "10", "--delta", "1", "--methods", "twopoint", "--sigma", "inf"], 2,
     "sigma must be positive and finite"),
    (["sweep", "--n", "10", "--delta", "1", "--methods", "vt", "--sigma", "1e-200"], 2,
     "sigma=1e-200 is too small: sigma**2 underflows to 0"),
    (["sweep", "--n", "10", "--delta", "1e200", "--methods", "vt", "--sigma", "1e-10"], 2,
     "delta=1e+200, sigma=1e-10 (delta/sigma=1e+210)"),
    (["sweep", "--n", "1000000", "--delta", "1e153", "--methods", "vt", "--estimators",
      "constant", "--sigma", "1e100"], 2, "risk_constant overflows at delta=1e+153, sigma=1e+100"),
    (["bound", "--method", "vantrees", "--delta", "0", "--n", "10"], 2,
     "--delta must be positive and finite"),
    (["bound", "--method", "vantrees", "--delta", "-1", "--n", "10"], 2,
     "--delta must be positive and finite"),
    (["bound", "--method", "hellinger", "--delta", "nan", "--h", "0.1"], 2,
     "--delta must be positive and finite"),
    (["bound", "--method", "vantrees", "--delta", "1e-160", "--n", "10"], 2,
     "--delta=1e-160 is too small: the Fisher information"),
    (["bound", "--method", "vantrees", "--prior", "cosine:0:1e-160"], 2,
     "halfwidth=1e-160 is too small: the Fisher information"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:0:1e-160"], 2,
     "sigma=1e-160 is too small: the Fisher information"),
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75:0:1e-160"], 2,
     "scale=1e-160 is too small: the Fisher information"),
    (["bound", "--method", "vantrees", "--prior", "cosine:0:1e-170"], 2,
     "halfwidth=1e-170 is too small: halfwidth**2 underflows to 0"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:0:1e200"], 2,
     "sigma=1e+200 is too large: sigma**2 overflows"),
    (["bound", "--method", "vt", "--n", str(10**400)], 2, "n is too large: --n"),
    (["bound", "--method", "diffeo", "--n", str(10**400)], 2, "n is too large: --n"),
    (["sweep", "--n", str(10**400), "--delta", "1", "--methods", "twopoint"], 2,
     "n is too large: --n"),
    (["risk", "--estimator", "plugin", "--delta", "1", "--n", str(10**400)], 2,
     "n is too large: --n"),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1e100", "--h", "1e-8", "--lambda", "0"],
     0, "value=0.25"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:0:1"], 0, "value=0.125\n"),
    (["bound", "--method", "vantrees", "--family", "uniform"], 2,
     "divergent Fisher information"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:1e16:1"], 0, "value=0.5\n"),
    (["bound", "--method", "vantrees", "--prior", "gaussian:1e17:1"], 0, "value=0.5\n"),
    (["bound", "--method", "vantrees", "--prior", "cosine:1e16:1"], 0,
     "value=0.0919996683503752"),  # 1/(pi^2 + 1)
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75:1e16"], 0,
     "value=0.059569396202973836"),  # 1/(solve_kepler(0.75).min_fisher + 1)
    (["bound", "--method", "vantrees", "--prior", "gaussian:1e300:1"], 0, "value=0.5\n"),
    (["bound", "--method", "chi2", "--prior", "gaussian:1e300:1", "--h", "0.1"], 0,
     "value=0.495016666555"),  # h^2 / expm1(2 h^2)
    (["bound", "--method", "hellinger", "--prior", "gaussian:1e300:1"], 0,
     "value=0.4998585892686"),  # the identity functional's value at gaussian:0:1 below
    (["bound", "--method", "vantrees", "--prior", "gaussian:1e6:1"], 0, "value=0.5\n"),
    (["bound", "--method", "vt", "--sigma", "1e300"], 2,
     "sigma=1e+300 is too large: sigma**2 overflows"),
    (["bound", "--method", "vt", "--sigma", "1e-300"], 2,
     "sigma=1e-300 is too small: sigma**2 underflows to 0"),
    (["bound", "--method", "vantrees", "--sigma", "1e-300", "--n", "100"], 2,
     "sigma=1e-300 is too small: sigma**2 underflows to 0"),
    (["bound", "--method", "twopoint", "--sigma", "1e-160", "--theta1", "0", "--theta2", "0.5"],
     2, "sigma=1e-160 is too small: the Fisher information 1/sigma**2 overflows"),
    (["sweep", "--n", "173,701", "--delta", "1.06", "--methods", "twopoint,diffeo,vt",
      "--threshold=-1e300"], 2, "threshold must be positive and finite, got -1e+300"),
    (["bound", "--method", "hellinger", "--prior", "gaussian:0:1", "--functional", "identity"],
     0, "value=0.4998585892686"),
    (["bound", "--method", "hellinger", "--prior", "cosine:0:1", "--n", "10", "--h", "1e-9"], 0,
     "value=0.125820318"),  # the van Trees value is 0.12582032080432043
    (["bound", "--method", "chi2", "--prior", "gaussian:1e8:1", "--h", "0.1", "--lambda", "0.5"],
     0, "value=0.4317817"),
    (["bound", "--method", "chi2", "--prior", "gaussian:1e9:1", "--h", "0.1", "--lambda", "0.5"],
     2, "the t-grid on [999999987.9, 1000000012.0] is too far from 0"),
    (["bound", "--method", "hellinger", "--h", "1e-300"], 2,
     "mixture Hellinger distance underflows to 0 at h=1e-300\n"),
    (["bound", "--method", "twopoint", "--theta1", "nan", "--theta2", "1"], 2,
     "theta1 must be finite"),
    (["bound", "--method", "twopoint", "--family", "uniform", "--theta1", "-1", "--theta2", "1"],
     2, "Uniform scale family requires theta1 > 0, got -1.0"),
    (["bound", "--method", "twopoint", "--theta1=1e308", "--theta2=-1e308"], 2,
     "theta1 - theta2 overflows at theta1=1e+308, theta2=-1e+308"),
    (["kepler", "--grid", "1.5"], 2, "argument --grid: invalid int value: '1.5'"),
    (["kepler", "--a", "x"], 2, "argument --a: invalid float value: 'x'"),
    # theta2 + (theta1 - theta2) rounds to 0; the distance is read at the smaller point
    (["bound", "--method", "twopoint", "--family", "uniform", "--theta1", "1e-17",
      "--theta2", "1"], 0, "\nvalue=0.0\n"),
    (["bound", "--method", "twopoint", "--family", "uniform", "--theta1", "1e-300",
      "--theta2", "1"], 0, "\nvalue=0.0\n"),
    # the default grid's cells are 0.012 wide: 12 family sigmas, where the grid read 0.0
    (["bound", "--method", "chi2", "--sigma", "0.001", "--prior", "gaussian:0:1", "--h", "0.1",
      "--lambda", "0.5"], 2, "t-cell 0.012 is wider than half the family's sigma 0.001"),
    # a repeated sweep name would draw its series twice
    (["sweep", "--n", "10", "--delta", "0.5,1", "--methods", "vt,vt", "--estimators",
      "plugin,plugin"], 2, "method 'vt' is given twice"),
    # -h / a overflows only where |h| > a/2, which the other branch of the difference serves
    (["bound", "--method", "chi2", "--functional", "powermax", "--alpha", "0.01",
      "--h", "1e300", "--n", "10", "--sigma", "0.01"], 0, "divergent denominator"),
    # the second moment of a shift of -1e300 overflows: the error names h, not the window
    (["bound", "--method", "hellinger", "--functional", "identity", "--h=-1e300",
      "--prior", "gaussian"], 2, "h=-1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    # a log grid up to inf is rejected before np.geomspace multiplies by it
    (["sweep", "--n", "10", "--delta", "log:7.5:inf:2", "--methods", "vt"], 2,
     "log grid needs 0 < lo < hi < inf and count >= 2"),
    # so for either sign of the shift, max(theta, 0) (whose difference is at most 12 on the
    # window for h = 1e300) and the chi2 bound, which reads the same moments
    (["bound", "--method", "hellinger", "--functional", "identity", "--h=1e300",
      "--prior", "gaussian"], 2, "h=1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    (["bound", "--method", "hellinger", "--functional", "maxzero", "--h=-1e300",
      "--prior", "gaussian"], 2, "h=-1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    (["bound", "--method", "chi2", "--functional", "identity", "--h=-1e300",
      "--prior", "gaussian"], 2, "h=-1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    (["bound", "--method", "chi2", "--functional", "identity", "--h=1e300",
      "--prior", "gaussian"], 2, "h=1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    (["bound", "--method", "chi2", "--functional", "maxzero", "--h=-1e300",
      "--prior", "gaussian"], 2, "h=-1e+300 is too large: (psi(t) - psi(t - h))^2 overflows"),
    # the Gaussian prior's density and log ratio at z + h overflow to exp(-inf) = 0 and
    # an infinite log ratio, as for a float, with no overflow warning
    (["bound", "--method", "chi2", "--functional", "maxzero", "--h=1e300",
      "--prior", "gaussian"], 0, "\nvalue=0.0\n"),
    (["bound", "--method", "chi2", "--functional", "powermax", "--alpha", "0.5", "--h=-1e300",
      "--prior", "gaussian"], 0, "\nvalue=0.0\n"),
    # sqrt(n) delta overflows: the error names both, not the cut of the risk at delta^-
    (["risk", "--estimator", "plugin", "--delta", "1e200", "--n", str(10**300)], 2,
     f"sqrt(n) delta overflows at delta=1e+200, n={10**300}"),
    (["risk", "--estimator", "pretest", "--delta", "1e200", "--n", str(10**300)], 2,
     f"sqrt(n) delta overflows at delta=1e+200, n={10**300}"),
    # the diffeo bound reads (delta, n) only through s = sqrt(n) delta, so past n = 1e287,
    # where 4 n xi2^2 of the unscaled form overflows, it prints the n = 1 value of its s:
    # that of --delta 1 --n 1 at s = 1, and of --delta 1.32624353772625 --n 1 at s = 1.33
    (["bound", "--method", "diffeo", "--n", str(10**307), "--delta", "3.1622776601683794e-154"],
     0, "\nvalue=0.06817524301257423\n"),
    (["bound", "--method", "diffeo", "--delta", "2.469595376082973e-154",
      "--n", str(int(2.883998e307))], 0, "\nvalue=0.09938419275609545\n"),
    # sweep sorts its --n list as it does its --delta list, and names a value given twice
    (["sweep", "--n", "100,10", "--delta", "1", "--methods", "vt"], 0, ""),
    (["sweep", "--n", "10,10", "--delta", "1", "--methods", "vt"], 2, "n=10 is given twice"),
    (["sweep", "--n", "10", "--delta", "1,1", "--methods", "vt"], 2, "delta=1.0 is given twice"),
    # a list or prior that does not parse names its option and the value given
    (["sweep", "--n", "10,", "--delta", "1"], 2,
     "--n '10,': invalid literal for int() with base 10: ''"),
    (["sweep", "--n", "10", "--delta", "1,,2"], 2,
     "--delta '1,,2': could not convert string to float: ''"),
    (["bound", "--method", "vantrees", "--prior", "cosine:x"], 2,
     "--prior 'cosine:x': could not convert string to float: 'x'"),
    # the 12-sigma window lies below 0, and the mass above 0 is Phi(-12.5) all the same
    (["bound", "--method", "vantrees", "--prior", "gaussian:-12.5:1", "--n", "10"], 0,
     "value=1.26654874956877"),
]


@pytest.mark.parametrize("argv,code,message", CONTRACT)
def test_cli_input_contract(argv, code, message, tmp_path, capsys):
    # no input the CLI accepts makes numpy warn: a warning is not an error message
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = main(argv + ["--out", str(tmp_path / "out.csv")])
        except SystemExit as exc:  # argparse rejects the argv
            got = exc.code
    printed = capsys.readouterr()
    assert got == code
    assert message in printed.out + printed.err
    assert [str(w.message) for w in caught] == []


def test_sweep_reads_its_n_list_in_any_order(capsys):
    # the rows come in ascending n, as for the sorted list
    for n in ("100,10", "10,100"):
        assert main(["sweep", "--n", n, "--delta", "2,1", "--methods", "vt"]) == 0
    unsorted, ascending = capsys.readouterr().out.split("delta,n,")[1:]
    assert unsorted == ascending and ascending.index("\n1.0,10,") < ascending.index("\n1.0,100,")
    with pytest.raises(ValueError, match="n grid must be strictly increasing"):
        SweepConfig(mode="fixed-n-vary-delta", n_values=(100, 10), delta_values=(1.0,))


def _parsed(parse, argv):
    """The reprs of the namespace parse(argv) returns (a nan equals itself there), or
    its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return {dest: repr(value) for dest, value in vars(parse(list(argv))).items()}
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _parses_as_the_parser_does(argv):
    assert _parsed(cli.parse_args, argv) == _parsed(cli.build_parser().parse_args, argv)


# argvs that name no command, argparse's error and help paths, an abbreviation the
# command's parser accepts and one it does not, and tokens after "--"
PARSE_EDGES = [
    [], ["-h"], ["--help"], ["swep"], ["-x", "sweep"], ["--", "sweep"],
    ["sweep", "--foo"], ["sweep", "--n"], ["sweep", "--meth", "vt", "--n", "10", "--delta", "1"],
    ["bound", "--method", "vt", "--a", "1"], ["sweep", "--", "--n"],
    ["kepler", "--grid", "3", "-h"], ["constants", "x"], ["sweep", "--n=10", "--delta=1"]]


@pytest.mark.parametrize("argv", PARSE_EDGES + [argv for argv, _ in CLI_CORPUS]
                         + [argv for argv, _, _ in CONTRACT])
def test_main_parses_as_the_parser_does(argv):
    # main hands an argv that names a command straight to that command's parser: it
    # dispatches the namespace, or exits with the output, of the top-level parser
    _parses_as_the_parser_does(argv)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(argv=ARGVS)
def test_main_parses_fuzzed_argvs_as_the_parser_does(argv):
    _parses_as_the_parser_does(argv)


@pytest.mark.parametrize("argv", [
    ["constants", "--out", "{missing}/x.csv"],
    ["sweep", "--n", "10", "--out", "{missing}/x.csv"],
    ["kepler", "--a", "0.5", "--svg", "{missing}/x.svg"],
    ["constants", "--out", "/dev/full"],  # fails on the write, not the open
    ["bound", "--method", "vt", "--n", "100", "--out", "{missing}/x.csv"],
    ["kepler", "--a", "0.5", "--out", "{tmp}/k.csv", "--svg", "{missing}/x.svg"],
    ["kepler", "--a", "0.5", "--out", "{tmp}/k.csv", "--svg", "/dev/full"],
    ["kepler", "--a", "0.5", "--out", "{tmp}/F", "--svg", "{tmp}/F"],
    ["kepler", "--a", "0.5", "--out", "{tmp}/F", "--svg", "{tmp}/./F"],
    ["sweep", "--n", "10", "--delta", "1", "--out", "{tmp}/s.csv", "--svg", "{missing}/x.svg"],
])
def test_unwritable_output_path_exits_2(argv, tmp_path, capsys):
    # an output that cannot be opened, written or closed, or one file named for two
    # outputs, is a validation error naming the path (the last one given), not an
    # OSError out of main; stdout stays empty and no file holds any output (a file
    # opened before the one that failed is left empty)
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    argv = [arg.format(missing=tmp_path / "no" / "such" / "dir", tmp=tmp_path) for arg in argv]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: cannot write {argv[-1]}: ") or printed.err == \
        f"error: cannot write two outputs to one file: {argv[-3]} and {argv[-1]}\n"
    assert "Traceback" not in printed.err and printed.out == ""
    assert all(path.stat().st_size == 0 for path in tmp_path.iterdir() if path.is_file())


@pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_exits_2(stdout, tmp_path):
    # a stdout that cannot be written, a full device or a pipe whose reader has
    # closed, is a validation error: one line on stderr, no traceback and no
    # "Exception ignored" line at exit, and every file written before it is emptied
    if stdout == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    argv = ([sys.executable, "-m", "minimaxlb.cli"]
            + (["constants"] if stdout == "/dev/full" else
               ["sweep", "--n", "10", "--delta", "0.5,1", "--out", str(tmp_path / "s.csv"),
                "--svg", "-"]))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if stdout == "/dev/full":
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, check=False)
        code, err = proc.returncode, proc.stderr.decode()
    else:
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            proc.stdout.close()  # the reader is gone before the command writes
            err, code = proc.stderr.read().decode(), proc.wait()
        assert (tmp_path / "s.csv").stat().st_size == 0
    assert code == 2
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1, err


def test_only_the_writer_and_main_do_io():
    # every command returns its outputs and main writes them once, through
    # _write_outputs; main's own output is its two error lines
    calls, writes = [], []

    class Scope(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            name = ast.unparse(node.func)
            if name in ("print", "open", "io.open", "os.open", "os.write") or \
                    name.startswith(("sys.stdout", "sys.stderr")):
                calls.append((".".join(self.scope), ast.unparse(node)))
            if name == "_write_outputs":
                writes.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        Scope(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    error_line = "print(f'error: {exc}', file=sys.stderr)"
    assert [c for c in calls if c[0] != "cli._write_outputs"] == [("cli.main", error_line)] * 2
    assert len(calls) > 2 and writes == ["cli.main"]


def _chi2_gaussian_closed_form(h):
    """n = 1, Gaussian family and N(0, 1) prior: (int dpsi dQ)^2 / (exp(2 h^2) - 1)."""
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    num = phi(0.0) - (phi(h) - h * 0.5 * math.erfc(h / math.sqrt(2.0)))
    return num * num / math.expm1(2.0 * h * h)


@pytest.mark.parametrize("h", [
    0.0123,
    0.012336767982401253,  # adaptive Simpson converged falsely on the numerator here
    0.0124,
])
def test_chi2_bound_matches_closed_form(h, tmp_path, capsys):
    assert main(["bound", "--method", "chi2", "--prior", "gaussian:0:1",
                 "--h", repr(h), "--lambda", "0", "--out", str(tmp_path / "c.csv")]) == 0
    value = float([l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("value=")][0][6:])
    exact = _chi2_gaussian_closed_form(h)
    assert abs(value - exact) <= 1e-7 * exact


def test_unconverged_quadrature_exits_3(monkeypatch, tmp_path, capsys):
    from minimaxlb import numerics
    monkeypatch.setattr(numerics, "_MAX_PANELS", 4)  # no doubling allowed
    assert main(["bound", "--method", "hellinger", "--prior", "gaussian:0:1", "--h", "0.1",
                 "--out", str(tmp_path / "h.csv")]) == 3
    assert "did not converge with 4 panels per piece" in capsys.readouterr().err


def _printed_report(argv, capsys):
    """The key=value lines `bound` prints to stdout for argv, which must exit 0."""
    assert main(argv) == 0
    return [line for line in capsys.readouterr().out.splitlines() if "=" in line]


# every bound argv of the reach corpus and of the contract rows that exits 0
API_ARGVS = [argv for argv, code in CLI_CORPUS if argv[0] == "bound" and code == 0] + \
    [argv for argv, code, _ in CONTRACT if argv[0] == "bound" and code == 0]


@pytest.mark.parametrize("argv", API_ARGVS, ids=[" ".join(a[1:]) for a in API_ARGVS])
def test_evaluate_bound_returns_what_bound_prints(argv, capsys):
    # the library call, built from the parsed options with the library's own types and
    # only the inputs given, so its defaults are the library's
    args = cli.build_parser().parse_args(argv)
    family = GaussianLocation(args.sigma) if args.family == "gaussian" else UniformScale()
    functional = (PowerMax(args.alpha) if args.functional == "powermax"
                  else {"identity": Identity(), "maxzero": MaxZero()}[args.functional])
    given = {name: getattr(args, name) for name in ("h", "lam", "xi1", "xi2", "theta1", "theta2")
             if getattr(args, name) is not None}
    result = evaluate_bound(args.method, args.n, family=family, functional=functional,
                            prior=parse_prior(args.prior) if args.prior else None,
                            delta=args.delta, **given)
    assert _printed_report(argv, capsys)[1:] == (
        [f"value={result.value!r}"] + [f"{k}={v!r}" for k, v in sorted(result.argmax.items())]
        + [f"note={note}" for note in result.notes])


def test_every_bound_method_has_a_printed_name():
    assert cli._BOUND_NAMES.keys() == bounds.BOUND_METHODS.keys()


@pytest.mark.parametrize("argv", [
    ["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "50", "--n", "100"],
    ["bound", "--method", "chi2", "--prior", "cosine:0:1", "--h", "0.1"],
])
def test_a_chi2_request_integrates_its_denominator_once(argv, monkeypatch, capsys):
    # both requests print the divergent note, which is read off the one integral: each
    # module's name of mixture_chi_sq is counted
    calls = []

    def counted(spec):
        calls.append(spec.h)
        return mixture_chi_sq(spec)

    monkeypatch.setattr(mixtures, "mixture_chi_sq", counted)
    monkeypatch.setattr(bounds, "mixture_chi_sq", counted)
    assert _printed_report(argv, capsys)[-1] == "note=divergent denominator; trivial bound 0"
    assert len(calls) == 1


# each argv's stdout, a fresh interpreter each, with numpy imported first or on the
# package's first array use
_FIRST_IMPORT = """
import contextlib, io, json, sys
{first}
import minimaxlb.cli
assert ("numpy._core" in sys.modules) == {eager}
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = minimaxlb.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue()]))
"""


def _run_python(source, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", source, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def _assert_lazy_and_eager_match(argvs, source=_FIRST_IMPORT):
    runs = [(argv, first) for argv in argvs for first in ("", "import numpy")]
    with ThreadPoolExecutor(2) as pool:
        outputs = list(pool.map(
            lambda run: _run_python(source.format(first=run[1], eager=bool(run[1])),
                                    json.dumps(run[0])), runs))
    for (argv, _), lazy, eager in zip(runs[::2], outputs[::2], outputs[1::2]):
        code, out = json.loads(lazy)
        assert code == 0 and out, argv
        assert lazy == eager, argv


def test_lazy_and_eager_numpy_give_the_same_bytes():
    # the test modules import numpy before the package, so only a fresh interpreter
    # runs the deferred import; every argv here loads numpy
    _assert_lazy_and_eager_match([
        ["selftest"], ["sweep", "--n", "10", "--delta", "log:1e-2:1e2:5"],
        ["bound", "--method", "hellinger", "--prior", "cosine:0:1"],
        ["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "0.1", "--lambda", "0"],
        ["bound", "--method", "vantrees", "--prior", "kepler:0.75", "--functional", "powermax",
         "--alpha", "0.5"]])


def test_closed_form_bounds_finish_without_numpy():
    # the vt bound and the van Trees value of max(theta, 0) and of the identity compute in
    # floats: numpy is still unloaded when main returns, and the bytes are those of a run
    # with numpy imported first
    _assert_lazy_and_eager_match([
        ["bound", "--method", "vt", "--delta", "0.5", "--n", "10"],
        ["bound", "--method", "vantrees", "--prior", "cosine:0:1", "--n", "100"],
        ["bound", "--method", "vantrees", "--prior", "gaussian:-12.5:1", "--n", "10"],
        ["bound", "--method", "vantrees", "--prior", "kepler:0.75"],
        ["bound", "--method", "vantrees", "--prior", "gaussian:0:1", "--functional", "identity"]],
        _FIRST_IMPORT + 'assert ("numpy._core" in sys.modules) == {eager}\n')


def test_scipy_imports_after_the_package():
    # scipy imports numpy while the package's binding of it has not loaded yet
    out = _run_python("import sys, minimaxlb\n"
                      "assert 'numpy._core' not in sys.modules\n"
                      "import scipy.integrate\n"
                      "print(scipy.integrate.quad(minimaxlb.normal_pdf, -1.0, 1.0)[0])\n")
    assert float(out) == pytest.approx(math.erf(math.sqrt(0.5)), rel=1e-12)
