"""The CLI contract on argvs built from the parser's own tables, with extreme
and malformed values and output targets: every run exits 0, 2 or 3 without a
traceback, a run that exits 2 or 3 leaves stdout empty and no file holding any
output, and a repeat prints the same bytes."""
import contextlib
import io
import os
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxlb.bounds import BOUND_METHODS
from minimaxlb.cli import _FAMILIES, _FUNCTIONALS, _PRIOR_FORMS, main
from minimaxlb.sweep import RISKS, SWEEP_METHODS

EXTREMES = st.sampled_from(["0", "inf", "-inf", "nan", "1e300", "1e-300", "-1e300", "1e-160"])
NUMBERS = st.one_of(EXTREMES, st.sampled_from(["1", "0.5", "0.1", "2", "-1", "1e16", "x"]),
                    st.floats(0.01, 10.0).map(repr), st.floats(-1e3, 1e3).map(repr))
SCALES = st.one_of(EXTREMES, st.floats(0.01, 10.0).map(repr))  # delta, sigma: positive
UNITS = st.one_of(EXTREMES, st.floats(0.0, 1.0).map(repr))      # alpha, lambda: in [0, 1]
SIZES = st.one_of(
    st.sampled_from(["0", "-5", "1", "10", "1000000", "1.5",
                     str(2 * int(sys.float_info.max))]),  # above the float range
    st.integers(1, 1000).map(str))
PRIORS = st.one_of(
    st.builds(lambda kind, fields: ":".join([kind, *fields]),
              st.sampled_from(sorted(_PRIOR_FORMS)), st.lists(NUMBERS, max_size=4)),
    st.sampled_from(["", "spike:0", "cosine:x", "kepler:", "::", "gaussian:0:1:"]))
N_LISTS = st.one_of(SIZES, st.lists(st.integers(1, 1000), min_size=2, max_size=2, unique=True)
                    .map(lambda ns: ",".join(str(n) for n in sorted(ns))))
GRIDS = st.one_of(
    SCALES,
    st.lists(st.floats(0.01, 100.0), min_size=2, max_size=3, unique=True)
    .map(lambda ds: ",".join(repr(d) for d in sorted(ds))),
    st.builds(lambda lo, hi, count: f"log:{lo}:{hi}:{count}",
              SCALES, SCALES, st.sampled_from(["1", "2", "3", "x"])),
    st.sampled_from(["log:0.1:10:3", "log:1:2", "1,,2", ""]))
# every input of a bound method, each an option of `bound`
BOUND_INPUTS = sorted({dest for method in BOUND_METHODS.values()
                       for dest in method.args + method.reads})
# bound option -> its values; the others take NUMBERS
BOUND_VALUES = {"family": st.sampled_from(sorted(_FAMILIES)), "prior": PRIORS, "n": SIZES,
                "sigma": SCALES, "delta": SCALES, "xi2": SCALES, "alpha": UNITS, "lam": UNITS}
# stdout; a file under a directory that does not exist; a file in a fresh temporary
# directory per example, written {tmp} here; and, where it exists, a device that
# fails every write
MISSING_DIR = os.path.join(os.sep, "no", "such", "dir")
TARGETS = st.sampled_from(["-", os.path.join(MISSING_DIR, "out"), os.path.join("{tmp}", "out")]
                          + (["/dev/full"] if os.path.exists("/dev/full") else []))


def _option(dest: str, value: str) -> str:
    return f"--{'lambda' if dest == 'lam' else dest}={value}"


@st.composite
def bound_argv(draw, method):
    # each input the method reads (the library's table) with odds 1/2, the arguments of a
    # method without a sup always, now and then an input it may reject
    entry = BOUND_METHODS[method]
    reads = entry.args + entry.reads
    dests = {d for d in reads + ("n",) if draw(st.booleans())}
    if entry.sup is None:
        dests.update(entry.args)
    if draw(st.integers(0, 7)) == 0:
        dests.add(draw(st.sampled_from(BOUND_INPUTS)))
    functional = draw(st.sampled_from(sorted(_FUNCTIONALS)))
    if "alpha" in dests and "functional" in reads:
        functional = "powermax"  # the one functional that reads alpha
        dests.add("functional")
    if "functional" in dests and functional == "powermax":
        dests.add("alpha")
    values = dict(BOUND_VALUES, functional=st.just(functional))
    return ["bound", f"--method={method}"] + [
        _option(d, draw(values.get(d, NUMBERS))) for d in sorted(dests)]


@st.composite
def risk_argv(draw):
    argv = ["risk", f"--estimator={draw(st.sampled_from(sorted(RISKS)))}",
            f"--delta={draw(NUMBERS)}", f"--n={draw(SIZES)}"]
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--threshold={draw(NUMBERS)}")
    return argv


@st.composite
def kepler_argv(draw):
    if draw(st.booleans()):
        grid = st.one_of(st.sampled_from(["0", "-5", "1", "1.5", "1e2", "x", ""]),
                         st.integers(2, 50).map(str))  # a count solves that many equations
        return ["kepler", f"--grid={draw(grid)}"]
    return ["kepler"] + [f"--a={a}" for a in draw(st.lists(UNITS, min_size=1, max_size=3))]


@st.composite
def sweep_argv(draw):
    methods = draw(st.lists(st.sampled_from(SWEEP_METHODS), min_size=1, max_size=3, unique=True))
    if draw(st.integers(0, 7)) == 0:
        methods.append("bogus")
    argv = ["sweep", f"--n={draw(N_LISTS)}", f"--delta={draw(GRIDS)}",
            f"--methods={','.join(methods)}"]
    options = (("--sigma", SCALES), ("--threshold", SCALES),
               ("--mode", st.sampled_from(["delta", "n"])),
               ("--estimators", st.sampled_from(sorted(RISKS))))
    for flag, values in options:
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"{flag}={draw(values)}")
    return argv


@st.composite
def with_outputs(draw, argvs):
    # each output option of the command with odds 1/4; when both are drawn, they
    # name the same target with odds 1/2
    argv = draw(argvs)
    flags = ("--out", "--svg") if argv[0] in ("sweep", "kepler") else ("--out",)
    targets = {flag: draw(TARGETS) for flag in flags if draw(st.integers(0, 3)) == 0}
    if len(targets) == 2 and draw(st.booleans()):
        targets["--svg"] = targets["--out"]
    return argv + [f"{flag}={target}" for flag, target in targets.items()]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# one form per bound method, so bound's many options get most of the examples
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(argv=with_outputs(st.one_of(*(bound_argv(m) for m in sorted(BOUND_METHODS)), risk_argv(),
                                   sweep_argv(), kepler_argv(), st.just(["constants"]))))
def test_cli_exits_0_2_or_3_without_traceback(argv):
    assert not os.path.exists(MISSING_DIR)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        code, out, err = _run(argv)
        assert code in (0, 2, 3), (code, err)
        assert "Traceback" not in err
        if code != 0:  # no partial output
            assert out == ""
            assert all(os.path.getsize(os.path.join(tmp, name)) == 0 for name in os.listdir(tmp))
        assert _run(argv)[:2] == (code, out)
