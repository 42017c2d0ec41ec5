"""The reach check: a fresh interpreter, profiled from before ``import minimaxlb``,
runs the corpus below through the CLI and the documented API, and every function,
method, lambda, closure and comprehension compiled from the package must have been
entered, unless the allow-list names it with its reason. Library code that only
the tests reach is deleted, not kept alive by its own tests."""
import json
import subprocess
import sys
import types
from pathlib import Path

import minimaxlb

PACKAGE = Path(minimaxlb.__file__).resolve().parent

# (argv, exit code): every command, each bound method with searched and fixed
# arguments, both families, the three functionals, the four priors, the lambda > 0
# chi2 grid with each family, and argvs that exit 2 (among them an unwritable
# output and one file named for two outputs) and 3
CLI_CORPUS = (
    (["kepler", "--a", "0.5", "--a", "1"], 0),
    (["kepler", "--grid", "11", "--out", "kepler.csv", "--svg", "kepler.svg"], 0),
    (["bound", "--method", "vt", "--delta", "1", "--n", "100"], 0),
    (["bound", "--method", "diffeo", "--delta", "1", "--n", "100"], 0),
    (["bound", "--method", "diffeo", "--delta", "1", "--n", "100", "--xi1", "0", "--xi2", "1"], 0),
    # s = sqrt(n) delta = 1e9: the argmax sits on the box's lower xi2 edge, so Newton
    # stops on its box (ROADMAP item 15)
    (["bound", "--method", "diffeo", "--delta", "1", "--n", "1000000000000000000"], 0),
    (["bound", "--method", "twopoint", "--theta1", "0", "--theta2", "0.5", "--n", "100"], 0),
    # the --n 100 pair clamps to 0 before it evaluates psi; at --n 1 it does not
    (["bound", "--method", "twopoint", "--theta1", "0", "--theta2", "0.5", "--n", "1"], 0),
    (["bound", "--method", "twopoint", "--family", "uniform", "--functional", "identity",
      "--theta1", "1", "--theta2", "1.5"], 0),
    (["bound", "--method", "hellinger", "--prior", "cosine:0:1", "--n", "10"], 0),
    (["bound", "--method", "hellinger", "--prior", "gaussian:0:1", "--functional", "powermax",
      "--alpha", "0.5"], 0),
    (["bound", "--method", "hellinger", "--prior", "gaussian:0:1", "--functional", "identity",
      "--h", "1e-3"], 0),
    (["bound", "--method", "hellinger", "--family", "uniform", "--prior", "cosine:2:1",
      "--h", "0.1"], 0),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "0.05", "--lambda", "0"], 0),
    (["bound", "--method", "chi2", "--prior", "cosine:0:1", "--h", "0.1"], 0),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "0.1", "--lambda", "0.5"], 0),
    (["bound", "--method", "chi2", "--family", "uniform", "--prior", "gaussian:13:1",
      "--h", "-0.1", "--lambda", "0"], 0),
    (["bound", "--method", "chi2", "--family", "uniform", "--prior", "uniform:1:2",
      "--h", "-0.1", "--lambda", "0.5"], 0),
    (["bound", "--method", "chi2", "--prior", "gaussian:0:1", "--h", "16", "--lambda", "0"], 3),
    (["bound", "--method", "vantrees", "--prior", "cosine:0:1"], 0),
    (["bound", "--method", "vantrees", "--prior", "gaussian:0:1", "--functional", "identity"], 0),
    (["bound", "--method", "vantrees", "--prior", "kepler:0.75", "--functional", "powermax",
      "--alpha", "0.5"], 0),
    (["bound", "--method", "vantrees", "--prior", "cosine:3:1", "--functional", "powermax",
      "--alpha", "0.5"], 0),
    (["bound", "--method", "vantrees", "--family", "uniform", "--prior", "cosine:2:1"], 2),
    (["bound", "--method", "hellinger", "--prior", "uniform:-1:1"], 2),
    (["bound", "--method", "vt", "--delta", "1e-300"], 2),
    (["risk", "--estimator", "constant", "--delta", "1", "--n", "16"], 0),
    (["risk", "--estimator", "plugin", "--delta", "1", "--n", "16"], 0),
    (["risk", "--estimator", "pretest", "--delta", "1", "--n", "16"], 0),
    (["risk", "--estimator", "pretest", "--delta", "1", "--n", "16", "--threshold", "0.5"], 0),
    (["sweep", "--n", "10,100", "--delta", "0.1,1", "--out", "sweep.csv", "--svg", "sweep.svg"], 0),
    (["sweep", "--mode", "n", "--n", "1,10", "--delta", "0.5", "--sigma", "2"], 0),
    (["sweep", "--n", "10", "--delta", "log:0.1:10:3", "--methods", "vt",
      "--estimators", "pretest", "--threshold", "0.5"], 0),
    (["sweep", "--n", "10", "--delta", "1", "--out", "no-such-dir/sweep.csv"], 2),
    (["kepler", "--a", "0.5", "--out", "same.csv", "--svg", "./same.csv"], 2),
    (["constants"], 0),
    (["selftest"], 0),
)
# the documented API entry points that no CLI path reaches, one call each
API_CORPUS = (
    "density_lam_constant(2, 1.0, PolyKernel((9 / 8, 0.0, -15 / 8), 2))",
    "mixture_hellinger_sq(MixtureSpec(GaussianLocation(1.0), 3, UniformPrior(-1.0, 1.0), 0.2))",
    "UniformPrior(-1.0, 1.0).fisher_info()",
)
_RETIRED = "ROADMAP item 1 deletes it with its hook"
# (name, reason): the code objects nothing but the tests and the benchmark tracer enters
ALLOWED = (
    ("numerics._simpson", _RETIRED),
    ("numerics.integrate_adaptive", _RETIRED),
    ("numerics.integrate_adaptive.ev", _RETIRED),
    ("numerics.integrate_adaptive.rec", _RETIRED),
    ("numerics.composite_simpson", _RETIRED),
    ("numerics.find_root_bisect", _RETIRED),
)

# installs the profiler before the package is imported, so import-time calls and
# the grid oracles' helper threads count; prints the entered code objects of the
# package and the exit code of each argv as JSON
PROBE = r"""
import contextlib, io, json, os, sys, threading

corpus = json.load(sys.stdin)
entered = {}


def profile(frame, event, arg):
    if event == "call":
        entered[id(frame.f_code)] = frame.f_code


sys.setprofile(profile)
threading.setprofile(profile)
sys.path.insert(0, corpus["path"])
import minimaxlb
from minimaxlb.cli import main

exits = []
for argv in corpus["argvs"]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            exits.append(main(argv))
        except SystemExit as exc:
            exits.append(exc.code)
namespace = dict(vars(minimaxlb))
for call in corpus["calls"]:
    exec(call, namespace)
sys.setprofile(None)
threading.setprofile(None)
package = os.path.dirname(os.path.abspath(minimaxlb.__file__))
print(json.dumps({"package": package, "exits": exits, "entered": sorted(
    (os.path.basename(c.co_filename), c.co_firstlineno, c.co_name)
    for c in entered.values() if os.path.dirname(c.co_filename) == package)}))
"""


def _compiled():
    """(file, first line, name) -> dotted names of the code objects compiled from the
    package's modules: the modules, their functions, methods, class bodies, lambdas,
    closures and comprehensions. A comprehension nested in one on its line shares its key."""
    names = {}

    def walk(code, module, name):
        names.setdefault((f"{module}.py", code.co_firstlineno, code.co_name), []).append(name)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, module, f"{name}.{const.co_name}")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem, path.stem)
    return names


def _probe(tmp_path):
    corpus = {"path": str(PACKAGE.parent), "argvs": [argv for argv, _ in CLI_CORPUS],
              "calls": list(API_CORPUS)}
    done = subprocess.run([sys.executable, "-c", PROBE], input=json.dumps(corpus),
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_library_code_object_is_reached_or_allowed(tmp_path):
    compiled, probed = _compiled(), _probe(tmp_path)
    assert Path(probed["package"]) == PACKAGE
    # (argv, expected, got) of each argv that no longer reaches its path's exit
    moved = [(argv, want, got) for (argv, want), got in zip(CLI_CORPUS, probed["exits"])
             if got != want]
    assert len(probed["exits"]) == len(CLI_CORPUS) and not moved, moved
    entered = {tuple(key) for key in probed["entered"]}
    assert entered <= compiled.keys()
    allowed = dict(ALLOWED)
    never = sorted((name, f"{key[0]}:{key[1]}") for key in compiled.keys() - entered
                   for name in compiled[key])
    unreached = [f"{where} {name}" for name, where in never if name not in allowed]
    assert not unreached, "library code that no CLI path or documented call enters:\n" + \
        "\n".join(unreached)
    # an entry is stale once its code is entered or gone
    assert sorted(allowed) == [name for name, _ in never if name in allowed]
