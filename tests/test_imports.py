"""What each command loads, and the package's lazy namespace.

Start-up dominates every short command, so each command imports only the
modules it runs, and ``import varcomp`` alone imports no submodule.
"""

import ast
import os
import subprocess
import sys

import pytest

import varcomp
from varcomp.programs import _COLUMN_MIN

# ---------------------------------------------------------------------------
# the modules each command loads, through the real entry point
# ---------------------------------------------------------------------------

#: Standard-library and numpy modules worth pinning per command: numpy's
#: import costs about 0.1 s and pulls in inspect, dataclasses and inspect
#: cost about 10 ms without numpy, csv comes only with the reports, and no
#: command loads the process-pool modules.
_WATCHED = ("numpy", "dataclasses", "inspect", "csv", "multiprocessing",
            "concurrent.futures")

#: The source tree of the varcomp under test, for interpreters started
#: elsewhere.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(varcomp.__file__)))

# runs ``python -m varcomp ARGV`` as the interpreter does (runpy runs
# varcomp.__main__ as __main__), then lists the modules loaded at exit
_SCRIPT = """\
import atexit, runpy, sys
watched = {watched!r}
atexit.register(lambda: print(sorted(
    m for m in sys.modules if m.split(".")[0] == "varcomp" or m in watched),
    file=sys.stderr))
sys.argv = ["varcomp", *{argv!r}]
runpy.run_module("varcomp", run_name="__main__", alter_sys=True)
"""


def _loaded(argv, tmp_path, watched=_WATCHED):
    """(exit code, the varcomp modules loaded, the watched modules loaded)
    of ``python -m varcomp *argv`` in a fresh interpreter, run in
    tmp_path."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(watched=watched, argv=list(argv))],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300)
    names = ast.literal_eval(out.stderr.splitlines()[-1])
    return (out.returncode, {m for m in names if m.split(".")[0] == "varcomp"},
            {m for m in names if m in watched})


_FRONT = {"varcomp", "varcomp.cli", "varcomp.errors"}
_BAND = _FRONT | {"varcomp.distributions", "varcomp.specfun", "varcomp.varband"}
_ORACLE = _BAND | {"varcomp.oracle"}
_PROGRAMS = _ORACLE | {"varcomp.programs", "varcomp.proofcheck",
                       "varcomp.proofcheck.auxfn", "varcomp.proofcheck.polynomials",
                       "varcomp.proofcheck.steps", "varcomp.reporting"}

# a prove chain over d2 = 5..d2_max has d2_max - 4 points
_LONG_CHAIN = str(_COLUMN_MIN + 4)

_COMMANDS = {
    "version": (["--version"], 0, _FRONT, set()),
    "usage_error": (["sweep", "--d1", "1..x", "--check", "bound"], 2, _FRONT, set()),
    "varprob_normal": (["varprob", "--dist", "normal"], 0, _BAND, set()),
    "varprob_chisq": (["varprob", "--dist", "chisq", "--k", "7"], 0, _BAND, set()),
    "varprob_f_json": (["varprob", "--dist", "f", "--d1", "3", "--d2", "40",
                        "--format", "json"], 0, _BAND, set()),
    "endpoints": (["endpoints", "--d1", "3", "--d2", "40"], 0, _BAND, set()),
    "oracle": (["oracle", "--d1", "3", "--d2", "40", "--samples", "10000"], 0,
               _ORACLE, {"numpy", "inspect"}),
    "prove": (["prove", "--d1", "3"], 0, _PROGRAMS, {"csv"}),
    "prove_long_chain": (["prove", "--d1", "3", "--d2-max", _LONG_CHAIN, "--out", "r.csv"],
                         0, _PROGRAMS, {"numpy", "inspect", "csv"}),
    "sweep_default": (["sweep", "--d1", "1..4", "--check",
                       "bound,monotone,limit,steps,tables", "--out", "r.csv"], 0,
                      _PROGRAMS, {"csv"}),
    "explore": (["explore", "--d1", "5..6", "--d2", "5..30", "--out", "r.csv"], 0,
                _PROGRAMS, {"csv"}),
}


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(name, tmp_path):
    argv, code, package, watched = _COMMANDS[name]
    assert _loaded(argv, tmp_path) == (code, package, watched)


@pytest.mark.parametrize("name", ["prove", "sweep_default", "explore"])
def test_numpy_free_report_commands_load_no_fork_module(name, tmp_path):
    # numpy pulls in pickle, and only a forked chain run loads pickle and
    # signal (programs._fork_join); these commands' grids lie below
    # programs._COLUMN_MIN, so they stay in this process on any host
    argv, code, package, _ = _COMMANDS[name]
    assert _loaded(argv, tmp_path, ("pickle", "signal")) == (code, package, set())


@pytest.mark.parametrize("argv", [
    ["sweep", "--d1", "1..2", "--d2",
     f"5..{_COLUMN_MIN // 2 + 4}",
     "--check", "steps", "--out", "r.csv"],
    ["prove", "--d1", "4", "--d2-max", "30004"]], ids=["sweep", "prove"])
def test_segmented_chains_load_no_pool_module(argv, tmp_path):
    # chains cut into runs fork their children with os.fork: neither
    # multiprocessing nor concurrent.futures is imported
    assert _loaded(argv, tmp_path) == (0, _PROGRAMS, {"numpy", "inspect", "csv"})


# ---------------------------------------------------------------------------
# the lazy package namespace
# ---------------------------------------------------------------------------

#: Every public name ``import varcomp`` bound before it resolved them lazily,
#: by home module.
_PUBLIC = {
    "distributions": ("FParams", "chi_square_cdf", "f_cdf", "f_mean", "f_variance"),
    "errors": ("ConvergenceError", "DomainError", "MomentUndefinedError",
               "ToleranceNotMetError", "VarcompError"),
    "reporting": ("Block", "STRICTNESS_FLOOR"),
    "specfun": ("log_beta", "log_gamma", "reg_inc_beta", "reg_lower_gamma",
                "std_normal_cdf"),
    "varband": ("Endpoints", "NORMAL_BAND", "band_endpoints", "check_bound",
                "check_limit", "check_monotone_step", "chi_square_band_probability",
                "d_exceeds_c", "variation_band", "variation_probability"),
}
_NAMES = [(home, name) for home, names in _PUBLIC.items() for name in names]


@pytest.mark.parametrize("home, name", _NAMES)
def test_public_names_resolve_to_their_home_objects(home, name):
    module = __import__(f"varcomp.{home}", fromlist=[name])
    assert getattr(varcomp, name) is getattr(module, name)


def test_star_import_and_dir_list_the_public_names():
    names = {name for _, name in _NAMES}
    namespace: dict = {}
    exec("from varcomp import *", namespace)
    assert names <= set(namespace)
    assert all(namespace[name] is getattr(varcomp, name) for name in names)
    assert names | {"__version__"} <= set(dir(varcomp))


def test_the_strictness_floor_has_one_home():
    assert varcomp.STRICTNESS_FLOOR is varcomp.reporting.STRICTNESS_FLOOR
    assert not hasattr(varcomp.varband, "STRICTNESS_FLOOR")


@pytest.mark.parametrize("name", ["no_such_name", "_FLOAT_LIMIT", "margin_block"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(varcomp, name)
    assert not hasattr(varcomp, name)


def test_import_varcomp_loads_no_submodule():
    # a home module is imported when it, or a name from it, is first used
    script = ("import sys, varcomp\n"
              "def loaded():\n"
              "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'varcomp'))\n"
              "loaded()\n"
              "varcomp.specfun.log_gamma\n"
              "loaded()\n"
              "varcomp.Block\n"
              "loaded()\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=_SRC), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "['varcomp']",
        "['varcomp', 'varcomp.errors', 'varcomp.specfun']",
        "['varcomp', 'varcomp.errors', 'varcomp.reporting', 'varcomp.specfun']"]
