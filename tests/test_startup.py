"""Start-up guard: the closed-form CLI commands (kernel, bounds,
dirichlet, delta, gamma, step), the field export without the oracle,
the smoothed pseudomode ratio and the models module load neither NumPy
nor SciPy nor dataclasses, so they start in about the time of the
interpreter; bs loads NumPy but not SciPy, its Arnoldi spectral radius
and escape scan included; neither bs nor the closed-form commands load
concurrent.futures, which the package does not use; the Arnoldi and
power iterations start without numpy.random, which no module names;
only the finite-difference oracle
(field --oracle) loads SciPy, and of SciPy only LAPACK, not
scipy.sparse; the pure-Python
linspace that the CLI and the field grids use in place of NumPy's is
bitwise equal to it; every module imports on its own, so no import
cycle hides behind the package's import order; no module but closed
forms |z -+ i| (closed._to_i does), no code but closed._coupling forms
k_plus +- k_minus, and kernel takes its wave numbers from closed; and the numbers of parameters with a default and of CLI
options are pinned, so a new knob is added on purpose."""

import argparse
import ast
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgnspec
from sgnspec import cli
from sgnspec.closed import _linspace

_NO_SCIPY = """
import io, sys
import sgnspec
from sgnspec import cli
out = io.StringIO()
cases = [
    ["delta", "--alpha", "2"],
    ["bounds", "--z", "50,0.3"],
    ["dirichlet", "--z", "5,0.5"],
    ["gamma", "--sigma=-1,1,-1", "--r", "0:5:7"],
    ["step", "--a", "1", "--b", "3", "--lam-max", "60"],
    ["field", "--re=-2:40:6", "--im=-1.5:1.5:5", "--out", sys.argv[1]],
    ["bs", "sweep", "--re", "25:50:2"],
    ["bs", "roots", "--eps", "1", "--seeds=-0.7"],
]
for argv in cases:
    assert cli.main(argv, out=out) == 0, argv
assert "concurrent.futures" not in sys.modules
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

_NO_NUMPY = """
import io, sys
from sgnspec import cli
out = io.StringIO()
cases = [
    (["bounds", "--z", "50,0.3"], 0),
    (["bounds", "--z=-2,0.5"], 0),
    (["bounds", "--z", "5,1"], 1),
    (["bounds", "--z=5,1.0000000000001"], 1),
    (["bounds", "--z=1e308,0.5"], 1),
    (["kernel", "--z", "2,0.4", "--x", "0.1", "--y", "0.7"], 0),
    (["kernel", "--z=5,0.5", "--x=1e308", "--y=-1e308"], 1),
    (["dirichlet", "--z", "5,0.5"], 0),
    (["dirichlet", "--z=5,1.0000000000001"], 1),
    (["delta", "--alpha", "2"], 0),
    (["gamma", "--sigma=-1,1,-1", "--r", "0:5:7"], 0),
    (["step", "--a", "1", "--b", "3", "--lam-max", "60"], 0),
    (["bs", "sweep", "--re", "25:50:x"], 2),
    (["field", "--re=-2:40:6", "--im=-1.5:1.5:5", "--out", sys.argv[1]], 0),
    (["field", "--re=-5:-0.0:7", "--im=-0.0:0:2", "--out", sys.argv[2]], 0),
    (["field", "--re=-1e308:1e308:3", "--im=0:0:1",
      "--out", sys.argv[1]], 2),
]
for argv, code in cases:
    assert cli.main(argv, out=out) == code, argv
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy", "dataclasses")))
"""

_ORACLE = """
import io, sys
from sgnspec import cli
argv = ["field", "--re=5:8:2", "--im=0.3:0.3:1", "--oracle",
        "--out", sys.argv[1]]
assert cli.main(argv, out=io.StringIO()) == 0
print("scipy" in sys.modules)
"""

_NO_SPARSE = """
import sys
import scipy.linalg.lapack
def sparse():
    return sorted(m for m in sys.modules
                  if m.split(".")[:2] == ["scipy", "sparse"])
lapack = sparse()
from sgnspec.fdop import eigenvalue_near, resolvent_norm_fd
resolvent_norm_fd(5 + 0.5j)
eigenvalue_near(-0.75, 4001, 20.0, center_jump=2.0)
print(lapack, sparse())
"""


_BS_NO_SCIPY = """
import sys
from sgnspec import bs
pot = bs.gaussian()
assert bs.escape_scan(pot, 0.125, [3.0, 30.0, 300.0])["escaped"]
assert bs.spectral_radius(-50 + 0.2j, 0.125, pot) < 1.0
assert "concurrent.futures" not in sys.modules
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

_NO_RANDOM = """
import sys
from sgnspec import bounds, bs
pot = bs.gaussian()
assert bs.spectral_radius(-50 + 0.2j, 0.125, pot) < 1.0
assert bs.escape_scan(pot, 0.125, [3.0, 30.0, 300.0])["escaped"]
z = 25 + 0.3j
assert bounds.quadrature_operator_norm(z, bounds.default_strip_grid(z)) > 1.0
print("numpy.random" in sys.modules)
"""


# imports one submodule without running the package __init__, whose
# fixed import order would mask a cycle between two modules
_ALONE = """
import importlib, sys, types
pkg = types.ModuleType("sgnspec")
pkg.__path__ = [sys.argv[1]]
sys.modules["sgnspec"] = pkg
importlib.import_module("sgnspec." + sys.argv[2])
"""

_MODULES = sorted(name[:-3] for name in os.listdir(sgnspec.__path__[0])
                  if name.endswith(".py") and name != "__init__.py")


def _fresh(code, *args):
    # tests/conftest.py puts src on the child's PYTHONPATH
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_closed_form_commands_do_not_load_scipy(tmp_path):
    assert _fresh(_NO_SCIPY, str(tmp_path / "f.csv")) == "[]"


def test_closed_form_commands_do_not_load_numpy(tmp_path):
    assert _fresh(_NO_NUMPY, str(tmp_path / "f.csv"),
                  str(tmp_path / "f.json")) == "[]"


_EXPORTS = """
import sgnspec
assert sgnspec.bounds.apply_resolvent is sgnspec.apply_resolvent
assert sgnspec.models.gamma_point is sgnspec.gamma_point
for name in sgnspec.__all__:
    getattr(sgnspec, name)
assert set(sgnspec.__all__) <= set(dir(sgnspec))
print(len(sgnspec.__all__), sgnspec.__version__)
"""


def test_lazy_package_exports_resolve():
    assert _fresh(_EXPORTS) == "62 0.1.0"


def _defaulted_parameters():
    """Parameters with a default in the package's functions and lambdas,
    positional and keyword-only: the values a caller can leave unset."""
    count = 0
    for name in _MODULES + ["__init__"]:
        with open(os.path.join(sgnspec.__path__[0], name + ".py")) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return count


def test_defaulted_parameter_count_is_pinned():
    # a settable value with one value in use is a constant; a new one
    # moves this count and has to be added here on purpose
    assert _defaulted_parameters() == 15


@pytest.mark.parametrize("module", ["bounds", "bs", "fdop", "quadrature"])
def test_only_closed_tests_the_spectrum(module):
    # the ray test is closed._off_spectrum's alone: these modules take a
    # spectral parameter through it, not through a copy of their own
    with open(os.path.join(sgnspec.__path__[0], module + ".py")) as f:
        tree = ast.parse(f.read())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"DEFAULT_TOL_SPEC", "spectrum_distance"}


def _module_tree(module):
    with open(os.path.join(sgnspec.__path__[0], module + ".py")) as f:
        return ast.parse(f.read())


@pytest.mark.parametrize("module", [m for m in _MODULES if m != "closed"])
def test_only_closed_forms_the_distance_to_the_endpoints(module):
    # |z -+ i| is closed._to_i's alone, which returns inf where abs()
    # would raise OverflowError
    for node in ast.walk(_module_tree(module)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs"):
            assert not any(isinstance(c, ast.Constant) and c.value == 1j
                           for arg in node.args for c in ast.walk(arg))


_WAVE_NUMBERS = {"k", "kp", "km", "k_plus", "k_minus"}


def _is_wave_number(node):
    return ((isinstance(node, ast.Name) and node.id in _WAVE_NUMBERS)
            or (isinstance(node, ast.Attribute)
                and node.attr in ("k_plus", "k_minus")))


@pytest.mark.parametrize("module", _MODULES)
def test_only_the_coupling_forms_the_wave_number_sum(module):
    # k_plus +- k_minus is closed._coupling's alone: the sum cancels for
    # Re z >> 1 and the difference for Re z << -1, and it picks the one
    # that keeps its digits
    tree = _module_tree(module)
    if module == "closed":
        tree.body = [node for node in tree.body
                     if getattr(node, "name", None) != "_coupling"]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                      (ast.Add, ast.Sub)):
            assert not (_is_wave_number(node.left)
                        and _is_wave_number(node.right)), (
                f"{module}.py:{node.lineno} forms a wave-number sum")


def test_kernel_takes_its_wave_numbers_from_closed():
    assert not any(isinstance(node, ast.Name) and node.id == "principal_sqrt"
                   for node in ast.walk(_module_tree("kernel")))


def _cli_options(parser):
    """Options and positionals of parser and of every subcommand below it,
    --help excluded."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                count += _cli_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_cli_option_count_is_pinned():
    # as for the parameters: a new option moves this count on purpose
    assert _cli_options(cli.build_parser()) == 35


_RATIO = """
import sys
import sgnspec.closed
assert sgnspec.closed.regularized_pseudomode_ratio(5475.0, 1.0) > 1.0
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy", "dataclasses")))
"""


def test_pseudomode_ratio_does_not_load_numpy():
    assert _fresh(_RATIO) == "[]"


_MODELS = """
import sys
import sgnspec.models
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("numpy", "scipy", "dataclasses")))
"""


def test_models_does_not_load_numpy():
    assert _fresh(_MODELS) == "[]"


def test_oracle_still_loads_scipy(tmp_path):
    assert _fresh(_ORACLE, str(tmp_path / "f.csv")) == "True"


def test_fd_oracle_does_not_load_scipy_sparse():
    # LAPACK's gttrf/gttrs alone load no scipy.sparse, nor does the
    # oracle's own Krylov iteration
    assert _fresh(_NO_SPARSE) == "[] []"


def test_spectral_radius_does_not_load_scipy():
    # the Arnoldi spectral radius runs on the package's own Krylov
    # iteration, a restart included (-50 + 0.2i takes two bases), and
    # concurrent.futures stays unloaded too
    assert _fresh(_BS_NO_SCIPY) == "[]"


def test_iterations_do_not_load_numpy_random():
    # the Arnoldi (spectral radius, escape scan) and the Nystrom power
    # iteration start from krylov._start_vector, not from a draw
    assert _fresh(_NO_RANDOM) == "False"


@pytest.mark.parametrize("module", _MODULES + ["__init__"])
def test_no_module_names_numpy_random(module):
    with open(os.path.join(sgnspec.__path__[0], module + ".py")) as f:
        text = f.read()
    for name in ("np.random", "numpy.random", "default_rng"):
        assert name not in text, f"{module}.py names {name}"


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_alone(module):
    _fresh(_ALONE, sgnspec.__path__[0], module)


# finite floats down to the subnormals, and the steps between them
_ends = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(-1e-300, 1e-300))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ends, _ends, st.integers(1, 40))
@example(2.0, 2.0, 1).via("one point")
@example(3.5, 3.5, 9).via("lo == hi")
@example(10.0, -4.0, 8).via("lo > hi")
@example(0.0, 5e-324, 7).via("a subnormal step that rounds to 0")
@example(-1e-310, 1e-310, 13).via("a subnormal step")
@example(-1.7e308, 1.7e308, 5).via("hi - lo overflows")
def test_linspace_equals_numpy_bitwise(lo, hi, n):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, n)
    assert np.array(_linspace(lo, hi, n)).tobytes() == want.tobytes()
