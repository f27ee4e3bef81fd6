"""Start-up guard: only the finite-difference oracle and the Arnoldi
spectral radius load SciPy, so the closed-form CLI commands start in
about the time of a NumPy import; and every module imports on its own,
so no import cycle hides behind the package's import order."""

import os
import subprocess
import sys

import pytest

import sgnspec

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sgnspec.__file__)))

_NO_SCIPY = """
import io, sys
import sgnspec
from sgnspec import cli
out = io.StringIO()
cases = [
    ["delta", "--alpha", "2"],
    ["bounds", "--z", "50,0.3"],
    ["kernel", "--z", "2,0.4", "--x", "0.1", "--y", "0.7"],
    ["dirichlet", "--z", "5,0.5"],
    ["gamma", "--sigma=-1,1,-1", "--r", "0:5:7"],
    ["step", "--a", "1", "--b", "3", "--lam-max", "60"],
    ["field", "--re=-2:40:6", "--im=-1.5:1.5:5", "--out", sys.argv[1]],
    ["bs", "sweep", "--re", "25:50:2"],
    ["bs", "roots", "--eps", "1", "--seeds=-0.7"],
]
for argv in cases:
    assert cli.main(argv, out=out) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""

_ORACLE = """
import io, sys
from sgnspec import cli
argv = ["field", "--re=5:8:2", "--im=0.3:0.3:1", "--oracle",
        "--oracle-n", "51", "--out", sys.argv[1]]
assert cli.main(argv, out=io.StringIO()) == 0
print("scipy" in sys.modules)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_closed_form_commands_do_not_load_scipy(tmp_path):
    assert _fresh(_NO_SCIPY, str(tmp_path / "f.csv")) == "[]"


def test_oracle_still_loads_scipy(tmp_path):
    assert _fresh(_ORACLE, str(tmp_path / "f.csv")) == "True"


@pytest.mark.parametrize("module", _MODULES)
def test_module_imports_alone(module):
    _fresh(_ALONE, sgnspec.__path__[0], module)
