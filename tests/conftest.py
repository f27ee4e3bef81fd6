"""Test set-up shared by every test module.

pyproject.toml's ``pythonpath = ["src"]`` puts the package on the path of
the pytest process only.  The tests that start ``python -m sgnspec.cli``
or ``python -c`` in a child process need it on PYTHONPATH as well, so
that ``python -m pytest`` runs from a checkout without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    if _SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *paths])
