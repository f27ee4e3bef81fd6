"""Tests for the paired path: the two half-lines of the O(n) resolvent
layer and the FD oracle's two grids side by side (pair._both).  Every
result must be the same bits as in the serial order, errors included; a
paired call must leave no thread behind and load no thread pool, and a
job that pairs again, a forked child and a process held to one core
must run their pairs.  The second job runs in the caller's NumPy error
state."""

import inspect
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from sgnspec import bounds, bs, closed, fdop, krylov, pair, quadrature
from sgnspec.bounds import (apply_resolvent, default_strip_grid,
                            quadrature_operator_norm)
from sgnspec.errors import ConvergenceError, DomainError
from sgnspec.quadrature import gauss_legendre_grid

# a threshold above every grid of these tests: the serial order
_SERIAL = 10**12


@pytest.fixture
def both_ways(monkeypatch):
    """fn() in the serial order and with every grid paired on two
    threads."""

    def run(fn):
        monkeypatch.setattr(pair, "_MIN_NODES", _SERIAL)
        serial = fn()
        monkeypatch.setattr(pair, "_MIN_NODES", 0)
        return serial, fn()

    return run


class TestBoth:
    def test_second_job_runs_on_the_helper(self):
        here = threading.get_ident()
        assert pair._both(pair._MIN_NODES - 1, threading.get_ident,
                          threading.get_ident) == (here, here)
        first, second = pair._both(pair._MIN_NODES, threading.get_ident,
                                   threading.get_ident)
        assert first == here != second

    def test_both_failing_raises_the_first_after_the_second_ends(self):
        ended = threading.Event()

        def first():
            raise KeyError("first")

        def second():
            time.sleep(0.2)
            ended.set()
            raise ValueError("second")

        with pytest.raises(KeyError, match="first"):
            pair._both(pair._MIN_NODES, first, second)
        assert ended.is_set()

    def test_second_failing_alone_raises_its_error(self):
        def second():
            raise ValueError("second")

        with pytest.raises(ValueError, match="second"):
            pair._both(pair._MIN_NODES, lambda: 1, second)

    def test_second_job_keeps_the_callers_errstate(self):
        # a thread starts in an empty context, where NumPy's error state
        # is the default
        with np.errstate(over="raise"):
            states = pair._both(pair._MIN_NODES, np.geterr, np.geterr)
        assert states[0]["over"] == states[1]["over"] == "raise"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_the_helper_reaches_the_gate(self, monkeypatch):
        # the helper's half-line scan once warned before the DomainError
        monkeypatch.setattr(pair, "_MIN_NODES", 0)
        grid = gauss_legendre_grid(10.0, 1.0)
        with pytest.raises(DomainError, match="float range"):
            apply_resolvent(5 + 0.5j, grid, np.full(grid.size, 1e308))


class TestSameBits:
    def test_apply_resolvent(self, both_ways):
        z = 320 - 0.19j
        grid = default_strip_grid(z)
        f = np.exp(-grid.nodes ** 2) * (1.0 + 0.3j * np.sin(grid.nodes))
        serial, paired = both_ways(lambda: apply_resolvent(z, grid, f))
        assert serial.tobytes() == paired.tobytes()

    def test_operator_norm_far_up(self, both_ways):
        # strip_oracle's largest op: 419,840 nodes
        z = 1736.32 + 0.03j
        grid = default_strip_grid(z)
        serial, paired = both_ways(
            lambda: quadrature_operator_norm(z, grid))
        assert serial == paired

    @pytest.mark.parametrize("z", [3000 + 0.5j, -40 + 0.2j])
    def test_birman_schwinger(self, both_ways, z):
        pot = bs.gaussian()
        grid = bs.potential_grid(z, pot)
        serial, paired = both_ways(lambda: (
            bs.hs_norm(z, pot, grid), bs.spectral_radius(z, 0.125, pot)))
        assert serial == paired

    def test_fd_oracle(self, both_ways):
        z = 98.266 + 0.344j
        serial, paired = both_ways(lambda: fdop.resolvent_norm_fd(z, n=20001))
        assert serial == paired

    def test_fd_coarse_failure_is_typed(self, both_ways, monkeypatch):
        # -0.5 takes 30 Lanczos steps on both grids, more than one basis
        def fails():
            with pytest.raises(ConvergenceError):
                fdop.resolvent_norm_fd(-0.5)

        monkeypatch.setattr(krylov, "_RESTARTS", 0)
        both_ways(fails)


def test_no_public_function_runs_on_the_helper(both_ways, monkeypatch):
    # perfbench's span recorder wraps the public functions at every
    # module binding and is single-threaded: each must run on the caller
    callers = set()
    for mod in (bounds, bs, closed, fdop, quadrature):
        for name, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                def traced(*args, fn=fn, **kwargs):
                    callers.add(threading.get_ident())
                    return fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, traced)
    z = 320 - 0.19j
    grid = bounds.default_strip_grid(z)
    pot = bs.gaussian()

    def run():
        bounds.apply_resolvent(z, grid, np.ones(grid.size))
        bounds.quadrature_operator_norm(5 + 0.5j, bounds.default_strip_grid(
            5 + 0.5j))
        bs.spectral_radius(300 + 0.5j, 0.125, pot)
        fdop.resolvent_norm_fd(25 + 0.3j, n=4001)

    both_ways(run)
    assert callers == {threading.get_ident()}


_FORK = """
import os, signal, time
import numpy as np
from sgnspec import pair
from sgnspec.bounds import apply_resolvent
from sgnspec.quadrature import gauss_legendre_grid
pair._MIN_NODES = 0
grid = gauss_legendre_grid(15.0, 0.3)
f = np.exp(-grid.nodes ** 2)
want = apply_resolvent(5 + 0.5j, grid, f).tobytes()
pid = os.fork()
if pid == 0:
    got = apply_resolvent(5 + 0.5j, grid, f).tobytes()
    os._exit(0 if got == want else 1)
deadline = time.monotonic() + 30.0
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(os.waitstatus_to_exitcode(status))
        break
    time.sleep(0.01)
else:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    print("hung")
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_forked_child_runs_pairs():
    # the child has only the thread that forked: each of its pairs
    # starts a thread of its own; tests/conftest.py puts src on the
    # child's PYTHONPATH
    proc = subprocess.run([sys.executable, "-c", _FORK], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


_FRESH = """
import sys, threading
from sgnspec import pair
before = threading.active_count()
assert pair._both(pair._MIN_NODES, lambda: 1, lambda: 2) == (1, 2)
print(threading.active_count() - before, "concurrent.futures" in sys.modules)
"""


def test_a_pair_leaves_no_thread_and_no_pool():
    # a fresh process, since another test may have loaded the module
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


_NESTED = """
from sgnspec import pair
pair._MIN_NODES = 0
inner = lambda: pair._both(1, lambda: 1, lambda: 2)
print(pair._both(1, inner, inner))
"""


def test_a_job_pairs_again():
    # a subprocess with a deadline, since a pair whose second job waits
    # for a thread it occupies itself never ends
    try:
        proc = subprocess.run([sys.executable, "-c", _NESTED],
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("a job that pairs again hung")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "((1, 2), (1, 2))"


_ONE_CORE = """
import os, threading
from sgnspec import pair
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
here = threading.get_ident()
first, second = pair._both(pair._MIN_NODES, threading.get_ident,
                           threading.get_ident)
print(len(os.sched_getaffinity(0)), first == here, second != here)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no affinity mask here")
def test_a_process_on_one_core_pairs_by_size():
    # the grid size alone decides: a subprocess, since it pins itself
    proc = subprocess.run([sys.executable, "-c", _ONE_CORE],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 True True"
