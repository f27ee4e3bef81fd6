"""Two independent jobs side by side, on two cores.

The resolvent kernel of H is one decaying exponential per half-line, so
the O(n) layer of bounds splits into a job for x >= 0 and one for
x < 0, and the FD oracle's Richardson pair into its coarse and its fine
grid.  _both runs such a pair: the first job in the calling thread and
the second on one long-lived helper thread, when the grid has at least
_MIN_NODES nodes and the process may run on two cores; otherwise the
two one after the other.  Each job computes what it computes alone, so
the results are the same bits either way.

Only private functions run on the helper thread: perfbench's span
recorder is single-threaded and wraps the public ones.  A job must not
call _both itself, since the one helper would then wait for itself.
concurrent.futures is imported, and the helper started, only when the
first pair is dispatched; a forked child drops the parent's helper,
whose thread it does not have, and starts its own.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

# nodes from which a pair runs on two threads: the crossover of
# bounds._apply, the pair called most often (twice per power step).
# Serial -> paired, 2-core x86, one BLAS thread, medians of 201
# alternating calls at Re z = 300 and 1736: _apply 0.43 -> 0.51 ms at
# 16,400 nodes, 0.55 -> 0.54-0.58 ms at 20,480, 0.64-0.71 -> 0.62-0.67
# ms at 24,580 and 0.86-0.97 -> 0.75-0.86 ms at 32,780.  _sides and the
# FD pair gain from smaller grids (_sides 0.49 -> 0.34 ms at 4,100
# nodes; resolvent_norm_fd(25 + 0.3i, n=2001), 6,004 nodes on its two
# grids, 2.76 -> 2.40 ms), but are called once per z.
_MIN_NODES = 24_576

_helper = None  # the executor of the helper thread, made on first use
_making = threading.Lock()  # held while _helper is made


def _drop_helper() -> None:
    global _helper, _making
    _helper, _making = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_drop_helper)


def _two_cores() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity mask on this platform
        return (os.cpu_count() or 1) >= 2


def _both(size: int, first: Callable[[], A],
          second: Callable[[], B]) -> tuple[A, B]:
    """(first(), second()) for two independent jobs on a grid of size
    nodes, the second on the helper thread from _MIN_NODES nodes up.

    Returns only once both jobs have finished.  If both fail, the error
    raised is first's, as in the serial order.
    """
    global _helper
    if size < _MIN_NODES or not _two_cores():
        return first(), second()
    with _making:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor
            _helper = ThreadPoolExecutor(max_workers=1)
    later = _helper.submit(second)
    try:
        a = first()
    finally:
        later.exception()  # waits for the helper, and raises nothing
    return a, later.result()
