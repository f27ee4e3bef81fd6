"""Two independent jobs side by side, on two cores.

The resolvent kernel of H is one decaying exponential per half-line, so
the O(n) layer of bounds splits into a job for x >= 0 and one for
x < 0, and the FD oracle's Richardson pair into its coarse and its fine
grid.  _both runs such a pair: the first job in the calling thread and
the second on a thread of its own, started for the call and joined
before it returns, when the grid has at least _MIN_NODES nodes and the
process may run on two cores; otherwise the two one after the other.
Each job computes what it computes alone, so the results are the same
bits either way.  No thread outlives its call, so a job may pair again
and a forked child pairs as its parent does.

Only private functions run on the second thread: perfbench's span
recorder is single-threaded and wraps the public ones.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

# nodes from which a pair runs on two threads: the crossover of
# bounds._apply, the pair called most often (twice per power step), with
# a thread started and joined per call.  Serial -> paired, 2-core x86,
# one BLAS thread, medians of 401 alternating calls at Re z = 300 and
# 1736, two runs each: 0.39-0.55 -> 0.50-0.63 ms at 16,400 nodes,
# 0.57-0.68 -> 0.61-0.80 at 20,480, 0.67-0.79 -> 0.69-0.78 at 24,580,
# 0.83-0.92 -> 0.82-0.99 at 28,680, 0.84-1.02 -> 0.90-0.93 at 32,780,
# 1.03-1.26 -> 1.04-1.11 at 40,960 and 1.68-1.91 -> 1.45-1.60 at 65,540.
# _sides and the FD pair, called once per z, take the same threshold.
_MIN_NODES = 32_768


def _two_cores() -> bool:
    try:
        return len(os.sched_getaffinity(0)) >= 2
    except AttributeError:  # no affinity mask on this platform
        return (os.cpu_count() or 1) >= 2


def _both(size: int, first: Callable[[], A],
          second: Callable[[], B]) -> tuple[A, B]:
    """(first(), second()) for two independent jobs on a grid of size
    nodes, the second on a thread of its own from _MIN_NODES nodes up.

    Returns only once both jobs have finished.  If both fail, the error
    raised is first's, as in the serial order.
    """
    if size < _MIN_NODES or not _two_cores():
        return first(), second()
    got = {}

    def run() -> None:
        try:
            got["value"] = second()
        except BaseException as exc:  # re-raised in the caller
            got["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    try:
        a = first()
    finally:
        thread.join()
    if "error" in got:
        raise got["error"]
    return a, got["value"]
