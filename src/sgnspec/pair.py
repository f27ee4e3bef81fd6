"""Two independent jobs side by side, on two threads.

The resolvent kernel of H is one decaying exponential per half-line, so
the O(n) layer of bounds splits into a job for x >= 0 and one for
x < 0, and the FD oracle's Richardson pair into its coarse and its fine
grid.  _both runs such a pair: the first job in the calling thread and
the second on a thread of its own, started for the call and joined
before it returns, when the grid has at least _MIN_NODES nodes;
otherwise the two one after the other.  The grid size is the one rule:
a process held to one core pairs too, at a cost of at most ~6 % (2-core
x86 pinned to one core, one BLAS thread, medians of 9 alternating runs,
two runs, paired vs serial: 17.9-27.4 vs 17.3-26.2 ms for the Nystrom
norm on 82,360 nodes, 116.6-120.1 vs 114.4-117.1 ms on 495,140 and
18.4-18.6 vs 17.3-17.9 ms for an n = 20001 FD oracle).  Each job
computes what it computes alone, so the results are the same bits
either way.  No thread outlives its call, so a job may pair again and a
forked child pairs as its parent does.

Only private functions run on the second thread: perfbench's span
recorder is single-threaded and wraps the public ones.
"""

from __future__ import annotations

import contextvars
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
# Those calls still divided per node; the divide-free scan that
# replaced it breaks even paired only near 131,080 nodes (2.60-2.70 ->
# 2.63-2.67 ms, medians of 101 alternating calls at the same points).
# _sides and the FD pair, called once per z, take the same threshold,
# and gain from it: _sides on default_strip_grid(316 + 0.1i), 82,360
# nodes, takes 11.2-11.3 ms serial and 6.1-6.2 paired, and 62-79 ->
# 33-42 ms at 1732 + 0.1i, 451,360 nodes (medians of alternating
# calls, two runs).  In a strip_oracle pass the lower Nystrom op (~95k
# nodes) loses ~2.4 ms on its applies and gains ~5 ms on its _sides,
# the upper one gains ~47 ms and each FD oracle ~5 ms: 0.391 s serial,
# 0.316 s paired.
_MIN_NODES = 32_768


def _both(size: int, first: Callable[[], A],
          second: Callable[[], B]) -> tuple[A, B]:
    """(first(), second()) for two independent jobs on a grid of size
    nodes, the second on a thread of its own from _MIN_NODES nodes up.

    Returns only once both jobs have finished.  If both fail, the error
    raised is first's, as in the serial order.  The second job runs in a
    copy of the caller's context, so an np.errstate the caller set holds
    on both threads.
    """
    if size < _MIN_NODES:
        return first(), second()
    got = {}

    def run() -> None:
        try:
            got["value"] = second()
        except BaseException as exc:  # re-raised in the caller
            got["error"] = exc

    thread = threading.Thread(target=contextvars.copy_context().run,
                              args=(run,))
    thread.start()
    try:
        a = first()
    finally:
        thread.join()
    if "error" in got:
        raise got["error"]
    return a, got["value"]
