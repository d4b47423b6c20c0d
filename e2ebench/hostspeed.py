"""Host speed: a fixed pure-Python loop, timed between requests.

The reference host is a shared 2-vcpu VM whose speed drifts by about
+-20% over seconds to minutes: the same loop takes 8 ms in one
2-second window and 12 ms in the next, and whole runs of an identical
workload differ by as much.  Raw wall clock therefore spreads across
runs far more than any regression worth catching, so every run times
this loop between its requests and the end-to-end times are reported at
the reference speed: ``raw / factor`` (see :func:`factor`).  The loop is
timed only while no request is in flight (on the server's cpu, while
the server is idle, for the service), so it touches nothing of the
program and a change to the program moves the reported times exactly
as it moves the raw ones; the raw values are printed and kept in the
result file next to them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import subprocess
import sys
from time import perf_counter

#: Median loop time on the reference host in its fast state (seconds).
REFERENCE_S = 0.0032


#: Iterations of one full pass of the reference loop.
PASS = 40_000
#: Iterations of a short sample (about 0.8 ms), taken between requests.
SHORT = 10_000


def sample(iterations: int = PASS) -> float:
    """Seconds one pass of the reference loop takes now, timed over
    ``iterations`` (a shorter sample fits a gap between requests)."""
    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (perf_counter() - start) * PASS / iterations


def factor(samples: list[float]) -> float:
    """How much slower than the reference the host ran (1.0 = as fast).

    The mean of the samples without their highest and lowest tenth: the
    samples fall into two groups about 30% apart (the host runs the vcpu
    in one of two states), and the run spends time in each, so their
    median jumps between the groups while the mean follows the mix.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S


# Lowest-priority busy loop; it ends when its parent does.
_SPINNER = """\
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextlib.contextmanager
def no_idle_cpus():
    """Keep every cpu of this process busy with a ``SCHED_IDLE`` spinner.

    On the reference VM a vcpu that goes idle is halted, and waking it
    for the next request takes a time that depends on the host's other
    tenants: the service latency spread 20-70% across runs, and more at
    a lower request rate, while the loop above moved by a few percent.
    A spinner at the lowest scheduling class runs only when nothing else
    wants the cpu, so the vcpus never halt (as ``idle=poll`` would do
    for a kernel) and the remaining drift is the kind the loop measures.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPINNER, str(os.getpid())],
                         preexec_fn=functools.partial(os.sched_setaffinity,
                                                      0, {cpu}))
        for cpu in sorted(os.sched_getaffinity(0))]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()
