"""Host speed probe for the timed samples.

The benchmark runs on shared virtual machines whose vCPUs change speed by
up to 1.5x, in stretches of seconds to minutes (see README.md, "Host
speed"), so the wall time of a sample says as much about the host as about
the program.  A ``Probe`` runs a small fixed pure-Python kernel from a timer
signal every ``PERIOD_S`` of wall time, in the process being measured, and
records how much CPU time each run of the kernel took.  The kernel uses
nothing from ``superfock``, so a change to the program does not change it.

Times are CPU times of the process, so that time spent waiting for a CPU
does not count; the program is single-threaded and does no I/O.  The ticks
are evenly spaced in wall time, which is CPU time while the process runs,
and the speed of the host during a tick is
proportional to 1/c for a tick that took c seconds.  So an interval of
``elapsed`` CPU seconds holding ticks c_1..c_k does the work that the
reference host, on which the kernel takes ``REF_S``, does in

    (elapsed - sum(c_i)) * mean(REF_S / c_i)

seconds; the probe's own time is taken out first.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from math import gcd

PERIOD_S = 0.05
REF_S = 5e-4  # the kernel's duration on the reference host


class _Q:
    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        g = gcd(gcd(abs(a), abs(b)), d)
        self.a, self.b, self.d = a // g, b // g, d // g


def kernel() -> dict:
    """Fixed work in the program's style: Gaussian rationals summed in a dict."""
    acc: dict = {}
    for i in range(1, 400):
        q = _Q(i * 7, i * 3 + 1, i + 2)
        key = (i % 7, i % 5)
        r = acc.get(key)
        acc[key] = q if r is None else _Q(r.a * q.d + q.a * r.d, r.b * q.d + q.b * r.d, r.d * q.d)
    return acc


def timed_kernel() -> float:
    """CPU seconds one run of the kernel takes, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.process_time()
    kernel()
    spent = time.process_time() - t0
    if enabled:
        gc.enable()
    return spent


def at_reference_speed(elapsed: float, ticks: list[float]) -> float:
    """Seconds the reference host needs for ``elapsed`` CPU seconds that held ``ticks``.

    An interval shorter than one period may hold no tick; the kernel is then
    timed once, just after it.
    """
    speeds = [REF_S / c for c in ticks] or [REF_S / timed_kernel()]
    return (elapsed - sum(ticks)) * statistics.fmean(speeds)


class Probe:
    """Times the kernel on SIGALRM every ``PERIOD_S`` between ``start`` and ``stop``."""

    def __init__(self):
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.ticks.append(timed_kernel())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[float]:
        """The ticks since the last ``take``."""
        ticks, self.ticks = self.ticks, []
        return ticks
