"""Work time corrected for the speed the shared machine gives the process.

The benchmark runs on a VM whose host moves the speed of identical work by
up to 2x, in spells that last seconds to minutes.  A `Speedometer` samples
that speed while the work runs: a SIGALRM timer fires every INTERVAL seconds
and its handler times `kernel()`, a fixed mix of small numpy operations, pure
Python arithmetic, a small complex solve and a small symmetric eigenproblem
(the kinds of work the library does).  The kernel is independent of the
library, so a faster library still reads faster.

`work_clock()` is perf_counter minus the time every tick so far took, so
spans timed with it leave the ticks out.

`reference_seconds()` is the work time, kernel ticks excluded, with each
stretch between two ticks scaled by REFERENCE_KERNEL_S / (the kernel time
around that stretch): the seconds the work would have taken at the speed at
which the kernel takes REFERENCE_KERNEL_S.  `wall_seconds()` is the same work
time unscaled.

Handlers run between Python bytecodes, so during one long call into compiled
code (an LU factorisation) the ticks wait; the stretch is scaled by the
kernel times at its two ends.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.1
# about the kernel's time between stretches of work on the 2-vCPU machine
# the benchmark was built on, so reference seconds read roughly as wall
# seconds there; any fixed value compares two commits equally well
REFERENCE_KERNEL_S = 3.5e-3

_ticks_total = 0.0   # seconds spent in ticks by every Speedometer

_VEC = np.linspace(0.1, 1.0, 16)
_MAT = np.random.default_rng(0).standard_normal((96, 96))
_MAT = _MAT + 1j * _MAT.T


def kernel():
    s = 0.0
    for i in range(150):
        s += float(np.sum(np.exp(-_VEC * (i * 1e-4)) @ _VEC))
    k = 0
    for i in range(8000):
        k += i * i % 7
    for _ in range(3):
        np.linalg.solve(_MAT, _MAT[:, 0])
    for _ in range(4):
        s += float(np.polynomial.legendre.leggauss(20)[1][0])
    return s + k


def work_clock():
    return perf_counter() - _ticks_total


class Speedometer:
    """Context manager that samples the machine's speed around its body."""

    def __init__(self):
        self.work = []      # wall seconds of each stretch between two ticks
        self.kernel_s = []  # mean kernel seconds of each stretch's end ticks
        self._last = None   # (end of the previous tick, its kernel seconds)
        self._busy = False

    def _tick(self, *_):
        global _ticks_total
        if self._busy:      # a signal that arrives during a tick is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        _ticks_total += t1 - t0
        self._busy = False
        if self._last is not None:
            end, k = self._last
            self.work.append(t0 - end)
            self.kernel_s.append(0.5 * (k + (t1 - t0)))
        self._last = (t1, t1 - t0)

    def __enter__(self):
        self._last = None
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        return False

    def wall_seconds(self):
        return float(sum(self.work))

    def reference_seconds(self):
        return float(sum(w * REFERENCE_KERNEL_S / k
                         for w, k in zip(self.work, self.kernel_s)))
