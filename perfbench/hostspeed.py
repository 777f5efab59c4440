"""Correct timings for the speed the shared host gives this process.

On a virtual machine that shares its host, the same pure-Python work can
take 70 ms in one few-second window and 125 ms in the next. That
slowdown swamps the run-to-run differences the benchmark looks for. So
a `Sampler` runs a small fixed reference kernel every 20 ms on SIGALRM
while a workload sets up and while it is measured. A time measured from
t0 to t1 is then:
- reduced by the kernel runs that landed inside it, and
- scaled by the kernel's reference time over its median time within
  WINDOW_S of [t0, t1].
The result reads as seconds on a host where the kernel takes its
reference time. The kernel matches the work it corrects: interpreter
work (small tuples, dicts, ints) for workloads that run mostly Python
code, and a small dense pairwise-distance computation for the one that
spends its time in numpy. Raw times are reported beside the corrected
ones.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.5


# Both kernels reuse buffers made at import and allocate nothing per call,
# so sampling leaves the workload's heap, and its peak RSS, as it was.
_KEYS = [(k & 63, k * k % 97) for k in range(3000)]
_TABLE = dict.fromkeys(_KEYS, 0)


def interpreter_kernel() -> int:
    table = _TABLE
    for key in _KEYS:
        table[key] ^= 1
    return len(table)


_POINTS = np.random.default_rng(0).random((160, 3))
_DIFF = np.empty((160, 160, 3))
_D2 = np.empty((160, 160))


def numpy_kernel() -> float:
    np.subtract(_POINTS[:, None, :], _POINTS[None, :, :], out=_DIFF)
    np.einsum("ijk,ijk->ij", _DIFF, _DIFF, out=_D2)
    _D2.partition(3, axis=1)
    return float(_D2[:, 3].sum())


# kernel and its time in seconds on an idle 2-vCPU reference host
KERNELS = {
    "interpreter": (interpreter_kernel, 0.0005),
    "numpy": (numpy_kernel, 0.0011),
}


class Sampler:
    """Times one reference kernel every INTERVAL_S seconds while started.

    Samples go into arrays made up front: a Python object kept per sample
    would be allocated in the middle of an operation, pin the memory
    around it and make the peak RSS vary from run to run.
    """

    CAPACITY = 1 << 14  # 5 minutes of samples; later ones are dropped

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_s = KERNELS[kind]
        self.starts = array("d", bytes(8 * self.CAPACITY))
        self.durations = array("d", bytes(8 * self.CAPACITY))
        self.count = array("q", [0])
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        self.kernel()
        i = self.count[0]
        if i < self.CAPACITY:
            self.durations[i] = perf_counter() - t0
            self.starts[i] = t0
            self.count[0] = i + 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of kernel runs that started within [t0, t1)."""
        n = self.count[0]
        i = bisect_left(self.starts, t0, 0, n)
        j = bisect_left(self.starts, t1, 0, n)
        return sum(self.durations[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """Reference time over the median kernel time near [t0, t1]."""
        n = self.count[0]
        i = bisect_left(self.starts, t0 - WINDOW_S, 0, n)
        j = bisect_right(self.starts, t1 + WINDOW_S, 0, n)
        near = self.durations[i:j] or self.durations[:n]
        return self.reference_s / median(near)
