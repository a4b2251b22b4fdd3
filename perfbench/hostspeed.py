"""Host-speed sampling, which takes the host's drift out of a timing.

The benchmark runs on a few cores of a shared host whose speed per core
drifts by 20-40 % within seconds and over minutes, and differs between
cores.  The process's CPU time tracks its wall time there, so the drift is
slower instructions, not lost time slices, and no clock leaves it out.  A
``Sampler`` therefore runs a fixed pure-Python kernel, which uses nothing
from algcheck, at the start and end of a timed span and every ``INTERVAL``
seconds inside it (on SIGALRM, in the main thread), and times each kernel
run in thread CPU time: ``K_REF / k`` is the speed at that moment, where
``k`` is the kernel time.  Processes forked inside the span, such as the
selftest's pool workers, sample their own cores the same way.

The span's speed is the mean of these speeds weighted by the CPU time the
program used between samples, outside the kernel, in whichever process took
them: the speed at which the program's own work ran.  ``scaled_s`` is the
span's wall time, less the kernel's in the main process, times that speed:
seconds at the reference speed.  A change to algcheck moves it as it moves
wall time; a change in host speed does not.
"""

from __future__ import annotations

import mmap
import os
import signal
import struct
import time

INTERVAL = 0.1
ROUNDS = 8000
# Thread CPU seconds of one kernel run at the reference speed: about its
# median on a 2-core Intel Xeon host with Python 3.11.7.
K_REF = 0.0035
# Processes that can sample in one span: the main one and its forks.
SLOTS = 16
_SLOT = struct.Struct("dd")  # sum of weight x speed, sum of weight


def kernel():
    """Tuple keys, dict lookups and small-int arithmetic, the mix of the
    checkers' scans over basis tuples."""
    table = {(i, j): i * 8 + j for i in range(8) for j in range(0, 8, 3)}
    acc = 0
    for r in range(ROUNDS):
        key = (r % 8, r * 3 % 8)
        v = table.get(key)
        acc = (acc + (key[0] * key[1] if v is None else v * v)) % 1000003
    return acc


_active = None  # the Sampler whose span is open


def _before_fork():
    if _active is not None:
        _active._forks += 1


def _after_fork_in_child():
    if _active is not None:
        _active._start_child()


os.register_at_fork(before=_before_fork, after_in_child=_after_fork_in_child)


class Sampler:
    """Context manager around one timed span.  It imports nothing that
    algcheck imports, so that it can time a fresh interpreter's imports."""

    def __init__(self):
        # one slot per sampling process, shared with the processes forked
        # in the span
        self._shared = mmap.mmap(-1, SLOTS * _SLOT.size)
        self._slot = 0
        self._forks = 0
        self.samples = 0  # kernel runs in this process
        self.busy_s = 0.0  # wall seconds of the kernel runs inside the span
        self.wall_s = self.speed = None

    def _reset(self):
        self._sum_ws = self._sum_w = 0.0
        self._speed = None
        self._sample()

    def _sample(self):
        """Runs the kernel and adds the interval since the previous run,
        at the mean speed of its two ends; returns the kernel's wall time."""
        wall, cpu, thread = (time.perf_counter(), time.process_time(),
                             time.thread_time())
        kernel()
        speed = K_REF / (time.thread_time() - thread)
        if self._speed is not None:
            weight = cpu - self._cpu_mark
            self._sum_ws += weight * (speed + self._speed) / 2
            self._sum_w += weight
            _SLOT.pack_into(self._shared, self._slot * _SLOT.size,
                            self._sum_ws, self._sum_w)
        self._speed, self._cpu_mark = speed, time.process_time()
        self.samples += 1
        return time.perf_counter() - wall

    def _tick(self, signum, frame):
        elapsed = self._sample()
        if self._slot == 0:
            self.busy_s += elapsed
        # re-armed only here, so a late signal never nests kernel runs
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def _start_child(self):
        self._slot, self.samples = self._forks, 0
        if self._slot < SLOTS:
            self._reset()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self):
        global _active
        self._reset()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        _active = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        global _active
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active = None
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        sums = [_SLOT.unpack_from(self._shared, i * _SLOT.size)
                for i in range(min(self._forks + 1, SLOTS))]
        self._shared.close()
        self.weight_s = [w for _, w in sums]  # CPU seconds, main first
        self.speed = sum(ws for ws, _ in sums) / sum(self.weight_s)
        return False

    @property
    def scaled_s(self):
        return (self.wall_s - self.busy_s) * self.speed
