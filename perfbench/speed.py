"""Machine-speed gauge, so that run times measured on a shared machine compare.

On a machine shared with other tenants the same simulation can take 1.6x
longer for seconds to tens of seconds at a time, as neighbours load the same
cores.  The gauge times a fixed pure-Python kernel (keyed digests, frozen
dataclasses, dict and list traffic, like the simulator's hot path) before a
run, every `INTERVAL_S` of wall time during it (from a timer signal, between
two bytecodes of the run), and after it.  The run's processor time, less the
kernels', is scaled by `REFERENCE_S / mean kernel time`: scaled times are
seconds on a machine where the kernel takes `REFERENCE_S`.  The kernel is the
benchmark's own code, so a change to the program moves a scaled time by the
same factor as the raw time.
"""
from __future__ import annotations

import gc
import hashlib
import hmac
import signal
import statistics
import struct
import time
from dataclasses import dataclass
from typing import Callable, Tuple, TypeVar

REFERENCE_S = 0.0045  # the kernel's processor time on an unloaded core of the reference box
INTERVAL_S = 0.25

T = TypeVar("T")


@dataclass(frozen=True)
class _Record:
    index: int
    tag: bytes


def kernel(rounds: int = 1000) -> int:
    key = b"speed-gauge-key!" * 2
    table = {}
    queue = []
    for i in range(rounds):
        packed = struct.pack(">II", i, i * 7)
        rec = _Record(i, hmac.new(key, packed, hashlib.sha256).digest()[:8])
        table[rec] = i
        queue.append(rec.tag + packed)
        if i % 3 == 0:
            queue.pop(0)
    return len(table) + len(queue)


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        kernel()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class SpeedGauge:
    def __init__(self) -> None:
        self._last = kernel_seconds()
        self._at = time.perf_counter()

    def reading(self) -> float:
        """The kernel time, re-measured if the last reading is older than INTERVAL_S."""
        if time.perf_counter() - self._at >= INTERVAL_S:
            self._last = kernel_seconds()
            self._at = time.perf_counter()
        return self._last

    def timed(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Call `fn`.  Returns its result, the processor time it took (without
        the gauge's own kernels), and the factor that scales that time to
        reference seconds."""
        readings = [self.reading()]
        spent = 0.0

        def sample(_signum, _frame) -> None:
            nonlocal spent
            start = time.process_time()
            readings.append(kernel_seconds())
            spent += time.process_time() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.process_time()
            result = fn()
            elapsed = time.process_time() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        readings.append(self.reading())
        return result, elapsed - spent, REFERENCE_S / statistics.fmean(readings)
