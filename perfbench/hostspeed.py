"""Host speed, sampled beside each command, to take host drift out of the timings.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes: the same command's CPU time moves with it
as much as its wall time does.  A thread in the benchmark's own process times
a fixed piece of work every ``GAP_S`` while the command runs: random reads
over a list of a few MB (cache-bound interpreter work, like the samplers'
bookkeeping) and a few hundred operations on small NumPy arrays (like their
per-step linear algebra).  It is timed by the thread's CPU clock, so it
measures how fast the host runs code, not how much of a CPU the thread got.
The speed differs between CPUs, so the probe runs on the CPUs the command
runs on (``run.py`` pins both).
The probe uses no quantsynth code, so a change to the program does not change
it.

``scale(a, b)`` is ``REFERENCE_S`` over the mean probe time in ``[a, b]``.  A
time measured in that window, multiplied by it, is the time on a host where
the probe takes ``REFERENCE_S``: the benchmark's host-normalized seconds.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np

GAP_S = 0.05  # between samples; one sample costs about 1.6 ms of one CPU
REFERENCE_S = 1.2e-3  # probe time the normalized seconds refer to: about its time on a quiet 2-CPU host
_LIST_LEN = 1 << 18  # ~9 MB of Python ints and list slots
_READS = 2000
_VECTOR_OPS = 450  # about as long as the reads, so both weigh alike


class HostSpeed:
    """A sampling thread; use as a context manager around the timed commands."""

    def __init__(self):
        rnd = random.Random(0)
        self._data = list(range(_LIST_LEN))
        self._order = list(range(_LIST_LEN))
        rnd.shuffle(self._order)
        self._vectors = [np.full(3, 1.0 + k / 64.0) for k in range(64)]
        self._samples: list = []  # (start, time.monotonic_ns(); CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_loop, name="hostspeed", daemon=True)

    def _work(self, offset: int) -> float:
        data, total = self._data, 0
        for i in self._order[offset : offset + _READS]:
            total += data[i]
        x = np.zeros(3)
        vectors = self._vectors
        for k in range(_VECTOR_OPS):
            x = x * 0.5 + vectors[k & 63]
        return total + float(x[0])

    def _sample_loop(self) -> None:
        offset = 0
        while not self._stop.is_set():
            at, c0 = time.monotonic_ns(), time.thread_time()
            self._work(offset)
            self._samples.append((at, time.thread_time() - c0))
            offset = (offset + _READS) % (_LIST_LEN - _READS)
            self._stop.wait(GAP_S)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """REFERENCE_S over the mean probe time of the samples taken in ``[start_ns, end_ns]``."""
        took = [t for at, t in list(self._samples) if start_ns <= at <= end_ns]
        if not took:
            raise RuntimeError("no host-speed sample in the window")
        return REFERENCE_S * len(took) / sum(took)
