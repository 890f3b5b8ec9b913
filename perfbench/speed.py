"""Fixed probes that track how fast the machine runs while a workload works.

On a shared host the same work can take 20-40 % longer for seconds to
minutes when neighbours are busy, so raw wall times of one program drift
between runs more than any change worth gating. :class:`SpeedSampler`
times a small fixed probe every ``PROBE_INTERVAL_S`` of wall time while
the program runs (from a ``SIGALRM`` handler, which Python runs between
the program's bytecodes), and a few times either side of it. The wall
time, less the probes' own time, is then scaled to the speed the probe was
calibrated at:

    scaled = (elapsed - probe time) * nominal * mean(1 / probe_i)

``1 / probe_i`` is the machine's speed at sample ``i``, and the samples are
spread evenly over the wall time, so their mean is the mean speed over the
run. The probes are the benchmark's own code, so a change to stforge cannot
move them.

Neighbours slow interpreter-bound and array-bound code by different
amounts, so there are two probes, and each workload uses the one that
matches the work it spends its time in (``workloads.PROBE``):

``interpreter``  a word-level edit-distance DP in pure Python: list
                 appends, ``min`` and comparisons (segmenter, textfilter,
                 sampler, evalign);
``array``        a 64-tap windowed-sinc resample of a fixed signal in
                 numpy: gather, ``sinc``, ``cos`` and ``einsum`` over
                 arrays of 200 x 64 (audio, augment).

A probe is timed in CPU time of its own thread, so time spent waiting for
the GIL, should the program run threads, does not count as a slow machine.
The garbage collector is off while it runs, so a large live heap left by
the program under test does not slow it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
BRACKET = 3  # probes timed just before and just after the sampled window

_N = 30
_A = [(k * 7919) % 50 for k in range(_N)]
_B = [(k * 104729 + 13) % 50 for k in range(_N)]

_HALF = 32
_OFFSETS = np.arange(-_HALF + 1, _HALF + 1)
_POSITIONS = np.arange(200) / 0.9439
_SIGNAL = np.sin(np.arange(400) * 0.05)  # covers every tap of every position


def _interpreter_probe() -> int:
    row = list(range(len(_B) + 1))
    for x in _A:
        new = [row[0] + 1]
        for j in range(1, len(_B) + 1):
            new.append(min(row[j] + 1, new[j - 1] + 1, row[j - 1] + (x != _B[j - 1])))
        row = new
    return row[-1]


def _array_probe() -> np.ndarray:
    idx = np.floor(_POSITIONS).astype(np.int64)[:, None] + _OFFSETS[None, :]
    delta = idx - _POSITIONS[:, None]
    kernel = np.sinc(delta) * (0.5 + 0.5 * np.cos(np.pi * delta / _HALF))
    return np.einsum("ot,ot->o", kernel, _SIGNAL[idx + _HALF])


# kind -> (probe, nominal seconds). The nominal time is a fixed scale, about
# the probe's median CPU time on a 2-vCPU Intel Xeon VM under Python 3.11
# and numpy 2.x, so scaled times read close to raw seconds there.
PROBES = {
    "interpreter": (_interpreter_probe, 0.00045),
    "array": (_array_probe, 0.0009),
}


def probe_seconds(kind: str) -> float:
    """CPU time of one run of the ``kind`` probe on the calling thread."""
    probe = PROBES[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        probe()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Context manager: times the code inside it and the machine's speed.

    After the block, ``wall_s`` is its wall time less the probes run inside
    it, ``scaled_s`` that time at the probe's nominal speed, and ``samples``
    every probe time. Only the main thread may use it, as it owns
    ``SIGALRM``.
    """

    def __init__(self, kind: str, interval: float = PROBE_INTERVAL_S):
        self.kind = kind
        self.interval = interval
        self.samples: list[float] = []
        self.wall_s = self.scaled_s = 0.0
        self._inside = 0.0
        self._start = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.samples.append(probe_seconds(self.kind))
        if signum is not None:
            self._inside += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        for _ in range(BRACKET):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET):
            self._sample()
        self.wall_s = elapsed - self._inside
        nominal = PROBES[self.kind][1]
        self.scaled_s = self.wall_s * nominal * statistics.fmean(1.0 / p for p in self.samples)
