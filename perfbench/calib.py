"""Host calibration: a fixed slice of pure-Python work used as a yardstick.

The benchmark host is shared, and its speed swings by a fifth or more
within a minute.  So the benchmark runs short calibration slices through
every run and reports each time as

    raw seconds x (REFERENCE_SLICE_MS / mean time of the slices near it)

that is, in seconds at a fixed reference speed.  In the processes that
run the program, a ``Sampler`` runs a slice every 50 ms on a timer; the
serve_mixed server runs slices in the idle gaps of the open loop, when
the generator asks.  A slice's wall time is taken out of every wall
interval it falls in, and its CPU time out of every CPU interval.

A slice must measure the host, never the program.  So it never imports
or calls ``repro``; it runs with the garbage collector paused, so the
size of the program's heap cannot add collection pauses to it; and it
touches only the small working set below, allocated once at import, so
the program's heap and cache footprint cannot move its own yardstick.
"""

from __future__ import annotations

import gc
import signal
import time

#: Slice time of the reference host (2 vCPU Xeon VM, Python 3.11) in its
#: fast state, in ms.  Calibrated values are seconds at this speed.
#: Changing it rescales every calibrated number, so it stays fixed for
#: the life of the benchmark.
REFERENCE_SLICE_MS = 1.3

#: Slice size: rounds over the working set (1.3 ms on the reference host).
SLICE_ROUNDS = 40

# Integer keys: their hashes, unlike str hashes, do not change with
# PYTHONHASHSEED, so every process gets the same dict layout.
_KEYS = tuple(i * 7919 for i in range(128))
_VALUES = list(range(256))
_TABLE = dict.fromkeys(_KEYS, 0)


def _rounds(count: int) -> int:
    keys, values, table = _KEYS, _VALUES, _TABLE
    acc = 0
    for r in range(count):
        for i in range(128):
            key = keys[i]
            value = values[(i * 7 + r) & 255]
            table[key] = (table[key] + value) & 0xFFFF
            acc ^= (value * 31 + key) & 0xFFFF
    return acc


def run_slice() -> tuple[float, float]:
    """Run one calibration slice; returns its wall and CPU seconds.

    The wall time is the yardstick.  The CPU time (this thread's) is what
    the slice adds to its process's CPU figures, which is not the same
    when the host takes the CPU away in the middle of a slice.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = time.thread_time()
        start = time.perf_counter()
        _rounds(SLICE_ROUNDS)
        wall = time.perf_counter() - start
        return wall, time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs a slice every ``interval`` seconds of wall time, on a timer.

    Used in the processes that run the program: the timer interrupts the
    program between bytecodes, so slices fall evenly through long calls
    too, not only between them.  ``spent`` and ``spent_cpu`` are the
    slices' total wall and CPU time, which callers subtract from every
    wall and CPU interval they time.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.slices: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0

    def _tick(self, signum, frame) -> None:
        wall, cpu = run_slice()
        self.slices.append(wall)
        self.spent += wall
        self.spent_cpu += cpu

    def start(self) -> None:
        # A few slices up front, so even the first call has a reference.
        for _ in range(3):
            self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(slices: list[float]) -> float:
    """Reference slice time over the mean of ``slices``."""
    if not slices:
        raise ValueError("no calibration slices to measure against")
    return REFERENCE_SLICE_MS / 1000.0 / (sum(slices) / len(slices))


if __name__ == "__main__":
    samples = sorted(run_slice()[0] for _ in range(500))
    print(
        f"slice: median {samples[250] * 1000:.4f} ms, "
        f"mean {sum(samples) / len(samples) * 1000:.4f} ms, "
        f"min {samples[0] * 1000:.4f} ms"
    )
