"""Same-core speed probe that rescales end-to-end times to a reference speed.

The cores of the host this benchmark was written on are shared, and their
speed drifts on scales of seconds to minutes: a fixed pure-Python loop took
0.11 to 0.19 s within 90 s, and the CPU time of the process drifted with it,
so CPU time alone does not help. One run is too short to average the drift out.
So while a run measures, a thread runs a fixed pure-Python loop every
`PERIOD` seconds on the same (pinned) CPU and records its CPU time P. An
interval's reference time is the CPU time the main thread spent in it,
scaled by `P_REF / median(P)` of the nearby samples. Of the probes tried
(pure loop, dict lookups, float arithmetic, list allocation), the pure loop
tracked a `fit_tree` workload best: over 100 s the spread of 20-call windows
fell from 27% of the median to 4%.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD = 0.02
LOOPS = 10_000
WINDOW = 9  # samples per local speed estimate
# Probe CPU seconds at the reference speed: the uncontended speed of the
# 2-core Intel Xeon host the bounds were set on.
P_REF = 0.000625


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts later, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe(threading.Thread):
    """Samples (main-thread CPU seconds, probe CPU seconds) until `stop` is called.

    Intervals are measured in the main thread's CPU time, so time the CPU
    spends on other processes of the machine, or on the probe itself, never
    counts; the probe corrects for the speed of the CPU while it does run.
    """

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self._stopping = threading.Event()
        self._main_clock = time.pthread_getcpuclockid(threading.main_thread().ident)
        self.samples: list[tuple[float, float]] = []

    def run(self) -> None:
        while not self._stopping.wait(PERIOD):
            main_cpu = time.clock_gettime(self._main_clock)
            cpu = time.thread_time()
            acc = 0
            for i in range(LOOPS):
                acc += i * i % 7
            self.samples.append((main_cpu, time.thread_time() - cpu))

    def stop(self) -> None:
        self._stopping.set()
        self.join()

    def speed(self, start: float, end: float) -> float:
        """CPU speed relative to the reference over main-thread CPU times [start, end)."""
        inside = [cpu for t, cpu in self.samples if start <= t < end]
        if not inside:  # shorter than one period: use the latest samples
            inside = [cpu for t, cpu in self.samples if t < end][-5:]
        return P_REF / statistics.median(inside) if inside else 1.0

    def reference_seconds(self, start: float, end: float) -> float:
        """Main-thread CPU seconds [start, end) would have taken at the reference speed.

        The interval is cut at each probe sample, and each piece is scaled by
        the speed that the median of the nearest `WINDOW` samples gives, so a
        change of speed inside the interval is followed; one speed for the
        whole interval left up to twice the spread.
        """
        inside = [t for t, _ in self.samples if start <= t < end]
        if len(inside) < WINDOW:
            return (end - start) * self.speed(start, end)
        cpus = [cpu for t, cpu in self.samples if start <= t < end]
        cuts = [start] + inside[1:] + [end]
        total = 0.0
        for k in range(len(cpus)):
            lo = min(max(0, k - WINDOW // 2), len(cpus) - WINDOW)
            total += (cuts[k + 1] - cuts[k]) * P_REF / statistics.median(cpus[lo:lo + WINDOW])
        return total
