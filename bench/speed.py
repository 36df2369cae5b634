"""Machine-speed normalisation of measured times.

On a shared host the CPU speed seen by one process drifts by tens of
percent over seconds to minutes, and that drift is most of the run-to-run
spread of raw wall times. A fixed calibration kernel, timed right before and
right after each measured interval, tracks the drift: the ratio of an
operation's time to the kernel's time stays within a few percent while both
move together. Reported times are therefore reference seconds: the wall time
scaled by REF_S / (mean kernel time around the interval). On a machine whose
kernel time is REF_S they equal wall seconds.

The kernel does what the program's evaluators do, scalar float arithmetic on
numpy array elements in a Python loop plus one small vector operation, and it
calls nothing of the program, so a change to the program moves the times and
not the kernel.

The kernel tracks work in this process. A cold child process spends most of
its time starting the interpreter and importing, which drifts with the host
too, but per call it follows the kernel poorly: scaling each CLI call by the
kernel around it widened their spread. Over a whole run, though, the median
start-up time of an empty interpreter (`python -c pass`), sampled before each
child, followed the median CLI call closely (correlation 0.93 over twelve
rounds whose raw medians varied by 18%; 6.5% after scaling). Child intervals
are therefore scaled once per run by CHILD_REF_S / that median (ChildClock).
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

REF_S = 5.0e-4
CHILD_REF_S = 0.05
PERIOD_S = 0.2
_REPEATS = 3


def _kernel() -> float:
    v = np.zeros(2)
    v[1] = 2.0
    s = 0.0
    for i in range(1200):
        v[0] = i * 1e-3
        s += v[0] * v[1] - v[0] ** 2
    return s + float(np.linspace(0.0, 1.0, 2001).sum())


def sample() -> float:
    """Fastest of a few timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Measures intervals in this process in reference seconds.

    The kernel is timed before and after each interval. With `periodic` it is
    also timed every PERIOD_S inside the interval, from a SIGALRM handler, so
    that a long interval is scaled by the speed over its whole length; the
    time spent sampling is taken out of the interval.
    """

    def __init__(self, periodic: bool = False) -> None:
        self.periodic = periodic and threading.current_thread() is threading.main_thread()
        self.spent = 0.0  # seconds spent timing the kernel, in total
        self.samples: list[float] = []
        self.last = self._sample()
        self._inside: list[float] = []
        self._start = self._spent_at_start = 0.0
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> float:
        start = time.perf_counter()
        value = sample()
        self.spent += time.perf_counter() - start
        self.samples.append(value)
        return value

    def _on_alarm(self, signum, frame) -> None:
        self._inside.append(self._sample())

    def start(self) -> None:
        self._inside = []
        self._spent_at_start = self.spent
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the interval; returns (wall seconds, reference seconds)."""
        end = time.perf_counter()
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        raw = end - self._start - (self.spent - self._spent_at_start)
        speeds = [self.last, *self._inside, self._sample()]
        self.last = speeds[-1]
        return raw, raw * REF_S / (sum(speeds) / len(speeds))

    def run_factor(self) -> float:
        return 1.0

    def close(self) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


class ChildClock:
    """Measures intervals spent waiting on child processes in reference seconds.

    Each interval is preceded by one start-up timing of an empty interpreter;
    `run_factor` scales all of a run's intervals by the median of those.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.samples: list[float] = []
        self._start = 0.0

    def start(self) -> None:
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        self.samples.append(time.perf_counter() - begin)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the interval; returns its wall seconds twice, scaled later."""
        raw = time.perf_counter() - self._start
        return raw, raw

    def run_factor(self) -> float:
        return CHILD_REF_S / statistics.median(self.samples)

    def close(self) -> None:
        pass
