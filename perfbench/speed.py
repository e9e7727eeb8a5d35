"""Host-speed probe that puts timings on a fixed reference speed.

On a shared host the same call can take 25 % more or less time from one
minute to the next, and a whole run can land in a period 1.5 times
slower, because the CPU's effective speed drifts with the neighbours'
load.  The probe times a fixed kernel of small-array numpy and
interpreter work (the mix the solver and renderer spend their time on)
between the benchmark's operations.  An operation's time divided by the
probe's slowdown against ``REF_S``, its median on the reference machine,
is the time that operation would take at the reference speed.

The kernel runs in a separate interpreter that imports numpy and
nothing of qdefect, and the worker waits while it runs.  So the probe
sees the host, not the worker: garbage, heap growth, threads or numpy
state that the program leaves behind in its own process slow the
program's operations and not the probe, and they show in the scaled
times.  The probe counts the CPU time of its own thread, so time it
spends descheduled while the worker's threads or I/O hold its CPU does
not count either.  Each vCPU of a shared host has a speed of its own, which
switches between about 6 and 10 ms of probe time within seconds, so
before each sample the probe process is moved to the CPU the worker
last ran on.

    python3 perfbench/speed.py --calibrate   # the probe's median on this host
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

REF_S = 0.0093  # probe median on the machine recorded in perfbench/README.md
INTERVAL_S = 0.2  # probe at most this often between operations
WINDOW_S = 8.0  # probes this close to an op, or its duration if longer, set its speed
MIN_SAMPLES = 5


class Kernel:
    """The probe's fixed work: small-array numpy, then string building."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((8, 512))
        self._vec = rng.standard_normal(1024)

    def __call__(self) -> float:
        acc = 0.0
        for i in range(480):
            x = self._rows[i % 8]
            y = np.sqrt(x * x + 1.0)
            acc += float(np.dot(x, y)) + float(np.cumsum(self._vec)[-1])
        parts = []
        for i in range(3000):
            parts.append(f"{acc * i:.3f}")
            acc += (i * i) % 7
        return acc + len("".join(parts))

    def timed(self) -> float:
        """CPU time of one run: time the probe spent descheduled, for
        instance while the worker's own threads or I/O held its CPU, is
        left out, so that it never enters the op times' scaling."""
        t0 = time.thread_time()
        self()
        return time.thread_time() - t0


def serve() -> int:
    """Probe process: time the kernel once per line read from stdin."""
    kernel = Kernel()
    for _ in range(3):
        kernel()  # warm-up, not reported
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(kernel.timed()), flush=True)
    return 0


class SpeedProbe:
    """Client side: starts the probe process and keeps its timings."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed probe did not start")
        self.times: list[float] = []  # probe mid-points, ascending
        self.durations: list[float] = []
        self._cpu = None

    def _follow_cpu(self) -> None:
        """Pin the probe process to the CPU this thread last ran on."""
        try:
            with open("/proc/thread-self/stat", encoding="ascii") as fh:
                stat = fh.read()
            cpu = int(stat[stat.rindex(")") + 2:].split()[36])  # field 39, processor
            if cpu != self._cpu:
                os.sched_setaffinity(self._proc.pid, {cpu})
                self._cpu = cpu
        except (OSError, ValueError, IndexError):
            pass  # no per-thread CPU information: the probe runs where it is placed

    def sample(self) -> None:
        self._follow_cpu()
        t0 = time.perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        t1 = time.perf_counter()
        if not line:
            raise RuntimeError("speed probe exited")
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(float(line))

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe slowdown against the reference around ``[start, end]``."""
        window = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(self.times, start - window)
        hi = bisect.bisect_right(self.times, end + window)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            mid = bisect.bisect_left(self.times, 0.5 * (start + end))
            lo = max(0, mid - MIN_SAMPLES // 2 - 1)
            hi = min(len(self.times), lo + MIN_SAMPLES + 1)
        return statistics.fmean(self.durations[lo:hi]) / REF_S


def calibrate(samples: int = 200) -> float:
    kernel = Kernel()
    for _ in range(3):
        kernel()
    return statistics.median(kernel.timed() for _ in range(samples))


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        sys.exit(serve())
    if sys.argv[1:] == ["--calibrate"]:
        print(f"probe median {calibrate():.6f} s (REF_S = {REF_S})")
        sys.exit(0)
    sys.exit("usage: speed.py --calibrate")
