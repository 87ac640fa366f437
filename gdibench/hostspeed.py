"""Host time normalised by the speed the CPU gave the run.

On a shared virtual machine the same Python work costs a different
amount of CPU time from minute to minute: a fixed interpreter loop took
45 to 100 ms on one pinned vCPU within one minute, and whole rounds of
the same workload went from 4.8 to 9.2 CPU seconds over a few minutes.
The siblings and neighbours that slow the CPU down are outside the
program, so host times measured raw follow the machine, not the program.

:class:`HostSpeed` starts a small sampler process on the same CPU as the
run (it inherits the run's one-CPU affinity).  Every ``PERIOD_S`` it
times one fixed interpreter slice in its own thread CPU time and reports
it; it is idle the rest of the time (a few per cent of the CPU).  A host
time is then reported as the run's process CPU time over a window times
``REFERENCE_SLICE_S`` over the mean slice cost in that window: the CPU
seconds the same work would have taken on a CPU as fast as the
reference.  ``gdibench/README.md`` gives the spread with and without it.

Run as a script, this file is the sampler: it prints
``<perf_counter> <slice CPU seconds>`` lines until its parent is gone or
stops reading.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: one sample every PERIOD_S of wall time
PERIOD_S = 0.05
#: cost of one slice on the reference CPU: a fixed round figure (on a
#: 2-vCPU Xeon virtual machine the slice cost 1.2 to 1.7 ms under the
#: benchmark), so normalised times read as a somewhat faster CPU's
REFERENCE_SLICE_S = 1.0e-3
#: a window with fewer samples is widened to its nearest MIN_SAMPLES
MIN_SAMPLES = 10


def _slice() -> int:
    """The fixed interpreter work each sample times: dict and int ops."""
    d: dict[int, int] = {}
    s = 0
    for i in range(6000):
        d[i & 1023] = i
        s += d.get(i >> 1 & 1023, 0)
    return s


def _sample() -> None:
    parent = os.getppid()
    out = sys.stdout
    while os.getppid() == parent:
        t = time.perf_counter()
        c = time.thread_time()
        _slice()
        cost = time.thread_time() - c
        try:
            out.write(f"{t:.6f} {cost:.9f}\n")
            out.flush()
        except (BrokenPipeError, ValueError):
            return
        rest = PERIOD_S - (time.perf_counter() - t)
        if rest > 0:
            time.sleep(rest)


class HostSpeed:
    """The sampler process and the slice costs it has reported."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        )
        self._fd = self._proc.stdout.fileno()
        os.set_blocking(self._fd, False)
        self._buf = b""
        #: (perf_counter at slice start, slice CPU seconds)
        self._samples: list[tuple[float, float]] = []

    def _drain(self) -> None:
        while True:
            try:
                chunk = os.read(self._fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        for line in lines:
            t, cost = line.split()
            self._samples.append((float(t), float(cost)))

    def slice_cost(self, t0: float, t1: float) -> float:
        """Mean slice cost over the ``perf_counter`` window ``[t0, t1]``."""
        self._drain()
        inside = [c for t, c in self._samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            near = sorted(self._samples, key=lambda s: abs(s[0] - mid))
            inside = [c for _, c in near[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the host-speed sampler reported nothing")
        return statistics.fmean(inside)

    def normalise(self, cpu_s: float, t0: float, t1: float) -> float:
        """``cpu_s`` spent over ``[t0, t1]``, in reference-CPU seconds."""
        return cpu_s * REFERENCE_SLICE_S / self.slice_cost(t0, t1)

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    _sample()
