"""Host-speed sampler: timed intervals scaled to the reference host speed.

The reference host (a shared 2-vCPU VM) runs the same code at up to
about 2.5x its best time, for seconds to minutes at a time.  Steal time
stays near zero and CPU time slows down with wall time, so neither
tells the modes apart; a slow mode that outlasts a run cannot be
averaged away inside it.  The slowdown is per vCPU: a probe timed on
the other vCPU, or before and after a pass, misses most of it, while a
probe sharing the pass's vCPU follows it.

So a run pins itself (and every process it starts) to one CPU and
starts this module as a child process on the same CPU.  The child
runs a fixed kernel (scattered reads of a large dict and small-vector
numpy calls, the kinds of work a pinned pass does most) about 20 times
a second and writes each run's thread CPU time: time the child spends
descheduled is not counted, the vCPU's current speed is.  A timed interval is then scaled
to what it would have taken at the kernel's reference time:

    scaled = wall * (REFERENCE_KERNEL_S / mean(kernel times inside it)) ** SENSITIVITY

A change to the program moves the interval and never the kernel, so a
scaled time keeps every gain or loss of the program while the host's
mode, which moves both, largely cancels.  The sampler takes about 6% of
the CPU, the same for every run.

Run as a script, this module is the sampler:
``python3 perfbench/hostspeed.py <samples file>``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

#: Thread CPU time of one :func:`kernel` on the reference host's pinned
#: CPU at its best speed, so that scaled times read as seconds there.
REFERENCE_KERNEL_S = 0.0030
#: Pause between kernel runs.
PERIOD_S = 0.05
#: Passes slow down more than the kernel: over 12 localization passes
#: on one seed, pass time grew as the kernel's time to the power 1.4
#: (fleet, in a stretch at 2.5x its best time: 2.1).  The factor is
#: raised to this power.
SENSITIVITY = 1.4


def kernel_data() -> Tuple[dict, List[int], np.ndarray]:
    """The kernel's inputs, built once by the sampler child only.

    A 200,000-entry dict (tens of MB of Python objects) read in a random
    order, so that the kernel, like a pass, depends on the caches.
    """
    rng = np.random.default_rng(0)
    table = {int(k): int(k) * 3 for k in rng.permutation(200_000)}
    order = [int(k) for k in rng.permutation(200_000)[:5_000]]
    return table, order, rng.standard_normal(4_000)


def kernel(table: dict, order: List[int], vector: np.ndarray) -> float:
    """Scattered dict reads, then small-vector numpy calls, in about equal parts."""
    total = 0
    for key in order:
        total += table[key]
    v = vector
    for _ in range(50):
        v = vector * (np.sqrt(np.abs(v - v[7])) < 1.0)
    return total + float(v[0])


def pin() -> int:
    """Pin this process (and the children it starts) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """The sampler child: started on this process's CPU, stopped by :meth:`stop`."""

    def __init__(self, path: Path) -> None:
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)], stdin=subprocess.DEVNULL)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)

    def samples(self) -> List[Tuple[float, float]]:
        """(midpoint, kernel CPU time) pairs written so far."""
        rows = []
        with open(self.path, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2:
                    rows.append((float(parts[0]), float(parts[1])))
        return rows

    def factor(self, start: float, end: float) -> float:
        """Scale factor to the reference speed between two ``perf_counter`` times."""
        inside = [cpu for t, cpu in self.samples() if start <= t <= end]
        return (REFERENCE_KERNEL_S / statistics.fmean(inside)) ** SENSITIVITY


def main(path: str) -> None:
    parent = os.getppid()
    data = kernel_data()
    with open(path, "w", encoding="ascii") as out:
        while os.getppid() == parent:
            start = time.perf_counter()
            cpu = time.thread_time()
            kernel(*data)
            cpu = time.thread_time() - cpu
            out.write(f"{(start + time.perf_counter()) / 2:.6f} {cpu:.7f}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
