"""Core speed probe: scales task times to a reference core speed.

On a shared virtual machine the speed of a virtual core changes from one
second to the next (about 2x between its fast and slow states), as other
guests load the host core under it.  Wall time and CPU time of a task both
follow that speed, so neither repeats from run to run.  The probe measures
the speed of the very core the tasks run on, while they run:

- the benchmark pins itself, and so every child it starts, to one CPU;
- a probe process on that CPU runs a fixed chunk of pure-Python work every
  ``GAP_S`` seconds and records when the chunk started and its CPU time.
  CPU time leaves out the moments the task held the core, so each chunk
  reads the core's speed alone;
- a task's time at reference speed is its spawn-to-exit wall time, less the
  probe's CPU time inside that interval, times the core's speed then:
  ``REFERENCE_CHUNK_S`` over the mean chunk CPU time.

Run as a child of the benchmark:

    python3 perfbench/speed.py SAMPLES_FILE

It writes one line per chunk, ``start cpu``: the chunk's start in
``time.perf_counter`` seconds (one clock for all processes of the host) and
its CPU time.  It runs until it is terminated or its parent has gone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from bisect import bisect_left
from pathlib import Path
from statistics import fmean

HERE = Path(__file__).resolve().parent

CHUNK_ITERATIONS = 5000
GAP_S = 0.02
# CPU time of one chunk on the reference core: about the fastest chunk seen
# on an uncontended core of a 2-vCPU Xeon (Sapphire Rapids) KVM guest with
# Python 3.11.  It only sets the scale of the reported times.
REFERENCE_CHUNK_S = 0.001
# Fewest chunks behind one speed estimate.
MIN_CHUNKS = 5


def chunk() -> int:
    """A fixed amount of interpreter work: dict updates and str()."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(CHUNK_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
        total += len(str(i))
    return total


def pin_to_one_cpu() -> int:
    """Pin the calling thread, and so every child it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Samples:
    """Chunk records of one probe, sorted by start."""

    def __init__(self, rows: list[tuple[float, float]]):
        rows = sorted(rows)
        self.starts = [r[0] for r in rows]
        self.cpu = [r[1] for r in rows]

    def __len__(self) -> int:
        return len(self.cpu)

    @classmethod
    def read(cls, path: Path) -> Samples:
        if not path.exists():  # the probe never started
            return cls([])
        rows = []
        for line in path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:  # a line cut short by the stop is skipped
                rows.append(tuple(float(f) for f in fields))
        return cls(rows)

    def speed(self, start: float, end: float) -> float:
        """Core speed over [start, end): 1.0 is the reference core.

        From the chunks that started in the interval, or from the
        ``MIN_CHUNKS`` nearest its middle when fewer did.
        """
        if len(self.cpu) < MIN_CHUNKS:
            raise ValueError(f"the speed probe recorded only {len(self.cpu)} "
                             f"chunks; {MIN_CHUNKS} are needed")
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        if hi - lo < MIN_CHUNKS:
            mid = bisect_left(self.starts, (start + end) / 2)
            lo = min(max(mid - MIN_CHUNKS // 2, 0), len(self.cpu) - MIN_CHUNKS)
            hi = lo + MIN_CHUNKS
        return REFERENCE_CHUNK_S / fmean(self.cpu[lo:hi])

    def probe_cpu(self, start: float, end: float) -> float:
        """CPU time of the chunks that started in [start, end)."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return sum(self.cpu[lo:hi])

    def at_reference(self, start: float, end: float) -> float:
        """Seconds [start, end) would take on the reference core, without
        the probe's own share of the core."""
        return (max(end - start - self.probe_cpu(start, end), 0.0)
                * self.speed(start, end))


class Probe:
    """The probe process, on the CPU its creator is pinned to.

    Use it as a context manager: leaving the block stops the process and
    waits for it, on every path.
    """

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py"), str(path)],
            stdin=subprocess.DEVNULL)

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the process and wait for it; it may have ended already."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()

    def stop(self) -> Samples:
        """Stop the process and return what it recorded."""
        self.close()
        return Samples.read(self.path)


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "w") as out:
        while os.getppid() == parent:
            start, c0 = time.perf_counter(), time.process_time()
            chunk()
            cpu = time.process_time() - c0
            out.write(f"{start!r} {cpu!r}\n")
            out.flush()
            time.sleep(GAP_S)


if __name__ == "__main__":
    main(sys.argv[1])
