"""Timing one child process from outside, and the quartiles and tail
percentile the benchmark reports."""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

# Fewest samples beyond a reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class ChildRun:
    start: float  # time.perf_counter() just before the spawn
    end: float  # time.perf_counter() when the child was reaped
    maxrss_mb: float
    exit_code: int
    timed_out: bool

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(cmd: list[str], env: dict, timeout: float, stdout_path,
              stderr_path) -> ChildRun:
    """Run cmd to completion or until ``timeout`` seconds, then kill it.

    Wall time runs from just before the spawn to the moment ``os.wait4``
    reaps the child, which also gives the child's peak resident set.  The
    reaping happens on a helper thread so that a timeout needs no polling.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        reaped = {}

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()
            reaped["status"] = status
            reaped["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(max(timeout, 0.0))
        timed_out = waiter.is_alive()
        if timed_out:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # it ended and was reaped just now
                pass
            waiter.join()
    code = os.waitstatus_to_exitcode(reaped["status"])
    proc.returncode = code  # already reaped; keeps Popen from waiting again
    # ru_maxrss is in KiB on Linux
    return ChildRun(start, reaped["end"], reaped["usage"].ru_maxrss / 1024,
                    code, timed_out)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: list[float]) -> Tail:
    """The highest nearest-rank percentile with at least ten samples above it.

    With n samples that is the one at rank n - 10.  With ten samples or
    fewer no percentile has ten beyond it, and the maximum is reported, with
    its percentile (100) and the number beyond it (0) saying so.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n, 0)
    rank = n - TAIL_BEYOND  # 1-based
    value = ordered[rank - 1]
    beyond = sum(1 for x in ordered if x > value)
    return Tail(value, 100.0 * rank / n, n, beyond)
