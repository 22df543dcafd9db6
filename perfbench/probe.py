"""Machine-speed probe, run beside a timed window.

Shared virtual machines slow down by a third or more for seconds at a
time when other tenants are busy, in CPU time as much as in wall time.
This process times a fixed pure-Python loop (about half a millisecond)
on each usable CPU in turn, one every ``PERIOD_S``, until its stdin
closes; then it prints one ``<perf_counter> <loop CPU ms>`` line per
sample.  It measures the machine, never the program under test, so the
report can leave out the slices of the window in which the machine ran
slow (``report.steady_slices``).

    python3 perfbench/probe.py < control-pipe
"""

from __future__ import annotations

import os
import select
import sys
import time

PERIOD_S = 0.05
LOOP_ITERATIONS = 8000


def spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    turn = 0
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1
        at = time.perf_counter()
        cpu = time.thread_time()
        spin(LOOP_ITERATIONS)
        samples.append(f"{at:.6f} {(time.thread_time() - cpu) * 1e3:.5f}")
    sys.stdout.write("".join(line + "\n" for line in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
