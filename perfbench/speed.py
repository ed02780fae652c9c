"""Machine-speed calibration for the end-to-end times.

The machines this benchmark runs on are shared: the same fixed job can take
up to twice as long from one minute to the next, in wall and in CPU time
alike, because the host is busy.  A run therefore times a fixed reference task
next to every job (outside the job's timed span) and reports each job's
time scaled by NOMINAL / (the reference's time around that job): the time
the job would have taken on a machine where the reference takes NOMINAL.
Nothing in a reference calls powerstruct, so a change to the library moves
the scaled times exactly as it moves the wall times.

Two references, matched to what a workload's jobs do:
  loop   a pure-Python dict and integer loop like the library's inner loops,
         run in this process (in-process workloads)
  spawn  a bare `python -c pass` child, started and waited for the way a cli
         job is (the cli workload)
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
from array import array
from time import perf_counter as clock

# The references' typical times on the machine of perfbench/baseline.json
# (Intel Xeon, 2 vCPUs, Python 3.11).  They only set the scale of the
# reported times; changing them would rescale every figure.
NOMINAL_S = {"loop": 2.0e-3, "spawn": 70e-3}
# Samples on each side of a job whose median gives the speed around it.
NEIGHBOURS = 5


def reference_loop() -> int:
    d = {}
    x = 3
    for i in range(3000):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0) + x * i
        x = (x * x + i) % 1000003
    total = 0
    for value in d.values():
        total += value * value
    return total


def reference_spawn() -> int:
    return subprocess.run([sys.executable, "-c", "pass"], capture_output=True, timeout=60).returncode


REFERENCES = {"loop": reference_loop, "spawn": reference_spawn}


class Speed:
    """Times of the reference task, each with its start time on `clock`."""

    def __init__(self, kind: str):
        self.kind = kind
        self.nominal = NOMINAL_S[kind]
        self.task = REFERENCES[kind]
        self.at, self.took = array("d"), array("d")

    def sample(self) -> None:
        t0 = clock()
        self.task()
        self.at.append(t0)
        self.took.append(clock() - t0)

    def factor(self, t: float) -> float:
        """NOMINAL over the median reference time of the samples around `t`."""
        i = bisect.bisect_left(self.at, t)
        near = self.took[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        return self.nominal / statistics.median(near)

    def scale(self, starts, times) -> list:
        return [took * self.factor(t) for t, took in zip(starts, times)]
