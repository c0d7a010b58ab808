"""Machine pace: a fixed unit of work, independent of qubitloss, timed
between operations so that a run's times can be put at one machine speed.

On the shared 2-vCPU virtual machine this benchmark was built on, the CPU
time of one fixed operation (detect then replay on one 10-qubit state) moved
between 13.8 and 25.3 ms from one 5-second window to the next, and whole
runs of a workload read 1.6x slower for minutes at a time.  Over the same
windows the ratio of that operation to this unit stayed within 6.57-7.33:
the machine slows both alike.  So every timed operation is scaled by
``NOMINAL_S`` over the median unit time measured around it.  A change to
the package moves the scaled times fully, because the unit never calls it;
a slower machine moves the unit too and cancels out.

Work done in fresh processes (the set-up probes and the CLI processes of
``cli-files``) drifted on its own: over 25 minutes the set-up time rose by
19% while the unit above got 3% faster.  It is paced by a second unit of
the same kind, a fresh interpreter that imports numpy.

    Pace(spawn=False)                          # timings of either unit
    at_pace(seconds, starts, marks, nominal)   # the scaled operation times
"""

from __future__ import annotations

import bisect
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

# The unit's CPU time at the pace every reported time is put at.
NOMINAL_S = 0.0025
# Wall time between two timings of the unit, so that it costs ~2% of a run.
EVERY_S = 0.15
# The same for the process unit, which takes ~0.24 s of CPU: ~10% of a run.
SPAWN_NOMINAL_S = 0.2
SPAWN_EVERY_S = 2.0
# Unit timings whose median scales one operation: ~3 s of the run around it.
NEIGHBOURS = 21

_rng = np.random.default_rng(0)
_MATS = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(50)]
_VEC = _rng.standard_normal(1 << 12) + 0j


def unit() -> None:
    """Interpreter work, small numpy calls and strided copies, like the package's mix."""
    tally: dict[int, int] = {}
    for i in range(3000):
        tally[i % 97] = tally.get(i % 97, 0) + i
    for m in _MATS:
        np.linalg.svd(m)
        np.kron(m, m).sum()
    for k in range(12):
        _VEC.reshape(1 << k, 2, -1)[:, 0, :].copy()


def time_unit() -> float:
    t0 = time.process_time()
    unit()
    return time.process_time() - t0


def children_cpu_s() -> float:
    """User plus system CPU time of the children waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_spawn() -> float:
    """CPU time of a fresh interpreter that imports numpy and exits."""
    before = children_cpu_s()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return children_cpu_s() - before


class Pace:
    """Unit timings ``(wall time, CPU seconds)``, taken at most every
    ``EVERY_S`` (``SPAWN_EVERY_S`` for the process unit)."""

    def __init__(self, spawn: bool = False) -> None:
        self.marks: list[tuple[float, float]] = []
        self.nominal = SPAWN_NOMINAL_S if spawn else NOMINAL_S
        self._time = time_spawn if spawn else time_unit
        self._every = SPAWN_EVERY_S if spawn else EVERY_S
        self._next = 0.0
        self._time()  # first calls are slower: numpy's linear algebra, the page cache

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.marks.append((now, self._time()))
            self._next = now + self._every


def factor(unit_seconds: list[float], nominal: float) -> float:
    return nominal / statistics.median(unit_seconds)


def at_pace(
    seconds: list[float], starts: list[float], marks: list[tuple[float, float]], nominal: float
) -> list[float]:
    """Each operation time scaled by the median of the ``NEIGHBOURS`` unit
    timings nearest its start (fewer when the run took fewer)."""
    if not marks:
        raise ValueError("no unit timings")
    at = [t for t, _ in marks]
    span = min(NEIGHBOURS, len(marks))
    scaled = []
    for s, start in zip(seconds, starts):
        lo = min(max(0, bisect.bisect(at, start) - span // 2), len(marks) - span)
        scaled.append(s * factor([u for _, u in marks[lo:lo + span]], nominal))
    return scaled
