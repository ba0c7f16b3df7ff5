"""Reading a time at a fixed CPU pace.

The 2-core virtual machine the benchmark was tuned on switches between
a fast and a slow state, for seconds at a time: a fixed piece of pure
Python took about 2.2 ms in one and up to 4.5 ms in the other, and the
pipeline's CPU-bound stages slowed by the same factor.  Over a 30 s run
the share of slow time differs from run to run, so the medians of raw
times spread past any useful bound (one seed of ``resume_legacy``:
29–36% interquartile range between 30 s windows).

``probe()`` takes the CPU time of ``PACE_SAMPLES`` runs of ``_sample``
(regular expressions, dicts, JSON and strings from the standard
library, none of it the pipeline's code) and returns their median.  A
time measured between two probes, scaled by ``REFERENCE_PACE_S`` over
the mean of the two probes, reads as if the interval had run at the
reference pace.  Scaled so, the same seed's 30 s windows spread 6%.  A
change to the pipeline's own speed moves the scaled time as much as the
raw one.

On a shared host the hypervisor also runs other guests on this
machine's virtual CPUs.  That "steal" time is in the wall time of
whatever was runnable, but in no process's CPU time.  ``Pacer`` takes
the steal of the CPU the process is pinned to (from ``/proc/stat``) out
of the wall time before scaling it; a process pinned to one CPU and
busy on it, like a mock workload's worker, lost all of that time.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import time

# The median of ``probe()`` on the tuning machine in its fast state.
REFERENCE_PACE_S = 0.0022
PACE_SAMPLES = 5

_WORDS = re.compile(r"\w+")
_TEXT = "Lorem ipsum dolor sit amet, consectetur adipiscing elit. Sed do eiusmod tempor. " * 40


def _sample() -> float:
    started = time.thread_time()
    for i in range(12):
        words = _WORDS.findall(_TEXT)
        counts: dict[str, int] = {}
        for word in words:
            counts[word] = counts.get(word, 0) + 1
        encoded = json.dumps({"i": i, "words": words[:200], "text": _TEXT})
        json.loads(encoded)["text"].split(". ")
        " ".join(sorted(counts))
    return time.thread_time() - started


def probe() -> float:
    return statistics.median(_sample() for _ in range(PACE_SAMPLES))


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def steal_seconds(cpu: int | None) -> float:
    """Steal time of ``cpu`` so far; 0 without a CPU or a steal count."""
    if cpu is None:
        return 0.0
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] == f"cpu{cpu}" and len(fields) > 8:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except OSError:
        pass
    return 0.0


def scale(before: float, after: float) -> float:
    """Factor from a time measured between two probes to the reference pace."""
    return REFERENCE_PACE_S / ((before + after) / 2)


class Pacer:
    """Wall, CPU and steal time of a run, and wall and CPU time at the reference pace.

    ``mark()`` closes an interval: it probes the pace and adds the
    interval's times, raw and scaled by its end probes; the scaled wall
    time leaves the interval's steal out.  The first probe runs on
    construction.  Probe time falls in no interval.
    """

    def __init__(self) -> None:
        cpus = os.sched_getaffinity(0)
        self._cpu = next(iter(cpus)) if len(cpus) == 1 else None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.steal_s = 0.0
        self.paced_wall_s = 0.0
        self.paced_cpu_s = 0.0
        self._pace = probe()
        self._start = self._clocks()

    def _clocks(self) -> tuple[float, float, float]:
        return time.perf_counter(), cpu_seconds(), steal_seconds(self._cpu)

    def mark(self) -> None:
        wall, cpu, steal = (now - then for now, then in zip(self._clocks(), self._start))
        pace = probe()
        factor = scale(self._pace, pace)
        self.wall_s += wall
        self.cpu_s += cpu
        self.steal_s += steal
        self.paced_wall_s += max(0.0, wall - steal) * factor
        self.paced_cpu_s += cpu * factor
        self._pace = pace
        self._start = self._clocks()
