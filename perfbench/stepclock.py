"""Verdict timing beside a measure of the machine's speed.

The 2-vCPU VM this benchmark was built on drifts in speed by up to 2x, over
periods from milliseconds to minutes, and reports no steal time.  So a run
times a fixed pure-Python reference loop while the workload runs, at most
every 50 ms and once more at the end of each verdict, and keeps that time
out of the verdict.  The loop runs only at points the workload offers
(:meth:`StepClock.step` and :meth:`StepClock.scenario`), which cut the
verdict into segments.  Each segment's time is divided by the mean of the
reference times taken just before and just after it, and the runner
multiplies the result by ``REFERENCE_LOOP_S``, so the figures are seconds
on that VM at its fastest.  A run's own fastest reference time is no fixed
point: in runs of 25 s it ranged from 0.52 to 0.82 ms, because some runs
never see the machine at full speed.

A scenario is the time from one ``scenario()`` call to the next, or to
``end_scenarios()`` or ``stop()``.
"""

from __future__ import annotations

import time
from array import array

PROBE_PERIOD_S = 0.05
# the scale: about the fastest time of reference_loop on the VM the benchmark
# was built on (Python 3.11.7, 2 vCPUs), where calm runs saw 0.50 to 0.55 ms
REFERENCE_LOOP_S = 0.00054


def reference_loop() -> int:
    """Fixed pure-Python work of about 0.6 ms: dict stores and integer arithmetic."""
    table, total = {}, 0
    for i in range(6000):
        table[i & 255] = total
        total += i * 3 % 7
    return total


class StepClock:
    def __init__(self):
        self.probing = True
        self.probes = array("d")  # every reference time of the run
        self._due = 0.0
        self.start()

    def start(self) -> None:
        """Forget the previous verdict and start timing the next."""
        self._walls = array("d")  # seconds of each closed segment
        self._before = array("q")  # index of the probe taken before each segment
        self._bounds = array("q")  # first and end segment of each scenario, flat
        self._start = None  # start of the open segment
        self._scenario_start = None
        self._cut(time.perf_counter())

    @property
    def scenario_count(self) -> int:
        return len(self._bounds) // 2

    def step(self) -> None:
        """A point where the reference loop may run."""
        now = time.perf_counter()
        if self.probing and now >= self._due:
            self._cut(now)

    def scenario(self) -> None:
        """End the open scenario, if any, and start the next."""
        self._cut(time.perf_counter())
        self._end_scenario()
        self._scenario_start = len(self._walls)

    def end_scenarios(self) -> None:
        """End the open scenario; the time that follows belongs to none."""
        self._cut(time.perf_counter())
        self._end_scenario()

    def stop(self) -> None:
        """End the open segment and scenario; time until the next call is not counted."""
        self._close(time.perf_counter())
        self._start = None
        self._end_scenario()

    def finish(self) -> tuple[float, float, array]:
        """Wall seconds of the verdict, the same in reference loops, and each
        scenario's time in reference loops (both 0 when not probing)."""
        wall = sum(self._walls)
        if not self.probing:
            return wall, 0.0, array("d", bytes(8 * self.scenario_count))
        self._probe(time.perf_counter())
        probes, work = self.probes, self._walls  # converted in place
        for i, k in enumerate(self._before):
            work[i] = work[i] * 2 / (probes[k] + probes[k + 1])
        bounds = self._bounds
        scenarios = array("d", [sum(work[bounds[i]:bounds[i + 1]])
                                for i in range(0, len(bounds), 2)])
        return wall, sum(work), scenarios

    def _cut(self, now: float) -> None:
        """Close the open segment, run the reference loop if due, open the next."""
        self._close(now)
        if self.probing and now >= self._due:
            now = self._probe(now)
            self._due = now + PROBE_PERIOD_S
        self._start = now

    def _probe(self, start: float) -> float:
        reference_loop()
        end = time.perf_counter()
        self.probes.append(end - start)
        return end

    def _close(self, now: float) -> None:
        if self._start is not None:
            self._walls.append(now - self._start)
            self._before.append(len(self.probes) - 1)

    def _end_scenario(self) -> None:
        if self._scenario_start is not None:
            self._bounds.extend((self._scenario_start, len(self._walls)))
            self._scenario_start = None
