"""Host speed probe for the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
20-30% within seconds to minutes as other tenants load it.  The drift moves
every job alike, so it swamps a program change of the same size.

`pin` puts the benchmark, and every job it starts afterwards, on one CPU.
`Probe` times a fixed piece of pure-Python work (`rep`: modular integer
arithmetic, tuple keys in a dict, `Fraction` sums, as in gridlab's own
inner loops) in a thread of the benchmark, once every `INTERVAL_S`, while
the jobs run.  Sharing the CPU, the reps run at the speed the jobs see; each
is timed in thread CPU time, so the time slices the job takes from it do
not count.  The speed factor over a stretch of the run is `REF_REP_S` over
the mean rep in it; a time multiplied by the factor of its own stretch is
in seconds of a host running at the reference speed.  The probe does not
touch gridlab, so a change to the program moves the scaled times exactly
as it moves the raw ones.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

# One rep, in thread CPU time, on a quiet 2-vCPU Intel Xeon at 2.1 GHz
# under CPython 3.11.
REF_REP_S = 0.020
INTERVAL_S = 0.4  # about 5% of the CPU
MIN_REPS = 3  # a stretch with fewer reps takes the nearest ones


def rep() -> None:
    p = 101
    x = 1
    table: dict = {}
    acc = Fraction(0)
    for i in range(28000):
        x = (x * 48271 + 11) % 2147483647
        key = (x % p, (x >> 7) % p, i & 7)
        table[key] = (table.get(key, 0) + x * i) % p
        if i % 64 == 0:
            acc += Fraction(x % 97 + 1, i % 13 + 1)


def pin() -> None:
    """Pin this process, and so every process it starts later, to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Probe:
    """Reps in a thread while the `with` block runs; `factor` gives the
    speed factor over a stretch of it."""

    def __init__(self) -> None:
        self.samples: list = []  # (perf_counter at the end, thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Probe":
        rep()  # warm-up, not recorded
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        t0 = time.thread_time()
        rep()
        self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def rep_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean of the reps that ended between `start` and `end`
        (perf_counter), or of the MIN_REPS reps nearest to that stretch if
        fewer ended in it."""
        def gap(t: float) -> float:
            return max(start - t, t - end, 0.0)

        near = sorted(self.samples, key=lambda sample: gap(sample[0]))
        inside = sum(gap(t) == 0.0 for t, _ in near)
        return statistics.mean(s for _, s in near[:max(inside, MIN_REPS)])

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        return REF_REP_S / self.rep_s(start, end)
