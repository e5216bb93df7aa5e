"""Host speed, sampled by timing a fixed reference kernel.

On the shared 2-vCPU Xeon host this benchmark was written on, Python code
runs at one of two speeds, 1.5 to 1.8 times apart, switching as often as
every millisecond in some stretches and holding one speed for many seconds
in others.  CPU time slows as much as wall time, so the slowdown cannot be
timed away, and a run of tens of seconds can land wholly in either speed.
What stays steady is the ratio of a task's time to the time of a fixed
piece of Python code run alongside it.

:class:`Speedometer` runs :func:`kernel` from a timer signal every
``PERIOD`` seconds while a pass runs, and afterwards scales each task's
latency by the mean speed the kernel showed around it.  Scaled times read
as seconds on a host where the kernel takes ``REFERENCE_S``, about its time
at the fast speed of that host.  The kernel is the benchmark's own code
(``oracles``) on fixed inputs, so a change to raagkit cannot change it.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import oracles as O

#: Kernel time, in seconds, that scaled latencies are expressed against.
REFERENCE_S = 0.001
PERIOD = 0.05
#: A task's speed is averaged over the probes this many seconds either side of it.
WINDOW = 0.25

_GRAPH = O.Graph(list("abcd"), [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")])
# fixed words over that graph, from a quadratic residue sequence
_LETTERS = [(c % 4, 1 if c & 4 else -1) for c in ((i * i * 7919 + i * 104729) % 65521
                                                   for i in range(66))]
_WORD, _CYCLIC = _LETTERS[:60], _LETTERS[60:]


def kernel() -> None:
    """About a millisecond of list, tuple and dict work, the kind raagkit does.

    Shorter kernels run more often tracked the host worse: in 3-minute
    trials of one closure, a 0.08 ms kernel every 5 ms left the scaled time
    spread twice as wide as the raw time, where this kernel every 50 ms
    narrowed the spread 1.6 to 4.7 times.
    """
    for _ in range(13):
        O.reduce(_GRAPH, _WORD)
        O.max_inverse_overlap(_CYCLIC)


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Speedometer:
    """Times :func:`kernel` every ``PERIOD`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _probe(self, *_) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """Each span's length without the probes inside it, scaled to ``REFERENCE_S``.

        A probe runs between two bytecodes of the task it interrupts, so it
        lies wholly inside or wholly outside every span.  A span's speed is
        the mean of ``REFERENCE_S / kernel time`` over the probes that start
        within ``WINDOW`` of it; where the host switches speed every few
        milliseconds, that mean is a steadier guess of a short task's speed
        than the probes next to it.
        """
        starts = self.starts
        took = [e - s for s, e in zip(starts, self.ends)]
        speed = [REFERENCE_S / t for t in took]
        out = []
        for t0, t1 in spans:
            i = bisect.bisect_left(starts, t0)
            j = bisect.bisect_right(starts, t1)
            lo = bisect.bisect_left(starts, t0 - WINDOW)
            hi = max(bisect.bisect_right(starts, t1 + WINDOW), lo + 1)
            around = speed[lo:hi]
            out.append((t1 - t0 - sum(took[i:j])) * sum(around) / len(around))
        return out
