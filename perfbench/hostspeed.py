"""Timing scaled to a fixed host speed.

The host the benchmark was tuned on (a 2-vCPU KVM guest) changes speed by
up to 2x in phases that last from one second to minutes, and process CPU
time slows with it, so plain wall times of the same work spread far more
than any useful regression bound. A :class:`SpeedProbe` measures the
host's speed while the work runs: it times a fixed pure-Python kernel,
which no change to the program can touch, a few times right before and
after each timed span and, from a SIGVTALRM handler, every
``PROBE_INTERVAL_S`` of CPU time inside it. A span's time, less the
probes' own, is then scaled by ``REFERENCE_KERNEL_S`` over the median
kernel time of that span: it reads as seconds at the reference speed.

Timing the kernel only before and after a span of several seconds misses
the phases inside it; sampled inside the span, the scaled times of one
analysis repeated for four minutes spread about 0.09 between their
quartiles, as a share of the median, against 0.26-0.30 for the wall times
(perfbench/NOTES.md has the measurements and how the kernel was chosen).
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

PROBE_INTERVAL_S = 0.05  # CPU time between probes inside a span; probes take about 3% of it
BRACKET_PROBES = 3  # probes right before and right after each span
# The kernel's median time in a fast phase of the host the benchmark was
# tuned on (2-vCPU KVM guest, Intel Xeon family 6 model 143, Python 3.11.7).
# It only sets the scale: comparisons between runs do not depend on it.
REFERENCE_KERNEL_S = 0.0012


@dataclass(frozen=True)
class _Term:
    kind: str
    name: str

    @property
    def is_variable(self) -> bool:
        return self.kind == "v"


_PATTERNS = [(_Term("i", f"urn:x:{i % 7}"), _Term("v" if i % 3 else "i", f"n{i % 5}"), _Term("l", str(i % 4)))
             for i in range(20)]


def _covered(p: tuple, q: tuple) -> bool:
    for a, b in zip(p, q):
        if a != b and not b.is_variable:
            return False
    return True


def kernel() -> int:
    """About 1.5 ms of three kinds of interpreter work in equal parts: an
    integer loop; pairwise matching of small frozen dataclasses through
    generated ``__eq__``, properties and ``any``, as in the program's
    pattern checks; and string formatting and sorting. Each kind alone
    tracks some analyses better than others (the integer loop slows less
    than ``evolve-wide`` in a slow phase, the matching more than
    ``evolve-rules``); the mix tracks both."""
    total = 0
    for i in range(7500):
        total += i * i
    total += sum(1 for p in _PATTERNS if not any(q is not p and _covered(p, q) for q in _PATTERNS))
    return total + len(sorted((f"v{i}" for i in range(2000)), key=len))


class SpeedProbe:
    """Times spans of work and the host's speed during them.

    ``clock()`` is ``time.perf_counter()`` less the time of every probe so
    far, so that intervals measured on it leave the probes out.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self._samples: list[float] = []

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._samples.append(elapsed)
        self.spent += elapsed

    def span(self) -> "Span":
        return Span(self)


class Span:
    """``with probe.span() as s:`` times the block. Afterwards ``s.seconds``
    is its time less the probes', ``s.scale`` the reference kernel time over
    the median kernel time of the span, and ``s.scaled`` the product."""

    def __init__(self, probe: SpeedProbe) -> None:
        self._probe = probe
        self.seconds = 0.0
        self.scale = 1.0

    def __enter__(self) -> "Span":
        probe = self._probe
        probe._samples = []
        for _ in range(BRACKET_PROBES):
            probe._probe()
        self._previous = signal.signal(signal.SIGVTALRM, probe._probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = probe.clock()
        return self

    def __exit__(self, *exc) -> None:
        probe = self._probe
        self.seconds = probe.clock() - self._start
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        for _ in range(BRACKET_PROBES):
            probe._probe()
        self.scale = REFERENCE_KERNEL_S / statistics.median(probe._samples)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale
