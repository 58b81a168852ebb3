"""CPU seconds at a fixed host speed, from a reference probe run during them.

The benchmark runs on a few cores of a shared host, and the speed of a
core swings by a third or more while other tenants come and go, in
spells from a fraction of a second to minutes.  Raw CPU seconds move
with it.  So while a timed block runs, a profiling timer interrupts the
process every ``INTERVAL_S`` of its CPU time and runs a fixed piece of
interpreter work, the *probe*, timing it with the thread's CPU clock.
The probe is shaped like the program's hot loops (a heap of timed
events, generator resumption, attribute and dict updates), so a busy
host slows both about alike.

A block's reference CPU seconds are its CPU seconds less the probes'
own, scaled by ``PROBE_S`` over the interquartile mean of the probe
times taken during it.  They read what the block would cost on a host
where one probe takes ``PROBE_S`` seconds, and the probe is the
benchmark's own code: a change to the program moves them, the host's
load moves them much less.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: CPU seconds between probes
INTERVAL_S = 0.005
#: the unit of reference speed, a round figure: one probe took 130-270 us
#: on a shared 2-vCPU Xeon (Sapphire Rapids) KVM guest under CPython 3.11
PROBE_S = 250e-6
#: a block with fewer probes than this takes the speed its caller measured
MIN_PROBES = 8

_PROBE_EVENTS = 200
_PROBE_PROCS = 8


class _Proc:
    __slots__ = ("resumed", "acc")

    def __init__(self) -> None:
        self.resumed = 0
        self.acc = 0.0


def _body(proc: _Proc):
    while True:
        at = yield proc.resumed
        proc.acc += at


def probe() -> int:
    """The fixed work: ``_PROBE_EVENTS`` events over a heap of
    ``_PROBE_PROCS`` generator processes."""
    heap, procs = [], []
    for i in range(_PROBE_PROCS):
        proc = _Proc()
        body = _body(proc)
        next(body)
        procs.append((proc, body))
        heap.append((float(i), i, i))
    seq, seen = _PROBE_PROCS, {}
    for _ in range(_PROBE_EVENTS):
        at, _seq, k = heapq.heappop(heap)
        proc, body = procs[k]
        proc.resumed += 1
        body.send(at)
        seen[(k, proc.resumed & 3)] = at
        heapq.heappush(heap, (at + 1.5, seq, k))
        seq += 1
    return len(seen)


def iqm(values: list[float]) -> float:
    """Mean of the middle half."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut] or ordered
    return sum(middle) / len(middle)


@dataclass
class Block:
    """One measured block: its CPU seconds and the probe times taken in it."""

    cpu_s: float = 0.0                   # CPU seconds, the probes' own left out
    probes: list[float] = field(default_factory=list)

    def ref_s(self, fallback_probe_s: float | None = None) -> float:
        """CPU seconds at reference speed."""
        if len(self.probes) >= MIN_PROBES or fallback_probe_s is None:
            probe_s = iqm(self.probes) if self.probes else PROBE_S
        else:
            probe_s = fallback_probe_s
        return self.cpu_s * PROBE_S / probe_s


class Sampler:
    """Runs the probe on a ``SIGPROF`` interval timer while armed.

    Only one sampler may be armed in a process at a time.  Interval timers
    are not inherited across ``fork``, so a child arms its own.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.probe_total = 0.0

    def _tick(self, _signum, _frame) -> None:
        collecting = gc.isenabled()
        gc.disable()                     # the workload's garbage is not the probe's
        try:
            t0 = time.thread_time()
            probe()
            spent = time.thread_time() - t0
        finally:
            if collecting:
                gc.enable()
        self.probes.append(spent)
        self.probe_total += spent

    @contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    @contextmanager
    def block(self):
        """Measure the enclosed code (the sampler must be armed)."""
        rec = Block()
        first, spent0, cpu0 = len(self.probes), self.probe_total, time.process_time()
        try:
            yield rec
        finally:
            rec.cpu_s = time.process_time() - cpu0 - (self.probe_total - spent0)
            rec.probes = self.probes[first:]
