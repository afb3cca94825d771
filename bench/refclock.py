"""The frozen reference kernel that turns wall-clock rates into drift-corrected ones.

This box is a small shared VM: the same code runs 10-25 % faster or slower
from one minute to the next and from one second to the next, which is wider
than any change the benchmark is meant to resolve.  A fixed piece of work —
the kernel — run at the same instants as the measured code sees the same
machine speed, so the ratio of the two does not.  :class:`Interleaved` runs
the kernel from an interval timer's signal handler, i.e. in the main thread
between two bytecodes of whatever is being timed, every ``INTERVAL_S``.  A
slice's corrected rate is::

    ops / (slice_wall_s - kernel_s) * (kernel_s / kernel_runs) / REF_NOMINAL_S

"operations per reference-second": the rate on a machine on which one kernel
run takes ``REF_NOMINAL_S``.

The kernel must never change once results have been committed — every stored
number is relative to it — and it never imports ``repro``, so no source edit
can move it.  It is a plain CPython dict/bytes/call loop: sizing runs timed
five candidate components in the same ticks (this loop, a NumPy table
gather, a socketpair echo, a walk over 200k objects, a 64 MB random gather)
and the loop alone tracked both the wire and the engine paths best
(run-to-run spread of the corrected rate 2.2-2.5 % against 10 % raw; adding
any other component made it worse).  Every result carries the raw and the
corrected spread of its slices, so a workload the kernel tracks badly shows
in every run.
"""

from __future__ import annotations

import signal

#: Kernel time on the reference machine; fixed once, never edited.
REF_NOMINAL_S = 0.0025

#: Wall time between kernel runs inside a timed region.
INTERVAL_S = 0.025

_ROUNDS = 10_000


def _step(value: int) -> int:
    return (value * 31 + 7) & 0xFFFF


def kernel() -> int:
    """One unit of fixed work; returns a checksum so nothing is optimised away."""
    counts: dict[bytes, int] = {}
    value = 1
    for index in range(_ROUNDS):
        value = _step(value)
        key = b"object-%d" % (value & 1023)
        counts[key] = counts.get(key, 0) + index
    return value + len(counts)


class Interleaved:
    """Runs ``sample`` every ``INTERVAL_S`` of wall time inside the timed code.

    ``sample`` runs :func:`kernel` and returns its wall seconds; it is the
    harness's, which also tells the tracer, so that a traced layer's self
    time excludes the kernel runs that landed inside it.
    """

    def __init__(self, sample) -> None:
        self._sample = sample
        self._samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._samples.append(self._sample())

    def start(self) -> None:
        self._samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        """Stop the timer; the wall seconds of every kernel run since start."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self._samples
