"""How fast the machine runs right now, and times scaled to a reference speed.

On a shared machine the speed of a core drifts by a third within minutes
(other tenants' load, not time the hypervisor takes away: process CPU time
drifts with wall time).  The benchmark times a fixed pure-Python loop, the
*probe*, before and after each timed span, and reports the span's time at a
reference speed, the speed at which the probe takes ``REFERENCE_MS``.  A
change to the package changes the span but not the probe, so the scaled time
moves with the change and much less with the machine.
"""
from time import perf_counter

REFERENCE_MS = 15.0  # probe time that defines the reference speed
PROBE_LOOPS = 200_000
PROBE_REPEATS = 5


def probe_ms() -> float:
    """Best of five timings of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, perf_counter() - start)
    return 1000.0 * best


def at_reference(seconds: float, before_ms: float, after_ms: float) -> float:
    """``seconds`` measured between two probes, scaled to the reference speed."""
    return seconds * REFERENCE_MS / (0.5 * (before_ms + after_ms))
