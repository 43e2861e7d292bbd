"""Machine-speed reference: timings at a fixed reference speed.

On the 2-CPU machine the baseline was measured on, shared with other
tenants, the same Python work ran up to 45% slower for stretches of seconds
to minutes, so raw wall times of identical runs spread by 30% or more.  The
benchmark therefore times, next to its operations, a fixed reference: a
small dict-polynomial multiply loop, the kind of work the package's scalar
arithmetic does.  Contention slows both alike.  A raw interval times
``REFERENCE_S`` over the reference's duration measured around it gives the
interval at reference speed, the time it would take when the reference
takes ``REFERENCE_S``.  On that machine this cut the spread of one repeated
operation's 4-second medians from 0.33 to 0.03 (IQR over median).

The reference is benchmark code; no change to the package moves it.
"""

import bisect
import signal
import time

REFERENCE_S = 1.3e-3    # the reference's duration there in a quiet stretch

_POLY = {e: (e * 7919) % 23 - 11 for e in range(-12, 13)}


def _reference_once():
    start = time.perf_counter()
    acc = {0: 1}
    for _ in range(6):
        out = {}
        for e1, c1 in acc.items():
            for e2, c2 in _POLY.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        acc = {e: c % 1000003 for e, c in out.items() if c}
    return time.perf_counter() - start


def reference_s():
    """Duration of the reference now: the median of three runs."""
    return sorted(_reference_once() for _ in range(3))[1]


def at_reference_speed(raw_s, before_s, after_s):
    """A raw interval rescaled by the reference durations around it."""
    return raw_s * REFERENCE_S * 2 / (before_s + after_s)


class Speedometer:
    """Reference durations sampled all through a unit by a SIGALRM timer.

    The handler runs between bytecodes, inside long operations too, so a
    7-second projector build is rescaled by the contention it actually met.
    ``spent`` is the time spent in the handler, which ``clock`` subtracts.
    """

    def __init__(self, every=0.2):
        self.every = every
        self.stamps = []
        self.durations = []
        self.spent = 0.0

    def sample(self, *_):
        """Time the reference once more; also the SIGALRM handler."""
        start = time.perf_counter()
        self.durations.append(reference_s())
        self.stamps.append(time.perf_counter())
        self.spent += self.stamps[-1] - start

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def clock(self):
        """perf_counter less the time the handler took so far."""
        return time.perf_counter() - self.spent

    def rescale(self, spans):
        """Each (start stamp, end stamp, raw seconds) at reference speed,
        from the samples taken during it and the one on either side."""
        out = []
        for t0, t1, raw in spans:
            lo = max(bisect.bisect_left(self.stamps, t0) - 1, 0)
            hi = min(bisect.bisect_right(self.stamps, t1), len(self.stamps) - 1)
            around = self.durations[lo:hi + 1]
            out.append(raw * REFERENCE_S * len(around) / sum(around))
        return out
