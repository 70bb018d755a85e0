"""Reference seconds: wall time with the host's speed drift taken out.

The benchmark runs on a share of a machine whose speed drifts: the same
work takes up to twice as long from one minute to the next, and the drift
moves within seconds.  So while a piece of the benchmark runs (a set-up, a
unit of a workload), a timer interrupts it every PERIOD_S and runs a short
fixed snippet that uses no transhop code, timing it by the CPU time of its
thread.  The snippet's time follows the host's speed at that moment.  The
piece's time in reference seconds is its wall time, less the time spent in
the snippets when the piece runs in the sampled process, times NOMINAL_S
over the median snippet time to the power ELASTICITY: a reference second
is a second on a host on which the snippet takes NOMINAL_S, so it depends
on the snippet.  A change to transhop moves the wall time and not the
snippet, so it moves the reference time by the same share.

The snippets are tight loops and follow the host's state more steeply than
the workloads do: over 633 units of the three bounded workloads, the log of
a unit's wall time rose 0.60, 0.67 and 0.70 times as fast as the log of its
median snippet time (correlations 0.79 to 0.91).  ELASTICITY is the middle
of these; with 1 the host's fast minutes read 10-50% high.

There are two snippets, and each workload uses the one closer to its own
work.  `vehicles` steps a few hundred vehicles the way the simulator does:
a Python-level loop over small numpy arrays.  `arrays` sorts and searches
arrays of a few hundred thousand numbers, like the oracle and the
statistics.  Their inputs are fixed, so they do the same work on every
call.  Timing them by thread CPU time leaves out waits for a core inside
the machine (the pool workers of a pooled workload keep both cores busy)
but not the host's slowdowns, which the machine cannot see.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 0.01
ELASTICITY = 0.65
_ROUNDS = 150

# fixed inputs, made once: a snippet may interrupt an import, so it must
# not trigger one (numpy.random is imported lazily)
_I = np.arange(300)
_S0 = np.sort((_I * 0.6180339887) % 1.0) * 1000.0
_V0 = ((_I * 0.7548776662) % 1.0) * 30.0
_LANE0 = (_I * 7 % 3 == 0).astype(np.int64)
_X = (np.arange(400_000) * 0.6180339887) % 1.0


def vehicles():
    """The snippet for the simulator: returns its thread CPU time in seconds."""
    t0 = time.thread_time()
    s, v, lane, vid = _S0, _V0, _LANE0, _I
    for _ in range(_ROUNDS):
        gap = np.full(s.size, 1e3)
        for k in (0, 1):
            m = np.flatnonzero(lane == k)
            if m.size > 1:
                gap[m[:-1]] = np.diff(s[m]) - 5.0
        acc = 1.5 * (1.0 - (v / 33.0) ** 4 - (np.maximum(gap, 0.1) / 100.0) ** -2)
        v = np.clip(v + 0.25 * acc, 0.0, 40.0)
        s = s + 0.25 * v
        perm = np.lexsort((vid, s))
        s, v, lane, vid = s[perm], v[perm], lane[perm], vid[perm]
        s = np.where(s > 1000.0, s - 1000.0, s)
    return time.thread_time() - t0


def arrays():
    """The snippet for whole-array work: returns its thread CPU time in seconds."""
    t0 = time.thread_time()
    y = np.sort(_X * 3.0 + 1.0)
    np.quantile(y, [0.1, 0.5, 0.9])
    np.searchsorted(y, np.exp(-_X[:40_000]))
    return time.thread_time() - t0


SNIPPETS = {"vehicles": vehicles, "arrays": arrays}


class HostSampler:
    """Runs the snippet every PERIOD_S of wall time between start() and
    stop(), and once at each end, outside the timed span."""

    def __init__(self, snippet="vehicles"):
        self._snippet = SNIPPETS[snippet]
        self.samples = []
        self.sampling_s = 0.0  # wall time spent in the snippets in between
        self._previous = None
        self._busy = False

    def _on_timer(self, signum, frame):
        if self._busy:  # a tick that comes while the snippet runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(self._snippet())
        self.sampling_s += time.perf_counter() - t0
        self._busy = False

    def start(self, lead=True):
        # lead=False leaves out the snippet before the span, for a span
        # that started before the sampler could (a set-up)
        self.samples = [self._snippet()] if lead else []
        self.sampling_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(self._snippet())
        return {"samples": len(self.samples),
                "snippet_s": statistics.median(self.samples),
                "sampling_s": self.sampling_s}


def to_reference_s(seconds, host):
    """Seconds of a span sampled by a HostSampler (host: what its stop()
    returned), in reference seconds."""
    return seconds * (NOMINAL_S / host["snippet_s"]) ** ELASTICITY
