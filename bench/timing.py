"""Host reference probe, drift-corrected op times and percentiles.

The host this benchmark was defined on is a shared 2-core VM whose speed
swings by about 1.6x over tens of seconds, and CPU time swings with wall
time.  A fixed probe is timed every PROBE_EVERY_S seconds of the timed
part, and each operation's time is scaled by nominal / (median of the
probes around it), where nominal is the probe's time on that VM's fast
state; this states it in seconds of a host whose probe takes the nominal
time.  The raw times are kept next to the scaled ones in the run's output
file.

Two probes exist, each the benchmark's own code and never the package's,
and a workload names the one that tracks its operations best.  Both end
with a loop of 16 k-bit subtractions.  The `count` probe starts with the
checker's partition count of a 599-bit number (dicts, tuples and mid-size
integers, like the package's per-n work); the `interp` probe starts with
a plain integer loop, and tracks the process start-up that dominates a
CLI command better.  Timed side by side in the same runs, on five seeds
per workload, `count` cut the spread of the in-process workloads' scaled
figures to about half of what `interp` left, and `interp` did better on
`cli`.

This module imports nothing that fibpart imports, so a set-up measurement
that loads it first still pays for every module the package needs.
"""

import time

from checker import partition_counts

REF_N = 3 ** 378
REF_A, REF_B = 3 ** 10100, 3 ** 10090
REF_LOOPS = 40000
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 2           # probes each side of an op used for its scale


def _big_loop():
    x = REF_A
    for _ in range(400):
        x = x - REF_B if x > REF_B else x + REF_A


def _count_probe():
    partition_counts(REF_N)
    _big_loop()


def _interp_probe():
    s = 0
    for i in range(REF_LOOPS):
        s += i * i
    _big_loop()


# probe -> (work, its seconds on the development VM's fast state)
PROBES = {"count": (_count_probe, 0.0013), "interp": (_interp_probe, 0.0026)}


def ref_probe(kind):
    """Seconds taken by the reference work of the given probe."""
    work = PROBES[kind][0]
    t = time.perf_counter()
    work()
    return time.perf_counter() - t


def median(values):
    v = sorted(values)
    m = len(v)
    if not m:
        raise ValueError("median of nothing")
    return v[m // 2] if m % 2 else (v[m // 2 - 1] + v[m // 2]) / 2


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the values at or below it."""
    v = sorted(values)
    rank = -(-pct * len(v) // 100)
    return v[max(1, rank) - 1]


class Timeline:
    """Op times interleaved with host probes of one kind."""

    def __init__(self, kind):
        self.kind = kind
        self.probes = []
        self.ops = []              # (raw seconds, index of the next probe)
        self.probe()

    def probe(self):
        self.probes.append(ref_probe(self.kind))
        self._last = time.perf_counter()

    def add(self, seconds):
        self.ops.append((seconds, len(self.probes)))
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def close(self):
        self.probe()

    def raw(self):
        return [s for s, _ in self.ops]

    def scaled(self):
        out = []
        for seconds, j in self.ops:
            window = self.probes[max(0, j - PROBE_WINDOW): j + PROBE_WINDOW]
            out.append(scale(seconds, self.kind, window))
        return out


def scale(seconds, kind, probes):
    """Scale a measurement by the probes of the given kind taken around it."""
    return seconds * PROBES[kind][1] / median(probes)
