"""The lazily grown Fibonacci table and fixed-point 1/phi stay correct when
threads grow them at once."""

import sys
import threading
from math import isqrt

from fibpart import fibcore
from fibpart.fibcore import fib

WORKERS = 8
ROUNDS = 50


def _grow_together(table, get, extra):
    """Let WORKERS threads grow `table` by `extra` entries through `get`,
    in steps, with a short switch interval; then cut it back.  Yield the
    old length and a copy of the grown table after each round."""
    base = len(table)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(ROUNDS):
            barrier = threading.Barrier(WORKERS)

            def work():
                barrier.wait()
                for i in range(base + 50, base + extra + 1, 50):
                    get(i)

            threads = [threading.Thread(target=work) for _ in range(WORKERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            yield base, list(table)
            del table[base:]
    finally:
        sys.setswitchinterval(old)
        del table[base:]


def test_fib_table_under_threads():
    table = fibcore._FIB
    for base, grown in _grow_together(table, fib, 1000):
        assert all(grown[i] == grown[i - 1] + grown[i - 2]
                   for i in range(base, len(grown)))


def _inv_phi_at(P):
    return (isqrt(5 << 2 * P) - (1 << P)) >> 1


def test_inv_phi_under_threads(monkeypatch):
    """WORKERS threads grow the shared (P, G) from nothing, each asking for
    rising precisions; every pair any thread sees published, and every
    value returned, is floor(2**P / phi) exactly."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(ROUNDS):
            monkeypatch.setattr(fibcore, "_INV_PHI", (0, 0))
            barrier = threading.Barrier(WORKERS)
            seen, got = set(), []

            def work():
                barrier.wait()
                for p in range(5, 3000, 37):
                    got.append((p, fibcore._inv_phi(p)))
                    seen.add(fibcore._INV_PHI)

            threads = [threading.Thread(target=work) for _ in range(WORKERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == WORKERS * len(range(5, 3000, 37))
            assert all(G == _inv_phi_at(P) for P, G in seen)
            assert all(g == _inv_phi_at(p) for p, g in got)
    finally:
        sys.setswitchinterval(old)
