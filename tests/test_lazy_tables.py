"""The lazily grown Fibonacci table stays correct when threads grow it at once."""

import sys
import threading

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
