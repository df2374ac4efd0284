"""Fibonacci sequence, Zeckendorf codec and 2-partition primitives.

Indexing convention used throughout the package: f_1 = 1, f_2 = 2, f_3 = 3,
f_4 = 5, ...  The seed value f_0 = 1 exists only so the recurrence
f_i = f_{i-1} + f_{i-2} starts cleanly; index 0 never appears as the part
of a partition.

A 2-partition is a strictly increasing tuple of indices >= 1 whose
consecutive gaps are >= 2.  The empty tuple is the 2-partition of 0.
"""

import threading
from bisect import bisect_right

# _FIB[i] == f_i; grown on demand, never truncated.  Reads take no lock;
# growth does, because a read-then-append racing another thread's append
# would store a stale sum.
_FIB = [1, 1, 2]
_FIB_GROW = threading.Lock()


def _fib_upto(n):
    """Extend the table until it covers value n and return it."""
    fib = _FIB
    if fib[-1] <= n:
        with _FIB_GROW:
            while fib[-1] <= n:
                fib.append(fib[-1] + fib[-2])
    return fib


def fib(i: int) -> int:
    """Return f_i (f_0 = f_1 = 1, f_2 = 2, f_3 = 3, f_4 = 5, ...)."""
    if i < 0:
        raise ValueError("Fibonacci index must be nonnegative, got %r" % (i,))
    fib = _FIB
    if len(fib) <= i:
        with _FIB_GROW:
            while len(fib) <= i:
                fib.append(fib[-1] + fib[-2])
    return fib[i]


def zeckendorf(n: int) -> tuple:
    """Decompose n as its unique gap->=2 sum of Fibonacci numbers.

    Returns the strictly increasing tuple of indices; zeckendorf(0) == ().
    Greedy largest-fit: subtracting the largest f_i <= n leaves a remainder
    below f_{i-1}, so index i-1 can never be picked next and the gap
    condition holds automatically.
    """
    if n < 0:
        raise ValueError("cannot decompose a negative number: %r" % (n,))
    if n == 0:
        return ()
    fib = _fib_upto(n)
    i = bisect_right(fib, n) - 1
    out = []
    rem = n
    while rem:
        if fib[i] <= rem:
            out.append(i)
            rem -= fib[i]
            i -= 2
        else:
            i -= 1
    out.reverse()
    return tuple(out)


def _check_two_partition(indices):
    """Raise ValueError, naming the offending index, unless indices form a
    2-partition."""
    prev = -1
    for i in indices:
        if i < 1:
            raise ValueError("partition index %r is < 1" % (i,))
        if i - prev < 2:
            raise ValueError("partition index %r follows %r: gaps must be >= 2" % (i, prev))
        prev = i


def is_two_partition(indices) -> bool:
    """True iff indices form a valid 2-partition (gaps >= 2, parts >= 1)."""
    try:
        _check_two_partition(indices)
    except ValueError:
        return False
    return True


def content(indices) -> int:
    """Sum f_i over a 2-partition."""
    _check_two_partition(indices)
    return sum(fib(i) for i in indices)


def shift_sigma(indices, k: int) -> tuple:
    """Add k to every index.  Gaps are unchanged."""
    if k < 0:
        raise ValueError("shift must be nonnegative, got %r" % (k,))
    return tuple(i + k for i in indices)


def mu_first(n: int) -> int:
    """Smallest Zeckendorf index of n; 0 for n == 0."""
    z = zeckendorf(n)
    return z[0] if z else 0


def mu_last(n: int) -> int:
    """Largest Zeckendorf index of n; 0 for n == 0."""
    z = zeckendorf(n)
    return z[-1] if z else 0
