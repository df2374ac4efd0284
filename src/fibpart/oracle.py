"""Brute-force ground truth, deliberately naive.

Nothing here knows about associated vectors, determinant polynomials or
words: partitions are found by exhaustive subset search over the
Fibonacci numbers, and the signed count comes from literally expanding
the product of (1 - x^f) factors.  Only the Fibonacci table itself is
shared with the rest of the package.
"""

from .fibcore import fib

DEFAULT_BOUND = 100000
_PRODUCT_BOUND = 10 ** 6


def brute_partitions(n: int) -> list:
    """Every strictly increasing index tuple whose Fibonacci values sum
    to n, by depth-first search with remaining-sum pruning."""
    if n < 0:
        raise ValueError("need n >= 0, got %r" % (n,))
    if n > DEFAULT_BOUND:
        raise ValueError("n=%d exceeds the oracle bound %d" % (n, DEFAULT_BOUND))
    if n == 0:
        return [()]
    fibs = [0]
    i = 1
    while fib(i) <= n:
        fibs.append(fib(i))
        i += 1
    top = len(fibs) - 1
    prefix = [0] * (top + 1)
    for j in range(1, top + 1):
        prefix[j] = prefix[j - 1] + fibs[j]

    results = []
    acc = []

    def search(i, rem):
        if rem == 0:
            results.append(tuple(reversed(acc)))
            return
        if i < 1 or prefix[i] < rem:
            return
        if fibs[i] <= rem:
            acc.append(i)
            search(i - 1, rem - fibs[i])
            acc.pop()
        search(i - 1, rem)

    search(top, n)
    return sorted(results)


def brute_poly(n: int) -> list:
    """Partition-count polynomial of n assembled from brute_partitions:
    coefficient h is the number of partitions with h parts."""
    parts = brute_partitions(n)
    if parts == [()]:
        return [1]
    coeffs = [0] * (max(len(p) for p in parts) + 1)
    for p in parts:
        coeffs[len(p)] += 1
    return coeffs


def product_chi(N: int) -> list:
    """Coefficients 0..N of the product of (1 - x^f) over Fibonacci f <= N.
    Entry n is the signed partition count of n."""
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    if N > _PRODUCT_BOUND:
        raise ValueError("N=%d exceeds the expansion bound %d" % (N, _PRODUCT_BOUND))
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    i = 1
    while fib(i) <= N:
        f = fib(i)
        for n in range(N, f - 1, -1):
            c = coeffs[n - f]
            if c:
                coeffs[n] -= c
        i += 1
    return coeffs
