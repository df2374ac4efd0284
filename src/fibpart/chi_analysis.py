"""Statistics and structure of the signed count chi.

chi vanishes on most of the naturals: the count of zeros below f_r obeys
an integer recurrence, the nonzero values arrive in short sign-patterned
bursts, and the runs of zeros have Fibonacci-plus-one lengths.  The upper
convex hull of the graph of the partition count over a window
[f_r - 1, f_{r+1} - 1] has its vertices at explicit squared-Fibonacci
offsets from the window ends.

count_zero_chi is one call of counting._count_upto, the Zeckendorf digit
engine that also runs enumeration.stability_count; the runs scan chi.
"""

from collections import namedtuple
from itertools import groupby

from .counting import _count_upto, chi, count_F
from .fibcore import fib


def h_rec(r: int) -> int:
    """Zeros of chi in [1, f_r - 1], i.e. count_zero_chi(f_r - 1): 0 for
    r <= 3, 1 at r = 4, then h(r) = f_{r-5} + 1 + h(r-1) + 2 h(r-4).
    chi(0) = 1, so the window [0, f_r - 1] gives the same count."""
    if r < 0:
        raise ValueError("need r >= 0, got %r" % (r,))
    vals = [0, 0, 0, 0, 1]
    for j in range(5, r + 1):
        vals.append(fib(j - 5) + 1 + vals[j - 1] + 2 * vals[j - 4])
    return vals[r]


def count_zero_chi(N: int) -> int:
    """How many n in [1, N] have chi(n) == 0, in O(log N) digit steps.

    chi(n) == 0 exactly when count_F(n) is even (the counting polynomial
    has P(-1) = P(1) mod 2), so this counts the digit strings <= N whose
    block product C is even, carrying the gap mod 4 and P, C mod 2.
    """
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    return _count_upto(N, lambda s: (s[0] & 3, s[1] & 1, s[2] & 1),
                       lambda key, last: not key[2])


def x_sum(N: int) -> int:
    """Sum of chi(n)^2 for 1 <= n <= N, i.e. how many chi values are
    nonzero there; the complement of count_zero_chi."""
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    return N - count_zero_chi(N)


# a maximal run of equal chi-vanishing inside a scanned range: kind is
# "zero" or "nonzero", values the chi values of a nonzero run only
RunReport = namedtuple("RunReport", "start length kind values", defaults=((),))


def _runs(lo, hi) -> list:
    """Every maximal run of chi == 0 and of chi != 0 inside the open range
    (lo, hi), in order, from one scan."""
    if lo >= hi:
        raise ValueError("need lo < hi, got %r >= %r" % (lo, hi))
    out, start = [], lo + 1
    for zero, group in groupby(map(chi, range(lo + 1, hi)), key=lambda v: v == 0):
        values = tuple(group)
        out.append(RunReport(start, len(values), "zero" if zero else "nonzero",
                             () if zero else values))
        start += len(values)
    return out


def zero_runs(lo: int, hi: int) -> list:
    """Maximal runs of chi == 0 inside the open range (lo, hi).  A run
    whose neighbours both lie inside the range has length 1 or f_r + 1."""
    return [run for run in _runs(lo, hi) if run.kind == "zero"]


def nonzero_runs(lo: int, hi: int) -> list:
    """Maximal runs of chi != 0 inside the open range (lo, hi); interior
    runs are at most 4 long with constrained sign patterns."""
    return [run for run in _runs(lo, hi) if run.kind == "nonzero"]


# ---------------------------------------------------------------------------
# convex hull of the partition-count graph

def hull_points(r: int) -> list:
    """Predicted upper-hull vertices of {(n, F(n))} over
    [f_r - 1, f_{r+1} - 1], excluding the two window endpoints.

    Vertices sit at squared-Fibonacci offsets from either end; for even r
    a second family at Fibonacci-product offsets joins them.
    """
    if r < 7:
        raise ValueError("need r >= 7, got %r" % (r,))
    lo, hi = fib(r) - 1, fib(r + 1) - 1
    xs = set()
    for q in range(1, (r - 3) // 2 + 1):
        s = fib(q) ** 2
        xs.add(lo + s)
        xs.add(hi - s)
    if r % 2 == 0:
        for q in range(3, r // 2 - 1):
            t = fib(q) * fib(q + 1)
            e = 2 * (-1) ** q
            xs.add(lo - e + t)
            xs.add(hi + e - t)
    return [(x, count_F(x)) for x in sorted(xs)]


def upper_hull(points) -> list:
    """Strict upper convex hull of x-sorted points, integer cross products
    only; collinear middle points are dropped."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            if (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def computed_hull_points(r: int) -> list:
    """Upper-hull vertices of {(n, F(n))} over [f_r - 1, f_{r+1} - 1],
    computed outright, with the two window endpoints dropped (both carry
    count 1 and anchor the chain trivially)."""
    if r < 7:
        raise ValueError("need r >= 7, got %r" % (r,))
    pts = [(n, count_F(n)) for n in range(fib(r) - 1, fib(r + 1))]
    return upper_hull(pts)[1:-1]
