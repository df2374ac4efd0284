"""Statistics and structure of the signed count chi.

chi vanishes on most of the naturals: the count of zeros below f_r obeys
an integer recurrence, the nonzero values arrive in short sign-patterned
bursts, and the runs of zeros have Fibonacci-plus-one lengths.  The upper
convex hull of the graph of the partition count over a window
[f_r - 1, f_{r+1} - 1] has its vertices at explicit squared-Fibonacci
offsets from the window ends.
"""

import threading
from dataclasses import dataclass, field
from functools import cache

from .counting import chi, count_F
from .fibcore import fib, zeckendorf

# h_rec's table; grown under the lock, read without it (as fibcore._FIB)
_H_VALUES = [0, 0, 0, 0, 1]
_H_GROW = threading.Lock()


def h_rec(r: int) -> int:
    """Zeros of chi in [1, f_r - 1], i.e. count_zero_chi(f_r - 1): 0 for
    r <= 3, 1 at r = 4, then h(r) = f_{r-5} + 1 + h(r-1) + 2 h(r-4).
    chi(0) = 1, so the window [0, f_r - 1] gives the same count."""
    if r < 0:
        raise ValueError("need r >= 0, got %r" % (r,))
    vals = _H_VALUES
    if r < len(vals):
        return vals[r]
    with _H_GROW:
        while len(vals) <= r:
            j = len(vals)
            vals.append(fib(j - 5) + 1 + vals[j - 1] + 2 * vals[j - 4])
    return vals[r]


def _chi_step(state, digit):
    """One Zeckendorf digit of the zero-chi automaton; None if the digit
    would break the gap->=2 rule.

    States: ("S", m) before the first 1, m digits read mod 4;
    ("B", d, p0, p1) inside a block, d digits since the last 1 (1..4 stand
    for d mod 4, 0 for d == 0), p0, p1 the last two prefix continuants of
    the block mod 2, as in counting.chi; ("Z", last) once a closed block
    had an even continuant, last telling whether the last digit was a 1.
    """
    kind = state[0]
    if kind == "Z":
        if digit:
            return None if state[1] else ("Z", True)
        return ("Z", False)
    if kind == "S":
        m = state[1]
        if not digit:
            return ("S", (m + 1) % 4)
        # first index i = m + 1 has entry (i - 1)//2 + 1
        return ("B", 0, 1, 1 if m in (0, 1) else 0)
    _, d, p0, p1 = state
    if not digit:
        return ("B", d + 1 if d < 4 else 1, p0, p1)
    if d == 0:
        return None
    g = d + 1                      # the gap, correct mod 4
    a = 1 if g % 4 in (0, 1) else 0   # parity of the entry g//2 + 1
    if g % 2:                      # odd gap: the open block closes
        return ("Z", True) if p1 == 0 else ("B", 0, 1, a)
    return ("B", 0, p1, (a & p1) ^ p0)


@cache
def _chi_automaton():
    """Number the states reachable from the start and tabulate the
    automaton: (start, next state on 0, next on 1 or -1, accepting).  A
    state accepts when chi of the digits read is 0."""
    start = ("S", 0)
    ids = {start: 0}
    order = [start]
    on0, on1 = [], []
    for state in order:            # grows while it is walked
        for digit, table in ((0, on0), (1, on1)):
            nxt = _chi_step(state, digit)
            if nxt is None:
                table.append(-1)
                continue
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            table.append(ids[nxt])
    accept = [s[0] == "Z" or (s[0] == "B" and s[3] == 0) for s in order]
    return 0, tuple(on0), tuple(on1), tuple(accept)


def count_zero_chi(N: int) -> int:
    """How many n in [1, N] have chi(n) == 0, by a digit DP over the
    Zeckendorf digits of N: O(log N) steps of a ~20-state automaton.

    Each n < N agrees with N above some index j where N has a 1 and n a 0;
    below j it is any valid digit string.  So the count is, over the 1s j
    of N, the number of strings on indices 1..j-1 whose automaton state
    goes on to accept after a 0 at j and N's own digits above j, plus N
    itself.
    """
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    start, on0, on1, accept = _chi_automaton()
    top = zeckendorf(N)
    L = top[-1] if top else 0
    bits = [0] * (L + 1)
    for i in top:
        bits[i] = 1
    # live[k][s]: from state s, N's digits k+1..L end in an accepting state
    live = [None] * (L + 1)
    live[L] = cur = accept
    for k in range(L, 0, -1):
        table = on1 if bits[k] else on0
        cur = [t >= 0 and cur[t] for t in table]
        live[k - 1] = cur
    zeros = 1 if live[0][start] else 0
    counts = [0] * len(on0)        # valid strings on indices 1..k-1, per state
    counts[start] = 1
    for k in range(1, L + 1):
        if bits[k]:
            after = live[k]
            zeros += sum(c for s, c in enumerate(counts) if c and after[on0[s]])
        if k < L:
            nxt = [0] * len(counts)
            for s, c in enumerate(counts):
                if c:
                    nxt[on0[s]] += c
                    t = on1[s]
                    if t >= 0:
                        nxt[t] += c
            counts = nxt
    return zeros


def x_sum(N: int) -> int:
    """Sum of chi(n)^2 for 1 <= n <= N, i.e. how many chi values are
    nonzero there; the complement of count_zero_chi."""
    if N < 0:
        raise ValueError("need N >= 0, got %r" % (N,))
    return N - count_zero_chi(N)


@dataclass(frozen=True)
class RunReport:
    """A maximal run of equal chi-vanishing inside a scanned range."""
    start: int
    length: int
    kind: str                      # "zero" or "nonzero"
    values: tuple = field(default_factory=tuple)   # chi values, nonzero runs only


def _runs(lo, hi, want_zero):
    if lo >= hi:
        raise ValueError("need lo < hi, got %r >= %r" % (lo, hi))
    kind = "zero" if want_zero else "nonzero"
    out = []
    start = None
    vals = []
    for n in range(lo + 1, hi):
        v = chi(n)
        if (v == 0) == want_zero:
            if start is None:
                start = n
                vals = []
            if not want_zero:
                vals.append(v)
        elif start is not None:
            out.append(RunReport(start, n - start, kind, tuple(vals)))
            start = None
    if start is not None:
        out.append(RunReport(start, hi - start, kind, tuple(vals)))
    return out


def zero_runs(lo: int, hi: int) -> list:
    """Maximal runs of chi == 0 inside the open range (lo, hi).  A run
    whose neighbours both lie inside the range has length 1 or f_r + 1."""
    return _runs(lo, hi, True)


def nonzero_runs(lo: int, hi: int) -> list:
    """Maximal runs of chi != 0 inside the open range (lo, hi); interior
    runs are at most 4 long with constrained sign patterns."""
    return _runs(lo, hi, False)


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
