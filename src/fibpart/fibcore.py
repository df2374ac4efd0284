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
from math import isqrt

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


# (P, floor(2**P / phi)): a fixed-point 1/phi, replaced by a wider pair
# under _FIB_GROW, never changed in place; a precision p <= P is G >> (P - p).
_INV_PHI = (0, 0)


def _inv_phi(p):
    """floor(2**p / phi), growing the shared fixed point when it is short."""
    global _INV_PHI
    P, G = _INV_PHI
    if P < p:
        with _FIB_GROW:
            P, G = _INV_PHI
            if P < p:
                P = max(p, 2 * P)
                # 1/phi = (sqrt(5) - 1)/2 and isqrt(5 * 4**P) = floor(2**P sqrt(5))
                G = (isqrt(5 << 2 * P) - (1 << P)) >> 1
                _INV_PHI = (P, G)
    return G >> (P - p)


# zeckendorf splits while the top index passes _GREEDY_TOP; below it the
# greedy walk costs less than the multiplications of a split.
_GREEDY_TOP = 2048

# m -> (Q, C) with C = floor(2**Q / phi**m) up to +-2.  Split indices are
# rounded down to 5 significant bits, so at most 16 keys share a bit length.
_PHI_POWERS = {}


def _phi_power(m):
    """(Q, C) for the split at m, where Q covers every n with a top index
    below 2*m + 2*step (step the rounding unit of m): 2**Q > 4n."""
    power = _PHI_POWERS.get(m)
    if power is None:
        fib = _FIB
        step = 1 << max(m.bit_length() - 5, 0)
        Q = (2 * (m + step) + 2) * 7 // 10 + 4        # log2(phi) < 0.7
        # phi**-m = (-1)**m (f_{m-2} - f_{m-1}/phi); b guard bits absorb
        # the error of f_{m-1} times the floor of 2**(Q+b)/phi
        b = fib[m - 1].bit_length()
        v = (fib[m - 2] << Q + b) - fib[m - 1] * _inv_phi(Q + b)
        power = _PHI_POWERS[m] = (Q, (-v if m & 1 else v) >> b)
    return power


def _greedy(n, i):
    """The Zeckendorf indices of n < f_{i+1}, decreasing.  Greedy largest-fit:
    subtracting the largest f_i <= n leaves a remainder below f_{i-1}, so
    index i-1 can never be picked next and the gap condition holds
    automatically."""
    fib = _FIB
    out = []
    while n:
        if fib[i] <= n:
            out.append(i)
            n -= fib[i]
            i -= 2
        else:
            i -= 1
    return out


def _split(n, top, base, out):
    """Append base + the Zeckendorf indices of n < f_{top+1}, increasing.

    Since f_{j+m} = f_j f_m + f_{j-1} f_{m-1}, the indices of n above m,
    less m, are those of X = max{x : g(x) <= n}, g(x) = f_m x + f_{m-1} s(x),
    where s(x) = sum of f_{j-1} over the indices j of x = floor((x+1)/phi);
    the rest L = n - g(X) < f_{m+1} holds the indices <= m.
    X lies within +-1 of floor(n / phi**m), which the cached phi**-m gives
    to within 2 more from the top bits of n alone; the exact steps below
    then move X to the greatest x whose L is >= 0, each step changing L by
    f_m or f_{m+1}.
    """
    if top <= _GREEDY_TOP:
        out += [base + i for i in reversed(_greedy(n, top))]
        return
    fib = _FIB
    m = top >> 1
    m &= -1 << max(m.bit_length() - 5, 0)           # the grid of _PHI_POWERS
    Q, C = _phi_power(m)
    fm, fm1 = fib[m], fib[m - 1]
    shift = fm1.bit_length() - 1                     # 2**shift <= phi**m
    X = ((n >> shift) * C) >> (Q - shift)
    # s(q) = (q * G) >> P exactly when P >= 2 bits(q) + 2, because
    # |q/phi - p| > 1/(3q) for every q >= 1; q runs up to X + 2 <= estimate + 5
    P = 2 * X.bit_length() + 8
    G = _inv_phi(P)
    v = (X + 1) * G                                  # s(X) = v >> P
    S = v >> P
    L = n - fm * X - fm1 * S
    while L < 0:
        X -= 1
        v -= G
        L += fm + fm1 * (S - (v >> P))
        S = v >> P
    while True:
        step = fm + fm1 * (((v + G) >> P) - S)       # g(X + 1) - g(X)
        if L < step:
            break
        X += 1
        v += G
        L -= step
        S = v >> P
    _split(L, m, base, out)
    _split(X, top - m, base + m, out)


def zeckendorf(n: int) -> tuple:
    """Decompose n as its unique gap->=2 sum of Fibonacci numbers.

    Returns the strictly increasing tuple of indices; zeckendorf(0) == ().
    A top index up to _GREEDY_TOP is read by the greedy walk, quadratic in
    the bit length; a larger one is split near its middle by _split, which
    needs only multiplications, and each half is read the same way.
    """
    if n < 0:
        raise ValueError("cannot decompose a negative number: %r" % (n,))
    if n == 0:
        return ()
    top = bisect_right(_fib_upto(n), n) - 1
    if top <= _GREEDY_TOP:
        out = _greedy(n, top)
        out.reverse()
    else:
        out = []
        _split(n, top, 0, out)
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
