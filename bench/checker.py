"""Independent routes for checking the benchmark's outputs.

Nothing here imports fibpart.  Fibonacci numbers use the package's
indexing (f_1 = 1, f_2 = 2, f_3 = 3, ...) but come from fast doubling, and
partitions are counted without the Zeckendorf blocks, gap vectors or
continuants the package uses: `partition_counts` walks the Fibonacci
numbers from the largest down and keeps the frontier of remainders still
reachable, and `count_table` / `signed_table` expand the generating
products coefficient by coefficient.

The frontier walk holds O(1) numbers at a time, so checking a 32 k-bit
input adds no table to the process that is being measured.
"""


def _fib_doubling(m):
    """(F(m), F(m + 1)) in the standard indexing F(0) = 0, F(1) = 1."""
    a, b = 0, 1
    for bit in bin(m)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


def fib_pair(k):
    """(f_k, f_{k+1}) in the package's indexing, where f_k = F(k + 1)."""
    if k < 0:
        raise ValueError("need k >= 0, got %r" % (k,))
    return _fib_doubling(k + 1)


def top_index(n):
    """Largest k >= 1 with f_k <= n, and (f_k, f_{k+1}); n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1, got %r" % (n,))
    # log_phi(2) = 1.4404...; the estimate is within a few steps
    k = max(1, int((n.bit_length() - 1) * 1.4404) - 2)
    a, b = fib_pair(k)
    while b <= n:
        k, a, b = k + 1, b, a + b
    while a > n:
        k, a, b = k - 1, b - a, a
    return k, a, b


def partition_counts(n):
    """(F, chi) for n: the number of partitions of n into distinct
    Fibonacci numbers, and the even-part minus odd-part count.

    Walks k from the largest usable index down to 1.  A remainder r is
    kept only while r <= f_1 + ... + f_{k-1} = f_{k+1} - 2, so at most a
    handful of remainders are alive at any k.  Each carries the number of
    ways to reach it and the signed number (+1 per way with an even number
    of parts, -1 per odd); taking a part flips the sign.
    """
    if n < 0:
        raise ValueError("need n >= 0, got %r" % (n,))
    if n == 0:
        return 1, 1
    low = _LOW
    k, a, b = top_index(n)
    c = a + b                         # f_{k+2}
    front = {n: (1, 1)}
    while k >= 1:
        # skipping f_k keeps r, which needs r <= f_{k+1} - 2; taking it
        # leaves r - f_k, which needs f_k <= r <= f_{k+2} - 2.  x <= y - 2
        # is r < y and r != y - 1; the low bits settle the second test
        bl, cl = b & low, c & low
        b1 = bl - 1 if bl else low
        c1 = cl - 1 if cl else low
        new = {}
        for r, (ways, signed) in front.items():
            rl = r & low
            if r < b and (rl != b1 or r != b - 1):
                if r in new:
                    w, s = new[r]
                    new[r] = (w + ways, s + signed)
                else:
                    new[r] = (ways, signed)
            if a <= r < c and (rl != c1 or r != c - 1):
                r -= a
                if r in new:
                    w, s = new[r]
                    new[r] = (w + ways, s - signed)
                else:
                    new[r] = (ways, -signed)
        front = new
        k, a, b, c = k - 1, b - a, a, b
    return front.get(0, (0, 0))


_LOW = (1 << 60) - 1


def zeckendorf_problem(n, indices):
    """None when indices is the Zeckendorf decomposition of n, else why not.

    The decomposition is unique, so it is enough that the indices are
    >= 1, increase with gaps >= 2 and their Fibonacci numbers sum to n.
    """
    prev = -1
    for i in indices:
        if not isinstance(i, int) or i < 1:
            return "index %r is not a positive integer" % (i,)
        if prev >= 0 and i - prev < 2:
            return "gap %d -> %d is < 2" % (prev, i)
        prev = i
    total = fib_sum(indices) if indices else 0
    if total != n:
        return "indices sum to %d, not %d" % (total, n)
    return None


def fib_sum(indices):
    """Sum of f_i over increasing indices >= 1, by an ascending walk."""
    total = 0
    wanted = set(indices)
    a, b = fib_pair(1)
    for k in range(1, indices[-1] + 1):
        if k in wanted:
            total += a
        a, b = b, a + b
    return total


def _fibs_upto(N):
    out = []
    a, b = fib_pair(1)
    while a <= N:
        out.append(a)
        a, b = b, a + b
    return out


def count_table(N):
    """[F(0), ..., F(N)]: coefficients of the product of (1 + x^f) over
    the Fibonacci numbers f <= N."""
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for f in _fibs_upto(N):
        for m in range(N, f - 1, -1):
            c = coeffs[m - f]
            if c:
                coeffs[m] += c
    return coeffs


def signed_table(N):
    """[chi(0), ..., chi(N)]: coefficients of the product of (1 - x^f)
    over the Fibonacci numbers f <= N."""
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for f in _fibs_upto(N):
        for m in range(N, f - 1, -1):
            c = coeffs[m - f]
            if c:
                coeffs[m] -= c
    return coeffs


def poly_at(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def valuation(coeffs):
    """Index of the first nonzero coefficient; None for the zero list."""
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None


def _totient(m):
    out, p = m, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def psi(k, _memo={1: 1}):
    """Number of words of reduced fractions in (0, 1) whose denominators
    multiply to k: a sum over the first letter's denominator b | k, b >= 2,
    of phi(b) numerators times the words for k / b."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    if k not in _memo:
        total = 0
        d = 1
        while d * d <= k:
            if k % d == 0:
                for b in {d, k // d}:
                    if b >= 2:
                        total += _totient(b) * psi(k // b)
            d += 1
        _memo[k] = total
    return _memo[k]


def upper_hull(points):
    """Vertices of the strict upper convex hull of x-sorted points, by a
    monotone chain; points on a hull edge are not vertices."""
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop hull[-1] unless it lies strictly above the chord to p
            if (x1 - x0) * (p[1] - y0) >= (p[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull
