"""Counting and enumerating the essential numbers with a given partition count.

delta is multiplicative over letters, so the essential numbers with
partition count k correspond to words whose letter denominators multiply
to k.  Their number Psi(k) obeys a totient divisor recurrence; collapsing
words that differ only by letter order leaves the commutative classes,
counted by Psi_Sigma(k), which suffice when hunting for the minimal
essential k-number.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd, isqrt

from .contfrac import cf_expand, word_of
from .fibcore import fib
from .orbits import is_essential, is_f_prime, theta


def euler_phi(n: int) -> int:
    """Euler's totient by trial-division factoring."""
    if n < 1:
        raise ValueError("totient needs n >= 1, got %r" % (n,))
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def psi(k: int) -> int:
    """Number of essential k-numbers: Psi(1) = 1 and
    Psi(k) = sum over divisors r > 1 of Psi(k/r) * phi(r), run over the
    sorted divisors of k (trial division up to sqrt(k))."""
    if k < 1:
        raise ValueError("psi needs k >= 1, got %r" % (k,))
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    divisors = small + [k // d for d in reversed(small) if d * d != k]
    phi = {r: euler_phi(r) for r in divisors}
    table = {1: 1}
    for i, d in enumerate(divisors[1:], 1):
        table[d] = sum(table[d // r] * phi[r] for r in divisors[1:i + 1] if d % r == 0)
    return table[k]


def ordered_bell(m: int) -> int:
    """Ordered set partition counts: B(m) = sum C(m,r) B(r) for r < m."""
    if m < 0:
        raise ValueError("need m >= 0")
    vals = [1]
    for j in range(1, m + 1):
        vals.append(sum(comb(j, r) * vals[r] for r in range(j)))
    return vals[m]


def bell(m: int) -> int:
    """Set partition counts: b(m) = sum C(m-1,r) b(r) for r < m."""
    if m < 0:
        raise ValueError("need m >= 0")
    vals = [1]
    for j in range(1, m + 1):
        vals.append(sum(comb(j - 1, r) * vals[r] for r in range(j)))
    return vals[m]


def _coprimes(b):
    return [a for a in range(1, b) if gcd(a, b) == 1]


def words_with_delta(k: int):
    """Yield every word whose denominators multiply to k (Psi(k) of them)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    if k == 1:
        yield ()
        return
    for b in range(2, k + 1):
        if k % b == 0:
            heads = [Fraction(a, b) for a in _coprimes(b)]
            for rest in words_with_delta(k // b):
                for head in heads:
                    yield (head,) + rest


def list_essential(k: int) -> tuple:
    """All essential k-numbers, increasing.  Cardinality is psi(k)."""
    return tuple(sorted(theta(w) for w in words_with_delta(k)))


def max_essential(k: int) -> int:
    """Largest essential k-number: f_{2k} - 2."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    return fib(2 * k) - 2


# ---------------------------------------------------------------------------
# the right-aligned vector order and the commutative product

def cmp_triangle(x, y) -> int:
    """Compare vectors right-aligned, padding the shorter on the left with
    infinity; decide at the rightmost differing position.  Returns -1, 0
    or 1."""
    xr, yr = x[::-1], y[::-1]
    for a, b in zip(xr, yr):
        if a != b:
            return -1 if a < b else 1
    if len(xr) == len(yr):
        return 0
    # the longer vector is smaller at the first padded slot
    return -1 if len(xr) > len(yr) else 1


class _TriangleKey:
    """Sort key wrapping cmp_triangle over a letter's expansion vector."""

    __slots__ = ("vec",)

    def __init__(self, letter):
        self.vec = cf_expand(letter)

    def __lt__(self, other):
        return cmp_triangle(self.vec, other.vec) < 0


def commutative_normal_form(word) -> tuple:
    """Letters sorted by the right-aligned order of their expansion
    vectors; equal letters keep their input order."""
    return tuple(sorted(word, key=_TriangleKey))


def circle(n1: int, n2: int) -> int:
    """Commutative product on essential numbers: concatenate the two
    words, sort into normal form, take the minimal representative."""
    if not is_essential(n1):
        raise ValueError("left operand %d is not essential" % (n1,))
    if not is_essential(n2):
        raise ValueError("right operand %d is not essential" % (n2,))
    return theta(commutative_normal_form(word_of(n1) + word_of(n2)))


def _factor_multisets(k, cap=None):
    """Non-increasing tuples of factors >= 2 whose product is k."""
    if k == 1:
        yield ()
        return
    top = k if cap is None else min(k, cap)
    for b in range(top, 1, -1):
        if k % b == 0:
            for rest in _factor_multisets(k // b, b):
                yield (b,) + rest


def commutative_words(k: int):
    """One normal-form word per unordered letter multiset with
    denominator product k (Psi_Sigma(k) of them)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    for factors in _factor_multisets(k):
        groups = sorted(Counter(factors).items())
        pools = []
        for b, mult in groups:
            pools.append([
                tuple(Fraction(a, b) for a in nums)
                for nums in combinations_with_replacement(_coprimes(b), mult)
            ])
        for picks in product(*pools):
            yield commutative_normal_form(sum(picks, ()))


def psi_sigma(k: int) -> int:
    """Number of commutative essential k-numbers, by enumeration."""
    return sum(1 for _ in commutative_words(k))


def minimal_essential(k: int, exhaustive: bool = False) -> int:
    """Smallest n with partition count k.

    Searches one word per letter multiset (order never lowers the minimum
    below its sorted form); exhaustive=True searches all Psi(k) words
    instead, as a cross-check.
    """
    words = words_with_delta(k) if exhaustive else commutative_words(k)
    return min(theta(w) for w in words)


def is_primitive(k: int) -> bool:
    """True iff the minimal essential k-number is a one-letter word.
    k == 1 is primitive by convention (its minimal number is 0)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    return k == 1 or is_f_prime(minimal_essential(k))


def stability_count(r: int, k: int) -> int:
    """How many n in [f_r, f_{r+1}) have partition count k.  Stabilizes at
    1 for k == 1 and 2*psi(k) otherwise once r >= 2k.

    A DP over the Zeckendorf indices 1..r of n, index r being a 1.  With C
    the product of the closed blocks' continuants times the open block's
    current one, and P the same product with the open block's previous
    continuant, a 1 after a gap g has entry a = g//2 + 1 and moves (P, C)
    to (C, a*C) when g is odd (a new block starts) and to (C, a*C - P)
    when g is even.  Continuants never decrease along a block, so C never
    decreases, and a state is dropped as soon as C, or the least C the
    next 1 can give, exceeds k.
    """
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")
    # (d, P, C) -> number of digit strings; d digits since the last 1, or
    # since the start while P == 0 (no 1 yet, C == 1)
    states = {(0, 0, 1): 1}

    def place_one(d, P, C):
        if P == 0:                 # first index i = d + 1: entry (i-1)//2 + 1
            return 1, d // 2 + 1
        g = d + 1
        a = g // 2 + 1
        return C, a * C if g % 2 else a * C - P

    for _ in range(r - 1):
        nxt = {}
        for (d, P, C), cnt in states.items():
            # a 0: the next 1 comes after a gap >= d + 2, so C reaches at least
            least = (d + 1) // 2 + 1 if P == 0 else C * ((d + 2) // 2)
            if least <= k:
                key = (d + 1, P, C)
                nxt[key] = nxt.get(key, 0) + cnt
            if d or P == 0:
                P1, C1 = place_one(d, P, C)
                if C1 <= k:
                    key = (0, P1, C1)
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(cnt for (d, P, C), cnt in states.items()
               if (d or P == 0) and place_one(d, P, C)[1] == k)
