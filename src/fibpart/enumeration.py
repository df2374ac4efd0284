"""Counting and enumerating the essential numbers with a given partition count.

delta is multiplicative over letters, so the essential numbers with
partition count k correspond to words whose letter denominators multiply
to k.  Over the divisors of k, factored once per query, their number
Psi(k) obeys a totient recurrence and the Psi_Sigma(k) commutative classes
a knapsack.  The minimal essential k-number has the least top index, a
sum of letter weights, so theta runs on a few words.  How many n of one
Fibonacci window have count k is one call of counting._count_upto.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd, inf

from .contfrac import _word_of, cf_expand
from .counting import _count_upto, _digit_step, decompose
from .fibcore import fib
from .orbits import _is_essential, is_f_prime, theta


def _lattice(k):
    """(divisors, phi): the increasing divisors of k and their totients.  k
    is factored once, by trial division; phi(p^j) = p^j - p^j // p."""
    phi, p = {1: 1}, 2
    while k > 1:
        if p * p > k:
            p = k                  # no factor up to sqrt(k) is left: k is prime
        e = 0
        while k % p == 0:
            k, e = k // p, e + 1
        if e:
            phi = {d * p ** j: f * (p ** j - p ** j // p)
                   for d, f in phi.items() for j in range(e + 1)}
        p += 1
    return sorted(phi), phi


def euler_phi(n: int) -> int:
    """Euler's totient, read off the divisor lattice of n."""
    if n < 1:
        raise ValueError("totient needs n >= 1, got %r" % (n,))
    return _lattice(n)[1][n]


def psi(k: int) -> int:
    """Number of essential k-numbers: Psi(1) = 1 and Psi(k) = the sum over
    the divisors r > 1 of Psi(k/r) * phi(r), run up the divisors of k."""
    if k < 1:
        raise ValueError("psi needs k >= 1, got %r" % (k,))
    divisors, phi = _lattice(k)
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


def _letters(b):
    return [Fraction(a, b) for a in range(1, b) if gcd(a, b) == 1]


def words_with_delta(k: int):
    """Yield every word whose denominators multiply to k (Psi(k) of them)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    letters = {b: _letters(b) for b in _lattice(k)[0][1:]}

    def words(m):
        if m == 1:
            yield ()
        yield from ((head,) + rest for b, heads in letters.items() if m % b == 0
                    for rest in words(m // b) for head in heads)

    yield from words(k)


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


def commutative_normal_form(word) -> tuple:
    """Letters sorted by cmp_triangle on their expansion vectors, keyed by
    the reversed vector closed by an infinity (of two nested vectors the
    longer is smaller); equal letters keep their input order."""
    return tuple(sorted(word, key=lambda g: cf_expand(g)[::-1] + (inf,)))


def circle(n1: int, n2: int) -> int:
    """Commutative product on essential numbers: concatenate the two
    words, sort into normal form, take the minimal representative."""
    (I1, blocks1), (I2, blocks2) = decompose(n1), decompose(n2)
    if not _is_essential(I1):
        raise ValueError("left operand %d is not essential" % (n1,))
    if not _is_essential(I2):
        raise ValueError("right operand %d is not essential" % (n2,))
    return theta(commutative_normal_form(_word_of(blocks1) + _word_of(blocks2)))


def _factor_multisets(k, factors):
    """Non-increasing tuples of factors >= 2 whose product is k, drawn
    from the increasing divisors of k > 1 in factors (none when k == 1)."""
    if k == 1:
        yield ()
    for i in range(len(factors) - 1, -1, -1):
        rest = k // factors[i]
        for tail in _factor_multisets(rest, [d for d in factors[:i + 1] if rest % d == 0]):
            yield (factors[i],) + tail


def _normal_words(multisets, letters):
    """One normal-form word per letter multiset, letters(b) per factor b."""
    for factors in multisets:
        pools = [list(combinations_with_replacement(letters(b), mult))
                 for b, mult in sorted(Counter(factors).items())]
        for picks in product(*pools):
            yield commutative_normal_form(sum(picks, ()))


def commutative_words(k: int):
    """One normal-form word per unordered letter multiset with
    denominator product k (Psi_Sigma(k) of them)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    yield from _normal_words(_factor_multisets(k, _lattice(k)[0][1:]), _letters)


def psi_sigma(k: int) -> int:
    """Number of commutative essential k-numbers: the sum over the factor
    multisets of k of the product of C(phi(b) + m_b - 1, m_b).  A knapsack:
    the pass of factor b runs down the divisors, so it reads counts without b."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    divisors, phi = _lattice(k)
    count = {d: int(d == 1) for d in divisors}
    for i, b in enumerate(divisors[1:], 1):
        for d in [d for d in reversed(divisors[i:]) if d % b == 0]:
            q, m = d, 0
            while q % b == 0:
                q, m = q // b, m + 1
                count[d] += comb(phi[b] + m - 1, m) * count[q]
    return count[k]


def minimal_essential(k: int) -> int:
    """Smallest n with partition count k.

    The top Zeckendorf index of theta(w) is the sum of the letter weights
    2*sum(a - 1) + 1, a over cf_expand(letter), and the least n has the
    least top index: theta runs only on the normal-form words of the
    lightest letters of the factor multisets of least weight sum.
    """
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    light, lightest = {}, {}
    for b in _lattice(k)[0][1:]:
        weight = {g: 2 * (sum(v := cf_expand(g)) - len(v)) + 1
                  for g in _letters(b)}
        light[b] = min(weight.values())
        lightest[b] = [g for g, w in weight.items() if w == light[b]]
    cost = {f: sum(light[b] for b in f) for f in _factor_multisets(k, list(light))}
    top = min(cost.values())
    return min(theta(w) for w in _normal_words([f for f in cost if cost[f] == top], lightest.get))


def is_primitive(k: int) -> bool:
    """True iff the minimal essential k-number is a one-letter word.
    k == 1 is primitive by convention (its minimal number is 0)."""
    if k < 1:
        raise ValueError("need k >= 1, got %r" % (k,))
    return k == 1 or is_f_prime(minimal_essential(k))


def stability_count(r: int, k: int) -> int:
    """How many n in [f_r, f_{r+1}) have partition count k.  Stabilizes at
    1 for k == 1 and 2*psi(k) otherwise once r >= 2k.

    One digit count over the strings on indices 1..r (n <= f_{r+1} - 1)
    that accepts digit r a 1 and block product C == k.  C never falls,
    and a 1 placed later gives a C no smaller than a 1 placed now (P <= C),
    so a state is dropped once a 1 now would pass k: the 1 due at index r
    would pass it too.
    """
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")
    return _count_upto(fib(r + 1) - 1,
                       lambda s: None if _digit_step(s, 1)[2] > k else s,
                       lambda key, last: last and key[2] == k)
