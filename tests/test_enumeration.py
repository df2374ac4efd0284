from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibpart.contfrac import cf_expand, delta, eval_cf
from fibpart.counting import count_F
from fibpart.enumeration import (bell, circle, cmp_triangle,
                                 commutative_normal_form, commutative_words,
                                 euler_phi, is_primitive, list_essential,
                                 max_essential, minimal_essential,
                                 ordered_bell, psi, psi_sigma,
                                 stability_count, words_with_delta)
from fibpart.fibcore import fib, zeckendorf
from fibpart.orbits import is_essential, star, theta

PSI_FIRST_20 = [1, 1, 2, 3, 4, 6, 6, 9, 10, 12, 10, 22, 12, 18, 24, 27, 16, 38, 18, 44]

# Verified values: the multiset enumeration, the prime-power closed forms
# and the group-by-multiset recount below all agree on this row.  (The
# acceptance suite first pinned 10 and 10 at k = 9 and k = 12, a
# transcription error; it now pins 9 and 12, see its module docstring.)
PSI_SIGMA_FIRST_20 = [1, 1, 2, 3, 4, 4, 6, 7, 9, 8, 10, 12, 12, 12, 16, 18, 16, 19, 18, 24]

PRIMES = [2, 3, 5, 7, 11, 13]


def euler_phi_by_trial_division(n: int) -> int:
    """The totient loop euler_phi ran before the divisor lattice."""
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


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    for n in range(1, 10001):
        assert euler_phi(n) == euler_phi_by_trial_division(n), n
    with pytest.raises(ValueError):
        euler_phi(0)


def test_each_count_factors_k_once(lattice_calls):
    for count in (psi, psi_sigma, list_essential, minimal_essential):
        for k in (1, 12, 360):
            lattice_calls.clear()
            count(k)
            assert lattice_calls == [k], (count.__name__, k)


def test_psi_table():
    assert [psi(k) for k in range(1, 21)] == PSI_FIRST_20


def test_psi_prime_powers():
    for p in PRIMES:
        assert psi(p) == p - 1
        for n in range(1, 5):
            assert psi(p ** n) == (p - 1) * (2 * p - 1) ** (n - 1)


def test_psi_squarefree_products():
    for p, q in [(2, 3), (3, 5), (2, 7)]:
        assert psi(p * q) == ordered_bell(2) * (p - 1) * (q - 1)
    assert psi(2 * 3 * 5) == ordered_bell(3) * 1 * 2 * 4


def test_psi_matches_the_plain_recurrence():
    # the recurrence as first written: every r in 2..k, memoised
    memo = {1: 1}

    def psi_plain(k):
        if k not in memo:
            memo[k] = sum(psi_plain(k // r) * euler_phi(r)
                          for r in range(2, k + 1) if k % r == 0)
        return memo[k]

    for k in range(1, 2001):
        assert psi(k) == psi_plain(k), k


def test_bell_sequences():
    assert [ordered_bell(m) for m in range(9)] == [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]
    assert [bell(m) for m in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_word_enumeration_counts_and_delta():
    for k in range(1, 25):
        words = list(words_with_delta(k))
        assert len(words) == psi(k)
        assert len(set(words)) == len(words)
        for w in words:
            assert delta(w) == k


def test_list_essential_examples():
    assert list_essential(5) == (24, 29, 55, 87)
    assert list_essential(6) == (37, 42, 45, 50, 144, 231)
    assert list_essential(1) == (0,)


def test_list_essential_structure():
    for k in range(1, 31):
        members = list_essential(k)
        assert len(members) == psi(k)
        assert list(members) == sorted(set(members))
        assert members[-1] == max_essential(k)
        for n in members:
            assert is_essential(n) and count_F(n) == k


def test_max_essential_examples():
    assert max_essential(3) == 11
    assert max_essential(5) == 87
    assert max_essential(1) == 0
    for k in range(1, 31):
        assert max_essential(k) == fib(2 * k) - 2
        if k > 1:
            assert max_essential(k) == theta((Fraction(k - 1, k),))


def test_cmp_triangle():
    assert cmp_triangle((3, 3), (3,)) == -1
    assert cmp_triangle((2,), (3,)) == -1
    assert cmp_triangle((2, 3), (2, 3)) == 0
    assert cmp_triangle((3,), (3, 3)) == 1
    assert cmp_triangle((4, 2), (3, 3)) == -1   # rightmost position decides


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple),
       st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple),
       st.lists(st.integers(1, 9), min_size=1, max_size=5).map(tuple))
@settings(max_examples=300)
def test_cmp_triangle_is_an_order(x, y, z):
    assert cmp_triangle(x, y) == -cmp_triangle(y, x)
    assert (cmp_triangle(x, y) == 0) == (x == y)
    if cmp_triangle(x, y) <= 0 and cmp_triangle(y, z) <= 0:
        assert cmp_triangle(x, z) <= 0
    # the sort key of commutative_normal_form puts each pair of letters in
    # this order (a vector with every entry >= 2 is a letter in (0, 1))
    for u, v in ((x, y), (y, z), (x, z)):
        if min(u + v) >= 2:
            gu, gv = eval_cf(u), eval_cf(v)
            want = (gu, gv) if cmp_triangle(u, v) <= 0 else (gv, gu)
            assert commutative_normal_form((gu, gv)) == want


def test_normal_form_examples():
    w = (Fraction(1, 3), Fraction(3, 8))
    assert commutative_normal_form(w) == (Fraction(3, 8), Fraction(1, 3))
    assert commutative_normal_form(()) == ()
    mixed = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 3))
    assert commutative_normal_form(mixed) == (
        Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))


def test_normal_form_minimizes_theta():
    # sorting a word is exactly the ordering with the least theta value
    words = [w for k in (4, 6, 8, 12) for w in words_with_delta(k) if len(w) >= 2]
    for w in words[:60]:
        best = min(theta(p) for p in set(permutations(w)))
        assert theta(commutative_normal_form(w)) == best


def test_circle_examples():
    assert circle(8, 63) == 673
    assert star(8, 63) == 707
    assert circle(37, 92) == 4341
    assert star(37, 92) == 4362
    assert star(92, 37) == 4650
    assert circle(0, 29) == 29
    assert circle(29, 0) == 29


def test_circle_commutative_associative():
    sample = [3, 8, 11, 24, 29, 63]
    for a in sample:
        for b in sample:
            assert circle(a, b) == circle(b, a)
            assert count_F(circle(a, b)) == count_F(a) * count_F(b)
            for c in sample:
                assert circle(circle(a, b), c) == circle(a, circle(b, c))
                assert star(star(a, b), c) == star(a, star(b, c))
    assert star(11, 29) != star(29, 11)


def test_circle_rejects_non_essential():
    with pytest.raises(ValueError):
        circle(4, 3)


def test_commutative_word_counts():
    assert [psi_sigma(k) for k in range(1, 21)] == PSI_SIGMA_FIRST_20
    for k in range(1, 25):
        words = list(commutative_words(k))
        assert len(words) == len(set(words)) == psi_sigma(k)
        for w in words:
            assert delta(w) == k
            assert commutative_normal_form(w) == w


def test_psi_sigma_closed_forms():
    for p in (2, 3, 5):
        assert psi_sigma(p * p) == 3 * p * (p - 1) // 2
    assert psi_sigma(8) == 2 * 1 * (13 * 2 - 5) // 6
    assert psi_sigma(16) == 2 * 1 * (73 * 4 - 45 * 2 + 14) // 24
    for p, q in [(2, 3), (3, 5), (2, 7), (3, 7)]:
        assert psi_sigma(p * q) == bell(2) * (p - 1) * (q - 1)
    assert psi_sigma(2 * 3 * 5) == bell(3) * 1 * 2 * 4


def test_psi_sigma_of_two_to_the_40():
    # a second route, a knapsack over the divisors 2^e: a multiset of m
    # letters of denominator 2^e is one of C(phi(2^e) + m - 1, m)
    ways = [1] + [0] * 40
    for e in range(1, 41):
        phi = 2 ** (e - 1)
        ways = [sum(ways[n - e * m] * comb(phi + m - 1, m) for m in range(n // e + 1))
                for n in range(41)]
    assert psi_sigma(2 ** 40) == ways[40] == 118487640825155


def factor_multisets(k, factors):
    """The walk psi_sigma ran before its divisor DP: the non-increasing
    tuples of factors >= 2, from the increasing list factors, with product k."""
    if k == 1:
        yield ()
        return
    for i in range(len(factors) - 1, -1, -1):
        rest = k // factors[i]
        for tail in factor_multisets(rest, [d for d in factors[:i + 1] if rest % d == 0]):
            yield (factors[i],) + tail


def psi_sigma_by_walk(k: int) -> int:
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    divisors = sorted(set(small + [k // d for d in small]))[1:]
    phi = {b: euler_phi_by_trial_division(b) for b in divisors}
    return sum(prod(comb(phi[b] + m - 1, m) for b, m in Counter(factors).items())
               for factors in factor_multisets(k, divisors))


def test_psi_sigma_matches_the_multiset_walk():
    for k in list(range(1, 2001)) + [720720, 2 ** 40]:
        assert psi_sigma(k) == psi_sigma_by_walk(k), k


def psi_sigma_by_omega(k: int) -> int:
    """A route with no multisets and no knapsack.  Omega(n), the number of
    prime factors of n with multiplicity, is completely additive, so
    f -> Omega f is a derivation of Dirichlet series.  psi_sigma has the
    series prod over b >= 2 of (1 - b^-s)^-phi(b), so Omega(n) f(n) is the
    sum over d | n, d > 1, of h(d) f(n / d), h(d) the sum of Omega(b) phi(b)
    over the b with a power b^j = d."""
    primes, n, p = {}, k, 2
    while n > 1:
        while n % p == 0:
            primes[p], n = primes.get(p, 0) + 1, n // p
        p += 1 if p * p <= n else n - p     # what is left past sqrt is prime
    lattice = [(1, 0, 1)]                   # (d, Omega(d), phi(d))
    for p, e in primes.items():
        lattice = [(d * p ** j, om + j, ph * ((p - 1) * p ** (j - 1) if j else 1))
                   for d, om, ph in lattice for j in range(e + 1)]
    lattice.sort()
    divisors = [d for d, _, _ in lattice]
    h = dict.fromkeys(divisors, 0)
    for b, om, ph in lattice[1:]:
        q = b
        while k % q == 0:
            h[q] += om * ph
            q *= b
    f = {1: 1}
    for i, (n, om, _) in enumerate(lattice[1:], 1):
        total = sum(h[d] * f[n // d] for d in divisors[1:i + 1] if n % d == 0)
        assert total % om == 0
        f[n] = total // om
    return f[k]


def test_psi_sigma_matches_the_omega_derivation():
    for k in range(1, 501):
        assert psi_sigma(k) == psi_sigma_by_omega(k), k
    # 963761198400 has 6720 divisors; the multiset walk did not end in 4 min
    for k, count in ((73513440, 567536117760), (10 ** 12, 2595562554126848),
                     (963761198400, 3002294805455278080)):
        assert psi_sigma(k) == psi_sigma_by_omega(k) == count, k


def test_psi_sigma_counts_commutative_words():
    for k in range(1, 201):
        assert psi_sigma(k) == sum(1 for _ in commutative_words(k)), k


def test_psi_sigma_counts_distinct_letter_multisets():
    # a second route: group the full word enumeration by letter multiset
    for k in range(1, 25):
        multisets = {tuple(sorted((g.numerator, g.denominator) for g in w))
                     for w in words_with_delta(k)}
        assert psi_sigma(k) == len(multisets), k


def test_circle_runs_the_codec_once_per_operand(codec_calls):
    assert circle(8, 63) == 673
    assert codec_calls == [8, 63]


def test_minimal_essential_examples():
    assert minimal_essential(8) == 63
    assert minimal_essential(29) == 1050
    assert minimal_essential(1) == 0


def test_minimal_essential_routes_agree():
    for k in range(1, 31):
        m = minimal_essential(k)
        assert m == min(theta(w) for w in words_with_delta(k))
        assert m == list_essential(k)[0]


def minimal_by_commutative_words(k: int) -> int:
    """The route minimal_essential took before the top-index pruning:
    theta on one normal-form word per letter multiset."""
    return min(theta(w) for w in commutative_words(k))


def test_minimal_essential_matches_every_commutative_word():
    for k in range(1, 201):
        assert minimal_essential(k) == minimal_by_commutative_words(k), k


def test_minimal_essential_matches_every_word_to_40():
    # test_minimal_essential_routes_agree covers k <= 30
    for k in range(31, 41):
        assert minimal_essential(k) == min(theta(w) for w in words_with_delta(k)), k


def letter_weight(g) -> int:
    v = cf_expand(g)
    return 2 * sum(a - 1 for a in v) + 1


letters = st.integers(2, 60).flatmap(
    lambda b: st.integers(1, b - 1).filter(lambda a: Fraction(a, b).denominator == b)
    .map(lambda a: Fraction(a, b)))


@given(st.lists(letters, min_size=1, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_top_index_is_the_order_free_sum_of_letter_weights(word, rng):
    # the lemma behind minimal_essential's pruning
    top = sum(letter_weight(g) for g in word)
    assert zeckendorf(theta(tuple(word)))[-1] == top
    rng.shuffle(word)
    assert zeckendorf(theta(tuple(word)))[-1] == top


def test_minimal_essential_runs_theta_on_few_words(theta_calls):
    # theta on every commutative word would be psi_sigma(840) = 7488 calls
    assert psi_sigma(840) == 7488
    minimal_essential(840)
    assert 0 < len(theta_calls) <= 20


def test_minimal_essential_square_bound():
    fibs = {fib(r) for r in range(1, 12)}
    for k in range(1, 31):
        m = minimal_essential(k)
        assert m >= k * k - 1
        assert (m == k * k - 1) == (k in fibs)


def test_is_primitive_examples():
    assert is_primitive(18)
    assert is_primitive(8)
    assert not is_primitive(4)
    assert is_primitive(1)
    for p in PRIMES:
        assert is_primitive(p)


def test_stability_examples():
    assert stability_count(10, 1) == 1
    assert stability_count(10, 2) == 2
    assert stability_count(12, 6) == 12


def test_stability_settles_at_twice_psi():
    for k in range(2, 7):
        for r in range(2 * k, 2 * k + 4):
            assert stability_count(r, k) == 2 * psi(k), (r, k)
    for r in range(2, 13):
        assert stability_count(r, 1) == 1


def test_stability_count_matches_scan():
    for r in range(1, 21):
        # the count_F scan over [f_r, f_{r+1}) that the DP replaced
        scan = Counter(count_F(n) for n in range(fib(r), fib(r + 1)))
        for k in range(1, 13):
            assert stability_count(r, k) == scan[k], (r, k)


def stability_count_by_window(r: int, k: int) -> int:
    """The window DP that stability_count ran before the digit engine,
    kept as a reference: (gap, P, C) states over the indices 1..r of n,
    index r being a 1, with its own first-1 rule and its own pruning."""
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


def test_stability_count_matches_the_window_dp():
    # r <= 20 is pinned by the scan and r >= 2k by 2*psi(k)
    for r in range(21, 41):
        for k in range((r + 2) // 2, 31):
            assert stability_count(r, k) == stability_count_by_window(r, k), (r, k)


def test_stability_count_at_r_equal_2k():
    assert stability_count(2, 1) == 1
    for k in range(2, 31):
        assert stability_count(2 * k, k) == 2 * psi(k), k
