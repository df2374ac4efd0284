from fractions import Fraction

import pytest

from fibpart.contfrac import word_of
from fibpart.counting import chi, count_F
from fibpart.enumeration import words_with_delta
from fibpart.fibcore import fib, zeckendorf
from fibpart.orbits import (act_S, act_omega, act_tau, epsilon,
                            essential_from_m, is_essential, is_f_prime,
                            m_from_essential, star, theta)

LIMIT = 10000


def _degenerate(limit):
    """Numbers of the form f_r - 1, where tau has no value."""
    out = set()
    r = 0
    while fib(r) - 1 <= limit:
        out.add(fib(r) - 1)
        r += 1
    return out


def test_omega_examples():
    assert act_omega(1) == 2
    assert act_omega(2) == 1
    assert act_omega(24) == 39          # {3,7} -> {4,8} = 5 + 34


def test_omega_undefined_at_zero():
    with pytest.raises(ValueError):
        act_omega(0)


def test_S_examples():
    assert act_S(0) == 1
    assert act_S(1) == 4
    assert act_S(3) == 9


def test_tau_examples():
    assert act_tau(3) == 6
    assert act_tau(6) == 3
    assert act_tau(8) == 14             # {5} -> {1,6} = 1 + 13


def test_tau_undefined_on_orbit_of_zero():
    for n in (0, 1, 2, 4, 7, 12, 20, 33):
        with pytest.raises(ValueError):
            act_tau(n)


def test_tau_defined_exactly_off_the_degenerate_orbit():
    deg = _degenerate(2000)
    for n in range(2001):
        if n in deg:
            with pytest.raises(ValueError):
                act_tau(n)
        else:
            act_tau(n)


def test_generators_preserve_count():
    deg = _degenerate(LIMIT)
    for n in range(LIMIT + 1):
        F = count_F(n)
        assert count_F(act_S(n)) == F
        if n >= 1:
            assert count_F(act_omega(n)) == F
        if n not in deg:
            assert count_F(act_tau(n)) == F


def test_chi_signs_under_generators():
    deg = _degenerate(LIMIT)
    for n in range(LIMIT + 1):
        c = chi(n)
        assert chi(act_S(n)) == -c
        if n >= 1:
            assert chi(act_omega(n)) == c
        if n not in deg:
            assert chi(act_tau(n)) == -c


def test_involutions():
    deg = _degenerate(LIMIT)
    for n in range(1, LIMIT + 1):
        assert act_omega(act_omega(n)) == n
        if n not in deg:
            assert act_tau(act_tau(n)) == n


def test_generators_commute():
    deg = _degenerate(LIMIT)
    for n in range(LIMIT + 1):
        if n >= 1:
            assert act_omega(act_S(n)) == act_S(act_omega(n))
            if n not in deg:
                assert act_omega(act_tau(n)) == act_tau(act_omega(n))
        if n not in deg:
            assert act_tau(act_S(n)) == act_S(act_tau(n))


def test_epsilon_examples():
    assert epsilon(((3, 3),)) == (5, 9)
    assert epsilon(((2,), (3,))) == (3, 8)
    # derived: content 100, count 9, the minimal number with word 2/3*1/3
    assert epsilon(((2, 2), (3,))) == (3, 5, 10)
    assert theta((Fraction(2, 3), Fraction(1, 3))) == 100
    assert count_F(100) == 9


def test_epsilon_rejects_small_entries():
    with pytest.raises(ValueError):
        epsilon(((1, 2),))
    with pytest.raises(ValueError):
        epsilon(((2,), (3, 1)))


def test_theta_examples():
    assert theta((Fraction(3, 8),)) == 63
    assert theta((Fraction(1, 3),)) == 8
    assert theta(()) == 0
    for k in range(2, 12):
        assert theta((Fraction(k - 1, k),)) == fib(2 * k) - 2


def test_theta_is_minimum_of_its_word_class():
    # one scan finds the first n carrying each word; theta must match it
    # for every word with denominator product at most 8
    first_seen = {}
    for n in range(fib(16) + 1):
        w = word_of(n)
        if w not in first_seen:
            first_seen[w] = n
    for k in range(1, 9):
        for w in words_with_delta(k):
            assert first_seen[w] == theta(w), w


def test_is_essential_examples():
    assert is_essential(0)
    assert is_essential(24)
    assert not is_essential(4)


def test_essential_from_m_examples():
    assert essential_from_m(0) == 0
    assert essential_from_m(1) == 3
    assert essential_from_m(5) == 21    # derived: floor(5*tau) = 8, 16 + 5
    seq = [essential_from_m(m) for m in range(200)]
    assert seq == sorted(seq)
    assert all(is_essential(n) for n in seq)


def test_essential_enumeration_matches_predicate():
    wanted = [n for n in range(LIMIT + 1) if is_essential(n)]
    got = []
    m = 0
    while True:
        v = essential_from_m(m)
        if v > LIMIT:
            break
        got.append(v)
        m += 1
    assert got == wanted


def test_m_from_essential_inverts():
    assert m_from_essential(0) == 0
    assert m_from_essential(3) == 1
    assert m_from_essential(63) == 15   # derived round trip
    for m in range(3000):
        assert m_from_essential(essential_from_m(m)) == m


def test_m_from_essential_rejects_non_essential():
    with pytest.raises(ValueError):
        m_from_essential(4)


def test_star_examples():
    assert star(11, 29) == 333
    assert star(29, 11) == 351
    assert star(0, 29) == 29
    assert star(29, 0) == 29


def test_star_multiplies_counts():
    sample = [0, 3, 8, 11, 24, 29, 55, 63, 87, 100]
    for a in sample:
        for b in sample:
            assert count_F(star(a, b)) == count_F(a) * count_F(b)
            assert is_essential(star(a, b))


def test_star_concatenates_words():
    sample = [3, 8, 11, 24, 29, 63]
    for a in sample:
        for b in sample:
            assert word_of(star(a, b)) == word_of(a) + word_of(b)


def test_star_rejects_non_essential():
    with pytest.raises(ValueError):
        star(4, 3)
    with pytest.raises(ValueError):
        star(3, 5)


def test_is_f_prime_examples():
    assert is_f_prime(8)
    assert not is_f_prime(37)
    assert not is_f_prime(0)


def test_fibonacci_positions_give_one_letter_words():
    # at positions m = f_r the essential number has a one-letter word
    for r in range(1, 15):
        assert is_f_prime(essential_from_m(fib(r)))


def test_one_letter_window():
    # no one-letter words at positions strictly between f_{2r-1} and f_{2r}
    r = 2
    while fib(2 * r) <= 1000:
        for m in range(fib(2 * r - 1) + 1, fib(2 * r)):
            assert not is_f_prime(essential_from_m(m)), m
        r += 1
    # and the head-parity criterion holds for every position up to 1000
    for m in range(1, 1001):
        z = zeckendorf(m)
        expected = all(i % 2 == 0 for i in z[1:])
        assert is_f_prime(essential_from_m(m)) == expected, m


@pytest.mark.parametrize("call, args", [
    (is_f_prime, (9789,)),         # theta of the one letter 34/89
    (m_from_essential, (9789,)),
    (star, (11, 29)),
])
def test_one_codec_run_per_operand(codec_calls, call, args):
    call(*args)
    assert codec_calls == list(args)
