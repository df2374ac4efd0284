import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibpart import fibcore, oracle
from fibpart.fibcore import (content, fib, is_two_partition, mu_first,
                             mu_last, shift_sigma, zeckendorf)


@pytest.mark.parametrize("i, value", [
    (0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 8), (10, 89), (26, 196418),
])
def test_fib_values(i, value):
    assert fib(i) == value


def test_fib_rejects_negative_index():
    with pytest.raises(ValueError):
        fib(-1)


@pytest.mark.parametrize("n, indices", [
    (0, ()),
    (1, (1,)),
    (24, (3, 7)),
    (100, (3, 5, 10)),
    (55, (9,)),
])
def test_zeckendorf_known(n, indices):
    assert zeckendorf(n) == indices


def test_zeckendorf_round_trip_small():
    for n in range(5000):
        z = zeckendorf(n)
        assert is_two_partition(z)
        assert content(z) == n


@given(st.integers(min_value=0, max_value=10 ** 30))
def test_zeckendorf_round_trip_big(n):
    z = zeckendorf(n)
    assert is_two_partition(z)
    assert content(z) == n


def test_zeckendorf_unique_gap2_partition():
    # among all partitions into distinct Fibonacci numbers, exactly one
    # satisfies the gap >= 2 condition, and the greedy codec finds it
    for n in range(10001):
        gapped = [p for p in oracle.brute_partitions(n) if is_two_partition(p)]
        assert gapped == [zeckendorf(n)], n


def test_content_examples():
    assert content(()) == 0
    assert content((3, 7)) == 24
    assert content((5, 9)) == 63


def test_content_rejects_bad_index_sets():
    with pytest.raises(ValueError):
        content((0, 2))
    with pytest.raises(ValueError):
        content((3, 3))
    with pytest.raises(ValueError):
        content((5, 2))


def test_shift_sigma():
    assert shift_sigma((5, 7), 5) == (10, 12)
    assert shift_sigma((), 9) == ()
    assert shift_sigma((3, 5), 7) == (10, 12)
    with pytest.raises(ValueError):
        shift_sigma((1, 3), -1)


def test_mu_first_last():
    assert (mu_first(24), mu_last(24)) == (3, 7)
    assert (mu_first(0), mu_last(0)) == (0, 0)
    assert (mu_first(55), mu_last(55)) == (9, 9)


def test_prefix_sum_identity():
    # f_1 + ... + f_r == f_{r+2} - 2
    for r in range(1, 41):
        assert sum(fib(i) for i in range(1, r + 1)) == fib(r + 2) - 2


def test_index_addition_identity():
    # f_{a+b} == f_a f_b + f_{a-1} f_{b-1}
    for a in range(1, 31):
        for b in range(1, 31):
            assert fib(a + b) == fib(a) * fib(b) + fib(a - 1) * fib(b - 1)


# ---------------------------------------------------------------------------
# the divide-and-conquer codec against the greedy walk it replaces above
# fibcore._GREEDY_TOP

def _greedy_zeckendorf(n):
    """The greedy largest-fit walk over the whole of n."""
    i = 0
    while fib(i + 1) <= n:
        i += 1
    out = []
    while n:
        if fib(i) <= n:
            out.append(i)
            n -= fib(i)
            i -= 2
        else:
            i -= 1
    return tuple(reversed(out))


# crossovers low enough that the split runs at every size; 3 is the least
# the split takes, as it reads f_{m-2} at m = top // 2
LOW = [3, 64]


@pytest.mark.parametrize("top", LOW)
def test_split_codec_every_small_n(top, monkeypatch):
    monkeypatch.setattr(fibcore, "_GREEDY_TOP", top)
    for n in range(fib(22)):
        assert zeckendorf(n) == _greedy_zeckendorf(n), n


@pytest.mark.parametrize("top, k_max", [(fibcore._GREEDY_TOP, 50000)]
                         + [(top, 20000) for top in LOW])
def test_split_codec_fibonacci_neighbours(top, k_max, monkeypatch):
    monkeypatch.setattr(fibcore, "_GREEDY_TOP", top)
    for k in range(2, k_max + 1, 997):
        for n in (fib(k) - 1, fib(k), fib(k) + 1):
            assert zeckendorf(n) == _greedy_zeckendorf(n), (k, n - fib(k))


def _random_wide(seed):
    rng = random.Random(seed)
    return rng.getrandbits(rng.randrange(1, 40001))


# bit lengths uniform in 1..40000 (integers() alone draws mostly short ones)
wide = st.integers(min_value=0, max_value=2 ** 32).map(_random_wide)


@pytest.mark.parametrize("top", [fibcore._GREEDY_TOP, LOW[-1]])
@settings(max_examples=25, deadline=None)
@given(n=wide)
def test_split_codec_wide(top, n):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibcore, "_GREEDY_TOP", top)
        assert zeckendorf(n) == _greedy_zeckendorf(n)


def test_split_codec_at_the_crossover():
    # top index _GREEDY_TOP is read greedily, _GREEDY_TOP + 1 is split
    top = fibcore._GREEDY_TOP
    rng = random.Random(11)
    ns = [fib(k) + d for k in (top, top + 1, top + 2) for d in (-2, -1, 0, 1, 2)]
    ns += [fib(k) + rng.randrange(fib(k - 1)) for k in (top, top + 1) for _ in range(20)]
    for n in ns:
        assert zeckendorf(n) == _greedy_zeckendorf(n)


def _floor_over_phi(q):
    """floor(q / phi) = floor(q (sqrt(5) - 1) / 2), by an integer square root."""
    return (isqrt(5 * q * q) - q) >> 1


def _shifted_sum(x):
    return sum(fib(j - 1) for j in zeckendorf(x))


def test_shifted_sum_is_floor_over_phi():
    for x in range(10 ** 5):
        assert _shifted_sum(x) == _floor_over_phi(x + 1), x


@settings(max_examples=25, deadline=None)
@given(wide)
def test_shifted_sum_is_floor_over_phi_wide(x):
    q = x + 1
    assert _shifted_sum(x) == _floor_over_phi(q)
    # the fixed point the codec reads it from, at the precision it uses
    P = 2 * q.bit_length() + 2
    assert (q * fibcore._inv_phi(P)) >> P == _floor_over_phi(q)
