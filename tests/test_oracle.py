import inspect

import pytest

from fibpart import oracle
from fibpart.fibcore import fib, zeckendorf


def test_brute_partitions_examples():
    assert oracle.brute_partitions(7) == [(2, 4)]
    assert oracle.brute_partitions(8) == [(1, 2, 4), (3, 4), (5,)]
    assert oracle.brute_partitions(0) == [()]


def test_brute_partitions_are_valid():
    for n in range(300):
        parts = oracle.brute_partitions(n)
        assert len(parts) == len(set(parts))
        for p in parts:
            assert list(p) == sorted(set(p))
            assert all(i >= 1 for i in p)
            assert sum(fib(i) for i in p) == n


def test_brute_partitions_bound():
    for brute in (oracle.brute_partitions, oracle.brute_poly):
        with pytest.raises(ValueError, match=str(oracle.DEFAULT_BOUND)):
            brute(oracle.DEFAULT_BOUND + 1)


def test_brute_poly_examples():
    assert oracle.brute_poly(8) == [0, 1, 1, 1]
    assert oracle.brute_poly(0) == [1]
    for r in range(1, 21):
        top = (r - 1) // 2 + 1
        assert oracle.brute_poly(fib(r)) == [0] + [1] * top


def test_product_chi_prefix():
    assert oracle.product_chi(7) == [1, -1, -1, 0, 1, 0, 0, 1]
    assert oracle.product_chi(0) == [1]


def test_product_chi_never_zero_below_fibonacci():
    coeffs = oracle.product_chi(fib(20))
    for r in range(20):
        assert coeffs[fib(r) - 1] in (-1, 1), r


def test_partition_prefixes_hit_every_greedy_prefix():
    # every partition of n contains a prefix summing to each prefix of the
    # gap->=2 decomposition
    for n in range(2001):
        z = zeckendorf(n)
        targets = []
        acc = 0
        for i in z:
            acc += fib(i)
            targets.append(acc)
        for p in oracle.brute_partitions(n):
            sums = set()
            acc = 0
            for i in p:
                acc += fib(i)
                sums.add(acc)
            for t in targets:
                assert t in sums, (n, p, t)


def test_oracle_is_structurally_independent():
    # the brute-force module must never lean on the closed-form counting path
    source = inspect.getsource(oracle)
    assert "fib_poly" not in source
    assert "counting" not in source
    assert "multivector" not in source
