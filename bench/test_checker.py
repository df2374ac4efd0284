"""Tests of the benchmark's independent checker, inputs and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_checker.py
"""

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest

import checker
import timing
import fibpart
from fibpart import oracle
from tracer import TARGETS, Tracer
from workloads import WORKLOADS


def test_fib_pair_matches_the_package_indexing():
    for k in range(60):
        assert checker.fib_pair(k) == (fibpart.fib(k), fibpart.fib(k + 1))


def test_top_index():
    for n in range(1, 3000):
        k, a, b = checker.top_index(n)
        assert (a, b) == checker.fib_pair(k) and a <= n < b


def test_partition_counts_against_brute_partitions():
    for n in range(1200):
        parts = oracle.brute_partitions(n)
        even = sum(1 for p in parts if len(p) % 2 == 0)
        assert checker.partition_counts(n) == (len(parts), 2 * even - len(parts)), n


def test_partition_counts_against_brute_poly():
    for n in range(800):
        poly = oracle.brute_poly(n)
        assert checker.partition_counts(n) == (sum(poly), checker.poly_at(poly, -1)), n
        assert checker.valuation(poly) == len(fibpart.zeckendorf(n))


def test_tables_against_the_oracle():
    N = 5000
    assert checker.signed_table(N) == oracle.product_chi(N)
    counts = checker.count_table(N)
    for n in range(600):
        assert counts[n] == len(oracle.brute_partitions(n))


def test_partition_counts_agree_with_the_package_below_3000():
    for n in range(3000):
        assert checker.partition_counts(n) == (fibpart.count_F(n), fibpart.chi(n)), n


@pytest.mark.parametrize("bits", [1024, 8192, 32768])
def test_partition_counts_agree_with_the_package_when_large(bits):
    rng = random.Random(bits)
    for n in (rng.getrandbits(bits) | 1 << (bits - 1), 3 ** round(bits / 1.585)):
        assert checker.partition_counts(n) == (fibpart.count_F(n), fibpart.chi(n))


def test_zeckendorf_problem():
    for n in range(3000):
        assert checker.zeckendorf_problem(n, fibpart.zeckendorf(n)) is None
    assert checker.zeckendorf_problem(100, (3, 5, 10)) is None
    assert "gap" in checker.zeckendorf_problem(7, (2, 3))
    assert "sum" in checker.zeckendorf_problem(100, (3, 5, 11))
    assert "positive" in checker.zeckendorf_problem(1, (0,))


def test_psi_and_upper_hull_against_the_package():
    for k in range(1, 300):
        assert checker.psi(k) == fibpart.psi(k)
    for r in (7, 8, 12, 15):
        pts = [(n, fibpart.count_F(n)) for n in range(fibpart.fib(r) - 1, fibpart.fib(r + 1))]
        assert checker.upper_hull(pts) == fibpart.upper_hull(pts)


def test_percentile_and_median():
    vals = list(range(1, 101))
    assert timing.percentile(vals, 50) == 50
    assert timing.percentile(vals, 90) == 90
    assert timing.percentile(vals, 99) == 99
    assert timing.median([3, 1, 2]) == 2
    assert timing.median([4, 1, 2, 3]) == 2.5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    def plan(seed):
        wl = WORKLOADS[name](seed)
        return [wl.plan_round() for _ in range(2)]
    assert plan(3) == plan(3)
    assert plan(3) != plan(4)


def test_point_inputs_are_distinct_and_in_range():
    wl = WORKLOADS["point"](1)
    ns = [n for _ in range(4) for n, _ in wl.plan_round()]
    assert len(ns) == len(set(ns))
    assert all(8 <= n.bit_length() <= 4097 for n in ns)


def test_distinct_widens_when_a_width_runs_out():
    wl = WORKLOADS["point"](1)
    ns = [wl.distinct(lambda rng, bits: 1 << (bits - 1), 3) for _ in range(5)]
    assert ns == [4, 8, 16, 32, 64]


def test_tracer_wraps_every_binding_and_restores_them():
    before = {name: getattr(fibpart, name) for name in ("count_F", "chi", "zeckendorf")}
    classes = fibpart.psi_sigma(12)
    tr = Tracer()
    tr.install()
    try:
        assert fibpart.count_F is not before["count_F"]
        assert fibpart.enumeration.count_F is fibpart.count_F
        tr.enabled = True
        assert fibpart.stability_count(10, 2) == 2 * fibpart.psi(2)
        assert sum(1 for _ in fibpart.enumeration.commutative_words(12)) == classes
        tr.enabled = False
    finally:
        tr.uninstall()
    for name, fn in before.items():
        assert getattr(fibpart, name) is fn
    assert fibpart.counting.count_F is before["count_F"]
    span_f = fibpart.fib(11) - fibpart.fib(10)
    assert tr.pair_calls({"enumeration.stability_count"}, "counting.count_F") == span_f
    assert tr.calls["counting.count_F"] == span_f
    assert tr.calls["enumeration.commutative_words"] == 1
    assert tr.self_ms("enumeration.commutative_words") > 0
    assert all(end >= start for _, start, end, _ in tr.spans)
    assert tr.absent == []


def test_tracer_reports_a_missing_binding_as_absent(monkeypatch):
    monkeypatch.delattr(fibpart.chi_analysis, "upper_hull")
    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["chi_analysis.upper_hull"]
    assert len(TARGETS) > 20
