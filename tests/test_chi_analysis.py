import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibpart import oracle
from fibpart.chi_analysis import (computed_hull_points, count_zero_chi,
                                  h_rec, hull_points, nonzero_runs,
                                  upper_hull, x_sum, zero_runs)
from fibpart.counting import chi, count_F
from fibpart.fibcore import fib
from strategies import fibonacci_neighbours, long_block_numbers

NONZERO_PATTERNS = {
    (1,), (-1,), (1, -1), (-1, 1),
    (1, 1, -1), (-1, -1, 1), (1, -1, -1), (-1, 1, 1),
    (1, -1, -1, 1), (-1, 1, 1, -1),
}


def test_h_rec_values():
    assert [h_rec(r) for r in range(6)] == [0, 0, 0, 0, 1, 3]
    with pytest.raises(ValueError):
        h_rec(-1)


def test_count_zero_chi_small():
    # zeros below f_5 sit at 3, 5, 6
    assert count_zero_chi(7) == 3
    assert count_zero_chi(4) == 1
    assert count_zero_chi(0) == 0


def test_count_zero_matches_recurrence():
    for r in range(16):
        assert count_zero_chi(fib(r) - 1) == h_rec(r), r


def test_x_sum_complements_direct_scan():
    for N in (0, 7, 50, 300):
        assert x_sum(N) == sum(chi(n) ** 2 for n in range(1, N + 1))
    assert x_sum(7) == 4


def test_zero_runs_lengths():
    top = fib(15)
    allowed = {1}
    r = 0
    while fib(r) + 1 <= top:
        allowed.add(fib(r) + 1)
        r += 1
    runs = zero_runs(0, top)
    for run in runs:
        assert run.kind == "zero"
        assert all(chi(n) == 0 for n in range(run.start, run.start + run.length))
        if run.start > 1 and run.start + run.length < top:
            assert run.length in allowed, run


def test_zero_runs_are_maximal():
    for run in zero_runs(0, 2000):
        if run.start > 1:
            assert chi(run.start - 1) != 0
        if run.start + run.length < 2000:
            assert chi(run.start + run.length) != 0


def test_known_plateau_run():
    # inside (f_r, f_{r+1}) a run of exactly f_{r-4} + 1 zeros starts
    # right after 2 f_{r-1} - 2
    for r in range(8, 16):
        start = 2 * fib(r - 1) - 1
        runs = [x for x in zero_runs(fib(r), fib(r + 1)) if x.start == start]
        assert runs and runs[0].length == fib(r - 4) + 1, r


def test_runs_empty_cases():
    assert zero_runs(0, 3) == []           # chi(1) = chi(2) = -1
    assert nonzero_runs(4, 7) == []        # chi(5) = chi(6) = 0
    with pytest.raises(ValueError):
        zero_runs(5, 5)


def test_nonzero_runs_short_and_patterned():
    top = fib(18)
    for run in nonzero_runs(0, top):
        assert run.kind == "nonzero"
        assert len(run.values) == run.length
        if run.start > 1 and run.start + run.length < top:
            assert run.length <= 4
            assert run.values in NONZERO_PATTERNS, run


def test_length_four_patterns():
    seen = {run.values for run in nonzero_runs(0, fib(18)) if run.length == 4}
    assert seen <= {(1, -1, -1, 1), (-1, 1, 1, -1)}
    assert seen


def test_reflection_symmetry():
    for r in range(2, 16):
        lo, hi, top = fib(r) - 1, fib(r + 1) - 1, fib(r + 2) - 2
        sign = 1 if r % 2 == 0 else -1
        for n in range(lo, hi + 1):
            assert chi(n) == sign * chi(top - n)
            assert count_F(n) == count_F(top - n)


def test_plateau_of_zeros():
    for r in range(2, 16):
        for n in range(2 * fib(r) - 1, fib(r - 1) + fib(r + 1)):
            assert chi(n) == 0


def test_translation_invariance():
    for r in range(2, 13):
        for a in range(r, r + 4):
            step = fib(a) + fib(a + 2)
            for n in range(fib(r)):
                assert chi(n) == chi(n + step)


def test_single_and_double_count_characterizations():
    top = fib(15)
    ones = {n for n in range(top) if count_F(n) == 1}
    twos = {n for n in range(top) if count_F(n) == 2}
    pred_ones, pred_twos = set(), set()
    for r in range(0, 16):
        if fib(r) - 1 < top:
            pred_ones.add(fib(r) - 1)
    for r in range(2, 16):
        if 2 * fib(r) - 1 < top:
            pred_twos.add(2 * fib(r) - 1)
        if fib(r - 1) + fib(r + 1) - 1 < top:
            pred_twos.add(fib(r - 1) + fib(r + 1) - 1)
    assert ones == pred_ones
    assert twos == pred_twos


def test_density_trend():
    # the zero share below f_r grows toward 1
    ratios = [h_rec(r) / (fib(r) - 1) for r in range(8, 26, 3)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.7


def test_upper_hull_basics():
    pts = [(0, 0), (1, 5), (2, 3), (3, 5), (4, 0)]
    assert upper_hull(pts) == [(0, 0), (1, 5), (3, 5), (4, 0)]
    # collinear middle points are dropped
    assert upper_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]


def test_hull_points_match_computed():
    for r in (7, 8, 9, 10, 11, 12, 13, 14):
        assert hull_points(r) == computed_hull_points(r), r


def test_hull_points_self_consistent():
    for r in (9, 12):
        for x, y in hull_points(r):
            assert y == count_F(x)
    with pytest.raises(ValueError):
        hull_points(6)


def test_count_zero_chi_matches_product_expansion():
    top = fib(26) + 1
    # zeros[N]: how many n in [1, N] have a zero coefficient; n = 0 has 1
    zeros = list(accumulate(int(c == 0) for c in oracle.product_chi(top)))
    checked = set(range(3001)) | set(range(0, top + 1, 997))
    checked |= {fib(r) + e for r in range(1, 27) for e in (-1, 0, 1)}
    for N in sorted(checked):
        assert count_zero_chi(N) == zeros[N], N


def test_count_zero_chi_matches_recurrence_past_1000_bits():
    for r in range(201):
        assert count_zero_chi(fib(r) - 1) == h_rec(r), r
    r = 1
    while fib(r) < 2 ** 1000:
        r += 1
    N = fib(r) - 1
    assert x_sum(N) == N - h_rec(r)


@given(st.one_of(st.integers(min_value=1, max_value=2 ** 4096),
                 fibonacci_neighbours, long_block_numbers().filter(bool)))
@settings(max_examples=20, deadline=None)
def test_count_zero_chi_steps_by_the_per_n_kernel(N):
    # the "n <= N" flag at any N: one more zero exactly when chi(N) == 0
    assert count_zero_chi(N) - count_zero_chi(N - 1) == (chi(N) == 0)


def test_x_sum_pinned_values_are_fast():
    for N, want, budget in ((196418, 46300, 0.01), (196417, 46299, 0.01),
                            (2 ** 1000 - 1, None, 1.0)):
        t0 = time.perf_counter()
        got = x_sum(N)
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, (N, elapsed)
        if want is not None:
            assert got == want
