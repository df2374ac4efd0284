"""Acceptance suite: fifteen pinned criteria, exact assertions throughout.

Each test prints a single "criterion NN: PASS/FAIL" line (visible with
pytest -s, or in the captured output of a failing test).  Run with

    pytest -v tests/test_acceptance.py

Criteria 3 and 5 were first transcribed with two errors, which the
package's independent brute-force routes exposed:

* criterion 3 pinned 46299 as the nonzero-chi count at x_sum(196418).
  46299 is the count over the window [1, f_26) = [1, 196417]; the
  inclusive count through f_26 = 196418 is 46300, since the literal
  product expansion gives chi(196418) = -1.  The criterion now checks
  46299 at f_26 - 1 against the zero-count recurrence, and 46300 at f_26
  against the product expansion, so an endpoint slip either way fails.
* criterion 5 pinned psi_sigma(9) = 10 and psi_sigma(12) = 10.  The
  totient count over multiplicative partitions of k, the closed form
  psi_sigma(p^2) = 3p(p-1)/2 and the grouping of the essential k-numbers
  by letter multiset all give 9 and 12.  The criterion now pins the
  corrected row and recounts it by that grouping.
"""

import time
from math import isqrt

from fibpart import oracle
from fibpart.chi_analysis import (computed_hull_points, count_zero_chi,
                                  h_rec, hull_points, nonzero_runs, x_sum,
                                  zero_runs)
from fibpart.cli import main
from fibpart.contfrac import word_of
from fibpart.counting import chi, count_F, fib_poly
from fibpart.enumeration import (circle, is_primitive, list_essential,
                                 minimal_essential, psi, psi_sigma,
                                 stability_count)
from fibpart.fibcore import fib, mu_first
from fibpart.orbits import (act_S, act_omega, act_tau, essential_from_m,
                            is_essential, star)


def _report(num, ok, detail=""):
    line = "criterion %02d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    return ok


def test_criterion_01_oracle_equivalence(capsys):
    t0 = time.time()
    bad = next((n for n in range(20001) if fib_poly(n) != oracle.brute_poly(n)), None)
    elapsed = time.time() - t0
    with capsys.disabled():
        ok = _report(1, bad is None and elapsed < 120.0,
                     "n <= 20000, %.1fs" % elapsed)
    assert ok, "first mismatch at n=%r" % (bad,)
    # the CLI front end must agree and exit 0
    assert main(["oracle-check", "20000"]) == 0


def test_criterion_02_signed_count_bounded_and_oracle_checked(capsys):
    N = 200000
    coeffs = oracle.product_chi(N)
    bad = next((n for n in range(N + 1)
                if abs(coeffs[n]) > 1 or chi(n) != coeffs[n]), None)
    with capsys.disabled():
        ok = _report(2, bad is None, "n <= 2*10^5")
    assert ok, "mismatch or out-of-range value at n=%r" % (bad,)


def test_criterion_03_exact_nonzero_count_at_f26(capsys):
    # the window [1, f_26): 46299 nonzero values, the complement of h(26)
    below = x_sum(fib(26) - 1)
    # the inclusive endpoint adds chi(f_26)^2, read off the product expansion
    chi_top = oracle.product_chi(fib(26))[fib(26)]
    through = x_sum(fib(26))
    ok = (below == 46299 == fib(26) - 1 - h_rec(26)
          and chi_top == -1 and through == 46300)
    with capsys.disabled():
        ok = _report(3, ok, "x_sum(f_26 - 1) = %d, pinned 46299; "
                     "x_sum(f_26) = %d, pinned 46300" % (below, through))
    assert ok


def test_criterion_04_psi_table(capsys):
    table = [1, 1, 2, 3, 4, 6, 6, 9, 10, 12, 10, 22, 12, 18, 24, 27, 16, 38, 18, 44]
    ok1 = [psi(k) for k in range(1, 21)] == table
    ok2 = all(len(list_essential(k)) == psi(k) for k in range(1, 31))
    with capsys.disabled():
        ok = _report(4, ok1 and ok2, "table k <= 20, enumeration k <= 30")
    assert ok


def test_criterion_05_psi_sigma_table(capsys):
    pinned = [1, 1, 2, 3, 4, 4, 6, 7, 9, 8, 10, 12, 12, 12, 16, 18, 16, 19, 18, 24]
    got = [psi_sigma(k) for k in range(1, 21)]
    # a second route: group the essential k-numbers by letter multiset
    grouped = [len({tuple(sorted(word_of(n))) for n in list_essential(k)})
               for k in range(1, 21)]
    diffs = ["k=%d: %d (grouped %d) vs pinned %d" % (k, g, e, w)
             for k, (g, e, w) in enumerate(zip(got, grouped, pinned), 1)
             if not g == e == w]
    with capsys.disabled():
        ok = _report(5, not diffs, "; ".join(diffs) if diffs else
                     "table k <= 20, grouping k <= 20")
    assert ok, (
        "commutative class counts disagree with the pinned table at %s"
        % ", ".join(diffs))


def test_criterion_06_essential_classes(capsys):
    ok = (list_essential(5) == (24, 29, 55, 87)
          and list_essential(6) == (37, 42, 45, 50, 144, 231))
    with capsys.disabled():
        ok = _report(6, ok, "classes 5 and 6")
    assert ok


def test_criterion_07_monoid_products(capsys):
    checks = (star(11, 29) == 333 and star(29, 11) == 351
              and circle(8, 63) == 673 and star(8, 63) == 707
              and circle(37, 92) == 4341 and star(37, 92) == 4362
              and star(92, 37) == 4650)
    with capsys.disabled():
        ok = _report(7, checks, "7 pinned products")
    assert ok


def test_criterion_08_minimal_table_and_primitive_list(capsys):
    prim = [1, 2, 3, 5, 7, 8, 11, 13, 18, 17, 19, 21, 23, 29, 27, 34, 31, 37, 41, 47]
    m_table = [0, 3, 8, 24, 58, 63, 152, 168, 401, 406,
               435, 440, 1011, 1050, 1066, 1155, 1160, 2647, 2736, 2752]
    ok1 = [minimal_essential(k) for k in prim] == m_table
    # first twenty primitive k, ordered by minimal value; any k beyond 52
    # has minimal value >= 52^2 - 1 > 2752, so the scan is complete
    pairs = sorted((minimal_essential(k), k) for k in range(1, 53) if is_primitive(k))
    ok2 = [k for _, k in pairs[:20]] == prim
    with capsys.disabled():
        ok = _report(8, ok1 and ok2, "20 minima, 20 primitive k")
    assert ok


def test_criterion_09_stability(capsys):
    ok = all(stability_count(r, k) == 2 * psi(k)
             for k in range(2, 7) for r in range(2 * k, 2 * k + 4))
    ok = ok and all(stability_count(r, 1) == 1 for r in range(2, 13))
    with capsys.disabled():
        ok = _report(9, ok, "k in 2..6 windows, k=1 in r 2..12")
    assert ok


def test_criterion_10_square_root_bound(capsys):
    expected_equality = [0, 3, 8, 24, 63, 168, 440, 1155, 3024, 7920, 20735, 54288]
    equality = []
    bad = None
    for n in range(100001):
        F = count_F(n)
        if F > isqrt(n + 1):
            bad = n
            break
        if F * F == n + 1:
            equality.append(n)
    ok = bad is None and equality == expected_equality
    with capsys.disabled():
        ok = _report(10, ok, "bound n <= 10^5, %d equality points" % len(equality))
    assert ok, "bound fails at %r or equality set %r" % (bad, equality)


def test_criterion_11_zero_count_recurrence(capsys):
    bad = next((r for r in range(26) if count_zero_chi(fib(r) - 1) != h_rec(r)), None)
    with capsys.disabled():
        ok = _report(11, bad is None, "r <= 25")
    assert ok, "mismatch at r=%r" % (bad,)


def test_criterion_12_symmetry_suite(capsys):
    ok = True
    # reflection and count reflection on [f_r - 1, f_{r+1} - 1], r in 2..18
    for r in range(2, 19):
        lo, hi, top = fib(r) - 1, fib(r + 1) - 1, fib(r + 2) - 2
        sign = 1 if r % 2 == 0 else -1
        for n in range(lo, hi + 1):
            if chi(n) != sign * chi(top - n) or count_F(n) != count_F(top - n):
                ok = False
    # plateau of zeros on [2 f_r - 1, f_{r-1} + f_{r+1} - 1]
    for r in range(2, 19):
        if any(chi(n) != 0 for n in range(2 * fib(r) - 1, fib(r - 1) + fib(r + 1))):
            ok = False
    # translation by f_a + f_{a+2}
    for r in range(2, 16):
        for a in range(r, r + 4):
            step = fib(a) + fib(a + 2)
            if any(chi(n) != chi(n + step) for n in range(fib(r))):
                ok = False
    # generator signs, n <= 10^4 where defined
    deg = set()
    r = 0
    while fib(r) - 1 <= 10000:
        deg.add(fib(r) - 1)
        r += 1
    for n in range(10001):
        c = chi(n)
        if chi(act_S(n)) != -c:
            ok = False
        if n >= 1 and chi(act_omega(n)) != c:
            ok = False
        if n not in deg and chi(act_tau(n)) != -c:
            ok = False
    with capsys.disabled():
        ok = _report(12, ok, "reflection, plateau, translation, generator signs")
    assert ok


def test_criterion_13_run_structure(capsys):
    top = fib(18)
    patterns = {(1,), (-1,), (1, -1), (-1, 1),
                (1, 1, -1), (-1, -1, 1), (1, -1, -1), (-1, 1, 1),
                (1, -1, -1, 1), (-1, 1, 1, -1)}
    allowed = {1}
    r = 0
    while fib(r) + 1 <= top:
        allowed.add(fib(r) + 1)
        r += 1
    ok = True
    for run in nonzero_runs(0, top):
        if run.start > 1 and run.start + run.length < top:
            if run.length > 4 or run.values not in patterns:
                ok = False
    for run in zero_runs(0, top):
        if run.start > 1 and run.start + run.length < top:
            if run.length not in allowed:
                ok = False
    with capsys.disabled():
        ok = _report(13, ok, "runs inside (0, f_18)")
    assert ok


def test_criterion_14_essential_characterization(capsys):
    by_predicate = [n for n in range(10001) if is_essential(n)]
    by_enumeration = []
    m = 0
    while True:
        v = essential_from_m(m)
        if v > 10000:
            break
        by_enumeration.append(v)
        m += 1
    by_index_shape = [n for n in range(10001)
                      if n == 0 or (mu_first(n) % 2 == 1 and mu_first(n) >= 3)]
    ok = by_predicate == by_enumeration == by_index_shape
    with capsys.disabled():
        ok = _report(14, ok, "%d essential numbers below 10^4" % len(by_predicate))
    assert ok


def test_criterion_15_hull_vertices(capsys):
    ok = all(hull_points(r) == computed_hull_points(r) for r in (9, 11, 12, 14))
    with capsys.disabled():
        ok = _report(15, ok, "r in {9, 11} odd and {12, 14} even")
    assert ok


def test_density_trend_report(capsys):
    # not a pass/fail criterion: the zero-density climb is reported once
    rs = list(range(6, 27, 4))
    ratios = [(r, h_rec(r) / (fib(r) - 1)) for r in rs]
    monotone = all(b[1] > a[1] for a, b in zip(ratios, ratios[1:]))
    with capsys.disabled():
        print("density trend: " + "  ".join("r=%d %.4f" % t for t in ratios)
              + ("  (monotone rising)" if monotone else "  (NOT monotone)"))
    assert monotone
