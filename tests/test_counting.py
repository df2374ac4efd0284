import sys
from argparse import Namespace
from functools import reduce
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibpart import counting, oracle
from fibpart.cli import _record
from fibpart.contfrac import format_word, word_of
from fibpart.counting import (assoc_multivector, assoc_vector, canonical_form,
                              chi, continuant, count_F, count_Fh, decompose,
                              fib_poly, poly_D, poly_eval, poly_mul)
from fibpart.fibcore import (_check_two_partition, content, fib,
                             is_two_partition, mu_last, zeckendorf)
from fibpart.orbits import is_essential
from strategies import long_block_numbers

small_vectors = st.lists(st.integers(min_value=1, max_value=6),
                         min_size=1, max_size=7).map(tuple)

# the shape of every decompose block: a first entry >= 1, then entries >= 2
block_vectors = st.builds(lambda a, rest: (a,) + tuple(rest),
                          st.integers(min_value=1, max_value=9),
                          st.lists(st.integers(min_value=2, max_value=9), max_size=12))


# ---------------------------------------------------------------------------
# second and third routes to chi, and the definitional multivector: the
# cross-checks of the production path

def multivector_by_definition(I) -> tuple:
    """assoc_vector(I) sliced along the components of canonical_form(I)."""
    if not I:
        return ()
    alphas = assoc_vector(I)
    out, pos = [], 0
    for block in canonical_form(I):
        out.append(alphas[pos:pos + len(block)])
        pos += len(block)
    return tuple(out)


def poly_by_sequential_product(blocks) -> list:
    """The block product as a left fold of dense schoolbook products."""
    return reduce(poly_mul, map(poly_D, blocks), [1])


def chi_via_poly(n: int) -> int:
    """chi by evaluating the full counting polynomial at t = -1."""
    return poly_eval(fib_poly(n), -1)


def _d_at_minus1(A) -> int:
    """D(A) at t = -1 by tail reduction.

    While the vector is longer than 2: an even last entry drops the last
    two; an odd last entry after an odd one drops the last three; an odd
    last entry after an even one folds into bumping that entry by 1.
    """
    A = list(A)
    while len(A) > 2:
        if A[-1] % 2 == 0:
            del A[-2:]
        elif A[-2] % 2 == 1:
            del A[-3:]
        else:
            A[-2] += 1
            del A[-1]
    if not A:
        return 1
    if len(A) == 1:
        return -(A[0] % 2)
    a1, a2 = A
    return (a1 % 2) * (a2 % 2) + (1 if a2 % 2 == 0 else -1)


def chi_via_reduction(n: int) -> int:
    """chi by the tail-reduction rules applied per simple component."""
    sign = 1
    for A in multivector_by_definition(zeckendorf(n)):
        v = _d_at_minus1(A)
        if v == 0:
            return 0
        sign *= v
    return sign


def test_canonical_form_examples():
    assert canonical_form((3, 8)) == [(3,), (8,)]
    assert canonical_form((3, 5, 10)) == [(3, 5), (10,)]
    assert canonical_form((3, 5, 7, 9)) == [(3, 5, 7, 9)]


def test_canonical_form_block_structure():
    for n in range(1, 3000):
        I = zeckendorf(n)
        blocks = canonical_form(I)
        assert sum(blocks, ()) == I
        for b in blocks:
            assert len({i % 2 for i in b}) == 1
        for left, right in zip(blocks, blocks[1:]):
            gap = right[0] - left[-1]
            assert gap > 0 and gap % 2 == 1


def test_canonical_form_empty_rejected():
    with pytest.raises(ValueError):
        canonical_form(())
    with pytest.raises(ValueError):
        assoc_vector(())


def test_assoc_vector_examples():
    assert assoc_vector((3, 7)) == (2, 3)
    assert assoc_vector((9,)) == (5,)
    assert assoc_vector((1, 3)) == (1, 2)


def test_assoc_multivector_examples():
    assert assoc_multivector((3, 8)) == ((2,), (3,))
    assert assoc_multivector((3, 5, 10)) == ((2, 2), (3,))
    assert assoc_multivector(()) == ()


def test_decompose_matches_the_definition_small():
    assert decompose(0) == ((), ())
    for n in range(20001):
        I = zeckendorf(n)
        assert decompose(n) == (I, multivector_by_definition(I)), n
        assert assoc_multivector(I) == decompose(n)[1]


@given(st.one_of(st.integers(min_value=0, max_value=2 ** 4096), long_block_numbers()))
@settings(max_examples=200, deadline=None)
def test_decompose_matches_the_definition_big(n):
    I = zeckendorf(n)
    assert decompose(n) == (I, multivector_by_definition(I))


def record_from_public_calls(n, with_poly):
    rec = {"n": n, "zeckendorf": list(zeckendorf(n)), "word": format_word(word_of(n)),
           "F": count_F(n), "chi": chi(n), "essential": is_essential(n)}
    if with_poly:
        rec["poly"] = fib_poly(n)
    return rec


def test_record_matches_the_public_calls_small():
    for n in range(20001):
        assert _record(Namespace(n=n, poly=True)) == record_from_public_calls(n, True), n


@given(st.one_of(st.integers(min_value=0, max_value=2 ** 4096), long_block_numbers()))
@settings(max_examples=100, deadline=None)
def test_record_matches_the_public_calls_big(n):
    # the counting polynomial is pinned on the small range; at 4096 bits
    # it takes seconds
    assert _record(Namespace(n=n, poly=False)) == record_from_public_calls(n, False)


def test_record_runs_the_codec_once(codec_calls):
    n = (1 << 200) + 12345
    rec = _record(Namespace(n=n, poly=True))
    assert codec_calls == [n]
    assert rec["zeckendorf"] == list(zeckendorf(n))


@pytest.mark.parametrize("bad, index", [((0, 2), 0), ((3, 3), 3), ((5, 2), 2)])
def test_one_validator_names_the_offending_index(bad, index):
    assert not is_two_partition(bad)
    for check in (_check_two_partition, content, assoc_multivector,
                  canonical_form, assoc_vector):
        with pytest.raises(ValueError, match=r"index %d\b" % index):
            check(bad)


def test_poly_D_examples():
    assert poly_eval(poly_D((2, 3)), 1) == 5
    for q in range(1, 9):
        assert poly_eval(poly_D((2,) * q), 1) == q + 1
    assert poly_D((1, 2)) == [0, 0, 1]


def test_fib_poly_single_fibonacci():
    # the polynomial of f_r is t + t^2 + ... + t^((r-1)//2 + 1)
    for r in range(1, 21):
        top = (r - 1) // 2 + 1
        assert fib_poly(fib(r)) == [0] + [1] * top


def test_fib_poly_base_cases():
    assert fib_poly(0) == [1]
    # 100 has components (2,2) and (3); its polynomial is their product
    assert fib_poly(100) == poly_mul(poly_D((2, 2)), poly_D((3,)))


@given(block_vectors)
@settings(max_examples=300)
def test_packing_lemma(A):
    """On block-shaped vectors every coefficient of D(A) is >= 0 and they
    sum to continuant(A), which the product tree's field width rests on;
    the lowest term is t^len(A), which its prefix stripping rests on.  The
    tree only ever sees decompose blocks, which have this shape."""
    coeffs = poly_D(A)
    assert min(coeffs) >= 0
    assert sum(coeffs) == continuant(A)
    assert coeffs[:len(A) + 1] == [0] * len(A) + [1]


def test_packing_lemma_needs_the_block_shape():
    assert poly_D((1, 1, 1)) == [0, 0, 0, -1]


def _single_index_blocks(sizes):
    """n whose blocks are the one-entry vectors (a,) for a in sizes, so
    that the stripped factor of each is a coefficients long."""
    indices, i = [], 0
    for a in sizes:
        i += 2 * a - 1             # an odd gap, and entry gap//2 + 1 == a
        indices.append(i)
    return content(tuple(indices))


def _cutoff_crossing_sizes():
    # with S the cutoff, the 16 leaves pair into: lists, and one pair
    # packed from two lists (level 1); a list pair, a packed x list pair
    # and two pairs packed from lists (level 2); list x packed and
    # packed x packed (level 3); packed x packed at the root
    S = counting._SMALL_PRODUCT
    quarter = S // 4
    return [1, 2, 2, 3, S + 8, 2, quarter, quarter] + [quarter + 1] * 8


@pytest.mark.parametrize("n", [0, 1, fib(30), fib(31), 100, fib(40) + fib(35),
                               _single_index_blocks(range(40, 1, -1))])
def test_fib_poly_matches_the_sequential_product(n):
    assert fib_poly(n) == poly_by_sequential_product(decompose(n)[1])


def test_fib_poly_crosses_the_cutoff_at_several_levels():
    sizes = _cutoff_crossing_sizes()
    n = _single_index_blocks(sizes)
    blocks = decompose(n)[1]
    assert blocks == tuple((a,) for a in sizes)
    assert fib_poly(n) == poly_by_sequential_product(blocks)


@pytest.mark.parametrize("k", [500, 1000, 2000])
def test_fib_poly_matches_the_sequential_product_powers_of_three(k):
    n = 3 ** k
    assert fib_poly(n) == poly_by_sequential_product(decompose(n)[1])


@given(st.one_of(st.integers(min_value=0, max_value=2 ** 4096), long_block_numbers()))
@settings(max_examples=8, deadline=None)
def test_fib_poly_matches_the_sequential_product_big(n):
    # the sequential product takes about a second at 4096 bits
    assert fib_poly(n) == poly_by_sequential_product(decompose(n)[1])


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int<->str digit limit")
def test_fib_poly_under_the_least_digit_limit():
    n = 3 ** 4000                  # count_F(n) has 833 digits
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        capped = fib_poly(n)
        sys.set_int_max_str_digits(0)
        lifted = fib_poly(n)
    finally:
        sys.set_int_max_str_digits(limit)
    assert capped == lifted
    assert sum(capped) == count_F(n)
    assert poly_eval(capped, -1) == chi(n)


def test_count_F_examples():
    assert count_F(87) == 5
    assert count_F(37) == 6
    for r in range(1, 25):
        assert count_F(fib(r) - 1) == 1


def test_count_Fh():
    assert count_Fh(8, 1) == 1 and count_Fh(8, 2) == 1 and count_Fh(8, 3) == 1
    assert count_Fh(8, 4) == 0
    with pytest.raises(ValueError):
        count_Fh(8, 0)


def test_fib_poly_matches_brute_force_small():
    for n in range(2001):
        assert fib_poly(n) == oracle.brute_poly(n), n


@given(st.integers(min_value=0, max_value=80000))
@settings(max_examples=300)
def test_fib_poly_matches_brute_force_sampled(n):
    assert fib_poly(n) == oracle.brute_poly(n)


def test_lowest_degree_is_part_count_of_minimal_partition():
    for n in range(1, 4000):
        coeffs = fib_poly(n)
        order = next(h for h, c in enumerate(coeffs) if c)
        assert order == len(zeckendorf(n))
        assert coeffs[order] >= 1


def test_chi_examples():
    assert chi(0) == 1
    assert chi(3) == 0
    assert chi(100) == -1


def test_chi_routes_agree_exhaustive():
    for n in range(100001):
        a = chi(n)
        assert a == chi_via_poly(n) == chi_via_reduction(n), n
        assert a in (-1, 0, 1)


@given(st.integers(min_value=0, max_value=10 ** 18))
@settings(max_examples=300)
def test_chi_routes_agree_big(n):
    assert chi(n) == chi_via_poly(n) == chi_via_reduction(n)


def test_chi_parity_matches_count():
    for n in range(20001):
        assert chi(n) % 2 == count_F(n) % 2, n


def test_continuant_bounds_with_equality_cases():
    # for entries >= 2 and weight d = sum(entries) - length <= 20:
    #   d + 1 <= continuant <= f_{d+1}
    # lower equality iff length 1 or all entries 2; upper equality iff the
    # two end entries are <= 3 and every middle entry is exactly 3.
    limit = 20
    checked = 0

    def walk(vec_len, d, dm2, dm1, first, last, mid_all3, all2):
        nonlocal checked
        checked += 1
        val = dm1
        lo, hi = d + 1, fib(d + 1)
        assert lo <= val <= hi
        assert (val == lo) == (vec_len == 1 or all2)
        assert (val == hi) == (first <= 3 and last <= 3 and mid_all3)
        for a in range(2, limit - d + 2):
            if d + a - 1 > limit:
                break
            walk(vec_len + 1, d + a - 1, dm1, a * dm1 - dm2,
                 first, a, mid_all3 and (vec_len == 1 or last == 3),
                 all2 and a == 2)

    for a0 in range(2, limit + 2):
        walk(1, a0 - 1, 1, a0, a0, a0, True, a0 == 2)
    assert checked > 500000


@given(small_vectors)
@settings(max_examples=200)
def test_tail_identity_at_one(v):
    assert continuant(v) == continuant(v[:-1] + (2,)) + (v[-1] - 2) * continuant(v[:-1])


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=5).map(tuple),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=200)
def test_append_twos_identity(v, r):
    lhs = continuant(v + (2,) * r)
    rhs = continuant(v) + r * continuant(v[:-1] + (v[-1] - 1,))
    assert lhs == rhs


@given(st.lists(st.integers(min_value=2, max_value=6), min_size=2, max_size=6).map(tuple))
@settings(max_examples=200)
def test_last_entry_split_identity(v):
    if v[-1] >= 3:
        assert continuant(v) == continuant(v[:-1] + (v[-1] - 1,)) + continuant(v[:-1])
    else:
        assert continuant(v) == continuant(v[:-1]) + continuant(v[:-2] + (v[-2] - 1,))


def test_poly_degree_bounded_by_top_index():
    for n in range(1, 2000):
        assert len(fib_poly(n)) - 1 <= mu_last(n)


@settings(max_examples=200)
@given(st.lists(small_vectors, max_size=300))
@example(decompose(3 ** 20000)[1])          # 4920 blocks
@example(decompose(fib(40000) - 1)[1])
def test_count_of_tree_equals_the_fold(blocks):
    # any vectors, so zero and negative continuants are in the draw too
    assert counting._count_of(blocks) == prod(map(continuant, blocks))
