"""Partition-count polynomials and the signed count.

Every n >= 1 factors through its Zeckendorf 2-partition: split the index
set into maximal equal-parity blocks ("simple components"), convert gaps
to an associated vector, and the number of ways to write n as a sum of
distinct Fibonacci numbers with h parts is the t^h coefficient of a
product of tridiagonal-determinant polynomials, one per block.

Polynomials are dense coefficient lists at the interface: index =
degree, trailing zeros trimmed, the zero polynomial is [].  Inside
fib_poly the product across blocks is packed: each factor becomes one
exact Decimal with a fixed-width digit field per coefficient, and a
balanced tree of Decimal products replaces the schoolbook fold on all but
the smallest factors.  All arithmetic is exact.
"""

import sys
from collections import namedtuple
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from math import prod

from .fibcore import _check_two_partition, zeckendorf

# ---------------------------------------------------------------------------
# polynomial helpers

def poly_trim(coeffs):
    """Drop trailing zero coefficients in place and return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_eval(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# canonical decomposition of a 2-partition

def _blocks(I) -> tuple:
    """Gap vectors of the simple components of a 2-partition, in one walk:
    each index i after prev gives (i - prev)//2 + 1, the first one taking
    prev = 1, and an odd gap starts a new component.  I is not validated."""
    blocks, prev = [], 1
    for i in I:
        g = i - prev
        if g & 1 or not blocks:
            cur = []
            blocks.append(cur)
        cur.append(g // 2 + 1)
        prev = i
    return tuple(map(tuple, blocks))


def _digit_step(state, digit):
    """The block rule of _blocks on one Zeckendorf digit, lowest index
    first.  state = (g, P, C): g the gap from the last 1 (a phantom 1 at
    index 1 gives the start (0, 0, 1)), C the product of the block
    continuants so far, P the same with the open block's previous one.  A
    1 with entry a = g//2 + 1 maps (P, C) to (C, a*C) after an odd gap (a
    new block), else to (C, a*C - P); with P == 0 both agree.  At the end
    C is count_F.  The gap->=2 rule is the caller's."""
    g, P, C = state
    if not digit:
        return g + 1, P, C
    a = g // 2 + 1
    return 1, C, a * C if g & 1 else a * C - P


def _count_upto(N, reduce, accept) -> int:
    """How many n in [0, N] end in an accepted state, in one walk over the
    Zeckendorf digits of N.  reduce maps each _digit_step state to the
    key it is tracked by (interned, its two moves memoised), or to None to
    drop it; accept(key, last) judges a whole string.  Each string also
    carries its last digit, so that no 1 follows a 1, and whether it is
    <= N on the indices read so far (a digit below N's sets that flag, one
    above clears it, an equal one keeps it)."""
    top = zeckendorf(N)
    ones = set(top)
    ids, keys, moves = {}, [], []

    def intern(state, last):
        key = reduce(state)
        if key is None:
            return None
        if (key, last) not in ids:
            ids[key, last] = len(keys)
            keys.append((key, last))
            moves.append(None)
        return ids[key, last]

    def move(i):
        key, last = keys[i]
        moves[i] = m = (intern(_digit_step(key, 0), 0),
                        None if last else intern(_digit_step(key, 1), 1))
        return m

    below, above = {intern((0, 0, 1), 0): 1}, {}
    for index in range(1, top[-1] + 1 if top else 1):
        nb, na = {}, {}
        one = index in ones
        for src, le in ((below, True), (above, False)):
            to0 = nb if one or le else na
            to1 = nb if one and le else na
            for s, c in src.items():
                t0, t1 = moves[s] or move(s)
                if t0 is not None:
                    to0[t0] = to0.get(t0, 0) + c
                if t1 is not None:
                    to1[t1] = to1.get(t1, 0) + c
        below, above = nb, na
    return sum(c for s, c in below.items() if accept(*keys[s]))


def decompose(n: int) -> tuple:
    """(indices, blocks): the Zeckendorf indices of n and its associated
    multivector, one gap vector per simple component.  Every per-n
    quantity is computed from this one pass; decompose(0) == ((), ())."""
    I = zeckendorf(n)
    return I, _blocks(I)


def canonical_form(I) -> list:
    """Split a 2-partition into its simple components: maximal runs of
    indices of one parity, separated by odd (hence >= 3) gaps.  Raises on
    the empty partition.  The definition the tests check decompose against.
    """
    if not I:
        raise ValueError("the empty partition has no canonical form")
    _check_two_partition(I)
    blocks = [[I[0]]]
    for prev, i in zip(I, I[1:]):
        if (i - prev) % 2:
            blocks.append([])
        blocks[-1].append(i)
    return [tuple(b) for b in blocks]


def assoc_vector(I) -> tuple:
    """Gap vector of a 2-partition: ((i_1-1)//2 + 1, then gap//2 + 1 each);
    the definition the tests check decompose against."""
    if not I:
        raise ValueError("the empty partition has no associated vector")
    _check_two_partition(I)
    return ((I[0] - 1) // 2 + 1,) + tuple((i - prev) // 2 + 1 for prev, i in zip(I, I[1:]))


def assoc_multivector(I) -> tuple:
    """Associated vector sliced along the simple-component boundaries."""
    _check_two_partition(I)
    return _blocks(I)


# ---------------------------------------------------------------------------
# determinant polynomials

def poly_D(A) -> list:
    """Determinant polynomial of an integer vector.

    D() = 1, D(a) = phi_a, and each further entry a appends
    phi_a * D(prefix) - t^(a+1) * D(prefix-but-one).
    """
    dm2, dm1 = None, [1]
    for r, a in enumerate(A):
        if a < 1:
            raise ValueError("vector entries must be >= 1, got %r" % (a,))
        cur = poly_mul([0] + [1] * a, dm1)     # t + t^2 + ... + t^a
        if r >= 1:
            shift = a + 1
            need = shift + len(dm2)
            if len(cur) < need:
                cur.extend([0] * (need - len(cur)))
            for j, y in enumerate(dm2):
                cur[shift + j] -= y
        dm2, dm1 = dm1, poly_trim(cur)
    return dm1


def continuant(A) -> int:
    """D(A) at t = 1: the continued-fraction denominator a1 - 1/(a2 - ...)."""
    dm2, dm1 = 0, 1
    for a in A:
        if a < 1:
            raise ValueError("vector entries must be >= 1, got %r" % (a,))
        dm2, dm1 = dm1, a * dm1 - dm2
    return dm1


# Products below this many coefficients stay on poly_mul: there the
# schoolbook loop costs less than packing and Decimal set-up.
_SMALL_PRODUCT = 32

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# A factor of the block product as one digit string, width digits per
# coefficient, the top degree first; value is the factor at t = 1.
_Packed = namedtuple("_Packed", "digits length width value")


def _str_safe(width: int) -> bool:
    """Whether str(int) and int(str) may run on width digits under the
    interpreter's int<->str digit limit, which the library leaves as it
    is; Decimal conversions are not subject to it."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return not limit or width <= limit


def _fields(node, width: int) -> str:
    """node as the digits of a _Packed with the given width: a list node
    is packed, a _Packed one is widened by padding each field."""
    if isinstance(node, list):
        coeffs = reversed(node) if _str_safe(width) else map(Decimal, reversed(node))
        return "".join([str(c).zfill(width) for c in coeffs])
    digits, length, w, _ = node
    pad = "0" * (width - w)
    return pad + pad.join([digits[i:i + w] for i in range(0, length * w, w)])


def _product(nodes, lo: int, hi: int):
    """Product of nodes[lo:hi] by a balanced tree.

    A node is a list of nonnegative coefficients or a _Packed.  A large
    product packs both factors with one field width and multiplies them
    as Decimals.  Every coefficient is >= 0 and they sum to the value at
    t = 1, so no product coefficient exceeds the product of the factors'
    values at 1: a width of that many digits holds each, and no field
    carries into the next.  The digits are bounded from the bit length
    (log10 2 < 0.30103), never short and at most one too many.
    """
    if hi - lo == 1:
        return nodes[lo]
    mid = (lo + hi) // 2
    a, b = _product(nodes, lo, mid), _product(nodes, mid, hi)
    small_a, small_b = isinstance(a, list), isinstance(b, list)
    length_a = len(a) if small_a else a.length
    length_b = len(b) if small_b else b.length
    if small_a and small_b and length_a + length_b <= _SMALL_PRODUCT:
        return poly_mul(a, b)
    value = (sum(a) if small_a else a.value) * (sum(b) if small_b else b.value)
    length, width = length_a + length_b - 1, value.bit_length() * 30103 // 100000 + 1
    digits = _EXACT.multiply(Decimal(_fields(a, width)), Decimal(_fields(b, width)))
    return _Packed(str(digits).zfill(length * width), length, width, value)


def _poly_of(blocks) -> list:
    """The product of poly_D over the blocks of decompose (never other
    vectors).  Each factor is taken without its t^len(A) zero prefix, the
    lowest term of D(A) when every entry after the first is >= 2; the
    prefixes come back once, at the end."""
    if not blocks:
        return [1]
    root = _product([poly_D(A)[len(A):] for A in blocks], 0, len(blocks))
    prefix = [0] * sum(map(len, blocks))
    if isinstance(root, list):
        return prefix + root
    digits, length, width, _ = root
    to_int = int if _str_safe(width) else (lambda field: int(Decimal(field)))
    return prefix + [to_int(digits[i - width:i]) for i in range(length * width, 0, -width)]


def fib_poly(n: int) -> list:
    """Counting polynomial of n: coefficient of t^h counts the partitions
    of n into h distinct Fibonacci numbers.  fib_poly(0) == [1]."""
    return _poly_of(decompose(n)[1])


def _count_of(blocks) -> int:
    """The product of the block continuants.  Up to 64 blocks it is a fold;
    past that, runs of 64 are folded and their products multiplied by a
    balanced tree of pairwise products, since a fold of all would multiply
    the growing product by each small factor, quadratic in its length."""
    if len(blocks) <= 64:
        return prod(map(continuant, blocks))
    factors = [prod(map(continuant, blocks[i:i + 64])) for i in range(0, len(blocks), 64)]
    while len(factors) > 1:
        factors = ([a * b for a, b in zip(factors[::2], factors[1::2])]
                   + factors[len(factors) & ~1:])
    return factors[0]


def count_F(n: int) -> int:
    """Number of partitions of n into distinct Fibonacci numbers."""
    return _count_of(decompose(n)[1])


def count_Fh(n: int, h: int) -> int:
    """Number of such partitions with exactly h parts."""
    if h < 1:
        raise ValueError("part count must be >= 1, got %r" % (h,))
    coeffs = fib_poly(n)
    return coeffs[h] if h < len(coeffs) else 0


# ---------------------------------------------------------------------------
# the signed count chi(n) = fib_poly(n) at t = -1

def _chi_of(blocks) -> int:
    sign = 1
    for A in blocks:
        # p tracks D(A[:r]) mod 2, q tracks D(A[1:r]) mod 2
        p0, p1 = 1, A[0] & 1
        q0, q1 = 0, 1
        for a in A[1:]:
            a &= 1
            p0, p1 = p1, (a & p1) ^ p0
            q0, q1 = q1, (a & q1) ^ q0
        if p1 == 0:
            return 0
        if q1:
            sign = -sign
    return sign


def chi(n: int) -> int:
    """Signed partition count, always 0 or +-1.

    Product formula over the simple components: a component with vector A
    contributes 0 when D(A) is even, else +1/-1 by the parity of the
    shifted continuant D(A[1:]).  Only parities are carried.
    """
    return _chi_of(decompose(n)[1])
