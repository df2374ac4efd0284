"""The monoid action on the naturals and the essential numbers.

Three generators act on Zeckendorf index sets and therefore on numbers:

* omega   -- shift every index by +1 or -1 according to the parity of the
             smallest index; an involution away from 0.
* S       -- prepend a fresh smallest index and push the rest up by 2;
             total, injective, never an involution.
* tau     -- an involution defined by peeling S-layers down to one of
             three residual shapes and swapping two of them.

All three preserve the partition count.  Each orbit is represented by its
minimum, the "essential" numbers; these are closed under a shifted-sum
product and correspond one-to-one to words of fractions.
"""

from .contfrac import _word_of, cf_expand
from .counting import decompose
from .fibcore import content, shift_sigma, zeckendorf


def act_omega(n: int) -> int:
    """Shift all Zeckendorf indices of n by +1 (smallest index odd) or -1
    (smallest index even)."""
    if n <= 0:
        raise ValueError("omega is undefined at 0 (empty partition)")
    I = zeckendorf(n)
    step = 1 if I[0] % 2 else -1
    return content(tuple(i + step for i in I))


def _s_indices(I) -> tuple:
    if not I:
        return (1,)
    return (2 - I[0] % 2,) + tuple(i + 2 for i in I)


def act_S(n: int) -> int:
    """Prepend index 1 or 2 (whichever keeps parities alternating) and
    shift the rest up by 2.  act_S(0) == 1."""
    return content(_s_indices(zeckendorf(n)))


def _is_base_form(I) -> bool:
    if not I:
        return False
    if I[0] >= 3:
        return True
    if len(I) < 2:
        return False
    if I[0] == 1:
        return I[1] % 2 == 0
    if I[0] == 2:
        return I[1] % 2 == 1
    return False


def _strip_s(I):
    """Return J with S(J) == I, or None when I is not an S-image."""
    if I == (1,):
        return ()
    if len(I) >= 2 and I[0] in (1, 2) and I[0] == 2 - I[1] % 2:
        return tuple(i - 2 for i in I[1:])
    return None


def act_tau(n: int) -> int:
    """The involution partner of n.

    Peel S-layers until the residual index set is one of the base shapes:
    smallest index >= 3, or a leading 1 before an even index, or a leading
    2 before an odd index.  Swap per the table, then re-apply the peeled
    layers.  Undefined on the orbit of 0 (the numbers f_r - 1), where the
    residual bottoms out with no base shape.
    """
    if n <= 0:
        raise ValueError("tau is undefined at 0")
    I = zeckendorf(n)
    layers = 0
    while not _is_base_form(I):
        J = _strip_s(I)
        if J is None:
            raise ValueError(
                "tau is undefined at %d: the partition reduces to no base "
                "shape (numbers f_r - 1 form the degenerate orbit of 0)" % (n,))
        I = J
        layers += 1
    if I[0] >= 3:
        out = (2 - I[0] % 2,) + tuple(i + 1 for i in I)
    else:
        out = tuple(i - 1 for i in I[1:])
    for _ in range(layers):
        out = _s_indices(out)
    return content(out)


# ---------------------------------------------------------------------------
# essential numbers

def epsilon(multivector) -> tuple:
    """Index set of the minimal number whose multivector is the argument.

    Component entries must all be >= 2.  Block m turns its running
    entry-sum-minus-length into odd indices 2d+1 and is then shifted past
    everything the previous blocks occupied plus one.
    """
    indices = []
    offset = 0
    for A in multivector:
        if not A or any(a < 2 for a in A):
            raise ValueError("component %r has an entry < 2" % (A,))
        d = 0
        for a in A:
            d += a - 1
            indices.append(2 * d + 1 + offset)
        offset += 2 * d + 1
    return tuple(indices)


def theta(word) -> int:
    """Smallest n whose word is the given one; 0 for the empty word."""
    return content(epsilon(tuple(cf_expand(g) for g in word)))


def _is_essential(I) -> bool:
    """is_essential on the Zeckendorf indices I of n."""
    return not I or (I[0] >= 3 and I[0] % 2 == 1)


def is_essential(n: int) -> bool:
    """True iff n is the minimum of its orbit: n == 0 or the smallest
    Zeckendorf index of n is odd and >= 3."""
    return _is_essential(zeckendorf(n))


def essential_from_m(m: int) -> int:
    """The m-th essential number, in increasing order.

    Exact integer form of floor(m*tau) + floor(m*tau^2): shift the
    Zeckendorf indices of m up by 3, except that an odd smallest index
    unfolds into the chain 3, 5, ..., mu_1 + 2.
    """
    if m < 0:
        raise ValueError("need m >= 0, got %r" % (m,))
    if m == 0:
        return 0
    Z = zeckendorf(m)
    if Z[0] % 2 == 0:
        return content(tuple(i + 3 for i in Z))
    head = tuple(range(3, Z[0] + 3, 2))
    tail = tuple(i + 3 for i in Z[1:])
    return content(head + tail)


def m_from_essential(n: int) -> int:
    """Position of an essential number in the increasing enumeration.

    Inverts essential_from_m: an initial chain 3, 5, ..., 2a+1 in the
    Zeckendorf indices refolds into a single index 2a-1, everything after
    it shifts down by 3.
    """
    Z = zeckendorf(n)
    if not _is_essential(Z):
        raise ValueError("%d is not essential" % (n,))
    if n == 0:
        return 0
    if Z[0] == 3:
        a = 1
        while a < len(Z) and Z[a] - Z[a - 1] == 2:
            a += 1
        ls = (Z[a - 1] - 2,) + tuple(i - 3 for i in Z[a:])
    else:
        ls = tuple(i - 3 for i in Z)
    return content(ls)


def star(n1: int, n2: int) -> int:
    """Concatenation product on essential numbers: n1 plus n2 with its
    indices shifted past the top index of n1.  Multiplies partition
    counts; not commutative."""
    I1, I2 = zeckendorf(n1), zeckendorf(n2)
    if not _is_essential(I1):
        raise ValueError("left operand %d is not essential" % (n1,))
    if not _is_essential(I2):
        raise ValueError("right operand %d is not essential" % (n2,))
    return n1 + content(shift_sigma(I2, I1[-1] if I1 else 0))


def is_f_prime(n: int) -> bool:
    """True iff n is essential and its word is a single letter."""
    I, blocks = decompose(n)
    return n > 0 and _is_essential(I) and len(_word_of(blocks)) == 1
