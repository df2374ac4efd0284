"""Rational numbers as ceiling continued fractions, and words over them.

A vector (a1, ..., aq) with a1 >= 1 and the rest >= 2 evaluates to the
fraction 1/(a1 - 1/(a2 - ... - 1/aq)); the map is a bijection onto the
positive rationals, landing in (0, 1) exactly when a1 >= 2.  Words are
tuples of reduced fractions in (0, 1); the empty tuple is the unit.
Every n maps to a word by evaluating the components of its associated
multivector; the product of the word's denominators recovers the
partition count of n.
"""

import re
from fractions import Fraction
from math import gcd

from .counting import continuant, decompose


def _check_vector_a1(A):
    if not A:
        raise ValueError("empty vector has no fraction value")
    if A[0] < 1 or any(a < 2 for a in A[1:]):
        raise ValueError("vector must have first entry >= 1 and the rest >= 2: %r" % (A,))


def eval_cf(A) -> Fraction:
    """Evaluate a vector to its fraction.

    The numerator and denominator come out coprime by construction, so no
    reduction ever happens inside Fraction.
    """
    _check_vector_a1(A)
    return Fraction(continuant(A[1:]), continuant(A))


def cf_expand(g) -> tuple:
    """Invert eval_cf: the unique vector whose fraction value is g > 0.

    Integer-only ceiling recurrence: repeatedly take a = ceil(b/a) and
    continue with (a*ceil(b/a) - b, a) until the numerator vanishes.
    """
    g = Fraction(g)
    if g <= 0:
        raise ValueError("cf_expand is undefined for %s (need a positive rational)" % (g,))
    a, b = g.numerator, g.denominator
    out = []
    while a:
        alpha = -(-b // a)
        out.append(alpha)
        a, b = a * alpha - b, a
    return tuple(out)


def _word_of(blocks) -> tuple:
    letters = [Fraction(continuant(A[1:]), continuant(A)) for A in blocks]
    if letters:
        letters[0] %= 1
        if not letters[0]:
            del letters[0]
    return tuple(letters)


def word_of(n: int) -> tuple:
    """The word of n: fraction values of its multivector components.

    The first component may evaluate to a fraction >= 1; only its
    fractional part counts, and a whole-number first value contributes no
    letter at all.  word_of(0) is the empty word.
    """
    return _word_of(decompose(n)[1])


def delta(word) -> int:
    """Product of the letter denominators; 1 for the empty word."""
    out = 1
    for g in word:
        out *= g.denominator
    return out


_LETTER_RE = re.compile(r"^(\d+)/(\d+)$")


def format_word(word) -> str:
    """Render a word as 'a/b*c/d*...'; the empty word renders as '1'."""
    if not word:
        return "1"
    return "*".join("%d/%d" % (g.numerator, g.denominator) for g in word)


def parse_word(text: str) -> tuple:
    """Parse the word grammar  word := frac ('*' frac)*  with frac := a/b.

    Strict: every letter must be reduced and lie strictly between 0 and 1.
    The single token '1' denotes the empty word.
    """
    s = text.strip()
    if s == "1":
        return ()
    if not s:
        raise ValueError("empty word text; use '1' for the unit word")
    letters = []
    for part in s.split("*"):
        m = _LETTER_RE.match(part.strip())
        if not m:
            raise ValueError("malformed letter %r (expected digits/digits)" % (part,))
        a, b = int(m.group(1)), int(m.group(2))
        if b == 0:
            raise ValueError("letter %r has denominator 0" % (part,))
        if gcd(a, b) != 1:
            raise ValueError("letter %r is not reduced" % (part,))
        if not 0 < a < b:
            raise ValueError("letter %r is not in (0,1)" % (part,))
        letters.append(Fraction(a, b))
    return tuple(letters)
